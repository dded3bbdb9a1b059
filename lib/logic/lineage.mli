(** Boolean provenance (lineage) of first-order sentences.

    Fix a finite alphabet of possible facts [F] (for a finite
    tuple-independent PDB: all facts with positive marginal; for the
    truncation algorithm of Proposition 6.1: the first [n] facts).  Every
    world is a subset of [F], so a sentence [phi] evaluates, over the
    fixed quantification domain, to a Boolean function of the indicator
    variables of the facts.  That function — the lineage — has the same
    probability as [phi], and is computed by weighted model counting
    (see {!Wmc}).

    {b Which values a quantifier ranges over.}  Grounding [exists x. f]
    or [forall x. f] does not expand [f] over the whole domain.  Its
    {e candidates} are, for each atom in [f] that mentions [x], the
    values at [x]'s positions in the facts matching the atom's constants
    and already-bound arguments (looked up in a per-(relation, position)
    index the alphabet builds on first use and {!extend} keeps up to
    date), plus the formula's constants and the values of outer
    variables [x] is equated with.  Every other domain value makes every
    [x]-atom false and decides every equality with [x] alike, so all of
    them ground [f] to the same lineage: one of them, the first in
    domain order, stands for the rest as a single disjunct (under
    [exists]) or conjunct (under [forall]), at its place in domain
    order.  If every value is a candidate there is no representative.
    [x] keeps the whole domain if it occurs in a [Cmp], or in an [Eq]
    with a variable bound inside its scope (in [exists x y. x = y & R(y)]
    a non-candidate [x] reaches [R] through [y]).  The result is the
    whole-domain lineage up to repeated copies of the representative's
    subformula, so it denotes the same Boolean function and has the same
    first-occurrence variable order ({!Wmc.first_occurrence_order}):
    every caller compiles the same ROBDD. *)

type alphabet

val alphabet : Fact.t list -> alphabet
(** Duplicates are collapsed; variable indices are assigned in list
    order (first occurrence). *)

val extend : alphabet -> Fact.t list -> alphabet
(** Append the facts not yet in the alphabet, keeping every existing
    index: [extend (alphabet l) l' = alphabet (l @ l')].  Incremental
    sessions grow their alphabet this way instead of rebuilding it; a
    fact index already built by grounding is extended, not rebuilt. *)

val alphabet_size : alphabet -> int
val facts : alphabet -> Fact.t list
val var_of_fact : alphabet -> Fact.t -> int option
val fact_of_var : alphabet -> int -> Fact.t
(** @raise Invalid_argument on an out-of-range index. *)

val domain : ?extra:Value.t list -> alphabet -> Fo.t -> Value.t list
(** Quantification domain used by {!of_sentence}: the active domain of
    the alphabet's facts, the formula's constants, plus [extra]. *)

val of_sentence : ?extra:Value.t list -> alphabet -> Fo.t -> Bool_expr.t
(** The lineage of a sentence over the domain {!domain}[ ~extra]: each
    quantifier ranges over its candidates plus one representative of
    the other domain values, or over the whole domain where [x] meets a
    [Cmp] or an equality with an inner variable (see above).  Atoms
    naming facts outside the alphabet become [False] (they hold in no
    world over this alphabet).
    @raise Invalid_argument if the formula has free variables. *)

val of_formula :
  ?extra:Value.t list ->
  alphabet ->
  (string * Value.t) list ->
  Fo.t ->
  Bool_expr.t
(** Lineage of a formula under bindings for its free variables; the
    bound values join the domain, and quantifiers range as in
    {!of_sentence}.
    @raise Invalid_argument if a free variable has no binding. *)
