(** Boolean provenance (lineage) of first-order sentences.

    Fix a finite alphabet of possible facts [F] (for a finite
    tuple-independent PDB: all facts with positive marginal; for the
    truncation algorithm of Proposition 6.1: the first [n] facts).  Every
    world is a subset of [F], so a sentence [phi] evaluates, over the
    fixed quantification domain, to a Boolean function of the indicator
    variables of the facts.  That function — the lineage — has the same
    probability as [phi], and is computed by weighted model counting
    (see {!Wmc}). *)

type alphabet

val alphabet : Fact.t list -> alphabet
(** Duplicates are collapsed; variable indices are assigned in list
    order (first occurrence). *)

val extend : alphabet -> Fact.t list -> alphabet
(** Append the facts not yet in the alphabet, keeping every existing
    index: [extend (alphabet l) l' = alphabet (l @ l')].  Incremental
    sessions grow their alphabet this way instead of rebuilding it. *)

val alphabet_size : alphabet -> int
val facts : alphabet -> Fact.t list
val var_of_fact : alphabet -> Fact.t -> int option
val fact_of_var : alphabet -> int -> Fact.t
(** @raise Invalid_argument on an out-of-range index. *)

val domain : ?extra:Value.t list -> alphabet -> Fo.t -> Value.t list
(** Quantification domain used by {!of_sentence}: the active domain of
    the alphabet's facts, the formula's constants, plus [extra]. *)

val of_sentence : ?extra:Value.t list -> alphabet -> Fo.t -> Bool_expr.t
(** The lineage of a sentence.  Atoms naming facts outside the alphabet
    become [False] (they hold in no world over this alphabet).
    @raise Invalid_argument if the formula has free variables. *)

val of_formula :
  ?extra:Value.t list ->
  alphabet ->
  (string * Value.t) list ->
  Fo.t ->
  Bool_expr.t
(** Lineage of a formula under bindings for its free variables. *)
