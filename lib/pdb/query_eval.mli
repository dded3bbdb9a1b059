(** Query evaluation over finite probabilistic databases.

    Four interchangeable engines for Boolean first-order queries over
    tuple-independent tables — the "traditional closed-world query
    evaluation algorithm" that the approximation scheme of Proposition 6.1
    invokes on its truncated PDB:

    - {b Enumeration}: sum over all [2^n] worlds.  Exact, exponential;
      the ground-truth oracle.
    - {b Lineage + BDD}: compile the query's lineage, weighted model
      count.  Exact, fast in practice, handles all of FO.
    - {b Safe plan}: lifted inference for unions of conjunctive queries,
      polynomial; [None] on the hard side of the dichotomy, where the
      lineage engine takes over.
    - {b Karp-Luby}: the FPRAS on monotone DNF lineages; relative error
      independent of [P(Q)].  (Plain world sampling lives in
      {!Mc_eval}, which also covers countable spaces.)

    Quantifiers in all engines range over the same fixed domain — the
    active domain of the table's support plus the query's constants — so
    the engines are mutually comparable and cross-checked in the test
    suite.

    All engines also exist for explicit world tables ({!Finite_pdb}). *)

type mc_result = {
  estimate : float;
  std_error : float;
  samples : int;
}

(** {1 Boolean queries on TI tables} *)

val boolean_enum : Ti_table.t -> Fo.t -> Rational.t
(** @raise Invalid_argument if the support exceeds 20 facts or the query
    has free variables. *)

val boolean_bdd :
  ?extra_domain:Value.t list ->
  ?tick:(unit -> unit) ->
  Ti_table.t ->
  Fo.t ->
  Rational.t
(** The lineage engine alone: compile the query's lineage (over the
    active domain plus [extra_domain]) and count it; see {!boolean} for
    the optional arguments. *)

val boolean_safe :
  ?step:(unit -> unit) -> Ti_table.t -> Fo.t -> Rational.t option
(** The lifted (extensional) UCQ engine: independent union / join /
    project and inclusion-exclusion, polynomial time.  [None] when no
    safe plan applies (the hard side of the dichotomy, or outside the
    positive existential fragment).  [step] fires once per plan-rule
    application and may raise to cancel (budget discipline). *)

val safe : Fo.t -> bool
(** The dichotomy router's syntactic test: [Safe_plan.is_safe] — whether
    {!boolean_safe} has a certified plan shape (evaluation can still
    fall back on instance-specific precondition failures). *)

val boolean_karp_luby :
  ?seed:int -> samples:int -> Ti_table.t -> Fo.t -> mc_result option
(** The Karp-Luby FPRAS on the query's monotone DNF lineage: the relative
    error is independent of how small [P(Q)] is (plain MC needs
    [1/P(Q)] samples to even see a hit).  [None] when the lineage is not
    monotone (the query uses negation/implication in an essential way) or
    its DNF exceeds the internal clause bound. *)

val boolean :
  ?extra_domain:Value.t list ->
  ?tick:(unit -> unit) ->
  Ti_table.t ->
  Fo.t ->
  Rational.t
(** The default exact engine: safe plan when applicable, lineage + BDD
    otherwise.  [tick] is forwarded to the BDD manager of the fallback:
    it is called per fresh node and may raise to abort a blow-up (safe
    plans never tick).

    [extra_domain] extends the quantifier domain with additional values.
    Truncation-based callers pass inert padding values here so that
    universally quantified queries are decided as on the countable limit
    space rather than on the bare truncation (the r-equivalence device of
    Proposition 6.1); see {!Anytime} and {!Approx_eval}.  Inert values
    occur in no fact, so the safe-plan fast path — which is only taken
    for positive existential plans — is unaffected by them. *)

(** {1 Shared pieces of the truncation pipeline} *)

val choose_padding :
  ?avoid:(Value.t -> bool) -> Fact.t list -> Fo.t list -> Value.t list
(** [choose_padding facts queries]: the inert padding of Proposition
    6.1's r-equivalence device — [max quantifier_rank] fresh values over
    the [Cmp]-free [queries] (none for [Cmp] queries, which can tell
    inert values apart), occurring in no argument of [facts], among no
    query constant and outside [avoid].  Passing them as
    [~extra_domain] to {!boolean} decides each query as on the countable
    limit space rather than on the bare truncation.  The one padding
    chooser of every truncation-based engine. *)

(** {1 Boolean queries on explicit world tables} *)

val boolean_finite : Finite_pdb.t -> Fo.t -> Rational.t
(** Direct summation; the evaluation domain is the active domain of the
    PDB's fact universe plus the query's constants. *)

(** {1 Queries with free variables (Section 3.1 marginals)} *)

val marginals :
  ?extra_domain:Value.t list ->
  Ti_table.t ->
  Fo.t ->
  (Tuple.t * Rational.t) list
(** [marginals ti phi]: for each valuation [a-bar] of the free variables
    (drawn from the evaluation domain), the probability that [a-bar]
    belongs to the answer — nonzero entries only, in tuple order.
    [extra_domain] is forwarded to {!boolean} for every grounded
    sentence: it pads the quantifier domain, while the free variables
    still range over the evaluation domain alone.
    @raise Invalid_argument beyond 3 free variables (combinatorial
    safety valve). *)

