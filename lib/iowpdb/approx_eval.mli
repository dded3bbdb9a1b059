(** Additive approximation of query probabilities on countable
    tuple-independent PDBs — Proposition 6.1 and Figure 1 of the paper.

    Given oracle access to a convergent enumeration of fact probabilities
    (a {!Fact_source.t}) and an error budget [eps], the algorithm:

    + finds the least truncation point [n] whose tail mass [alpha_n]
      satisfies [e^{alpha_n} <= 1 + eps] and [e^{-alpha_n} >= 1 - eps],
      using claim (∗) ([alpha_n = (3/2) * tail mass], sound once every
      remaining probability is below 1/2) — one call to the truncation
      search {!Fact_source.search}, whose classification of the
      certificate is also the error ({!truncation_r});
    + evaluates the query on the finite TI table of the first [n] facts
      with a classical closed-world engine ({!Query_eval});
    + returns that number [p], which satisfies
      [P(Q) - eps <= p <= P(Q) + eps].

    The returned record also carries machine-checked enclosures so
    experiments can display measured-vs-guaranteed error. *)

type result = {
  estimate : Rational.t;  (** [p = P(Q | Omega_n)], exact on the truncation *)
  eps : float;  (** the requested additive budget *)
  n_used : int;  (** facts retained *)
  tail_mass : float;  (** certified bound on the truncated mass *)
  omega_n_bounds : Interval.t;
      (** enclosure of [P(Omega_n)] = probability that no truncated fact
          occurs *)
  bounds : Interval.t;
      (** enclosure of the true [P(Q)] implied by the run:
          [p * P(Omega_n) <= P(Q) <= p * P(Omega_n) + (1 - P(Omega_n))] *)
}

val boolean : ?max_n:int -> Fact_source.t -> eps:float -> Fo.t -> result
(** Quantifiers are evaluated over the truncation's active domain padded
    with [quantifier_rank phi] inert values (the r-equivalence device of
    Proposition 6.1, as in {!Anytime}), so [estimate] is the limit
    conditional probability rather than an artifact of the prefix's
    accidental domain; [Cmp] queries, which can distinguish inert values,
    are evaluated unpadded.
    @raise Invalid_argument if [eps] is outside [(0, 1/2)] (the range of
    Proposition 6.1), the source diverges, or no adequate truncation
    exists below [max_n] (default [2^20]) — the "series may converge
    arbitrarily slowly" caveat of Section 6. *)

(** {1 Result-returning entry points}

    The same algorithm behind a structured-error interface: divergence,
    slow convergence and resource exhaustion come back as data instead of
    [Invalid_argument], and an optional {!Budget.t} governs the run. *)

val boolean_r :
  ?max_n:int ->
  ?budget:Budget.t ->
  Fact_source.t ->
  eps:float ->
  Fo.t ->
  (result, Errors.t) Stdlib.result
(** Like {!boolean}, with classified failures: [Divergent_source] when no
    certificate exists below [max_n], [Budget_exhausted] when the source
    converges too slowly or [budget] runs out (source accesses are
    charged as [Facts]/[Probes], BDD allocations as [Bdd_nodes]); in the
    budget case the error carries the best sound enclosure implied by
    the deepest certified tail.  [Model_invalid] covers bad [eps] and
    malformed sources.  The classical engine compiles into a one-shot
    BDD manager that never collects garbage, so the [Bdd_nodes] cap
    bounds the nodes it allocates. *)

val boolean_lifted_r :
  ?max_n:int ->
  ?budget:Budget.t ->
  Fact_source.t ->
  eps:float ->
  Fo.t ->
  (result, Errors.t) Stdlib.result
(** Like {!boolean_r}, but the classical engine on the truncated prefix
    is the lifted safe-plan UCQ evaluator ({!Query_eval.boolean_safe})
    instead of lineage + BDD: polynomial in the prefix, no knowledge
    compilation.  Plan-rule applications are charged to [budget] as
    [Steps] (the cancellation hook), source accesses as
    [Facts]/[Probes].  Fails with [Model_invalid] when the query has no
    safe plan — the hard side of the dichotomy — which is a property of
    the query, not a transient fault; no inert padding is needed because
    the engine only answers for positive existential UCQs, whose truth
    is invariant under inert domain extensions. *)

val truncation_r :
  ?max_n:int ->
  Fact_source.t ->
  eps:float ->
  (int * float, Errors.t) Stdlib.result
(** The classified truncation search that {!boolean_r},
    {!boolean_lifted_r} and {!marginals} run before they materialize
    the first [n] facts, re-ask the certificate at [n] and evaluate the
    prefix table: one {!Fact_source.search} at [required_tail eps],
    giving the least [n] certifying [eps] with the tail value observed
    there.  A silent certificate is [Divergent_source] (probed to
    [max_n]); one that answers but never within the bound is
    [Budget_exhausted] ("converges too slowly") carrying the enclosure
    its deepest answer implies. *)

(** {1 Certification primitives}

    Shared with the incremental evaluator ({!Anytime}), which re-derives
    the same enclosures step by step. *)

val omega_bounds_of_tail : float -> Interval.t
(** Enclosure of [P(Omega_n)] from a certified tail bound: claim (∗)
    below, trivial 1 above; [\[0,1\]] once the tail reaches 1/2. *)

val enclosure_interval : Interval.t -> Interval.t -> Interval.t
(** Same, from an interval enclosure of [P(Q | Omega_n)] instead of the
    exact rational — the form the anytime evaluator uses, where exact
    per-step rational model counts would be needlessly expensive. *)

val marginals :
  ?max_n:int -> Fact_source.t -> eps:float -> Fo.t ->
  (Tuple.t * Rational.t) list
(** The free-variable extension sketched after Proposition 6.1: ground
    the query over [adom(Omega_n)] and approximate each sentence; each
    returned probability carries the same additive guarantee.  The free
    variables range over the truncation's evaluation domain; quantifiers
    inside each grounded sentence get the inert padding of {!boolean},
    so the probabilities have the limit semantics.  Tuples with estimate
    0 are omitted; a sentence yields at most the empty tuple.
    @raise Invalid_argument like {!boolean}, or beyond 3 free
    variables.

    Paper: the free-variable extension after Proposition 6.1. *)

(** {1 Proposition 6.2 (no multiplicative approximation)} *)

val prop62_witness : first_acceptance:int -> horizon:int -> Fact_source.t
(** The witness family from the proof of Proposition 6.2, made concrete:
    facts [R(k)] / [S(k)] with probability [2^{-k}], where [R(k)] occurs
    (instead of [S(k)]) exactly at [k = first_acceptance] — a decidable
    stand-in for "the Turing machine first accepts at time [t]".
    [P(exists x. R(x)) = 2^{-first_acceptance}] is positive but
    arbitrarily small in the parameter, while any evaluator that inspects
    only a bounded prefix returns 0 — unbounded multiplicative error,
    bounded additive error.  [horizon] caps the enumeration (the finite
    stage [L_{N,t}] of the proof). *)
