(** Countable tuple-independent probabilistic databases — the central
    construction of the paper (Section 4.1, Proposition 4.5,
    Theorem 4.8).

    Given a convergent family of fact probabilities [(p_f)], the measure

    [P({D}) = prod_{f in D} p_f * prod_{f in F_omega - D} (1 - p_f)]

    is a probability measure on the countable set of finite subsets of
    [F_omega] (Lemma 4.3) realizing the given marginals independently
    (Lemma 4.4).  This module computes with that measure: exact prefix
    factors, certified two-sided enclosures of infinite products (via
    claim (∗)), exact marginals, expected size (Corollary 4.7), truncation
    to finite TI tables, and a sampling plan within a certified TV
    distance of the measure.

    [create] enforces Theorem 4.8: a source without a finite tail
    certificate is rejected — such marginals admit no tuple-independent
    PDB at all (Lemma 4.6, via Borel-Cantelli).  That test, the prefix
    the {!sampler} draws, and the truncation point for a tail budget all
    come from the one truncation search, {!Fact_source.search}; [truncate]
    slices the prefix it finds. *)

type t

val create : Fact_source.t -> t
(** @raise Invalid_argument if the source does not certify convergence
    (Theorem 4.8's necessity direction). *)

val create_r : Fact_source.t -> (t, Errors.t) result
(** {!create} with the rejection as data: [Divergent_source] instead of
    [Invalid_argument]. *)

val source : t -> Fact_source.t

val marginal : t -> Fact.t -> Rational.t option
(** [P(E_f) = p_f]; [None] when the fact was not found within the
    enumeration scan bound (unknown, possibly 0).

    Paper: Lemma 4.4 (P(E_f) = p_f). *)

val expected_size_bounds : t -> n:int -> float * float
(** Two-sided bounds on [E(S_D) = sum_f p_f] from the first [n] terms
    plus the tail certificate (equation (5), Corollary 4.7); the upper
    bound is [infinity] where the certificate does not answer at [n]. *)

val instance_prob_bounds : t -> n:int -> Instance.t -> Interval.t
(** Enclosure of [P({D})] using the first [n] enumerated facts exactly
    and claim (∗) on the tail; where the certificate does not answer at
    [n] the tail's factor is only known to lie in [\[0, 1\]].  All facts
    of [D] must lie within the first [n]; @raise Invalid_argument
    otherwise (increase [n]).

    Paper: claim (∗) of Section 4.1. *)

val instance_prob_prefix : t -> n:int -> Instance.t -> Rational.t
(** The exact finite part
    [prod_{f in D} p_f * prod_{f in first-n - D} (1-p_f)]: the
    probability that the world agrees with [D] on the first [n] facts.
    Monotonically decreasing in [n], with limit [P({D})].

    Paper: the finite products of Lemma 4.4. *)

val empty_world_prob_bounds : t -> n:int -> Interval.t
(** Enclosure of [P({})] = [prod (1 - p_f)]; positive iff no [p_f = 1]
    and the series converges — the quantity behind [P1({}) > 0] in the
    proof of Theorem 5.5.

    Paper: P({}) > 0 in the proof of Theorem 5.5. *)

val truncate : t -> n:int -> Ti_table.t
(** Paper: the first-n truncation of Proposition 6.1. *)

val sampler : t -> Sampler.t
(** The sampling plan: the facts before {!Sampler.cut} of the tail
    certificate, each drawn as an independent Bernoulli (float
    marginals; sub-ulp bias).  Its [tv] is the certified tail at the
    cut; worlds are almost surely finite either way (the paper's
    Section 3.2).  Built eagerly, so draws are domain-safe.
    @raise Invalid_argument if the certificate answers at no depth up
    to {!Sampler.max_depth}.

    Paper: Lemma 4.4 (the product measure drawn fact by fact). *)

val partition_prefix_sum : t -> n:int -> Rational.t
(** [sum_{D subseteq first-n facts} P_n({D})] where [P_n] uses only the
    first [n] factors — exactly 1 for every [n] (the finite core of
    Lemma 4.3); exposed so tests and benches can watch the identity hold
    exactly as [n] grows. *)
