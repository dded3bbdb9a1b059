(** Exact enumeration oracle: ground truth by exhaustive possible-worlds
    summation, with no floats anywhere on the path.

    Every evaluation engine in this repository (exact BDD/WMC, safe
    plans, the truncation approximator, the anytime session, the
    Monte-Carlo estimator, the robust supervisor) shares substantial
    machinery — lineage construction, truncation accounting, the
    classical {!Query_eval} core — so cross-checking them against each
    other cannot expose a systematic bug in that shared substrate.  This
    module is the independent backstop: given a {e truncated prefix} of a
    countable TI / BID / completion space, it enumerates {e all} worlds
    of the prefix, decides the query on each world with its own tiny FO
    model checker (no lineage, no BDDs, no {!Fo_eval}), and sums exact
    {!Rational} masses.  The infinite tail is handled by an exact
    rational enclosure: if [alpha] bounds the mass of the truncated-away
    facts (Lemma 4.3's convergent series), then the probability that any
    tail fact occurs is at most [alpha] (union bound), so

    [cond * (1 - alpha)  <=  P(Q)  <=  cond * (1 - alpha) + alpha]

    where [cond] is the exact prefix-conditional probability computed by
    enumeration — the same shape as Proposition 6.1's truncation
    argument, but entirely in exact arithmetic.  For finite spaces
    [alpha = 0] and the enclosure collapses to the exact answer. *)

(** {1 Universes} *)

type universe
(** A finite, explicitly enumerated probability space of worlds (the
    truncated prefix), plus an exact rational upper bound on the
    probability that some truncated-away fact occurs.  World masses
    always sum to exactly 1 (checked at construction). *)

val of_ti_facts :
  ?tail:Rational.t -> (Fact.t * Rational.t) list -> universe
(** Tuple-independent universe on the given facts: all [2^n] subsets,
    [P(D) = prod_{f in D} p_f * prod_{f not in D} (1 - p_f)].  [tail]
    (default 0) bounds the mass of truncated-away facts.
    @raise Invalid_argument on duplicate facts, probabilities outside
    [\[0,1\]], a negative tail, or more than 2^16 worlds. *)

val of_ti_table : Ti_table.t -> universe
(** Finite table: tail 0. *)

val of_fact_source : Fact_source.t -> n:int -> universe
(** First [n] enumerated facts of the source; the tail bound is the
    source's certificate at [n], converted exactly from its float
    (dyadic) value.  @raise Invalid_argument if the certificate cannot
    answer at [n]. *)

val of_bid_blocks :
  ?tail:Rational.t -> (string * (Fact.t * Rational.t) list) list -> universe
(** Block-independent-disjoint universe: each block contributes one of
    its alternatives or no fact (slack [1 - sum p]); blocks independent.
    @raise Invalid_argument on a repeated fact, block mass above 1, or
    world blow-up.

    Reference: the enumeration oracle tests compare BID engines
    against. *)

val of_bid_table : Bid_table.t -> universe

val of_completion : Completion.t -> n:int -> universe
(** Product of the original table's worlds with the TI universe on the
    first [n] new facts — the Theorem 5.5 product, built world by world;
    the tail bound is the new-fact source's certificate at [n]. *)

(** {1 Inspection} *)

val worlds : universe -> (Instance.t * Rational.t) list
val num_worlds : universe -> int

val mass : universe -> Rational.t
(** Exact sum of world masses — always 1 (the Lemma 4.3 partition
    identity); exposed so tests can watch it hold.

    Reference: an observer for tests. *)

val condition : universe -> (Instance.t -> bool) -> universe
(** Conditional distribution given the event.  Only for fully finite
    universes (tail 0), where conditioning is exact.
    @raise Invalid_argument on a zero-probability event or nonzero
    tail. *)

(** {1 Query evaluation} *)

type semantics =
  | Truncated
      (** quantifiers range over [adom(support) ∪ constants(phi)] — the
          shared domain of the closed-world engines on the same
          truncation ({!Query_eval}) *)
  | Limit
      (** the truncated domain padded with [quantifier_rank phi] fresh
          inert values — the r-equivalence device of Proposition 6.1
          under which a prefix-supported world keeps its truth value on
          every deeper truncation; the semantics targeted by the
          interval-reporting engines *)

val query_prob : ?semantics:semantics -> universe -> Fo.t -> Rational.t
(** Exact [P(Q | no truncated-away fact occurs)]: the sum of the masses
    of the worlds satisfying [Q].  Default semantics: [Truncated]. *)

val marginal : universe -> Fact.t -> Rational.t
(** [P(E_f)] by summation. *)

val expected_size : universe -> Rational.t
(** [E(S_D) = sum_D P(D) * ||D||] by summation — equals [sum_f p_f]
    exactly on TI universes (Corollary 4.7). *)

val size_distribution : universe -> (int * Rational.t) list
(** [(k, P(S_D = k))], ascending, nonzero entries.

    Reference: the enumeration oracle tests compare size distributions
    against. *)

(** {1 Tail enclosures} *)

type enclosure = {
  cond : Rational.t;  (** exact prefix-conditional probability *)
  omega_lo : Rational.t;
      (** exact lower bound on [P(no tail fact)]: [max(0, 1 - tail)] *)
  lo : Rational.t;  (** [cond * omega_lo] *)
  hi : Rational.t;  (** [min 1 (lo + (1 - omega_lo))] *)
}
(** [\[lo, hi\]] encloses the true [P(Q)] of the untruncated space
    whenever the query's truth on a tail-free world is its limit truth —
    i.e. under [Limit] semantics for [Cmp]-free queries, or any
    semantics when the tail is 0 (then [lo = cond = hi]). *)

val enclosure : ?semantics:semantics -> universe -> Fo.t -> enclosure
(** Default semantics: [Limit]. *)

val width : enclosure -> Rational.t
(** [hi - lo] — equal to [min 1 tail], independently of the query, so it
    shrinks monotonically with the truncation depth (the
    interval-narrowing law the fuzzer asserts). *)

val exact : enclosure -> Rational.t option
(** [Some cond] when the enclosure is a point (tail 0).

    Reference: the enumeration oracle's exact value. *)

(** {1 Comparing against engine-reported floats}

    Engine results are floats or outward-rounded float intervals; both
    convert {e exactly} to rationals (every finite float is dyadic), so
    these checks are themselves exact. *)

val float_le_rational : float -> Rational.t -> bool
(** Reference: the exact comparison tests use against the oracle. *)

val rational_le_float : Rational.t -> float -> bool
(** Infinities compare as expected; NaN is never [<=].

    Reference: the exact comparison tests use against the oracle. *)

val interval_contains : lo:float -> hi:float -> Rational.t -> bool
(** Is the exact value inside the reported interval? *)

val interval_overlaps : lo:float -> hi:float -> enclosure -> bool
(** Does the reported interval intersect the oracle enclosure?  Both
    enclose the same true value, so an empty intersection convicts one
    of them. *)
