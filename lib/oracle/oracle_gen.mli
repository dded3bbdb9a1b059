(** Reproducible random instances for the differential fuzzer: schemas,
    TI / BID tables with exact rational probabilities, open-world
    policies, and Boolean FO queries of bounded quantifier rank.

    Everything is drawn from a {!Prng.t}, so a case is a pure function of
    the seed — the fuzzer's bit-reproducibility rests on this module
    never consulting any other source of randomness. *)

type config = {
  max_relations : int;  (** relations in a random schema (default 3) *)
  max_arity : int;  (** default 2 *)
  max_facts : int;  (** facts in a random TI table (default 6) *)
  max_blocks : int;  (** blocks in a random BID table (default 3) *)
  max_alts : int;  (** alternatives per block (default 3) *)
  max_rank : int;  (** quantifier rank of random queries (default 3) *)
  max_connectives : int;  (** size budget of random queries (default 7) *)
  allow_negation : bool;  (** default true *)
  denominator : int;  (** probabilities are [k/denominator] (default 16) *)
}

val default : config

val value_pool : Value.t list
(** The constants tables and queries draw from (small ints and
    strings). *)

val schema : config -> Prng.t -> Schema.t
(** 1 to [max_relations] relations named [R], [S], [T], ... with random
    arities in [1, max_arity]. *)

val ti_facts : config -> Prng.t -> Schema.t -> (Fact.t * Rational.t) list
(** Distinct facts over the schema with probabilities
    [k/denominator], [1 <= k <= denominator]. *)

val ti_table : config -> Prng.t -> Schema.t -> Ti_table.t

val bid_blocks :
  config -> Prng.t -> Schema.t -> (string * (Fact.t * Rational.t) list) list
(** Distinct facts across blocks; each block's mass is at most 1, with
    nonzero slack left most of the time. *)

val bid_table : config -> Prng.t -> Schema.t -> Bid_table.t

val mutations :
  config ->
  Prng.t ->
  Schema.t ->
  table:Ti_table.t ->
  len:int ->
  Delta_eval.delta list
(** A seed-pure random update sequence of length [len] against [table]:
    inserts (biased toward occasionally-fresh constants, so the
    incremental engine's delta-join path fires), deletes of present and
    absent facts, reweights including to zero, recognized no-ops
    (reweight to the current marginal), and inverse pairs (a delta
    immediately followed by the delta that undoes it).  Deltas later in
    the sequence are drawn against the table state produced by the
    earlier ones. *)

val policy_relation : string
(** The reserved relation name ("N") open-world policies enumerate new
    facts over; generated schemas never use it. *)

val policy : config -> Prng.t -> Completion.policy
(** A random open-world policy; its new facts are
    [Completion.policy_source]'s [N(j)]. *)

val sentence : config -> Prng.t -> Schema.t -> Fo.t
(** A closed Boolean formula over the schema (atoms, equality, optional
    comparisons, Boolean connectives, quantifiers up to [max_rank]). *)

val positive_sentence : config -> Prng.t -> Schema.t -> Fo.t
(** Negation- and implication-free — monotone in the facts, so the
    probability-monotonicity law applies. *)
