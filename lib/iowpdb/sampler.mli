(** Sampling plans for countable PDBs, and empirical measurements over
    them.

    Every world of a countable TI or BID PDB is almost surely finite
    (Section 3.2, Lemma 4.4, Theorem 4.15), so a space is sampled by
    drawing independently up to a certified cut: the law drawn from is
    within the tail at the cut of the true one in total variation (the
    Proposition 6.1 truncation, read as a TV bound).  A plan ({!t}) is
    that cut made once: {!Countable_ti.sampler} and
    {!Countable_bid.sampler} build it, and {!Mc_eval}, the CLI, the
    bench and the tests draw from it.  The helpers below estimate
    marginals and independence gaps from repeated draws of any world
    sampler (a plan's [draw], [Ti_table.sample], ...); draw [i] runs on
    [Prng.substream] [i] of the seed generator, so it is a function of
    [(seed, i)] alone. *)

type t = {
  draw : Prng.t -> Instance.t;
      (** one world; touches only immutable data, so it is safe to call
          from several domains at once *)
  tv : float;
      (** bound on the total-variation distance between the law of
          [draw] and the true law *)
  support : Fact.t list;  (** every fact [draw] can emit *)
}

val tail_cut : float
(** [2^-20]: the tail mass a cut aims for, and the in-block mass below
    which a BID plan drops a block's remaining alternatives. *)

val max_depth : int
(** 4096: the most terms (prefix facts, blocks, or alternatives of one
    block) a plan keeps. *)

val cut : what:string -> (int -> float option) -> int * float
(** [cut ~what tail] is [(n, tail n)] for the least [n] with
    [tail n <= tail_cut]; when the certificate answers but never that
    low within [max_depth] terms, the deepest answered probe (its tail,
    then, is the plan's TV cost).  The one truncation search,
    {!Fact_source.search}, does the probing.
    @raise Invalid_argument naming [what] if no probe answers. *)

val estimate_marginal :
  seed:int -> samples:int -> (Prng.t -> Instance.t) -> Fact.t -> float
(** Fraction of sampled worlds holding the fact. *)

val independence_gap :
  seed:int ->
  samples:int ->
  (Prng.t -> Instance.t) ->
  Fact.t ->
  Fact.t ->
  float
(** [|P-hat(f and g) - P-hat(f) * P-hat(g)|] on a shared sample: an
    empirical check of Lemma 4.2 / Definition 4.11(2). *)

val exclusivity_violations :
  seed:int ->
  samples:int ->
  (Prng.t -> Instance.t) ->
  (Fact.t -> string option) ->
  int
(** Number of sampled worlds containing two facts of the same block —
    must be 0 for a BID sampler (Definition 4.11(1)). *)
