(** Domain-parallel Monte-Carlo estimation over countable PDBs — the
    third evaluation engine, beside the exact truncation engine
    ({!Approx_eval}) and the incremental one ({!Anytime}).

    Every world of a countable PDB is almost surely finite (Section 4),
    so it can be drawn; a {!Sampler.t} plan draws from a law within its
    [tv] of the true one.  The caller builds the plan once (each
    countable space, TI or BID, has a [sampler]; a completed table is a
    countable TI PDB, [Completion.source]) and this module turns it
    into an estimator with statistical guarantees:

    - the plan is {e immutable} (prefix facts with float marginals,
      truncated block tables), so worker domains share no mutable
      state;
    - the requested samples are cut into batches of 1024; batch [b]
      runs on [Prng.substream root b], so every batch is a function of
      [(seed, b)] alone and the estimate is {e bit-identical for every
      domain count} — parallelism changes only who executes a batch,
      never what it draws;
    - batches are distributed over OCaml 5 domains through an atomic
      work-stealing counter; per-domain counters (worlds drawn, batch
      latency) are accumulated locally and merged into {!Stats} after the
      join;
    - the returned {!Interval.t} is a Clopper-Pearson interval at the
      requested confidence, {e widened by the truncation total-variation
      bound}: the plan samples a law within its [tv] of the true one,
      so the widened interval covers the true [P(Q)] with the stated
      confidence.

    Boolean queries are evaluated per world over the plan's full active
    domain padded with [quantifier_rank phi] fresh inert values — the
    r-equivalence argument of Proposition 6.1 (same device as {!Anytime})
    — so every sampled world contributes its {e limit} truth value and
    the estimates are directly comparable (and intersectable) with the
    exact engines' enclosures.  Queries using the built-in order [Cmp]
    break inert-value interchangeability; for them the padding is omitted
    and the estimate targets the truncated-table semantics. *)

type result = {
  estimate : float;  (** [hits / samples] *)
  hits : int;
  samples : int;  (** worlds actually drawn (may be below the request) *)
  samples_requested : int;  (** the caller's [~samples] argument *)
  interrupted : bool;
      (** whether a budget truncated the run — either the up-front clamp
          ([Samples] cap / [Virtual] deadline) or worker-side polling on a
          [Wall] deadline.  The statistical fields always describe the
          [samples] worlds actually drawn, so an interrupted result is a
          sound (just wider) answer. *)
  confidence : float;  (** two-sided coverage level of [bounds] *)
  truncation_tv : float;
      (** certified total-variation distance between the sampled
          (truncated-plan) law and the true law; folded into [bounds] *)
  binomial : Interval.t;
      (** the Clopper-Pearson interval for the sampled law alone *)
  bounds : Interval.t;
      (** [binomial] widened by [truncation_tv] on each side and clamped to
          [\[0,1\]]: covers the true probability with probability at
          least [confidence] *)
  domains_used : int;
  batches : int;
  batch_size : int;
  width_trajectory : (int * float) list;
      (** [(samples-so-far, width of bounds)] at up to 24 batch
          boundaries, in batch order — the convergence trajectory *)
}

val boolean :
  ?budget:Budget.t ->
  ?domains:int ->
  ?confidence:float ->
  seed:int ->
  samples:int ->
  Sampler.t ->
  Fo.t ->
  result
(** Estimate [P(Q)] for a Boolean query from the plan's draws, with the
    plan's [tv] folded into [bounds].  Defaults: [domains] =
    [Domain.recommended_domain_count ()], [confidence = 0.99].  The
    plan's [draw] runs concurrently in several domains (it touches only
    immutable data).

    [budget] governs the sampling phase; building the plan, which the
    caller does before any world is drawn, is not charged.  The sample
    count is clamped {e before} the run to what a [Samples] cap or a
    [Virtual] deadline still admits — the partial result is then a
    function of the budget alone, bit-identical across domain counts —
    and worker domains additionally poll {!Budget.ok} between batches so
    a [Wall] deadline stops the run at the next batch boundary.
    Completed work is the contiguous batch prefix, the statistical
    fields are computed over exactly those worlds, and the drawn samples
    are charged as [Samples] units after the run.
    @raise Invalid_argument if the query has free variables, [samples <=
    0] or [confidence] outside [(0,1)].
    @raise Budget.Exhausted if the budget is exhausted on entry or
    admits no samples at all — a partial result needs at least one
    batch. *)
