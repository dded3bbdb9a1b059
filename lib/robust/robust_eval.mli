(** The resource-governed evaluation supervisor: one entry point that
    runs the degradation ladder {e lifted → exact → anytime →
    Monte-Carlo} under a single shared {!Budget.t}, retries transient faults with
    {!Retry.run}, and always returns the narrowest {e certified}
    enclosure it obtained, together with provenance saying which engines
    ran, why each stopped, and what the budget saw.

    The lifted rung runs first: for queries on the tractable side of
    the Dalvi-Suciu dichotomy it evaluates the certified safe plan on
    the truncated prefix in polynomial time (no knowledge compilation),
    and the exact rung is then usually skipped as already converged;
    queries without a safe plan skip the rung instead.

    Soundness contract: {!answer.enclosure} always contains the true
    [P(Q)].  Each certified rung (lifted/exact truncation, anytime
    session)
    produces a sound enclosure even when interrupted — the engines were
    built so that a budget trip surfaces the last {e completed}
    certificate — and rungs are combined by intersection only for
    [Cmp]-free queries (where {!Fo.has_cmp} says all certificates bound
    the same limit probability); otherwise the narrowest single
    certificate is kept.  The Monte-Carlo rung is statistical, so it only
    refines {!answer.estimate}, never the enclosure.  With no surviving
    certificate the enclosure is the trivial [\[0,1\]] — wide, never
    wrong.

    Determinism: with a [Virtual]-clock budget, the default no-op
    [sleep], and a fixed [seed], the answer {e and} its rendered
    provenance are bit-identical across runs and domain counts, including
    under any {!Faulty_source} schedule. *)

type engine = Lifted | Exact | Anytime | Monte_carlo | Delta

type outcome =
  | Certified of Interval.t  (** the rung completed with this enclosure *)
  | Partial of Interval.t * Errors.t
      (** the rung was cut short (budget) but salvaged this sound,
          wider-than-hoped enclosure *)
  | Estimated of Interval.t * float
      (** Monte-Carlo: a confidence interval and point estimate —
          statistical, kept out of the certified enclosure *)
  | Failed of Errors.t
  | Skipped of string

type attempt = {
  engine : engine;
  tries : int;  (** attempts made, including retries; 0 when skipped *)
  outcome : outcome;
}

type provenance = {
  attempts : attempt list;  (** chronological, one per ladder rung *)
  stopped : string;  (** why the ladder ended *)
  budget : string;  (** {!Budget.describe} after the run *)
}

val provenance_to_string : provenance -> string
(** Multi-line rendering; deterministic (no wall-clock readings). *)

type answer = {
  enclosure : Interval.t;  (** certified; contains the true [P(Q)] *)
  estimate : float;
      (** best point estimate: the Monte-Carlo estimate clamped into the
          enclosure when that rung ran, the enclosure midpoint
          otherwise *)
  provenance : provenance;
}

val answer_to_string : answer -> string

val query :
  ?budget:Budget.t ->
  ?eps:float ->
  ?max_bdd_nodes:int ->
  ?max_facts:int ->
  ?mc_samples:int ->
  ?policy:Retry.policy ->
  ?sleep:(float -> unit) ->
  ?domains:int ->
  ?seed:int ->
  ?rungs:engine list ->
  Fact_source.t ->
  Fo.t ->
  answer
(** Evaluate a Boolean query.  Defaults: [budget] unlimited,
    [eps = 0.01], [mc_samples = 20_000], [policy =
    Retry.default_policy], [sleep] a no-op (pass [Unix.sleepf] to
    actually back off), [domains = 1] (Monte-Carlo parallelism),
    [seed = 0].

    [budget] is shared by the whole ladder: timeouts and global caps set
    on it bound the total run.  [max_bdd_nodes] / [max_facts] are
    {e per-attempt} caps, realized as child budgets, so one rung blowing
    its node cap does not condemn the rungs after it.  A rung whose
    budget trips still contributes its partial certificate.
    [max_bdd_nodes] caps the nodes the exact rung allocates (its
    one-shot manager never collects garbage) and the nodes the anytime
    rung keeps live (its session collects and refunds what it sweeps).

    [rungs] restricts which ladder rungs may run (default: all of
    [Lifted; Exact; Anytime; Monte_carlo]).  This is the serving
    layer's load-shedding knob: under pressure the admission controller
    passes [\[Lifted; Monte_carlo\]] so a request skips compilation
    entirely and pays only a polynomial plan or a reduced sampling run.
    Excluded rungs appear in the provenance as skipped; the soundness
    contract is unchanged (fewer certificates only widen the
    enclosure).

    Never raises on faults or exhaustion — those come back in the
    provenance.  @raise Invalid_argument only on caller errors: [eps]
    outside [(0, 1/2)] or a query with free variables. *)

val query_session : ?eps:float -> Delta_eval.Certified.t -> answer
(** Answer from a live {!Delta_eval} session instead of running the
    ladder: the session already holds the compiled lineage, so the
    answer is one memoized WMC fold over the slice of the diagram the
    last delta dirtied.  The session's interval count is widened by its
    certified tail mass through the same conditional-probability
    argument as the truncation rungs, so {!answer.enclosure} still
    contains the true limit probability; the provenance carries a
    single [Delta] attempt.  [eps] (default [0.01]) only labels the
    stop reason ([converged] versus [tail-limited]) — the enclosure is
    always the narrowest the session certifies.

    The served [Update] path does not use it yet: the resident service
    re-runs the ladder after an update.  Bench E25 and perfbench's trace
    call it to measure what patching a session costs against that.

    @raise Invalid_argument if [eps] lies outside [(0, 1/2)]. *)
