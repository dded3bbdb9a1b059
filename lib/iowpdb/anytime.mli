(** Incremental anytime evaluation of Boolean queries on countable
    tuple-independent PDBs.

    {!Approx_eval.boolean} is batch-style: it picks the truncation depth
    [n(eps)] from the tail certificate up front, builds the truncated
    table, and compiles one BDD from scratch — every tighter [eps] redoes
    all the work.  An {!t} session instead deepens the truncation prefix
    step by step over one certified delta session
    ({!Delta_eval.Certified}), so the knowledge-compilation work carries
    over between steps:

    - the session's one {!Bdd.manager} lives for the whole run, so unique
      table, apply cache and negation cache carry over — recompiling a
      grown lineage hits the caches for every sub-function already built;
    - each step's new facts enter as one batch
      ([Delta_eval.Certified.extend]): the fact alphabet of Proposition
      6.1 is appended to (variable [i] is the [i]-th enumerated fact at
      every step) under a stable newest-first variable order;
    - for sentences that are a pure quantifier chain over a
      quantifier-free matrix (the common [exists x1...xk. psi] /
      [forall x1...xk. psi] shapes), a step only compiles the {e delta}
      lineage — the ground instances that mention a fresh domain value —
      and disjoins/conjoins it onto the previous BDD.  When fresh facts
      could retroactively change old ground atoms (all their arguments
      were already in the evaluation domain), the step falls back to a
      full recompile in the shared manager, which is always sound.

    After every step the session emits a certified {!Interval.t}
    enclosure of [P(Q)] (same claim-(∗) argument as {!Approx_eval}).
    Because the classical engines evaluate over the active domain of the
    truncated table — a semantics that moves as the prefix deepens — the
    session evaluates each step over the prefix domain padded with
    [quantifier_rank phi] fresh inert values, realizing the r-equivalence
    argument behind Proposition 6.1: a world supported inside the prefix
    then evaluates identically over every larger domain, so all per-step
    enclosures bound the {e same} limit probability and intersecting them
    is sound.  The reported interval is that running intersection, hence
    monotonically narrowing.  Queries using the built-in order [Cmp]
    break the interchangeability of inert values; they are evaluated
    unpadded over the prefix's active domain, exactly as
    {!Approx_eval.boolean} evaluates them, each step's interval is a
    certificate about that step's truncated semantics only, and no
    intersection is performed.

    The session stops as soon as the width is at most [2 * eps], or the
    prefix reaches [max_n] facts, or its {!Budget.t} trips (steps, BDD
    nodes, deadline), or the enumeration is exhausted
    (in which case the answer is exact up to outward rounding). *)

type stop_reason =
  | Converged  (** interval width reached [2 * eps] *)
  | Exhausted
      (** the enumeration ended: the final interval is exact up to
          outward rounding *)
  | Prefix_budget  (** [max_n] facts reached before convergence *)
  | Interrupted of Budget.exhaustion
      (** the session's {!Budget.t} tripped (deadline, work-unit cap, or
          cancellation); the running {!bounds} keep the last completed
          step's certified enclosure *)

val stop_reason_to_string : stop_reason -> string

type step = {
  index : int;  (** 1-based step number *)
  n : int;  (** truncation depth after this step *)
  tail : float option;  (** best certified tail bound at [n] *)
  estimate : Interval.t;
      (** certified enclosure of [P(Q | Omega_n)] on the prefix, computed
          with the outward-rounding interval carrier (exact rational
          counts would go cubic in [n] on slowly-decaying sources) *)
  bounds : Interval.t;
      (** certified enclosure of [P(Q)]; monotonically narrowing across
          steps (for [Cmp]-free queries — see the module comment) *)
  width : float;  (** [Interval.width bounds] *)
  bdd_size : int;  (** nodes reachable from the current lineage root *)
  incremental : bool;
      (** whether the delta path was taken (as opposed to a recompile in
          the shared manager) *)
  stats : Stats.snapshot;
      (** instrumentation deltas for this step: BDD cache traffic, source
          pulls, certificate probes, wall-clock *)
}

type t

val create :
  ?eps:float ->
  ?max_n:int ->
  ?growth:(int -> int) ->
  ?budget:Budget.t ->
  Fact_source.t ->
  Fo.t ->
  t
(** A fresh session.  Defaults: [eps = 0.01], [max_n = 2^20], [growth]
    doubles the prefix
    ([n -> max (n+1) (2n)]).  [growth] must be strictly increasing; its
    result is clamped to [max_n].

    When [budget] is given, every step charges one [Steps] unit, source
    accesses charge [Facts]/[Probes], and each fresh BDD node charges
    one [Bdd_nodes] unit; exhaustion at any of these points stops the
    session with [Interrupted] — never an exception — and the bounds of
    the last {e completed} step remain the session's certified
    enclosure.

    The session's shared BDD manager is a {!Delta_eval} session's: it
    registers the current lineage diagram as a GC root and collects
    after a step once 2^16 nodes have been allocated since the last
    sweep, so the live node count — what {!node_count} and the
    [Bdd_nodes] budget observe — stays proportional to the current
    diagram instead of growing with every node ever built; swept nodes
    are refunded to [budget].
    @raise Invalid_argument if [eps] is outside [(0, 1/2)] or the query
    has free variables. *)

val run : t -> stop_reason * step list
(** Deepen the prefix and re-certify, one step at a time, until the
    session stops; returns the reason and the full (chronological) step
    history, including steps taken before the call.  A stopped session
    takes no further step. *)

val last_step : t -> step option

val current_n : t -> int

val node_count : t -> int
(** Live nodes in the session's shared manager (allocated and not yet
    garbage-collected). *)

val bounds : t -> Interval.t
(** The running certified enclosure of [P(Q)] — [\[0,1\]] before the
    first completed step, the last step's [bounds] afterwards.  Valid at
    any moment, including after an [Interrupted] stop: the anytime
    guarantee the robust supervisor relies on. *)
