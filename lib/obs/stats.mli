(** Lightweight instrumentation: named monotone counters and wall-clock
    timers behind a process-global registry.

    The hot paths of the system (BDD apply caches, fact-source pulls,
    query-engine dispatch) bump counters created once at module
    initialisation, so the per-event cost is a single atomic-int
    increment — cheap enough to leave on unconditionally.  Consumers
    (the anytime evaluator, the CLI's [--stats] flag, the bench harness)
    read the registry through {!snapshot} and report deltas.

    Every operation is safe to call from any domain: counters and timers
    are [Atomic]-backed (no increment is ever dropped under concurrent
    bumps — the batched evaluator's worker domains rely on this), and the
    registry's create-or-lookup, snapshot and reset paths serialise on an
    internal mutex that is never taken per event.

    No dependencies beyond the standard library and [Unix] (for the
    wall clock). *)

type counter
type timer

val counter : string -> counter
(** Create-or-lookup by name: calling [counter n] twice returns the same
    underlying counter.  Names are conventionally dotted
    ([subsystem.event], e.g. ["bdd.apply_hit"]). *)

val incr : counter -> unit
val add : counter -> int -> unit

val count : counter -> int
(** Current value (monotone). *)

val timer : string -> timer
(** Create-or-lookup, like {!counter}.  A timer accumulates wall-clock
    seconds over all {!time} invocations. *)

val time : timer -> (unit -> 'a) -> 'a
(** Run the thunk, adding its wall-clock duration to the timer.
    Exception-safe: the duration is recorded even if the thunk raises. *)

val add_elapsed : timer -> float -> unit
(** Credit a duration measured elsewhere (e.g. a worker domain that
    accumulated time locally and merges it after the join; direct
    concurrent credits are also safe — the accumulate is a
    compare-and-set retry loop, so no duration is ever lost).
    @raise Invalid_argument on negative or nan durations. *)

val elapsed : timer -> float
(** Accumulated seconds.

    Reference: an observer for tests. *)

(** {1 Histograms} *)

type histogram

val histogram : ?bounds:float array -> string -> histogram
(** Create-or-lookup, like {!counter}.  [bounds] are the strictly
    increasing bucket upper bounds (default: 36 buckets from 10 µs, five per decade); an
    implicit overflow bucket catches larger values.  Recording is one
    binary search plus one atomic increment — lock-free, so worker
    domains may observe concurrently without losing samples.
    @raise Invalid_argument on empty or non-increasing bounds, or when
    the name is already registered as a counter or timer. *)

val observe : histogram -> float -> unit
(** Record one value into its bucket (nan goes to the overflow cell). *)

val observations : histogram -> int
(** Total number of recorded values.

    Reference: an observer for tests. *)

val bucket_counts : histogram -> (float * int) array
(** [(upper_bound, count)] per bucket, the overflow cell reported with
    bound [infinity].

    Reference: an observer for tests. *)

val quantile : histogram -> float -> float
(** [quantile h q] for [q] in [[0, 1]]: the upper bound of the bucket
    holding the [q]-th ranked observation — a conservative
    (over-)estimate, resolution-limited by the bucket width.  Values in
    the overflow cell report the last finite bound (so the result is
    always finite, e.g. for JSON output).  Returns [0.] on an empty
    histogram.  @raise Invalid_argument when [q] is outside [[0, 1]].

    Reference: an observer for tests. *)

(** {1 Snapshots} *)

type snapshot = (string * float) list
(** Registry contents at one instant, sorted by name.  Counter values are
    represented as floats; timer names carry a [".seconds"] suffix so the
    two namespaces cannot collide; each histogram [h] contributes
    [h.count], [h.p50] and [h.p99] entries. *)

val snapshot : unit -> snapshot

val diff : snapshot -> snapshot -> snapshot
(** [diff later earlier]: entrywise subtraction (missing entries are 0);
    the per-step delta view used by the anytime evaluator. *)

val find : snapshot -> string -> float
(** 0 when absent. *)

val by_prefix : snapshot -> string -> snapshot
(** Entries whose name starts with the prefix, in snapshot order — e.g.
    [by_prefix snap "robust."] for one subsystem's view. *)

val report : Format.formatter -> snapshot -> unit
(** Human-readable table, one [name value] line per entry; zero entries
    are skipped. *)
