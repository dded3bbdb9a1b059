(** Bounded, epsilon-aware cache of certified answers.

    Keys are [(query, epoch)].  A server instance evaluates every query
    against one table and one open-world completion policy for its whole
    life, so neither is part of the key (the warm-restart validator
    below pins both across restarts); the {e epoch} string is the
    content identity of the table slice the query reads — [""] at boot,
    and e.g. ["R=3;S=1"] once streaming updates have mutated relations
    [R] and [S] (see {!Server}).  Folding the epoch into the key is
    what makes cached enclosures sound under updates: two textually
    equal queries before and after a mutation get distinct keys, while
    entries whose relations an update did not touch keep serving.

    Reuse is {e epsilon-aware} rather than epsilon-keyed: a stored
    answer satisfies a request for error target [eps] iff its certified
    enclosure has width at most [2 * eps].  A tight cached answer thus
    serves looser requests for free, and a loose one is transparently
    recomputed when a tighter request arrives (and then replaces the
    loose entry).

    Only sound, certified, non-budget-exhausted answers should be stored
    (the server enforces this), so a cache hit never weakens the
    soundness contract.  Bounded capacity with FIFO eviction; all
    operations take an internal mutex (cold path — evaluation dwarfs
    it). *)

type t

val create : capacity:int -> t
(** [capacity = 0] disables caching (every lookup misses).
    @raise Invalid_argument on a negative capacity. *)

val find :
  t ->
  query:string ->
  epoch:string ->
  eps:float ->
  Robust_eval.answer option
(** A stored answer whose enclosure width is at most [2 * eps], if any.
    Bumps [serve.cache.hit] / [serve.cache.miss]. *)

val store :
  t ->
  query:string ->
  epoch:string ->
  Robust_eval.answer ->
  unit
(** Insert or replace (replacement keeps the narrower enclosure).
    Evicts the oldest entry when full; bumps [serve.cache.evict]. *)

val length : t -> int
(** Reference: an observer for tests. *)

(** {1 Warm-restart persistence}

    The cache can be serialised to a small text file tagged with a
    caller-supplied {e validator} string — conventionally the packed
    store's checksum concatenated with the completion-policy spec, so
    that any change to the table bytes or the open-world completion
    invalidates every saved enclosure at once. *)

val save : t -> path:string -> validator:string -> int
(** Serialise every entry through {!Durable.write} (the old file survives
    a failed write) and return the number written.  Bumps [serve.cache.warm.saved]. *)

val load : t -> path:string -> validator:string -> int
(** Restore entries saved by {!save}.  All-or-nothing: a missing file
    restores 0 silently; a version or validator mismatch, or any
    malformed entry, rejects the whole file, bumps
    [serve.cache.warm.rejected], and restores 0.  Only base-epoch
    ([""]) entries are revived — per-relation epoch counters restart at
    zero on reboot, so a saved post-update epoch string no longer names
    the table state it certified.  Restored entries count
    into [serve.cache.warm.loaded]; when one later satisfies a {!find},
    [serve.cache.warm.reused] is bumped alongside the ordinary hit. *)
