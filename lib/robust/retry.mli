(** Capped exponential backoff with deterministic [Prng]-derived jitter.

    The whole delay schedule is a pure function of the policy and a
    seed: attempt [i] waits [min max_delay (base_delay * multiplier^i)]
    scaled by a jitter factor in [[1-jitter, 1+jitter]] drawn from
    [Prng.substream root i].  Retried computations are therefore
    bit-reproducible for a fixed seed. *)

type policy = {
  max_attempts : int;  (** total attempts, including the first (>= 1) *)
  base_delay : float;  (** seconds before the first retry *)
  multiplier : float;  (** >= 1 *)
  max_delay : float;  (** per-retry ceiling before jitter *)
  jitter : float;  (** in [0, 1]: delay is scaled by 1 +- jitter * u *)
}

val default_policy : policy
(** 4 attempts, 10 ms base, doubling, 1 s cap, 25% jitter. *)

val delays : ?budget:Budget.t -> policy -> seed:int -> float list
(** The [max_attempts - 1] jittered sleep durations, in order.  Pure
    given the budget's current remaining time: with [?budget], the
    cumulative schedule is clamped to {!Budget.time_remaining}, so the
    chain as a whole never sleeps past the budget's wall (or virtual)
    deadline.  @raise Invalid_argument on an ill-formed policy.

    Reference: an observer of the sleep schedule for tests. *)

type 'a outcome = ('a, Errors.t) result

val run :
  ?policy:policy ->
  ?sleep:(float -> unit) ->
  ?budget:Budget.t ->
  ?retryable:(Errors.t -> bool) ->
  what:string ->
  seed:int ->
  (unit -> 'a) ->
  'a outcome
(** [run ~what ~seed f] keeps calling [f] until it succeeds, a
    non-[retryable] error occurs (default: everything is retryable), the
    attempt cap is reached, or [budget] is exhausted between attempts.
    Each backoff sleep is additionally clamped to the budget's
    {!Budget.time_remaining} at the moment it starts, so a retry chain
    under a wall deadline stops {e at} the deadline instead of
    overshooting it mid-sleep.  Exceptions from [f] are classified via
    {!Errors.of_exn}.  [sleep] defaults to [Unix.sleepf]; tests pass
    [ignore] to run the schedule without waiting.  Bumps the
    [robust.retry.*] counters. *)
