(** Deterministic fault injection on fact sources — the adversary the
    robustness layer is tested against.

    [wrap cfg src] behaves exactly like [src] except that a schedule of
    faults — a pure function of [cfg.seed] and the access index, never of
    timing or caller identity — fires on {e first} access:

    - {b transient}: the first pull of a scheduled entry raises
      {!Transient}; the next pull of the same entry succeeds.  Models a
      flaky upstream that a retry cures.
    - {b stall}: the first pull of a scheduled entry sleeps for
      [stall_seconds] before returning.  Models latency spikes; burns
      wall-clock budget but not virtual time.
    - {b corrupt probability}: the first pull of a scheduled entry raises
      [Invalid_argument] (the same way source validation reports
      out-of-range data), then delivers the true entry on the next pull.
      Exercises the non-retryable [Model_invalid] path and engine
      degradation.
    - {b NaN tail}: the first consultation of the tail certificate at a
      scheduled index answers [Some nan] — an answer that certifies
      nothing (every comparison with it is false).
    - {b tail blackout}: the first consultation at a scheduled index
      answers [None], as if the certificate were momentarily silent.

    Because every fault fires at most once per index, the wrapped source
    viewed across retries is the original source: any enclosure computed
    from surviving accesses is an enclosure for the true distribution.
    Faults fired are counted under [robust.faults.*]. *)

type config = {
  seed : int;  (** root of the fault schedule *)
  transient : float;  (** per-entry probability of a transient raise *)
  stall : float;  (** per-entry probability of a stall *)
  stall_seconds : float;  (** stall duration (wall clock) *)
  bad_prob : float;  (** per-entry probability of a corrupt-data raise *)
  nan_tail : float;  (** per-probe probability of a [Some nan] answer *)
  tail_blackout : float;  (** per-probe probability of a [None] answer *)
}

val none : config
(** All rates zero: [wrap none] is observationally the identity. *)

val default : seed:int -> config
(** A moderately hostile schedule (20% transient, 5% stall of 1 ms, 5%
    corrupt, 10% NaN tails, 10% blackouts). *)

exception Transient of string
(** The injected transient failure.  Classified by {!Errors.of_exn} as
    [Engine_failure], which the supervisor treats as retryable. *)

val entry_faults : config -> int -> string list
(** The faults scheduled for entry [i], as tags from
    [{"transient"; "stall"; "corrupt"}] — pure, for tests and reports.

    Reference: an observer of the fault schedule for tests. *)

val tail_faults : config -> int -> string list
(** The faults scheduled for a tail probe at [n], from
    [{"nan"; "blackout"}].

    Reference: an observer of the fault schedule for tests. *)

val wrap : config -> Fact_source.t -> Fact_source.t
(** The faulty view.  The returned source has its own entry cache, so an
    entry that survived its faults once is served clean from then on. *)
