(** Admission control for the resident query service: a rolling
    server-wide budget epoch, a pressure signal derived from it, and the
    pure shed-level decision that turns pressure into action.

    A long-lived server cannot hold one {!Budget.t} forever — budgets
    trip stickily by design — so the controller rotates a fresh {e epoch}
    budget every [window_s] seconds.  The epoch carries the global
    resource caps ([Bdd_nodes] / [Facts] / [Samples]); every admitted
    request gets a {!Budget.child} of the current epoch, so all in-flight
    work in a window draws down one shared allowance, and a window whose
    cap trips starves (soundly: best-so-far enclosures) rather than
    overruns.

    Pressure in [[0, 1]] is the epoch's worst cap utilisation.
    {!admit} maps (queue occupancy, pressure) to a shed level: full
    ladder → degraded ladder (skip compilation, reduced sampling) from
    pressure or queue fill 0.5 → reject, with a retry-after hint
    pointing at the next epoch, from pressure 0.9 or a full queue. *)

type level =
  | Full  (** run the whole {!Robust_eval} ladder *)
  | Degraded
      (** shed load: lifted + reduced Monte-Carlo only — skip the
          compilation rungs entirely *)
  | Reject  (** turn the request away with [Overloaded] *)

type config = {
  queue_bound : int;  (** work-queue capacity; full queue rejects *)
  window_s : float;  (** epoch length, seconds *)
  max_bdd_nodes : int option;  (** per-window global caps *)
  max_facts : int option;
  max_samples : int option;
}

val default_config : config
(** queue 64, 1 s windows, caps unset. *)

type t

val create : config -> t
(** @raise Invalid_argument on a non-positive queue bound or window. *)

val pressure : t -> float
(** Current epoch's worst cap utilisation in [[0, 1]] (0 with no caps).
    Rotates the epoch first if the window has elapsed.

    Reference: an observer for tests. *)

type ticket = { budget : Budget.t; level : level }

val admit : t -> queue_len:int -> deadline_s:float option -> (ticket, float) result
(** Run the admission ladder against live pressure: a full queue
    rejects outright; pressure ≥ 0.9 rejects; pressure or queue fill
    ≥ 0.5 degrades; otherwise full service.  On admission the ticket's
    budget is a child of the current epoch with the request deadline as
    its wall timeout — created {e now}, so queue wait burns the deadline
    (deadline propagation starts at admission, not at evaluation).
    On rejection, returns [Error retry_after_s]: the time until the
    next epoch, the client's backoff hint. *)

val retry_after : t -> float
(** Seconds until the current epoch rotates. *)
