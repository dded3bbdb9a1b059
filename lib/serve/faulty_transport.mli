(** Deterministic transport-fault injection, the wire-level sibling of
    {!Faulty_source}: wrap a client's frame sends and make some of them
    drop, stall, or arrive truncated, on a schedule that is a pure
    function of [(seed, frame index)].

    Faults are injected on the {e sender} side of a connection, which is
    where every interesting failure is observable end-to-end: a dropped
    frame looks to the server like a clean disconnect, a truncated frame
    like a peer dying mid-message, a delay like a slow network.  The
    receiving side needs no cooperation, so the same server binary is
    exercised as in production.

    Every injected fault is recoverable by the retry layer ({!Client.call}
    reconnects per attempt), and each is counted under
    [serve.transport.faults.*], so a fault-injected session's summary is
    bit-reproducible for a fixed seed. *)

type config = {
  seed : int;
  drop : float;  (** probability a frame is silently not sent *)
  delay : float;  (** probability a frame is delayed before sending *)
  delay_s : float;  (** duration of an injected delay, seconds *)
  truncate : float;  (** probability a frame is cut off mid-payload *)
}

val default : seed:int -> config
(** 5% drops, 10% delays of 2 ms, 5% truncations. *)

type fault = Drop | Delay of float | Truncate

val fault_at : config -> int -> fault option
(** The fault (if any) injected on the [i]-th frame this wrapper sends —
    a pure function of [(config.seed, i)]; at most one fault per frame.
    Exposed so tests can predict a schedule without doing I/O. *)

type t

val create : config -> t
(** A stateful wrapper holding the frame counter (atomic, so concurrent
    client threads share one schedule without skipping indices). *)

type sent =
  | Sent  (** the frame went out whole (possibly after a delay) *)
  | Dropped  (** nothing was sent; the write side was shut down *)
  | Truncated_sent
      (** a partial frame was sent, then the write side was shut down —
          the receiver will observe a mid-frame EOF *)

val send : ?sleep:(float -> unit) -> t -> Unix.file_descr -> string -> sent
(** Like {!Protocol.write_frame}, but subject to the schedule.  After
    [Dropped] / [Truncated_sent] the socket's write side has been shut
    down, so the receiver sees EOF and the caller's next read on this
    connection fails — exactly the sequence the retry layer must absorb.
    [sleep] defaults to [Unix.sleepf]. *)
