(** Wire protocol of the resident query service: length-prefixed frames
    carrying a small line-based request/response language.

    Framing: each message is a 4-byte big-endian payload length followed
    by the payload, capped at 1 MiB — a peer can never make the
    server buffer an unbounded message.  Payloads are one tag line
    followed by [key=value] lines; values are [String.escaped], so
    queries containing newlines or arbitrary bytes round-trip.

    Decoding is total: malformed frames and payloads come back as
    {!frame_error} / [Error _], never as exceptions escaping to the
    accept loop.  The codec has no dependency on the server — the bench
    harness and the fault injector reuse it directly. *)

type frame_error =
  | Oversized of int  (** declared length exceeded the 1 MiB cap *)
  | Truncated  (** EOF in the middle of a frame *)
  | Closed  (** clean EOF before any byte of a frame *)
  | Malformed of string  (** payload did not parse *)

val frame_error_to_string : frame_error -> string

exception Frame_error of frame_error

val write_frame : Unix.file_descr -> string -> unit
(** Write one length-prefixed frame.  @raise Invalid_argument if the
    payload exceeds the cap; @raise Unix.Unix_error on transport
    failure (classify with {!Errors.of_exn} at the call site). *)

val read_frame : Unix.file_descr -> string
(** Read one frame's payload.  @raise Frame_error on EOF, truncation or
    an oversized declared length; @raise Unix.Unix_error on transport
    failure. *)

type request =
  | Query of {
      query : string;  (** first-order sentence, [Fo_parse] syntax *)
      eps : float option;  (** additive error target; server default *)
      deadline_ms : int option;
          (** wall deadline for this request, admission-to-response;
              flows into the request's {!Budget.t} *)
      mc_samples : int option;  (** Monte-Carlo worlds; server default *)
      seed : int;  (** evaluation seed (reproducibility) *)
    }
  | Update of { delta : string }
      (** streaming update against the server's materialized table, in
          {!Delta_eval.delta_to_string} syntax (e.g. ["insert R(a) 1/2"],
          ["delete R(a)"]); accepted only by servers started on a finite
          updatable table, rejected while draining *)
  | Health  (** liveness probe; answered even while draining *)
  | Stats_req  (** server counters and latency quantiles *)
  | Drain
      (** begin graceful drain: finish in-flight work, reject new
          queries, then shut down — the protocol twin of SIGTERM *)

type response =
  | Answer of {
      lo : float;
      hi : float;  (** sound enclosure of the true probability *)
      estimate : float;
      provenance : string;  (** rendered {!Robust_eval.provenance} *)
      budget_exhausted : bool;
          (** the request budget tripped (deadline or a global cap):
              the enclosure is the best-so-far sound result *)
      cached : bool;  (** served from the result cache *)
      shed : bool;  (** evaluated on the degraded (shed) ladder *)
    }
  | Update_ok of {
      relation : string;  (** the relation the delta mutated *)
      epoch : int;  (** that relation's epoch counter after the delta *)
      noop : bool;
          (** the table already satisfied the delta; no epoch bump, so
              cached answers over the relation keep serving *)
    }
  | Overloaded of {
      retry_after_ms : int;  (** suggested client backoff *)
      draining : bool;  (** rejection due to shutdown, not load *)
    }
  | Error_resp of { code : int; msg : string }
      (** request-level failure; [code] follows {!Errors.exit_code} *)
  | Health_ok of { draining : bool; inflight : int; uptime_s : float }
  | Stats_resp of (string * float) list

val encode_request : request -> string
val decode_request : string -> (request, string) result
val encode_response : response -> string
val decode_response : string -> (response, string) result
