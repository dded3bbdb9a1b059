(* Sender-side transport-fault injection on a deterministic schedule.

   Mirrors [Faulty_source]: the fault on frame [i] is a pure function of
   (seed, i) via [Prng.substream], so a fault-injected client/server
   session replays bit-identically.  The wrapper owns only an atomic
   frame counter; the sockets stay the caller's. *)

let c_drop = Stats.counter "serve.transport.faults.drop"
let c_delay = Stats.counter "serve.transport.faults.delay"
let c_truncate = Stats.counter "serve.transport.faults.truncate"

type config = {
  seed : int;
  drop : float;
  delay : float;
  delay_s : float;
  truncate : float;
}

let default ~seed =
  { seed; drop = 0.05; delay = 0.10; delay_s = 0.002; truncate = 0.05 }

type fault = Drop | Delay of float | Truncate

let fault_at cfg i =
  let u = Prng.float (Prng.substream (Prng.create ~seed:cfg.seed ()) i) in
  if u < cfg.drop then Some Drop
  else if u < cfg.drop +. cfg.truncate then Some Truncate
  else if u < cfg.drop +. cfg.truncate +. cfg.delay then
    Some (Delay cfg.delay_s)
  else None

type t = { cfg : config; index : int Atomic.t }

let create cfg =
  let check name v =
    if not (v >= 0.0 && v <= 1.0) then
      invalid_arg ("Faulty_transport: " ^ name ^ " must lie in [0, 1]")
  in
  check "drop" cfg.drop;
  check "delay" cfg.delay;
  check "truncate" cfg.truncate;
  if not (cfg.delay_s >= 0.0) then
    invalid_arg "Faulty_transport: delay_s must be nonnegative";
  { cfg; index = Atomic.make 0 }

type sent = Sent | Dropped | Truncated_sent

(* Shut down only the write side: the caller can still read any bytes
   the peer already sent, and the peer observes EOF — the failure mode
   we are simulating. *)
let shutdown_send fd =
  try Unix.shutdown fd Unix.SHUTDOWN_SEND
  with Unix.Unix_error (_, _, _) -> ()

let send ?(sleep = Unix.sleepf) t fd payload =
  let i = Atomic.fetch_and_add t.index 1 in
  match fault_at t.cfg i with
  | Some Drop ->
    Stats.incr c_drop;
    shutdown_send fd;
    Dropped
  | Some Truncate ->
    Stats.incr c_truncate;
    (* A well-formed header declaring the full length, then only part
       of the body: the receiver blocks on the remainder until the
       shutdown delivers EOF, and reports a mid-frame truncation. *)
    let n = String.length payload in
    let header = Bytes.create 4 in
    Bytes.set_int32_be header 0 (Int32.of_int n);
    let cut = n / 2 in
    let partial = Bytes.to_string header ^ String.sub payload 0 cut in
    let off = ref 0 in
    while !off < String.length partial do
      off :=
        !off
        + Unix.write_substring fd partial !off (String.length partial - !off)
    done;
    shutdown_send fd;
    Truncated_sent
  | Some (Delay d) ->
    Stats.incr c_delay;
    sleep d;
    Protocol.write_frame fd payload;
    Sent
  | None ->
    Protocol.write_frame fd payload;
    Sent
