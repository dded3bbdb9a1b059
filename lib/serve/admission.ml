(* Rolling-epoch admission control.

   Budgets trip stickily (by design: one exhaustion, one cause), so the
   server-wide allowance is an *epoch* budget recreated every window
   rather than a single immortal one.  Requests admitted in a window are
   children of that window's budget; when the window's cap trips,
   in-flight children finish with sound best-so-far enclosures and new
   arrivals see pressure 1.0 and are shed or rejected until rotation. *)

let c_admitted = Stats.counter "serve.admitted"
let c_shed = Stats.counter "serve.shed"
let c_rejected = Stats.counter "serve.rejected"
let c_epochs = Stats.counter "serve.epochs"

type level = Full | Degraded | Reject

type config = {
  queue_bound : int;
  window_s : float;
  max_bdd_nodes : int option;
  max_facts : int option;
  max_samples : int option;
}

let default_config =
  {
    queue_bound = 64;
    window_s = 1.0;
    max_bdd_nodes = None;
    max_facts = None;
    max_samples = None;
  }

(* Pressure (or queue fill) that starts shedding, and pressure that
   starts rejecting. *)
let shed_at = 0.5
let reject_at = 0.9

(* The pure admission ladder: no clocks. *)
let decide cfg ~queue_len ~pressure =
  let queue_fill =
    float_of_int queue_len /. float_of_int (max 1 cfg.queue_bound)
  in
  if queue_len >= cfg.queue_bound then Reject
  else if pressure >= reject_at then Reject
  else if pressure >= shed_at || queue_fill >= shed_at then Degraded
  else Full

type t = {
  cfg : config;
  lock : Mutex.t;
  mutable epoch : Budget.t;
  mutable epoch_start : float;
}

let fresh_epoch cfg =
  Stats.incr c_epochs;
  Budget.create ?max_bdd_nodes:cfg.max_bdd_nodes ?max_facts:cfg.max_facts
    ?max_samples:cfg.max_samples ()

let create cfg =
  if cfg.queue_bound < 1 then
    invalid_arg "Admission.create: queue_bound must be at least 1";
  if not (cfg.window_s > 0.0) then
    invalid_arg "Admission.create: window_s must be positive";
  {
    cfg;
    lock = Mutex.create ();
    epoch = fresh_epoch cfg;
    epoch_start = Unix.gettimeofday ();
  }

(* Callers hold [t.lock]. *)
let rotate_if_due t =
  let now = Unix.gettimeofday () in
  if now -. t.epoch_start >= t.cfg.window_s then begin
    t.epoch <- fresh_epoch t.cfg;
    t.epoch_start <- now
  end

let epoch_pressure epoch =
  (* Worst utilisation across the capped kinds; a tripped epoch is full
     pressure regardless of which constraint fired. *)
  if Budget.exhausted epoch <> None then 1.0
  else
    List.fold_left
      (fun acc kind ->
        match Budget.cap epoch kind with
        | None -> acc
        | Some c when c <= 0 -> 1.0
        | Some c ->
          Float.max acc
            (Float.min 1.0
               (float_of_int (Budget.spent epoch kind) /. float_of_int c)))
      0.0
      [ Budget.Bdd_nodes; Budget.Facts; Budget.Samples ]

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let pressure t =
  locked t (fun () ->
      rotate_if_due t;
      epoch_pressure t.epoch)

let retry_after t =
  locked t (fun () ->
      rotate_if_due t;
      Float.max 0.0 (t.cfg.window_s -. (Unix.gettimeofday () -. t.epoch_start)))

type ticket = { budget : Budget.t; level : level }

let admit t ~queue_len ~deadline_s =
  locked t (fun () ->
      rotate_if_due t;
      let pressure = epoch_pressure t.epoch in
      match decide t.cfg ~queue_len ~pressure with
      | Reject ->
        Stats.incr c_rejected;
        Error
          (Float.max 0.0
             (t.cfg.window_s -. (Unix.gettimeofday () -. t.epoch_start)))
      | level ->
        Stats.incr c_admitted;
        if level = Degraded then Stats.incr c_shed;
        (* Positive-timeout clamp: a deadline that has effectively
           already passed still admits with a minimal wall budget, so
           the reply is a sound Budget_exhausted answer, not a crash. *)
        let timeout =
          Option.map (fun d -> Float.max 1e-4 d) deadline_s
        in
        let budget = Budget.child ?timeout t.epoch in
        Ok { budget; level })
