(* The resident query server.

   Thread/domain layout:
   - the accept loop runs in one systhread, polling the listener with a
     short select timeout so it can observe the draining flag promptly;
   - each accepted connection gets its own systhread that reads frames,
     handles admission, and blocks on a per-request mailbox — blocking
     threads release the runtime lock, so many connections coexist on
     the main domain;
   - [cfg.domains] worker domains pop admitted requests from one bounded
     queue and run the Robust_eval ladder; everything they touch is
     either per-request (fact source, budget) or atomic/locked (stats,
     cache), so evaluations proceed in parallel.

   The only signal-context code is [request_drain] = one atomic store;
   all lock-taking reactions to it happen on ordinary threads. *)

let c_conns = Stats.counter "serve.connections"
let c_requests = Stats.counter "serve.requests"
let c_updates = Stats.counter "serve.updates"
let c_update_noops = Stats.counter "serve.updates.noop"
let c_answers = Stats.counter "serve.responses.answer"
let c_overloaded = Stats.counter "serve.responses.overloaded"
let c_errors = Stats.counter "serve.responses.error"
let c_deadline = Stats.counter "serve.deadline_exhausted"
let c_frame_errors = Stats.counter "serve.frame_errors"
let h_latency = Stats.histogram "serve.latency"

type endpoint = [ `Unix of string | `Tcp of string * int ]

let endpoint_to_string = function
  | `Unix path -> "unix:" ^ path
  | `Tcp (host, port) -> Printf.sprintf "tcp:%s:%d" host port

type config = {
  endpoint : endpoint;
  make_source : unit -> Fact_source.t;
  domains : int;
  admission : Admission.config;
  default_eps : float;
  default_samples : int;
  shed_samples : int;
  default_deadline_s : float option;
  cache_capacity : int;
  warm_cache : (string * string) option;
      (* (path, validator): persist the result cache here at drain and
         restore from it at start when the validator matches. *)
  updatable : Ti_table.t option;
      (* a finite materialized table the server owns and mutates under
         Update frames; when set it overrides [make_source].  [None]
         (static or open-world source) rejects updates. *)
}

let default_config make_source endpoint =
  {
    endpoint;
    make_source;
    domains = 2;
    admission = Admission.default_config;
    default_eps = 0.01;
    default_samples = 20_000;
    shed_samples = 2_000;
    default_deadline_s = Some 1.0;
    cache_capacity = 256;
    warm_cache = None;
    updatable = None;
  }

type mailbox = {
  m_lock : Mutex.t;
  m_cond : Condition.t;
  mutable m_result : Protocol.response option;
}

type item = {
  i_query : string;
  i_phi : Fo.t;
  i_eps : float;
  i_samples : int;
  i_seed : int;
  i_ticket : Admission.ticket;
  i_mailbox : mailbox;
}

type t = {
  cfg : config;
  admission : Admission.t;
  cache : Result_cache.t;
  tbl_lock : Mutex.t;
  mutable table : Ti_table.t option;
      (* current state of [cfg.updatable]; Ti_table is persistent, so a
         snapshot taken under [tbl_lock] stays valid while later
         updates swap in new tables *)
  epochs : (string, int) Hashtbl.t;
      (* per-relation update counters, guarded by [tbl_lock] *)
  queue : item Queue.t;
  q_lock : Mutex.t;
  q_cond : Condition.t;
  q_len : int Atomic.t;
  stopping : bool ref;  (* workers may exit; guarded by q_lock *)
  draining : bool Atomic.t;
  inflight : int Atomic.t;  (* queries admitted but not yet answered *)
  active_conns : int Atomic.t;
  listener : Unix.file_descr;
  started_at : float;
  mutable accept_thread : Thread.t option;
  mutable workers : unit Domain.t list;
}

let draining t = Atomic.get t.draining
let request_drain t = Atomic.set t.draining true

(* ------------------------------------------------------------------ *)
(* Bounded queue *)
(* ------------------------------------------------------------------ *)

(* Push re-checks the bound under the lock: admission sampled the length
   without it, and two racing connections must not both squeeze in. *)
let try_push t item =
  Mutex.lock t.q_lock;
  let ok = Queue.length t.queue < t.cfg.admission.Admission.queue_bound in
  if ok then begin
    Queue.push item t.queue;
    Atomic.incr t.q_len;
    Condition.signal t.q_cond
  end;
  Mutex.unlock t.q_lock;
  ok

let pop t =
  Mutex.lock t.q_lock;
  let rec go () =
    if not (Queue.is_empty t.queue) then begin
      let item = Queue.pop t.queue in
      Atomic.decr t.q_len;
      Some item
    end
    else if !(t.stopping) then None
    else begin
      Condition.wait t.q_cond t.q_lock;
      go ()
    end
  in
  let r = go () in
  Mutex.unlock t.q_lock;
  r

let stop_workers t =
  Mutex.lock t.q_lock;
  t.stopping := true;
  Condition.broadcast t.q_cond;
  Mutex.unlock t.q_lock

(* ------------------------------------------------------------------ *)
(* Table epochs *)
(* ------------------------------------------------------------------ *)

(* Caller holds [tbl_lock].  The epoch string of the table slice [phi]
   reads: relation counters in name order, zeros omitted, so the boot
   state is "" for every query — which is also the only epoch the warm
   cache restores. *)
let epoch_unlocked t phi =
  let rels =
    List.sort_uniq String.compare (List.map fst (Fo.relations phi))
  in
  String.concat ";"
    (List.filter_map
       (fun r ->
         match Hashtbl.find_opt t.epochs r with
         | Some n when n > 0 -> Some (Printf.sprintf "%s=%d" r n)
         | _ -> None)
       rels)

let epoch_of t phi =
  match t.cfg.updatable with
  | None -> ""
  | Some _ ->
    Mutex.lock t.tbl_lock;
    let e = epoch_unlocked t phi in
    Mutex.unlock t.tbl_lock;
    e

(* The source a request evaluates against, together with the epoch its
   answer certifies — taken under one lock hold, so an update racing
   the evaluation can never let an answer be cached under an epoch it
   does not certify. *)
let snapshot_source t phi =
  Mutex.lock t.tbl_lock;
  let r =
    match t.table with
    | None -> None
    | Some tbl -> Some (Fact_source.of_ti_table tbl, epoch_unlocked t phi)
  in
  Mutex.unlock t.tbl_lock;
  match r with None -> (t.cfg.make_source (), "") | Some r -> r

(* ------------------------------------------------------------------ *)
(* Worker domains *)
(* ------------------------------------------------------------------ *)

let answer_of t item (a : Robust_eval.answer) ~shed ~cached ~epoch =
  let budget_exhausted =
    Budget.exhausted item.i_ticket.Admission.budget <> None
  in
  if budget_exhausted then Stats.incr c_deadline;
  if
    (not budget_exhausted)
    && Interval.width a.Robust_eval.enclosure <= 2.0 *. item.i_eps
    && not cached
  then
    Result_cache.store t.cache ~query:item.i_query ~epoch a;
  Protocol.Answer
    {
      lo = Interval.lo a.Robust_eval.enclosure;
      hi = Interval.hi a.Robust_eval.enclosure;
      estimate = a.Robust_eval.estimate;
      provenance = Robust_eval.provenance_to_string a.Robust_eval.provenance;
      budget_exhausted;
      cached;
      shed;
    }

let evaluate t item =
  let shed = item.i_ticket.Admission.level = Admission.Degraded in
  let rungs =
    if shed then Some [ Robust_eval.Lifted; Robust_eval.Monte_carlo ]
    else None
  in
  match
    let src, epoch = snapshot_source t item.i_phi in
    ( Robust_eval.query ~budget:item.i_ticket.Admission.budget ~eps:item.i_eps
        ~mc_samples:item.i_samples ~seed:item.i_seed ?rungs src item.i_phi,
      epoch )
  with
  | a, epoch -> answer_of t item a ~shed ~cached:false ~epoch
  | exception exn ->
    (* Robust_eval only raises on caller errors, but a worker domain
       must survive anything an exotic source closure throws. *)
    let e = Errors.of_exn ~what:"serve worker" exn in
    Protocol.Error_resp { code = Errors.exit_code e; msg = Errors.to_string e }

let worker_loop t () =
  let rec go () =
    match pop t with
    | None -> ()
    | Some item ->
      let resp = evaluate t item in
      let mb = item.i_mailbox in
      Mutex.lock mb.m_lock;
      mb.m_result <- Some resp;
      Condition.signal mb.m_cond;
      Mutex.unlock mb.m_lock;
      go ()
  in
  go ()

(* ------------------------------------------------------------------ *)
(* Request handling (connection threads) *)
(* ------------------------------------------------------------------ *)

let health_resp t =
  Protocol.Health_ok
    {
      draining = draining t;
      inflight = Atomic.get t.inflight;
      uptime_s = Unix.gettimeofday () -. t.started_at;
    }

let retry_after_ms t =
  int_of_float (Float.ceil (1000.0 *. Admission.retry_after t.admission))

let wait_mailbox mb =
  Mutex.lock mb.m_lock;
  while mb.m_result = None do
    Condition.wait mb.m_cond mb.m_lock
  done;
  let r = Option.get mb.m_result in
  Mutex.unlock mb.m_lock;
  r

let handle_query t ~query ~eps ~deadline_ms ~mc_samples ~seed =
  if draining t then begin
    Stats.incr c_overloaded;
    Protocol.Overloaded { retry_after_ms = retry_after_ms t; draining = true }
  end
  else
    let eps = Option.value eps ~default:t.cfg.default_eps in
    match
      let phi = Fo_parse.parse_exn query in
      (match Fo.free_vars phi with
      | [] -> ()
      | fvs ->
        invalid_arg
          (Printf.sprintf "query has free variables %s"
             (String.concat ", " fvs)));
      if not (eps > 0.0 && eps < 0.5) then
        invalid_arg "eps must lie in (0, 1/2)";
      phi
    with
    | exception exn ->
      Stats.incr c_errors;
      let e = Errors.of_exn ~what:"serve request" exn in
      Protocol.Error_resp
        { code = Errors.exit_code e; msg = Errors.to_string e }
    | phi -> (
      match
        Result_cache.find t.cache ~query ~epoch:(epoch_of t phi) ~eps
      with
      | Some a ->
        Stats.incr c_answers;
        Protocol.Answer
          {
            lo = Interval.lo a.Robust_eval.enclosure;
            hi = Interval.hi a.Robust_eval.enclosure;
            estimate = a.Robust_eval.estimate;
            provenance =
              Robust_eval.provenance_to_string a.Robust_eval.provenance;
            budget_exhausted = false;
            cached = true;
            shed = false;
          }
      | None -> (
        let deadline_s =
          match deadline_ms with
          | Some ms -> Some (float_of_int ms /. 1000.0)
          | None -> t.cfg.default_deadline_s
        in
        match
          Admission.admit t.admission ~queue_len:(Atomic.get t.q_len)
            ~deadline_s
        with
        | Error retry_after ->
          Stats.incr c_overloaded;
          Protocol.Overloaded
            {
              retry_after_ms =
                int_of_float (Float.ceil (1000.0 *. retry_after));
              draining = false;
            }
        | Ok ticket ->
          let samples =
            match (ticket.Admission.level, mc_samples) with
            | Admission.Degraded, Some n -> min n t.cfg.shed_samples
            | Admission.Degraded, None -> t.cfg.shed_samples
            | _, Some n -> n
            | _, None -> t.cfg.default_samples
          in
          let item =
            {
              i_query = query;
              i_phi = phi;
              i_eps = eps;
              i_samples = samples;
              i_seed = seed;
              i_ticket = ticket;
              i_mailbox =
                {
                  m_lock = Mutex.create ();
                  m_cond = Condition.create ();
                  m_result = None;
                };
            }
          in
          Atomic.incr t.inflight;
          let resp =
            if try_push t item then wait_mailbox item.i_mailbox
            else begin
              (* Lost the race for the last queue slot. *)
              Stats.incr c_overloaded;
              Protocol.Overloaded
                { retry_after_ms = retry_after_ms t; draining = false }
            end
          in
          Atomic.decr t.inflight;
          (match resp with
          | Protocol.Answer _ -> Stats.incr c_answers
          | Protocol.Error_resp _ -> Stats.incr c_errors
          | _ -> ());
          resp))

(* Streaming updates mutate the owned table under [tbl_lock] and bump
   the mutated relation's epoch.  In-flight evaluations keep the
   snapshot they took (Ti_table is persistent) and cache their answer
   under the epoch of that snapshot; future requests see the new epoch,
   miss, and recompute — while cached answers for relations this update
   did not touch keep their keys and keep serving. *)
let handle_update t ~delta =
  if draining t then begin
    Stats.incr c_overloaded;
    Protocol.Overloaded { retry_after_ms = retry_after_ms t; draining = true }
  end
  else begin
    Stats.incr c_updates;
    match Delta_eval.delta_of_string delta with
    | exception exn ->
      Stats.incr c_errors;
      let e = Errors.of_exn ~what:"serve update" exn in
      Protocol.Error_resp
        { code = Errors.exit_code e; msg = Errors.to_string e }
    | d -> (
      Mutex.lock t.tbl_lock;
      let resp =
        match t.table with
        | None ->
          Protocol.Error_resp
            {
              code = 2;
              msg =
                "updates need a finite materialized table (server was \
                 started on a static or open-world source)";
            }
        | Some tbl -> (
          let relation = Fact.rel (Delta_eval.delta_fact d) in
          let noop =
            Rational.equal
              (Ti_table.prob tbl (Delta_eval.delta_fact d))
              (Delta_eval.delta_target d)
          in
          match if noop then tbl else Delta_eval.apply_table tbl d with
          | exception exn ->
            let e = Errors.of_exn ~what:"serve update" exn in
            Protocol.Error_resp
              { code = Errors.exit_code e; msg = Errors.to_string e }
          | tbl' ->
            if not noop then begin
              t.table <- Some tbl';
              Hashtbl.replace t.epochs relation
                (1
                + Option.value ~default:0 (Hashtbl.find_opt t.epochs relation))
            end
            else Stats.incr c_update_noops;
            Protocol.Update_ok
              {
                relation;
                epoch =
                  Option.value ~default:0 (Hashtbl.find_opt t.epochs relation);
                noop;
              })
      in
      Mutex.unlock t.tbl_lock;
      (match resp with
      | Protocol.Error_resp _ -> Stats.incr c_errors
      | _ -> ());
      resp)
  end

let handle_request t = function
  | Protocol.Health -> health_resp t
  | Protocol.Drain ->
    request_drain t;
    health_resp t
  | Protocol.Stats_req ->
    Protocol.Stats_resp (Stats.by_prefix (Stats.snapshot ()) "serve.")
  | Protocol.Update { delta } -> handle_update t ~delta
  | Protocol.Query { query; eps; deadline_ms; mc_samples; seed } ->
    Stats.incr c_requests;
    let t0 = Unix.gettimeofday () in
    let resp = handle_query t ~query ~eps ~deadline_ms ~mc_samples ~seed in
    Stats.observe h_latency (Unix.gettimeofday () -. t0);
    resp

let handle_conn t fd =
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close fd with Unix.Unix_error (_, _, _) -> ());
      Atomic.decr t.active_conns)
  @@ fun () ->
  let send resp =
    Protocol.write_frame fd (Protocol.encode_response resp)
  in
  let rec loop () =
    match Protocol.read_frame fd with
    | exception Protocol.Frame_error Protocol.Closed -> ()
    | exception Protocol.Frame_error Protocol.Truncated ->
      Stats.incr c_frame_errors
    | exception Protocol.Frame_error (Protocol.Oversized _ as fe) ->
      Stats.incr c_frame_errors;
      send
        (Protocol.Error_resp
           { code = 2; msg = Protocol.frame_error_to_string fe })
    | payload -> (
      match Protocol.decode_request payload with
      | Error msg ->
        Stats.incr c_frame_errors;
        send (Protocol.Error_resp { code = 2; msg });
        loop ()
      | Ok req ->
        send (handle_request t req);
        loop ())
  in
  (* A peer may vanish mid-conversation (the fault injector makes sure
     of it): any transport error just ends this connection. *)
  try loop ()
  with
  | Unix.Unix_error (_, _, _) | Protocol.Frame_error _ | Sys_error _ ->
    Stats.incr c_frame_errors

(* ------------------------------------------------------------------ *)
(* Listener and lifecycle *)
(* ------------------------------------------------------------------ *)

let bind_listener = function
  | `Unix path ->
    (try Unix.unlink path with Unix.Unix_error (_, _, _) -> ());
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Unix.bind fd (Unix.ADDR_UNIX path);
    Unix.listen fd 64;
    fd
  | `Tcp (host, port) ->
    let addr =
      try Unix.inet_addr_of_string host
      with Failure _ -> (
        match Unix.getaddrinfo host "" [ Unix.AI_FAMILY Unix.PF_INET ] with
        | { Unix.ai_addr = Unix.ADDR_INET (a, _); _ } :: _ -> a
        | _ -> invalid_arg ("cannot resolve host " ^ host))
    in
    let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    Unix.setsockopt fd Unix.SO_REUSEADDR true;
    Unix.bind fd (Unix.ADDR_INET (addr, port));
    Unix.listen fd 64;
    fd

let idle t =
  Atomic.get t.inflight = 0
  && Atomic.get t.active_conns = 0
  && Atomic.get t.q_len = 0

let accept_loop t () =
  let rec go () =
    if draining t && idle t then ()
    else begin
      (match Unix.select [ t.listener ] [] [] 0.05 with
      | [], _, _ -> ()
      | _ -> (
        match Unix.accept t.listener with
        | fd, _ ->
          Stats.incr c_conns;
          Atomic.incr t.active_conns;
          ignore (Thread.create (handle_conn t) fd)
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()))
      |> ignore;
      go ()
    end
  in
  (try go () with Unix.Unix_error (_, _, _) -> ());
  (try Unix.close t.listener with Unix.Unix_error (_, _, _) -> ());
  (match t.cfg.endpoint with
  | `Unix path -> (
    try Unix.unlink path with Unix.Unix_error (_, _, _) -> ())
  | `Tcp _ -> ());
  stop_workers t

let start cfg =
  if cfg.domains < 1 then invalid_arg "Server.start: domains must be >= 1";
  if cfg.shed_samples < 1 || cfg.default_samples < 1 then
    invalid_arg "Server.start: sample counts must be positive";
  if not (cfg.default_eps > 0.0 && cfg.default_eps < 0.5) then
    invalid_arg "Server.start: default_eps must lie in (0, 1/2)";
  ignore (cfg.make_source () : Fact_source.t);
  let t =
    {
      cfg;
      admission = Admission.create cfg.admission;
      cache = Result_cache.create ~capacity:cfg.cache_capacity;
      tbl_lock = Mutex.create ();
      table = cfg.updatable;
      epochs = Hashtbl.create 8;
      queue = Queue.create ();
      q_lock = Mutex.create ();
      q_cond = Condition.create ();
      q_len = Atomic.make 0;
      stopping = ref false;
      draining = Atomic.make false;
      inflight = Atomic.make 0;
      active_conns = Atomic.make 0;
      listener = bind_listener cfg.endpoint;
      started_at = Unix.gettimeofday ();
      accept_thread = None;
      workers = [];
    }
  in
  (match cfg.warm_cache with
  | None -> ()
  | Some (path, validator) ->
    let n = Result_cache.load t.cache ~path ~validator in
    if n > 0 then
      Printf.eprintf "iowpdb serve: warm cache: restored %d entries\n%!" n);
  t.workers <- List.init cfg.domains (fun _ -> Domain.spawn (worker_loop t));
  t.accept_thread <- Some (Thread.create (accept_loop t) ());
  t

let wait t =
  Option.iter Thread.join t.accept_thread;
  List.iter Domain.join t.workers;
  match t.cfg.warm_cache with
  | None -> ()
  | Some (path, validator) -> (
    (* Best-effort: a full disk must not turn a clean drain into a
       crash — the next boot simply starts cold. *)
    try ignore (Result_cache.save t.cache ~path ~validator : int)
    with Sys_error _ | Unix.Unix_error (_, _, _) -> ())

let run cfg =
  (* Install the handlers BEFORE binding the socket: a supervisor that
     TERMs the instant the socket file appears must still get a graceful
     drain, and [start] does real work (source validation, domain
     spawns) after the bind.  Until [start] returns the handler only
     records the signal; it is replayed as a drain right after. *)
  let target = Atomic.make None and pending = Atomic.make false in
  let on_signal =
    Sys.Signal_handle
      (fun _ ->
        match Atomic.get target with
        | Some t -> request_drain t
        | None -> Atomic.set pending true)
  in
  Sys.set_signal Sys.sigterm on_signal;
  Sys.set_signal Sys.sigint on_signal;
  let t = start cfg in
  Atomic.set target (Some t);
  if Atomic.get pending then request_drain t;
  Printf.eprintf "iowpdb serve: listening on %s (%d domains, queue %d)\n%!"
    (endpoint_to_string cfg.endpoint)
    cfg.domains cfg.admission.Admission.queue_bound;
  wait t;
  prerr_endline "iowpdb serve: drained; final counters:";
  Stats.report Format.err_formatter
    (Stats.by_prefix (Stats.snapshot ()) "serve.");
  Format.pp_print_flush Format.err_formatter ()
