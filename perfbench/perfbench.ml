(* The repository benchmark.

     perfbench --workload W --seed N --seconds S --trace 0|1 --cli PATH
     perfbench --workload W --seed N --seconds S --trace 0|1 --cli PATH \
               --self-check K

   Generates the workload's inputs from the seed (Gen), sets the program
   up, drives it in a closed loop for S seconds, checks every answer
   against references computed outside the timed phase, and prints one
   JSON line: the end-to-end metrics with --trace 0, the per-layer
   metrics of a traced replay with --trace 1.  --self-check K runs the
   workload K times on seeds N, N+1, ... and prints each metric's median
   and quartiles, which is where the bounds in BENCHMARK.json come from.

   Steadiness rules (see NOTES.md): servers run with --deadline 0 and
   --domains 1, so every request does the same work however fast the
   machine is; one persistent connection, one request in flight; request
   kinds interleave in a seeded order; warm-up requests are untimed; the
   serve workloads' timed phase runs on three servers in turn; and every
   end-to-end time is scaled to nominal host speed by the interleaved
   reference unit of Hostref. *)

open Pbench

let now = Spans.now

let timed f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

let die fmt = Printf.ksprintf (fun s -> prerr_endline ("perfbench: " ^ s); exit 2) fmt

(* ------------------------------------------------------------------ *)
(* Statistics *)

let sorted l =
  let a = Array.of_list l in
  Array.sort Float.compare a;
  a

(* Linear interpolation between closest ranks. *)
let percentile l q =
  let a = sorted l in
  let n = Array.length a in
  if n = 0 then 0.0
  else
    let pos = q *. float_of_int (n - 1) in
    let i = int_of_float pos in
    if i >= n - 1 then a.(n - 1) else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median = Hostref.median

let mean = function
  | [] -> 0.0
  | l -> List.fold_left ( +. ) 0.0 l /. float_of_int (List.length l)

(* Python's statistics.quantiles(values, n=4) (exclusive method). *)
let quartiles l =
  let a = sorted l in
  let ld = Array.length a in
  if ld < 2 then (median l, median l, median l)
  else
    let m = ld + 1 in
    let q i =
      let j = i * m / 4 in
      let j = if j < 1 then 1 else if j > ld - 1 then ld - 1 else j in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta)) /. 4.0
    in
    (q 1, q 2, q 3)

(* ------------------------------------------------------------------ *)
(* Arguments *)

type args = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  cli : string;
  self_check : int option;
}

let parse_args () =
  let get = Hashtbl.create 8 in
  let rec go = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
      Hashtbl.replace get (String.sub k 2 (String.length k - 2)) v;
      go rest
    | [] -> ()
    | k :: _ -> die "unexpected argument %S" k
  in
  go (List.tl (Array.to_list Sys.argv));
  let str k = match Hashtbl.find_opt get k with Some v -> v | None -> die "--%s is required" k in
  let int k = match int_of_string_opt (str k) with Some n -> n | None -> die "--%s wants an integer" k in
  let workload = str "workload" in
  if not (List.mem workload Gen.workloads) then
    die "unknown workload %S (want %s)" workload (String.concat ", " Gen.workloads);
  let seconds = float_of_int (int "seconds") in
  if seconds <= 0.0 then die "--seconds must be positive";
  {
    workload;
    seed = int "seed";
    seconds;
    trace = (match str "trace" with "0" -> false | "1" -> true | _ -> die "--trace wants 0 or 1");
    cli = str "cli";
    self_check = (if Hashtbl.mem get "self-check" then Some (int "self-check") else None);
  }

(* ------------------------------------------------------------------ *)
(* The server under test, in its own process *)

let live_pids = ref []

let () =
  at_exit (fun () ->
      List.iter
        (fun pid ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
        !live_pids)

let forget pid = live_pids := List.filter (( <> ) pid) !live_pids

(* VmHWM of [pid] in MiB: the peak resident set so far. *)
let rss_peak_mb pid =
  let ic = open_in (Printf.sprintf "/proc/%s/status" pid) in
  let rec go () =
    match input_line ic with
    | l when String.length l > 6 && String.sub l 0 6 = "VmHWM:" ->
      Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d kB" (fun kb ->
          float_of_int kb /. 1024.0)
    | _ -> go ()
    | exception End_of_file -> 0.0
  in
  Fun.protect ~finally:(fun () -> close_in ic) go

type server = { pid : int; conn : Client.conn }

(* Start [iowpdb serve ARGS] and return it once a Health request is
   answered, with the seconds that took: process start to first answer. *)
let spawn ~cli ~socket ~log args =
  (try Sys.remove socket with Sys_error _ -> ());
  let argv =
    Array.of_list
      ((cli :: "serve" :: args)
      @ [ "--socket"; socket; "--deadline"; "0"; "--domains"; "1" ])
  in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let err = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644 in
  let t0 = now () in
  let pid = Unix.create_process cli argv null null err in
  live_pids := pid :: !live_pids;
  Unix.close null;
  Unix.close err;
  let rec connect () =
    match Client.connect (`Unix socket) with
    | c -> c
    | exception Errors.Error _ ->
      (match Unix.waitpid [ Unix.WNOHANG ] pid with
      | 0, _ -> ()
      | _ ->
        forget pid;
        die "server exited during start-up (see %s)" log);
      if now () -. t0 > 60.0 then die "server did not come up in 60 s";
      Unix.sleepf 0.0002;
      connect ()
  in
  let conn = connect () in
  match Client.request conn Protocol.Health with
  | Protocol.Health_ok _ -> ({ pid; conn }, now () -. t0)
  | _ -> die "server answered Health with something else"

let stop s =
  (try ignore (Client.request s.conn Protocol.Drain) with _ -> ());
  Client.close s.conn;
  let t0 = now () in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] s.pid with
    | 0, _ when now () -. t0 < 15.0 ->
      Unix.sleepf 0.005;
      wait ()
    | 0, _ ->
      Unix.kill s.pid Sys.sigkill;
      ignore (Unix.waitpid [] s.pid)
    | _ -> ()
  in
  wait ();
  forget s.pid

(* Start the server [k] times and keep the last: the set-up times of
   all [k] starts at nominal host speed, and the server. *)
let boot ~k ~cli ~socket ~log args =
  let rec go i acc =
    let s, dt = spawn ~cli ~socket ~log args in
    let dt = Hostref.to_nominal ~now dt in
    if i = k then (s, dt :: acc)
    else begin
      stop s;
      go (i + 1) (dt :: acc)
    end
  in
  go 1 []

let server_counters s =
  match Client.request s.conn Protocol.Stats_req with
  | Protocol.Stats_resp kv -> kv
  | _ -> die "server answered Stats with something else"

let counter_delta before after name =
  let get kv = Option.value ~default:0.0 (List.assoc_opt name kv) in
  get after -. get before

(* ------------------------------------------------------------------ *)
(* Per-run measurements *)

type kind = Query_op | Update_op | Batch_op

(* One timed request: its kind, latency, end time (seconds into the timed
   phase), the operations it answered (0 for a failure reply: budget
   exhausted, shed, overloaded, error; 16 for a batch call), and whether
   it failed. *)
type sample = { kind : kind; lat : float; t_end : float; ops : int; failed : bool }

(* What the traced replay accumulates besides spans. *)
type layer_counts = {
  mutable probes : float;
  mutable n_used : float;
  mutable decoded : float;
  mutable truncations : int;
  mutable rungs : float;
  mutable robust_calls : int;
  mutable lifted : int;
  mutable routed : int;
  mutable lineage_size : float;
  mutable bdd_nodes : float;
  mutable wmc_bits : float;
  mutable compiled : int;
  mutable apply_hit : float;
  mutable apply_miss : float;
  mutable resp_bytes : float;
  mutable overhead : float;
  mutable staged : float;  (* time in replayed stages *)
}

let layer_counts () =
  {
    probes = 0.; n_used = 0.; decoded = 0.; truncations = 0; rungs = 0.;
    robust_calls = 0; lifted = 0; routed = 0; lineage_size = 0.;
    bdd_nodes = 0.; wmc_bits = 0.; compiled = 0; apply_hit = 0.;
    apply_miss = 0.; resp_bytes = 0.; overhead = 0.; staged = 0.;
  }

(* A run's outcome, before it is rendered as metrics. *)
type outcome = {
  host : Hostref.t;  (* host-speed readings of the timed phase *)
  setup_s : float;  (* at nominal host speed *)
  samples : sample list;  (* timed operations, in order *)
  loop_s : float;
  attempted : int;
  failed : int;
  wrong : int;
  rss_mb : float;
  widths : float list;
  trace : (Spans.t * layer_counts * (string * float) list) option;
      (* spans, counts, and extra layer metrics measured directly *)
}

let count_attempts (a : Robust_eval.answer) =
  List.length
    (List.filter (fun (x : Robust_eval.attempt) -> x.tries > 0) a.provenance.attempts)

let stat name = Stats.find (Stats.snapshot ()) name

let den_bits r =
  (* log2 of the denominator, from its decimal length *)
  float_of_int (String.length (Bigint.to_string (Rational.den r))) *. 3.3219

(* [stager ... name f] runs [f] in a span under [parent] and adds its time
   to [stages]. *)
let stager tr ~parent ~req stages name f =
  let r, dt = timed (fun () -> Spans.with_span tr ~parent ~req name (fun _ -> f ())) in
  stages := !stages +. dt;
  r

(* Replay of the engine stages for [phis] on the table [tbl] padded with
   [pad]: lifted members through the safe plan, the others compiled into
   one shared BDD store under first-occurrence order and counted in one
   sweep, as Query_eval and Batch_eval do.  Each call is a stage. *)
let replay_engines tr lc ~parent ~req stages tbl pad phis =
  let staged name f = stager tr ~parent ~req stages name f in
  let lifted, hard = List.partition Query_eval.safe phis in
  lc.lifted <- lc.lifted + List.length lifted;
  lc.routed <- lc.routed + List.length phis;
  List.iter (fun q -> ignore (staged "logic.lifted" (fun () -> Query_eval.boolean_safe tbl q))) lifted;
  if hard <> [] then begin
    let al = Lineage.alphabet (Ti_table.support tbl) in
    let lins = List.map (fun q -> staged "logic.lineage" (fun () -> Lineage.of_sentence ~extra:pad al q)) hard in
    List.iter (fun e -> lc.lineage_size <- lc.lineage_size +. float_of_int (Bool_expr.size e)) lins;
    let h0 = stat "bdd.apply.hit" and m0 = stat "bdd.apply.miss" in
    let roots =
      staged "kc.compile" (fun () ->
          let tbl = Hashtbl.create 64 in
          List.iter
            (fun e ->
              List.iter
                (fun v -> if not (Hashtbl.mem tbl v) then Hashtbl.add tbl v (Hashtbl.length tbl))
                (Bool_expr.occurrence_order e))
            lins;
          let order v =
            match Hashtbl.find_opt tbl v with Some r -> r | None -> v + Hashtbl.length tbl
          in
          let m = Bdd.manager ~order () in
          Array.of_list (List.map (Bdd.of_expr m) lins))
    in
    lc.apply_hit <- lc.apply_hit +. (stat "bdd.apply.hit" -. h0);
    lc.apply_miss <- lc.apply_miss +. (stat "bdd.apply.miss" -. m0);
    Array.iter (fun r -> lc.bdd_nodes <- lc.bdd_nodes +. float_of_int (Bdd.size r)) roots;
    lc.compiled <- lc.compiled + Array.length roots;
    let ps =
      staged "kc.wmc" (fun () ->
          Bdd.fold_prob_many ~zero:Rational.zero ~one:Rational.one
            ~node:(fun v lo hi ->
              let p = Ti_table.prob tbl (Lineage.fact_of_var al v) in
              Rational.add (Rational.mul p hi) (Rational.mul (Rational.compl p) lo))
            roots)
    in
    Array.iter (fun p -> lc.wmc_bits <- lc.wmc_bits +. den_bits p) ps
  end

(* Replay of one served evaluation: each stage the robust ladder runs,
   through the layer's public function in its own span, then the ladder
   itself.  [prefix_span] names the materialization of the truncated
   prefix ("store.decode" on a pack).  Returns the ladder's time. *)
let replay_eval tr lc ~parent ~req ~src_of ~prefix_span phi eps =
  let stages = ref 0.0 in
  let staged name f = stager tr ~parent ~req stages name f in
  let p0 = stat "source.tail_probe" in
  let trunc = staged "iowpdb.truncation" (fun () -> Approx_eval.truncation_r (src_of ()) ~eps) in
  lc.probes <- lc.probes +. (stat "source.tail_probe" -. p0);
  (match trunc with
  | Error e -> die "replay: truncation failed: %s" (Errors.to_string e)
  | Ok (n, _) ->
    lc.truncations <- lc.truncations + 1;
    lc.n_used <- lc.n_used +. float_of_int n;
    let d0 = stat "store.fact.decode" in
    let tbl = staged prefix_span (fun () -> Fact_source.truncate (src_of ()) n) in
    lc.decoded <- lc.decoded +. (stat "store.fact.decode" -. d0);
    let pad = staged "pdb.pad" (fun () -> Batch_eval.padding tbl [| phi |]) in
    replay_engines tr lc ~parent ~req stages tbl pad [ phi ]);
  let a, dt =
    timed (fun () ->
        Spans.with_span tr ~parent ~req "robust.query" (fun _ ->
            Robust_eval.query ~eps ~seed:0 (src_of ()) phi))
  in
  lc.robust_calls <- lc.robust_calls + 1;
  lc.rungs <- lc.rungs +. float_of_int (count_attempts a);
  lc.staged <- lc.staged +. !stages;
  dt

(* ------------------------------------------------------------------ *)
(* Serve workloads *)

let query_req (q : Gen.query) =
  Protocol.Query
    { query = q.text; eps = Some q.eps; deadline_ms = None; mc_samples = None; seed = 0 }

let failure_reply = function
  | Protocol.Answer a -> a.budget_exhausted || a.shed
  | Protocol.Update_ok _ -> false
  | _ -> true

let geometric () =
  Fact_source.geometric ~first:(Rational.of_ints 1 4) ~ratio:(Rational.of_ints 1 2)
    ~facts:(fun j -> Fact.make "N" [ Value.Int j ])
    ()

(* serve-pack's completion: none, so the pack's sidecar alone
   certifies the tail (the CLI maps --policy lambda:0:0 to this). *)
let no_completion () = Fact_source.of_list []

let reads_hot phi = List.mem_assoc "U" (Fo.relations phi)

let run_serve (a : args) ~dir =
  let open_world = a.workload = "serve-open-world" in
  (* serve-open-world and serve-pack boot from the pack. *)
  let packed = open_world || a.workload = "serve-pack" in
  let warm = if packed then 5 else 40 in
  let per_s = if packed then 100 else 8000 in
  let n = warm + (int_of_float a.seconds * per_s) in
  let inp = Gen.generate ~workload:a.workload ~seed:a.seed ~n in
  ignore (Inputs.write ~dir ~workload:a.workload inp);
  let table = Inputs.table_path dir in
  let server_args =
    if open_world then [ "--store"; Inputs.pack_path dir ]
    else if packed then [ "--store"; Inputs.pack_path dir; "--policy"; "lambda:0:0" ]
    else [ table; "--updatable" ]
  in
  let rest = if open_world then geometric else no_completion in
  let socket = Filename.concat dir "s.sock" and log = Filename.concat dir "serve.log" in
  let host = Hostref.create () in
  let srv, setup_before = boot ~k:6 ~cli:a.cli ~socket ~log server_args in
  let srv = ref srv in
  let base = Ti_table.of_file table in
  (* Traced-replay state. *)
  let pack = if packed then Some (Store.load (Inputs.pack_path dir)) else None in
  let tr = ref (Spans.create ()) and lc = ref (layer_counts ()) in
  let sessions = Hashtbl.create 8 in
  let apply_to_sessions d =
    let delta = Delta_eval.delta_of_string d in
    Hashtbl.iter (fun _ s -> ignore (Delta_eval.Certified.apply s delta)) sessions
  in
  (* Per-op records for the correctness check. *)
  let mirror = ref base and version = ref 0 in
  let checks = ref [] and samples = ref [] and widths = ref [] in
  (* The op span runs from the request's send to the end of its replay;
     its self time is the tracing bookkeeping. *)
  let replay ~req ~t0 op resp rtt ~mirror_before =
    let tr = !tr and lc = !lc in
    let root = Spans.fresh tr in
    Spans.record tr ~id:(Spans.fresh tr) ~parent:root ~req "request" t0 (t0 +. rtt);
    let sp name f = Spans.with_span tr ~parent:root ~req name (fun _ -> f ()) in
    let preq = match op with Gen.Query q -> query_req q | Gen.Update d -> Protocol.Update { delta = d } in
    let bytes, codec =
      timed (fun () ->
          sp "serve.codec" (fun () ->
              ignore (Protocol.decode_request (Protocol.encode_request preq));
              let r = Protocol.encode_response resp in
              ignore (Protocol.decode_response r);
              String.length r))
    in
    lc.resp_bytes <- lc.resp_bytes +. float_of_int bytes;
    let server_side =
      match (op, resp) with
      | Gen.Query q, Protocol.Answer ans ->
        let phi, parse = timed (fun () -> sp "logic.parse" (fun () -> Fo_parse.parse_exn q.text)) in
        let eval =
          if ans.cached then 0.0
          else
            let src_of, prefix_span =
              match pack with
              | Some st -> ((fun () -> Store.fact_source ~rest:(rest ()) st), "store.decode")
              | None -> ((fun () -> Fact_source.of_ti_table mirror_before), "iowpdb.prefix")
            in
            replay_eval tr lc ~parent:root ~req ~src_of ~prefix_span phi q.eps
        in
        (match Hashtbl.find_opt sessions q.text with
        | Some s ->
          ignore (sp "pdb.delta_session" (fun () -> Robust_eval.query_session ~eps:q.eps s))
        | None -> ());
        parse +. eval
      | Gen.Update d, _ ->
        let _, dt =
          timed (fun () ->
              sp "pdb.update_apply" (fun () ->
                  Delta_eval.apply_table mirror_before (Delta_eval.delta_of_string d)))
        in
        sp "pdb.delta_session" (fun () -> apply_to_sessions d);
        dt
      | _ -> 0.0
    in
    lc.overhead <- lc.overhead +. (rtt -. codec -. server_side);
    Spans.record tr ~id:root ~parent:0 ~req "op" t0 (now ())
  in
  let t_start = ref 0.0 in
  let step ~timed_op ~trace i =
    let op = inp.ops.(i) in
    let req = match op with Gen.Query q -> query_req q | Gen.Update d -> Protocol.Update { delta = d } in
    let mirror_before = !mirror in
    let t0 = now () in
    let resp = Client.request !srv.conn req in
    let lat = now () -. t0 in
    (match op with
    | Gen.Update d ->
      mirror := Delta_eval.apply_table !mirror (Delta_eval.delta_of_string d);
      incr version
    | Gen.Query q ->
      if trace && (not packed) && not (Hashtbl.mem sessions q.text) then begin
        let phi = Fo_parse.parse_exn q.text in
        if reads_hot phi then
          Hashtbl.replace sessions q.text (Delta_eval.Certified.create mirror_before phi)
      end);
    if timed_op then begin
      let kind = match op with Gen.Query _ -> Query_op | Gen.Update _ -> Update_op in
      let failed = failure_reply resp in
      samples :=
        { kind; lat; t_end = t0 +. lat -. !t_start; ops = (if failed then 0 else 1); failed }
        :: !samples;
      checks := (op, resp, mirror_before, !version) :: !checks;
      match resp with
      | Protocol.Answer ans -> widths := (ans.hi -. ans.lo) :: !widths
      | _ -> ()
    end;
    (* The pack workloads replay every other timed request: a replay
       costs as much as the request, and the traced run's query_p95_s
       needs 200 round trips.  The sessions follow every update of a
       traced run, replayed or not. *)
    if trace && ((not timed_op) || (not packed) || i mod 2 = 0) then
      replay ~req:i ~t0 op resp lat ~mirror_before
    else
      match op with
      | Gen.Update d when a.trace -> apply_to_sessions d
      | _ -> ()
  in
  (* The timed phase runs on three servers in turn, each warmed up like
     the first: one server's heap layout, GC timing and placement on the
     cores move its peak memory by up to 30% and its throughput by up to
     20% against another's on the same requests, and the median over
     three servers damps that.  A new hot-updates server boots from the
     table as the updates so far left it. *)
  let segments = 3 in
  let next_server_args seg =
    if packed then server_args
    else begin
      let path = Filename.concat dir (Printf.sprintf "table-%d.ti" seg) in
      Out_channel.with_open_bin path (fun oc -> Ti_table.to_channel oc !mirror);
      [ path; "--updatable" ]
    end
  in
  let before = ref [] and counted = ref [] and peaks = ref [] in
  let retire () =
    counted := (!before, server_counters !srv) :: !counted;
    peaks := rss_peak_mb (string_of_int !srv.pid) :: !peaks;
    stop !srv
  in
  for i = 0 to warm - 1 do
    step ~timed_op:false ~trace:a.trace i
  done;
  tr := Spans.create ();
  lc := layer_counts ();
  before := server_counters !srv;
  t_start := now ();
  let i = ref warm and seg = ref 1 in
  while !i < n && now () -. !t_start < a.seconds do
    if now () -. !t_start >= a.seconds *. float_of_int !seg /. float_of_int segments then begin
      (* The switch and its untimed warm-up requests are not timed: the
         phase's clock resumes after them. *)
      let t_pause = now () in
      retire ();
      srv := fst (spawn ~cli:a.cli ~socket ~log (next_server_args !seg));
      for _ = 1 to warm do
        if !i < n then (step ~timed_op:false ~trace:false !i; incr i)
      done;
      before := server_counters !srv;
      t_start := !t_start +. (now () -. t_pause);
      incr seg
    end;
    if !i < n then step ~timed_op:true ~trace:a.trace !i;
    Hostref.sample host ~now ~t_start:!t_start;
    incr i
  done;
  let loop_s = now () -. !t_start in
  retire ();
  let rss_mb = median !peaks in
  (* More starts after the timed phase, so the set-up median spans the
     run instead of one moment of it. *)
  let setup_after = snd (boot ~k:5 ~cli:a.cli ~socket ~log server_args) in
  let setup_s = median (setup_before @ setup_after) in
  (* Correctness, outside the timed phase. *)
  let memo tbl key f =
    match Hashtbl.find_opt tbl key with
    | Some r -> r
    | None ->
      let r = f () in
      Hashtbl.replace tbl key r;
      r
  in
  let enclosures = Hashtbl.create 64 and exact = Hashtbl.create 64 in
  let correct (op, resp, tbl, version) =
    match (op, resp) with
    | Gen.Query q, Protocol.Answer ans when open_world ->
      let iv =
        memo enclosures q.key (fun () ->
            let src = Fact_source.append_finite (Ti_table.facts base) (geometric ()) in
            (Approx_eval.boolean src ~eps:(q.eps /. 10.0) (Fo_parse.parse_exn q.text))
              .Approx_eval.bounds)
      in
      ans.lo <= Interval.hi iv && Interval.lo iv <= ans.hi
      && ans.hi -. ans.lo <= 2.0 *. q.eps
    | Gen.Query q, Protocol.Answer ans ->
      let phi = Fo_parse.parse_exn q.text in
      (* serve-pack's texts never repeat; its references are memoized on
         the sentence up to renaming. *)
      let key =
        if packed then q.key
        else if reads_hot phi then Printf.sprintf "%s@%d" q.text version
        else q.text
      in
      let p =
        memo exact key (fun () ->
            Query_eval.boolean ~extra_domain:(Batch_eval.padding tbl [| phi |]) tbl phi)
      in
      Rational.(of_float_exn ans.lo <= p && p <= of_float_exn ans.hi)
      && ans.hi -. ans.lo <= 2.0 *. q.eps
    | Gen.Update _, Protocol.Update_ok u -> u.relation = "U" && not u.noop
    | _ -> false
  in
  let samples = List.rev !samples in
  let failed = List.length (List.filter (fun (s : sample) -> s.failed) samples) in
  let wrong =
    List.length (List.filter (fun (_, resp, _, _ as c) -> not (failure_reply resp) && not (correct c)) !checks)
  in
  let attempted = List.length samples in
  let extra =
    let delta name = List.fold_left (fun acc (b, a) -> acc +. counter_delta b a name) 0.0 !counted in
    let hit = delta "serve.cache.hit" and miss = delta "serve.cache.miss" in
    let queries = delta "serve.requests" in
    [
      ("serve.cache.hit_share", if hit +. miss > 0.0 then hit /. (hit +. miss) else 0.0);
      ("serve.cache.evict", delta "serve.cache.evict");
      ("serve.shed_share", if queries > 0.0 then delta "serve.shed" /. queries else 0.0);
      ( "store.load_s",
        if packed then
          median (List.init 5 (fun _ -> snd (timed (fun () -> Store.load (Inputs.pack_path dir)))))
        else 0.0 );
    ]
  in
  {
    host;
    setup_s;
    samples;
    loop_s;
    attempted;
    failed;
    wrong;
    rss_mb;
    widths = !widths;
    trace = (if a.trace then Some (!tr, !lc, extra) else None);
  }

(* ------------------------------------------------------------------ *)
(* batch-compile *)

let pool_batches = 256

let run_batch (a : args) ~dir =
  let inp = Gen.generate ~workload:a.workload ~seed:a.seed ~n:pool_batches in
  ignore (Inputs.write ~dir ~workload:a.workload inp);
  (* Setup: table and query load, as the batch entry point's caller
     pays it; repeated, median reported. *)
  let load () =
    let tbl = Ti_table.of_file (Inputs.table_path dir) in
    let qs = Array.map (Array.map Fo_parse.parse_exn) (Inputs.read_batches (Inputs.batches_path dir)) in
    (tbl, qs)
  in
  let host = Hostref.create () in
  let load_timed () =
    Gc.full_major ();
    let r, dt = timed load in
    (r, Hostref.to_nominal ~now dt)
  in
  (* Only the first load is kept, so the repetitions do not inflate the
     process's peak memory. *)
  let (tbl, qs), first = load_timed () in
  let setup_before = first :: List.init 5 (fun _ -> snd (load_timed ())) in
  (* References first (outside the timed phase): every member of the
     pool against the member-wise exact answer, memoized on the member's
     sentence up to renaming.  Results are then checked as they arrive
     and dropped, so the process keeps only what evaluation needs. *)
  let refs = Hashtbl.create 64 in
  Array.iteri
    (fun b members ->
      Array.iteri
        (fun j (q : Gen.query) ->
          if not (Hashtbl.mem refs q.key) then
            let phi = qs.(b).(j) in
            Hashtbl.replace refs q.key
              (Query_eval.boolean ~extra_domain:(Batch_eval.padding tbl [| phi |]) tbl phi))
        members)
    inp.batches;
  let wrong = ref 0 and members = ref 0 in
  let check i (res : Rational.t Batch_eval.result) =
    let gen = inp.batches.(i mod pool_batches) in
    Array.iteri
      (fun j (m : Rational.t Batch_eval.member) ->
        incr members;
        if not (Rational.equal m.prob (Hashtbl.find refs gen.(j).key)) then incr wrong)
      res.members
  in
  let tr = Spans.create () and lc = layer_counts () in
  let samples = ref [] in
  let call i = Batch_eval.boolean ~domains:1 tbl qs.(i mod pool_batches) in
  let replay ~req ~t0 i lat =
    let root = Spans.fresh tr in
    Spans.record tr ~id:(Spans.fresh tr) ~parent:root ~req "pdb.batch" t0 (t0 +. lat);
    let sp name f = Spans.with_span tr ~parent:root ~req name (fun _ -> f ()) in
    let members = inp.batches.(i mod pool_batches) in
    let qs = qs.(i mod pool_batches) in
    ignore (sp "logic.parse" (fun () -> Array.map (fun (q : Gen.query) -> Fo_parse.parse_exn q.text) members));
    let stages = ref 0.0 in
    let staged name f = stager tr ~parent:root ~req stages name f in
    let pad = staged "pdb.pad" (fun () -> Batch_eval.padding tbl qs) in
    let seen = Hashtbl.create 16 in
    let distinct =
      List.filter
        (fun q ->
          let k = Fo.to_string q in
          if Hashtbl.mem seen k then false else (Hashtbl.add seen k (); true))
        (Array.to_list qs)
    in
    replay_engines tr lc ~parent:root ~req stages tbl pad distinct;
    lc.staged <- lc.staged +. !stages;
    Spans.record tr ~id:root ~parent:0 ~req "op" t0 (now ())
  in
  let t_start = ref 0.0 in
  let step ~timed_op i =
    let t0 = now () in
    let res = call i in
    let lat = now () -. t0 in
    if timed_op then begin
      samples :=
        { kind = Batch_op; lat; t_end = t0 +. lat -. !t_start; ops = Array.length res.members; failed = false }
        :: !samples;
      check i res;
      if a.trace then replay ~req:i ~t0 i lat
    end
  in
  step ~timed_op:false 0;
  step ~timed_op:false 1;
  t_start := now ();
  let i = ref 2 in
  while now () -. !t_start < a.seconds do
    step ~timed_op:true !i;
    Hostref.sample host ~now ~t_start:!t_start;
    incr i
  done;
  let loop_s = now () -. !t_start in
  let rss_mb = rss_peak_mb "self" in
  let setup_s = median (setup_before @ List.init 5 (fun _ -> snd (load_timed ()))) in
  let samples = List.rev !samples in
  {
    host;
    setup_s;
    samples;
    loop_s;
    attempted = !members;
    failed = 0;
    wrong = !wrong;
    rss_mb;
    widths = [];
    trace = (if a.trace then Some (tr, lc, []) else None);
  }

(* ------------------------------------------------------------------ *)
(* Metrics *)

(* The timed phase cut into one-second windows by request end time, each
   with its samples and the factor that brings its times to nominal host
   speed (from the readings taken in that window). *)
let windows o =
  let k = max 1 (int_of_float o.loop_s) in
  let w = o.loop_s /. float_of_int k in
  let per = Array.make k [] in
  List.iter
    (fun s ->
      let i = min (k - 1) (int_of_float (s.t_end /. w)) in
      per.(i) <- s :: per.(i))
    o.samples;
  ( w,
    List.init k (fun i ->
        (per.(i), Hostref.scale o.host ~lo:(float_of_int i *. w) ~hi:(float_of_int (i + 1) *. w))) )

(* Every sample with its latency at nominal host speed. *)
let scaled o =
  List.concat_map (fun (ss, k) -> List.map (fun s -> { s with lat = s.lat *. k }) ss) (snd (windows o))

(* Answered operations over the timed phase at nominal host speed. *)
let ops_per_s o =
  let w, per = windows o in
  let ops = List.fold_left (fun n s -> n + s.ops) 0 o.samples in
  float_of_int ops /. List.fold_left (fun t (_, k) -> t +. (w *. k)) 0.0 per

let end_to_end o =
  let lats = List.map (fun s -> s.lat) (scaled o) in
  [
    ("setup_s", o.setup_s);
    ("request_p50_s", percentile lats 0.50);
    ("request_p95_s", percentile lats 0.95);
    ("ops_per_s", ops_per_s o);
    ( "ok_share",
      float_of_int (o.attempted - o.failed - o.wrong) /. float_of_int (max 1 o.attempted) );
    ("rss_peak_mb", o.rss_mb);
  ]

let per_layer o =
  let tr, lc, extra = Option.get o.trace in
  (* Layer figures are per replayed request. *)
  let replayed = List.length (List.filter (fun s -> s.Spans.name = "op") tr.Spans.spans) in
  let n = float_of_int (max 1 replayed) in
  let per_op name = Spans.total tr name /. n in
  let ratio a b = if b > 0.0 then a /. b else 0.0 in
  let scaled = scaled o in
  let kind_lats k = List.filter_map (fun s -> if s.kind = k then Some s.lat else None) scaled in
  let pct k q = percentile (kind_lats k) q in
  let robust = Spans.total tr "robust.query" +. Spans.total tr "pdb.batch" in
  let self = Spans.self_times tr in
  let op_self =
    List.fold_left (fun acc s -> if s.Spans.name = "op" then acc +. self s else acc) 0.0 tr.Spans.spans
  in
  let rtt = Spans.total tr "request" +. Spans.total tr "pdb.batch" in
  let nz x = float_of_int (max 1 x) in
  [
    ("query_p50_s", pct Query_op 0.50);
    ("query_p95_s", pct Query_op 0.95);
    ("update_p50_s", pct Update_op 0.50);
    ("update_p95_s", pct Update_op 0.95);
    ("batch_p50_s", pct Batch_op 0.50);
    ("batch_p95_s", pct Batch_op 0.95);
    ("width_mean", mean o.widths);
    ("serve.codec_s", per_op "serve.codec");
    ("serve.response_bytes", lc.resp_bytes /. n);
    ("serve.overhead_s", lc.overhead /. n);
    ("store.decode_s", per_op "store.decode");
    ("store.facts_decoded", lc.decoded /. nz lc.truncations);
    ("iowpdb.truncation_s", per_op "iowpdb.truncation");
    ("iowpdb.tail_probes", lc.probes /. nz lc.truncations);
    ("iowpdb.n_used", lc.n_used /. nz lc.truncations);
    ("robust.query_s", per_op "robust.query");
    ("robust.rungs_run", lc.rungs /. nz lc.robust_calls);
    ("robust.residual_share", if robust > 0.0 then 1.0 -. (lc.staged /. robust) else 0.0);
    ("pdb.batch_s", per_op "pdb.batch");
    ("pdb.route_lifted_share", ratio (float_of_int lc.lifted) (float_of_int lc.routed));
    ("pdb.pad_s", per_op "pdb.pad");
    ("pdb.update_apply_s", per_op "pdb.update_apply");
    ("pdb.delta_session_s", per_op "pdb.delta_session");
    ("logic.parse_s", per_op "logic.parse");
    ("logic.lifted_s", per_op "logic.lifted");
    ("logic.lineage_s", per_op "logic.lineage");
    ("logic.lineage_size", lc.lineage_size /. nz lc.compiled);
    ("kc.compile_s", per_op "kc.compile");
    ("kc.bdd_nodes", lc.bdd_nodes /. nz lc.compiled);
    ("kc.apply_hit_share", ratio lc.apply_hit (lc.apply_hit +. lc.apply_miss));
    ("kc.wmc_s", per_op "kc.wmc");
    ("kc.wmc_bits", lc.wmc_bits /. nz lc.compiled);
    ("trace.overhead_share", ratio op_self rtt);
    ("trace.spans", float_of_int (Spans.count tr) /. n);
    ("host.unit_s", Hostref.unit_s o.host);
  ]
  @ List.map
      (fun k -> (k, Option.value ~default:0.0 (List.assoc_opt k extra)))
      [ "serve.cache.hit_share"; "serve.cache.evict"; "serve.shed_share"; "store.load_s" ]

(* ------------------------------------------------------------------ *)
(* Self-check: K runs, medians and quartiles *)

let value_in line name =
  let key = Printf.sprintf "%S: {\"value\": " name in
  let kl = String.length key and ll = String.length line in
  let rec find i =
    if i + kl > ll then None
    else if String.sub line i kl = key then
      let j = ref (i + kl) in
      while !j < ll && line.[!j] <> ',' do incr j done;
      float_of_string_opt (String.sub line (i + kl) (!j - i - kl))
    else find (i + 1)
  in
  find 0

let self_check (a : args) k =
  let schema = if a.trace then Schema.per_layer else Schema.end_to_end in
  let runs =
    List.init k (fun i ->
        let seed = a.seed + i in
        let cmd =
          Printf.sprintf "%s --workload %s --seed %d --seconds %d --trace %d --cli %s"
            (Filename.quote Sys.executable_name) a.workload seed
            (int_of_float a.seconds) (if a.trace then 1 else 0) (Filename.quote a.cli)
        in
        let ic = Unix.open_process_in cmd in
        let rec last acc = match input_line ic with l -> last l | exception End_of_file -> acc in
        let line = last "" in
        (match Unix.close_process_in ic with
        | Unix.WEXITED 0 -> ()
        | _ -> die "run with seed %d failed" seed);
        Printf.eprintf "seed %d: %s\n%!" seed line;
        line)
  in
  Printf.printf "%-24s %12s %12s %12s %8s\n" "metric" "q1" "median" "q3" "spread";
  List.iter
    (fun (m : Schema.metric) ->
      let vs = List.filter_map (fun l -> value_in l m.name) runs in
      let q1, q2, q3 = quartiles vs in
      Printf.printf "%-24s %12.6g %12.6g %12.6g %8.4f\n" m.name q1 q2 q3
        (if q2 <> 0.0 then (q3 -. q1) /. Float.abs q2 else 0.0))
    schema

(* ------------------------------------------------------------------ *)

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let () =
  let a = parse_args () in
  match a.self_check with
  | Some k -> self_check a k
  | None ->
    let root = ".perfbench" in
    (try Sys.mkdir root 0o755 with Sys_error _ -> ());
    let dir = Filename.concat root (Printf.sprintf "run-%d" (Unix.getpid ())) in
    Sys.mkdir dir 0o755;
    let o =
      Fun.protect ~finally:(fun () -> rm_rf dir) (fun () ->
          if a.workload = "batch-compile" then run_batch a ~dir else run_serve a ~dir)
    in
    (match o.trace with
    | Some (tr, _, _) ->
      Spans.write tr
        (Filename.concat root (Printf.sprintf "spans-%s-%d.tsv" a.workload a.seed))
    | None -> ());
    let schema, values =
      if a.trace then (Schema.per_layer, per_layer o) else (Schema.end_to_end, end_to_end o)
    in
    Printf.eprintf "perfbench: host unit %.3f ms (median of %d readings; nominal %.3f ms)\n%!"
      (1e3 *. Hostref.unit_s o.host) (List.length o.host.readings) (1e3 *. Hostref.nominal_s);
    print_endline
      (Schema.emit ~schema ~correct:(o.wrong = 0) ~attempted:o.attempted ~failed:o.failed values);
    if o.wrong > 0 then begin
      Printf.eprintf "perfbench: %d wrong answers\n" o.wrong;
      exit 1
    end
