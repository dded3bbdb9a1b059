(* Tests for the serving layer: frame and message codecs (round-trip,
   truncation, size caps), the latency histogram under concurrent
   domains, the pure admission ladder, the epsilon-aware result cache,
   and end-to-end client/server sessions — soundness under deadlines and
   overload, graceful drain, and bit-reproducibility of a long
   fault-injected session. *)

let i n = Value.Int n
let q = Rational.of_ints
let fact r args = Fact.make r (List.map i args)

(* R(1)=1/2, R(2)=1/3, R(3)=1/4: P(exists x. R(x)) = 3/4 exactly. *)
let table_facts =
  [ (fact "R" [ 1 ], q 1 2); (fact "R" [ 2 ], q 1 3); (fact "R" [ 3 ], q 1 4) ]

let finite_source () = Fact_source.of_list table_facts

(* The same closed-world facts completed by an infinite geometric tail
   of N(j) facts — the open-world shape where truncation really works. *)
let open_source () =
  Fact_source.append_finite table_facts
    (Fact_source.geometric ~first:Rational.half ~ratio:Rational.half
       ~facts:(fun j -> fact "N" [ j ])
       ())

(* A request that genuinely needs far more than a 1 ms deadline: three
   variables grounded over the open world's ~30 domain values (negation
   keeps it off the lifted rung), tens of milliseconds of lineage and
   BDD work at eps = 1e-6. *)
let costly = "exists x. exists y. exists z. N(x) & N(y) & N(z) & !R(y)"

(* ------------------------------------------------------------------ *)
(* Framing *)
(* ------------------------------------------------------------------ *)

(* A seekable temp fd stands in for the socket: write_frame then rewind
   and read_frame — no pairing of reader/writer threads needed even for
   max-size frames. *)
let with_frame_fd f =
  let path = Filename.temp_file "iowpdb_frame" ".bin" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
  @@ fun () ->
  let fd = Unix.openfile path [ Unix.O_RDWR; Unix.O_TRUNC ] 0o600 in
  Fun.protect ~finally:(fun () -> Unix.close fd) (fun () -> f fd)

let frame_roundtrip payload =
  with_frame_fd @@ fun fd ->
  Protocol.write_frame fd payload;
  ignore (Unix.lseek fd 0 Unix.SEEK_SET);
  Protocol.read_frame fd

let prop_frame_roundtrip =
  QCheck.Test.make ~name:"frame round-trip preserves arbitrary payloads"
    ~count:100
    QCheck.(string_of_size (Gen.int_bound 4096))
    (fun payload -> frame_roundtrip payload = payload)

(* The frame cap is 1 MiB. *)
let max_frame = 1 lsl 20

let test_frame_max_size () =
  let payload = String.make max_frame 'x' in
  Alcotest.(check int) "max-size frame round-trips" max_frame
    (String.length (frame_roundtrip payload));
  match frame_roundtrip (payload ^ "y") with
  | _ -> Alcotest.fail "oversized payload must be rejected at write"
  | exception Invalid_argument _ -> ()

let test_frame_truncated () =
  with_frame_fd @@ fun fd ->
  Protocol.write_frame fd "hello, frames";
  let len = Unix.lseek fd 0 Unix.SEEK_CUR in
  Unix.ftruncate fd (len - 3);
  ignore (Unix.lseek fd 0 Unix.SEEK_SET);
  match Protocol.read_frame fd with
  | _ -> Alcotest.fail "truncated frame must not decode"
  | exception Protocol.Frame_error Protocol.Truncated -> ()

let test_frame_oversized_header () =
  with_frame_fd @@ fun fd ->
  let header = Bytes.create 4 in
  Bytes.set_int32_be header 0 (Int32.of_int (max_frame + 1));
  ignore (Unix.write fd header 0 4);
  ignore (Unix.lseek fd 0 Unix.SEEK_SET);
  match Protocol.read_frame fd with
  | _ -> Alcotest.fail "oversized declared length must be rejected"
  | exception Protocol.Frame_error (Protocol.Oversized _) -> ()

let test_frame_closed () =
  with_frame_fd @@ fun fd ->
  match Protocol.read_frame fd with
  | _ -> Alcotest.fail "EOF must read as Closed"
  | exception Protocol.Frame_error Protocol.Closed -> ()

(* ------------------------------------------------------------------ *)
(* Message codec *)
(* ------------------------------------------------------------------ *)

let gen_request =
  let open QCheck.Gen in
  let str = string_size ~gen:(int_range 0 255 >|= Char.chr) (int_bound 64) in
  frequency
    [
      ( 4,
        str >>= fun query ->
        opt (float_range 0.001 0.4) >>= fun eps ->
        opt (int_bound 10_000) >>= fun deadline_ms ->
        opt (int_bound 100_000) >>= fun mc_samples ->
        small_nat >|= fun seed ->
        Protocol.Query { query; eps; deadline_ms; mc_samples; seed } );
      (1, str >|= fun delta -> Protocol.Update { delta });
      (1, return Protocol.Health);
      (1, return Protocol.Stats_req);
      (1, return Protocol.Drain);
    ]

let prop_request_roundtrip =
  QCheck.Test.make ~name:"request codec round-trips (incl. nasty strings)"
    ~count:300
    (QCheck.make gen_request)
    (fun req -> Protocol.decode_request (Protocol.encode_request req) = Ok req)

let test_response_roundtrip () =
  let check resp =
    Alcotest.(check bool)
      "response round-trips" true
      (Protocol.decode_response (Protocol.encode_response resp) = Ok resp)
  in
  check
    (Protocol.Answer
       {
         lo = 0.1;
         hi = 0.30000000000000004;
         estimate = 0.2;
         provenance = "line one\nline two\twith=equals";
         budget_exhausted = true;
         cached = false;
         shed = true;
       });
  check (Protocol.Update_ok { relation = "R"; epoch = 3; noop = false });
  check (Protocol.Overloaded { retry_after_ms = 250; draining = false });
  check (Protocol.Error_resp { code = 2; msg = "bad\nthings = happened" });
  check (Protocol.Health_ok { draining = true; inflight = 3; uptime_s = 1.5 });
  check
    (Protocol.Stats_resp
       [ ("serve.requests", 12.0); ("serve.latency.p99", 0.015625) ])

let test_decode_garbage () =
  (match Protocol.decode_request "no_such_tag\nq=x" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown tag must not decode");
  match Protocol.decode_request "query\nseed=notanumber\nq=x" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "bad field must not decode"

(* ------------------------------------------------------------------ *)
(* Latency histogram *)
(* ------------------------------------------------------------------ *)

let test_histogram_concurrent_exact () =
  let h =
    Stats.histogram ~bounds:[| 0.001; 0.01; 0.1; 1.0 |] "test.serve.hist"
  in
  let values = [| 0.0005; 0.005; 0.05; 0.5 |] in
  let per_domain = 10_000 in
  let doms =
    List.init 4 (fun d ->
        Domain.spawn (fun () ->
            for _ = 1 to per_domain do
              Stats.observe h values.(d)
            done))
  in
  List.iter Domain.join doms;
  Alcotest.(check int) "no observation lost" (4 * per_domain)
    (Stats.observations h);
  Array.iteri
    (fun idx (_, count) ->
      if idx < 4 then
        Alcotest.(check int)
          (Printf.sprintf "bucket %d exact" idx)
          per_domain count)
    (Stats.bucket_counts h);
  (* Rank arithmetic on the exact counts: the median observation sits in
     the second bucket, the 99th percentile in the last. *)
  Alcotest.(check (float 0.0)) "p50" 0.01 (Stats.quantile h 0.5);
  Alcotest.(check (float 0.0)) "p99" 1.0 (Stats.quantile h 0.99);
  let snap = Stats.snapshot () in
  Alcotest.(check (float 0.0)) "snapshot count" 40_000.0
    (Stats.find snap "test.serve.hist.count")

let test_histogram_empty_and_overflow () =
  let h = Stats.histogram ~bounds:[| 1.0; 2.0 |] "test.serve.hist2" in
  Alcotest.(check (float 0.0)) "empty quantile" 0.0 (Stats.quantile h 0.5);
  Stats.observe h 100.0;
  (* overflow reports the last finite bound, staying JSON-friendly *)
  Alcotest.(check (float 0.0)) "overflow clamped" 2.0 (Stats.quantile h 0.99)

(* ------------------------------------------------------------------ *)
(* Admission *)
(* ------------------------------------------------------------------ *)

let lvl =
  Alcotest.testable
    (Fmt.of_to_string (function
      | Admission.Full -> "full"
      | Degraded -> "degraded"
      | Reject -> "reject"))
    ( = )

(* The ladder through [admit]: a first request spends [spent] of the
   epoch's 100-sample cap, which sets the pressure (spent / 100) the
   second request at [queue_len] is admitted under. *)
let test_admission_decide () =
  let d ~queue_len ~spent =
    let adm =
      Admission.create
        {
          Admission.default_config with
          Admission.queue_bound = 4;
          window_s = 60.0;
          max_samples = Some 100;
        }
    in
    (match Admission.admit adm ~queue_len:0 ~deadline_s:None with
    | Ok t -> Budget.spend t.Admission.budget Budget.Samples spent
    | Error _ -> Alcotest.fail "idle server must admit");
    match Admission.admit adm ~queue_len ~deadline_s:None with
    | Ok t -> t.Admission.level
    | Error _ -> Admission.Reject
  in
  Alcotest.check lvl "idle" Admission.Full (d ~queue_len:0 ~spent:0);
  Alcotest.check lvl "full queue rejects" Admission.Reject
    (d ~queue_len:4 ~spent:0);
  Alcotest.check lvl "high pressure rejects" Admission.Reject
    (d ~queue_len:0 ~spent:95);
  Alcotest.check lvl "medium pressure sheds" Admission.Degraded
    (d ~queue_len:0 ~spent:60);
  Alcotest.check lvl "queue fill sheds" Admission.Degraded
    (d ~queue_len:2 ~spent:0);
  Alcotest.check lvl "light load full" Admission.Full
    (d ~queue_len:1 ~spent:10)

let test_admission_epoch_cap_rejects () =
  let adm =
    Admission.create
      {
        Admission.default_config with
        Admission.window_s = 60.0;
        max_samples = Some 100;
      }
  in
  match Admission.admit adm ~queue_len:0 ~deadline_s:None with
  | Error _ -> Alcotest.fail "idle server must admit"
  | Ok ticket ->
    (* Burn the whole window allowance through the request's child
       budget: spends propagate to the epoch. *)
    Budget.spend ticket.Admission.budget Budget.Samples 100;
    Alcotest.(check (float 1e-9)) "pressure saturated" 1.0
      (Admission.pressure adm);
    (match Admission.admit adm ~queue_len:0 ~deadline_s:None with
    | Error retry_after ->
      Alcotest.(check bool) "retry-after within window" true
        (retry_after >= 0.0 && retry_after <= 60.0)
    | Ok _ -> Alcotest.fail "saturated epoch must reject")

let test_admission_deadline_budget () =
  let adm = Admission.create Admission.default_config in
  match Admission.admit adm ~queue_len:0 ~deadline_s:(Some 0.05) with
  | Error _ -> Alcotest.fail "must admit"
  | Ok ticket -> (
    match Budget.time_remaining ticket.Admission.budget with
    | Some r -> Alcotest.(check bool) "deadline attached" true (r <= 0.05)
    | None -> Alcotest.fail "ticket budget must carry the deadline")

(* ------------------------------------------------------------------ *)
(* Result cache *)
(* ------------------------------------------------------------------ *)

let dummy_answer lo hi =
  {
    Robust_eval.enclosure = Interval.make lo hi;
    estimate = (lo +. hi) /. 2.0;
    provenance = { Robust_eval.attempts = []; stopped = "test"; budget = "" };
  }

let test_cache_eps_aware () =
  let c = Result_cache.create ~capacity:8 in
  Result_cache.store c ~query:"Q" ~epoch:"" (dummy_answer 0.50 0.51);
  (match Result_cache.find c ~query:"Q" ~epoch:"" ~eps:0.01 with
  | Some _ -> ()
  | None -> Alcotest.fail "width 0.01 must satisfy eps 0.01");
  (match Result_cache.find c ~query:"Q" ~epoch:"" ~eps:0.004 with
  | None -> ()
  | Some _ -> Alcotest.fail "width 0.01 must not satisfy eps 0.004");
  (* replacement keeps the narrower enclosure *)
  Result_cache.store c ~query:"Q" ~epoch:"" (dummy_answer 0.50 0.9);
  (match Result_cache.find c ~query:"Q" ~epoch:"" ~eps:0.01 with
  | Some _ -> ()
  | None -> Alcotest.fail "wider answer must not replace a narrower one");
  Result_cache.store c ~query:"Q" ~epoch:"" (dummy_answer 0.500 0.501);
  match Result_cache.find c ~query:"Q" ~epoch:"" ~eps:0.0006 with
  | Some _ -> ()
  | None -> Alcotest.fail "narrower answer must replace"

let test_cache_bounded () =
  let c = Result_cache.create ~capacity:2 in
  Result_cache.store c ~query:"a" ~epoch:"" (dummy_answer 0.1 0.1);
  Result_cache.store c ~query:"b" ~epoch:"" (dummy_answer 0.2 0.2);
  Result_cache.store c ~query:"c" ~epoch:"" (dummy_answer 0.3 0.3);
  Alcotest.(check int) "capacity respected" 2 (Result_cache.length c);
  (match Result_cache.find c ~query:"a" ~epoch:"" ~eps:0.4 with
  | None -> ()
  | Some _ -> Alcotest.fail "oldest entry must be evicted");
  let c0 = Result_cache.create ~capacity:0 in
  Result_cache.store c0 ~query:"a" ~epoch:"" (dummy_answer 0.1 0.1);
  match Result_cache.find c0 ~query:"a" ~epoch:"" ~eps:0.5 with
  | None -> ()
  | Some _ -> Alcotest.fail "capacity 0 disables the cache"

let test_cache_failed_save () =
  let path = Filename.temp_file "iowpdb_warm" ".cache" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
  @@ fun () ->
  let c = Result_cache.create ~capacity:8 in
  Result_cache.store c ~query:"exists x. R(x)" ~epoch:""
    (dummy_answer 0.50 0.51);
  ignore (Result_cache.save c ~path ~validator:"v1");
  Result_cache.store c ~query:"exists x. S(x)" ~epoch:""
    (dummy_answer 0.25 0.25);
  Helpers.check_failed_write path ~write:(fun () ->
      ignore (Result_cache.save c ~path ~validator:"v2"));
  Alcotest.(check int) "old file loads" 1
    (Result_cache.load (Result_cache.create ~capacity:8) ~path ~validator:"v1")

let test_cache_warm_roundtrip () =
  let path = Filename.temp_file "iowpdb_warm" ".cache" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
  @@ fun () ->
  let validator = "deadbeef:geometric:1/4:1/2" in
  let c = Result_cache.create ~capacity:8 in
  Result_cache.store c ~query:"exists x. R(x)" ~epoch:""
    (dummy_answer 0.50 0.51);
  Result_cache.store c ~query:"q \"quoted\"\nnewline" ~epoch:""
    (dummy_answer 0.25 0.25);
  Alcotest.(check int) "saved" 2 (Result_cache.save c ~path ~validator);
  (* Fresh cache, matching validator: everything comes back. *)
  let c' = Result_cache.create ~capacity:8 in
  let reused0 = Stats.count (Stats.counter "serve.cache.warm.reused") in
  Alcotest.(check int) "loaded" 2 (Result_cache.load c' ~path ~validator);
  (match
     Result_cache.find c' ~query:"exists x. R(x)" ~epoch:""
       ~eps:0.01
   with
  | Some a ->
    Alcotest.(check (float 0.0)) "lo survives" 0.50
      (Interval.lo a.Robust_eval.enclosure);
    Alcotest.(check (float 0.0)) "hi survives" 0.51
      (Interval.hi a.Robust_eval.enclosure)
  | None -> Alcotest.fail "restored entry must satisfy its own eps");
  (match
     Result_cache.find c' ~query:"q \"quoted\"\nnewline" ~epoch:""
       ~eps:0.01
   with
  | Some _ -> ()
  | None -> Alcotest.fail "quoting must survive the round-trip");
  Alcotest.(check bool) "warm reuse counted" true
    (Stats.count (Stats.counter "serve.cache.warm.reused") >= reused0 + 2);
  (* A tighter answer computed after restore still replaces the warm one. *)
  Result_cache.store c' ~query:"exists x. R(x)" ~epoch:""
    (dummy_answer 0.500 0.501);
  (match
     Result_cache.find c' ~query:"exists x. R(x)" ~epoch:""
       ~eps:0.0006
   with
  | Some _ -> ()
  | None -> Alcotest.fail "fresh narrower answer must replace the warm one");
  (* Wrong validator: rejected wholesale. *)
  let rejected0 = Stats.count (Stats.counter "serve.cache.warm.rejected") in
  let c'' = Result_cache.create ~capacity:8 in
  Alcotest.(check int) "validator mismatch restores nothing" 0
    (Result_cache.load c'' ~path ~validator:"deadbeef:lambda:1/10:3");
  Alcotest.(check int) "nothing restored" 0 (Result_cache.length c'');
  Alcotest.(check bool) "rejection counted" true
    (Stats.count (Stats.counter "serve.cache.warm.rejected") > rejected0);
  (* Corrupt entry line: the whole file is rejected, not a prefix. *)
  let oc = open_out_gen [ Open_append ] 0o644 path in
  output_string oc "entry \"z\" \"\" 0x1.cp-1 0x1p-3 0x1p-2\n";
  close_out oc;
  let c3 = Result_cache.create ~capacity:8 in
  Alcotest.(check int) "malformed entry rejects the file" 0
    (Result_cache.load c3 ~path ~validator);
  (* A file from the previous format, whose keys carried the policy:
     rejected whole by its header. *)
  Out_channel.with_open_text path (fun oc ->
      Printf.fprintf oc "iowpdb-cache 2\nvalidator %S\n" validator;
      output_string oc "entry \"z\" \"p\" \"\" 0x1p-3 0x1p-2 0x1.8p-3\n");
  Alcotest.(check int) "old format rejects the file" 0
    (Result_cache.load (Result_cache.create ~capacity:8) ~path ~validator);
  (* Missing file: silent cold start. *)
  let c4 = Result_cache.create ~capacity:8 in
  Alcotest.(check int) "missing file restores nothing" 0
    (Result_cache.load c4 ~path:(path ^ ".absent") ~validator)

(* ------------------------------------------------------------------ *)
(* Fault schedule *)
(* ------------------------------------------------------------------ *)

let prop_fault_schedule_pure =
  QCheck.Test.make ~name:"transport fault schedule is pure in (seed, index)"
    ~count:100
    QCheck.(pair small_nat small_nat)
    (fun (seed, idx) ->
      let cfg = Faulty_transport.default ~seed in
      Faulty_transport.fault_at cfg idx = Faulty_transport.fault_at cfg idx)

let test_fault_schedule_mixes () =
  let cfg = Faulty_transport.default ~seed:7 in
  let count p =
    List.length
      (List.filter p (List.init 2000 (Faulty_transport.fault_at cfg)))
  in
  Alcotest.(check bool) "some drops" true
    (count (function Some Faulty_transport.Drop -> true | _ -> false) > 0);
  Alcotest.(check bool) "some delays" true
    (count (function Some (Faulty_transport.Delay _) -> true | _ -> false)
    > 0);
  Alcotest.(check bool) "some truncations" true
    (count (function Some Faulty_transport.Truncate -> true | _ -> false) > 0);
  Alcotest.(check bool) "mostly clean" true
    (count (function None -> true | _ -> false) > 1000)

(* ------------------------------------------------------------------ *)
(* End-to-end sessions *)
(* ------------------------------------------------------------------ *)

let next_socket =
  let n = ref 0 in
  fun () ->
    incr n;
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "iowpdb_test_%d_%d.sock" (Unix.getpid ()) !n)

let with_server ?(domains = 2) ?(admission = Admission.default_config)
    ?default_deadline_s ?(cache_capacity = 64) ?warm_cache ?updatable
    make_source f =
  let path = next_socket () in
  let cfg =
    {
      Server.endpoint = `Unix path;
      make_source;
      domains;
      admission;
      default_eps = 0.01;
      default_samples = 2_000;
      default_deadline_s;
      cache_capacity;
      warm_cache;
      updatable;
    }
  in
  let t = Server.start cfg in
  Fun.protect
    ~finally:(fun () ->
      Server.request_drain t;
      Server.wait t)
    (fun () -> f (`Unix path) t)

let query ?eps ?deadline_ms ?(seed = 0) endpoint q =
  let conn = Client.connect endpoint in
  Fun.protect
    ~finally:(fun () -> Client.close conn)
    (fun () ->
      Client.request conn
        (Protocol.Query { query = q; eps; deadline_ms; mc_samples = None; seed }))

let check_sound = function
  | Protocol.Answer { lo; hi; estimate; _ } ->
    Alcotest.(check bool)
      (Printf.sprintf "sound enclosure [%g, %g] ~ %g" lo hi estimate)
      true
      (0.0 <= lo && lo <= hi && hi <= 1.0 && lo <= estimate && estimate <= hi)
  | _ -> Alcotest.fail "expected an answer"

let test_serve_safe_query_exact () =
  with_server ~default_deadline_s:5.0 finite_source @@ fun ep _t ->
  match query ep "exists x. R(x)" with
  | Protocol.Answer { lo; hi; budget_exhausted; cached; _ } as r ->
    check_sound r;
    Alcotest.(check bool) "contains 3/4" true (lo <= 0.75 && 0.75 <= hi);
    Alcotest.(check bool) "converged, not exhausted" false budget_exhausted;
    Alcotest.(check bool) "first hit not cached" false cached;
    (* Same query again: served from the cache, same enclosure. *)
    (match query ep "exists x. R(x)" with
    | Protocol.Answer { lo = lo'; hi = hi'; cached = cached'; _ } ->
      Alcotest.(check bool) "second hit cached" true cached';
      Alcotest.(check (float 0.0)) "same lo" lo lo';
      Alcotest.(check (float 0.0)) "same hi" hi hi'
    | _ -> Alcotest.fail "expected an answer on repeat")
  | _ -> Alcotest.fail "expected an answer"

let test_serve_unsafe_and_bad_queries () =
  with_server ~default_deadline_s:5.0 finite_source @@ fun ep _t ->
  (* Hard side of the dichotomy: grounded engines answer, still sound. *)
  check_sound (query ep "forall x. R(x)");
  (* Syntax error: structured Error_resp with the user-error code. *)
  (match query ep "exists x. R(" with
  | Protocol.Error_resp { code; _ } -> Alcotest.(check int) "code 2" 2 code
  | _ -> Alcotest.fail "expected a parse error response");
  (* Free variables are a request error too, not a hang. *)
  match query ep "R(x)" with
  | Protocol.Error_resp { code; _ } -> Alcotest.(check int) "code 2" 2 code
  | _ -> Alcotest.fail "expected a free-variable error response"

let test_serve_deadline_sound_enclosure () =
  with_server open_source @@ fun ep _t ->
  let t0 = Unix.gettimeofday () in
  match query ~eps:1e-6 ~deadline_ms:1 ep costly with
  | Protocol.Answer { budget_exhausted; _ } as r ->
    check_sound r;
    Alcotest.(check bool) "deadline tripped the budget" true budget_exhausted;
    Alcotest.(check bool) "returned promptly, no timeout hang" true
      (Unix.gettimeofday () -. t0 < 5.0)
  | _ -> Alcotest.fail "expected a best-so-far answer, not a timeout"

(* Streaming updates: an update to relation R must invalidate exactly
   the cached answers that read R — a stale hit here would serve an
   enclosure the mutated table no longer certifies (the Result_cache
   epoch regression) — while cached answers over untouched relations
   keep serving. *)
let test_serve_update_epoch_invalidation () =
  let tbl =
    Ti_table.create ((fact "S" [ 1 ], q 1 2) :: table_facts)
  in
  with_server ~default_deadline_s:5.0 ~updatable:tbl
    (fun () -> Fact_source.of_ti_table tbl)
  @@ fun ep _t ->
  let conn = Client.connect ep in
  Fun.protect ~finally:(fun () -> Client.close conn) @@ fun () ->
  let update d = Client.request conn (Protocol.Update { delta = d }) in
  let cached_of q =
    match query ep q with
    | Protocol.Answer { cached; _ } as r ->
      check_sound r;
      cached
    | _ -> Alcotest.fail "expected an answer"
  in
  (* Prime the cache for one query per relation. *)
  Alcotest.(check bool) "R: first miss" false (cached_of "exists x. R(x)");
  Alcotest.(check bool) "R: then hit" true (cached_of "exists x. R(x)");
  Alcotest.(check bool) "S: first miss" false (cached_of "exists x. S(x)");
  Alcotest.(check bool) "S: then hit" true (cached_of "exists x. S(x)");
  (* Mutate R: the R entry must stop serving, the S entry must not. *)
  (match update "insert R(4) 1/2" with
  | Protocol.Update_ok { relation; epoch; noop } ->
    Alcotest.(check string) "relation" "R" relation;
    Alcotest.(check int) "epoch bumped" 1 epoch;
    Alcotest.(check bool) "not a no-op" false noop
  | _ -> Alcotest.fail "expected update_ok");
  (match query ep "exists x. R(x)" with
  | Protocol.Answer { lo; hi; cached; _ } ->
    Alcotest.(check bool) "no stale hit after update" false cached;
    (* 1 - (1/2)(2/3)(3/4)(1/2) = 7/8 on the mutated table. *)
    Alcotest.(check bool) "contains 7/8" true (lo <= 0.875 && 0.875 <= hi)
  | _ -> Alcotest.fail "expected an answer");
  Alcotest.(check bool) "S entry survives the R update" true
    (cached_of "exists x. S(x)");
  (* A recognized no-op does not bump the epoch: R keeps its (new)
     cached answer. *)
  Alcotest.(check bool) "R: recached" true (cached_of "exists x. R(x)");
  (match update "reweight R(4) 1/2" with
  | Protocol.Update_ok { relation = _; epoch; noop } ->
    Alcotest.(check bool) "no-op recognized" true noop;
    Alcotest.(check int) "epoch unchanged" 1 epoch
  | _ -> Alcotest.fail "expected update_ok");
  Alcotest.(check bool) "no-op keeps the cache warm" true
    (cached_of "exists x. R(x)");
  (* Delete restores the original marginal distribution for R. *)
  (match update "delete R(4)" with
  | Protocol.Update_ok { epoch; noop; _ } ->
    Alcotest.(check int) "second real update" 2 epoch;
    Alcotest.(check bool) "delete applied" false noop
  | _ -> Alcotest.fail "expected update_ok");
  (match query ep "exists x. R(x)" with
  | Protocol.Answer { lo; hi; cached; _ } ->
    Alcotest.(check bool) "delete invalidates too" false cached;
    Alcotest.(check bool) "back to 3/4" true (lo <= 0.75 && 0.75 <= hi)
  | _ -> Alcotest.fail "expected an answer");
  (* Malformed and out-of-range deltas are request errors. *)
  (match update "frobnicate R(1)" with
  | Protocol.Error_resp { code; _ } -> Alcotest.(check int) "code 2" 2 code
  | _ -> Alcotest.fail "expected an error for a malformed delta");
  match update "insert R(9) 3/2" with
  | Protocol.Error_resp _ -> ()
  | _ -> Alcotest.fail "expected an error for a marginal above one"

let test_serve_update_rejected_without_table () =
  with_server ~default_deadline_s:5.0 finite_source @@ fun ep _t ->
  let conn = Client.connect ep in
  Fun.protect ~finally:(fun () -> Client.close conn) @@ fun () ->
  match Client.request conn (Protocol.Update { delta = "insert R(4) 1/2" }) with
  | Protocol.Error_resp { msg; _ } ->
    Alcotest.(check bool) "explains the rejection" true
      (String.length msg > 0)
  | _ -> Alcotest.fail "static-source server must reject updates"

let test_serve_health_and_stats () =
  with_server finite_source @@ fun ep _t ->
  let conn = Client.connect ep in
  Fun.protect ~finally:(fun () -> Client.close conn) @@ fun () ->
  (match Client.request conn Protocol.Health with
  | Protocol.Health_ok { draining; _ } ->
    Alcotest.(check bool) "not draining" false draining
  | _ -> Alcotest.fail "expected health_ok");
  ignore (Client.request conn (Protocol.Query
    { query = "exists x. R(x)"; eps = None; deadline_ms = None;
      mc_samples = None; seed = 0 }));
  match Client.request conn Protocol.Stats_req with
  | Protocol.Stats_resp entries ->
    Alcotest.(check bool) "requests counted" true
      (List.assoc_opt "serve.requests" entries <> None);
    Alcotest.(check bool) "latency histogram exported" true
      (List.assoc_opt "serve.latency.p99" entries <> None)
  | _ -> Alcotest.fail "expected stats_resp"

(* Overload: 1 worker, queue of 1, six concurrent slow requests.  Every
   reply must be a sound enclosure or a structured rejection — bounded
   queue, no unbounded backlog, no hangs. *)
let test_serve_overload_sheds_soundly () =
  let admission =
    {
      Admission.default_config with
      Admission.queue_bound = 1;
      window_s = 0.5;
    }
  in
  with_server ~domains:1 ~admission ~cache_capacity:0
    ~default_deadline_s:0.4 open_source
  @@ fun ep _t ->
  let n = 6 in
  let results = Array.make n None in
  let threads =
    List.init n (fun k ->
        Thread.create
          (fun () ->
            let q = Printf.sprintf "%s & R(%d)" costly (k + 1) in
            results.(k) <- Some (query ~eps:1e-6 ep q))
          ())
  in
  List.iter Thread.join threads;
  let answers = ref 0 and rejections = ref 0 in
  Array.iter
    (function
      | Some (Protocol.Answer _ as r) ->
        incr answers;
        check_sound r
      | Some (Protocol.Overloaded { retry_after_ms; _ }) ->
        incr rejections;
        Alcotest.(check bool) "retry-after hint" true (retry_after_ms >= 0)
      | Some _ -> Alcotest.fail "unexpected response class under overload"
      | None -> Alcotest.fail "a client thread got no response (hang?)")
    results;
  Alcotest.(check int) "every request answered" n (!answers + !rejections);
  Alcotest.(check bool) "bounded queue rejected some load" true
    (!rejections > 0);
  Alcotest.(check bool) "but the server still served" true (!answers > 0)

(* Drain: in-flight work completes, new queries are rejected with the
   draining flag, and the server reaches a clean join. *)
let test_serve_drain () =
  let path = next_socket () in
  let cfg =
    {
      Server.endpoint = `Unix path;
      make_source = open_source;
      domains = 2;
      admission = Admission.default_config;
      default_eps = 1e-6;
      default_samples = 20_000;
      default_deadline_s = Some 2.0;
      cache_capacity = 256;
      warm_cache = None;
      updatable = None;
    }
  in
  let t = Server.start cfg in
  (* Slow in-flight request launched before the drain... *)
  let slow = ref None in
  let th =
    Thread.create
      (fun () ->
        slow :=
          Some (query ~eps:1e-6 (`Unix path) costly))
      ()
  in
  Thread.delay 0.1;
  (* ...then drain over a second connection (the protocol twin of
     SIGTERM; Server.run wires the signal to the same entry point). *)
  let conn = Client.connect (`Unix path) in
  (match Client.request conn Protocol.Drain with
  | Protocol.Health_ok { draining; _ } ->
    Alcotest.(check bool) "drain acknowledged" true draining
  | _ -> Alcotest.fail "expected drain ack");
  (* New queries on a live connection are rejected, flagged draining. *)
  (match
     Client.request conn
       (Protocol.Query
          {
            query = "exists x. R(x)";
            eps = None;
            deadline_ms = None;
            mc_samples = None;
            seed = 0;
          })
   with
  | Protocol.Overloaded { draining; _ } ->
    Alcotest.(check bool) "rejected as draining" true draining
  | _ -> Alcotest.fail "queries during drain must be rejected");
  Client.close conn;
  Thread.join th;
  (match !slow with
  | Some (Protocol.Answer _ as r) -> check_sound r
  | _ -> Alcotest.fail "in-flight request must complete during drain");
  (* The drain must terminate the whole server: accept loop, workers. *)
  Server.wait t;
  Alcotest.(check bool) "socket removed after drain" false
    (Sys.file_exists path)

(* A 1000-request session through the fault-injecting transport is
   (a) fully answered — every injected drop/truncation/delay is either
   retried into an answer or surfaces as a structured transport error —
   and (b) bit-reproducible: replaying the same seeds against a fresh
   server yields the identical transcript. *)
let test_serve_faulty_session_reproducible () =
  let requests = 1000 in
  let queries =
    [|
      "exists x. R(x)";
      "exists x. R(x) & N(x)";
      "forall x. R(x)";
      "R(1) | R(2)";
    |]
  in
  let run_session () =
    with_server ~domains:2 open_source @@ fun ep _t ->
    let transport =
      Faulty_transport.create (Faulty_transport.default ~seed:11)
    in
    let policy =
      { Retry.default_policy with Retry.base_delay = 0.001; max_delay = 0.01 }
    in
    let buf = Buffer.create (requests * 32) in
    for k = 0 to requests - 1 do
      let req =
        Protocol.Query
          {
            query = queries.(k mod Array.length queries);
            eps = None;
            deadline_ms = None;
            mc_samples = None;
            seed = 0;
          }
      in
      let line =
        match Client.call ~policy ~seed:k ~transport ep req with
        | Ok (Protocol.Answer { lo; hi; estimate; budget_exhausted; shed; _ })
          ->
          (* The transcript pins the numerical payload bit-for-bit, but
             not the cached flag: whether an answer came from the cache
             depends on which earlier frames the injector dropped. *)
          Printf.sprintf "%d answer %h %h %h %b %b" k lo hi estimate
            budget_exhausted shed
        | Ok (Protocol.Overloaded { draining; _ }) ->
          Printf.sprintf "%d overloaded %b" k draining
        | Ok (Protocol.Error_resp { code; _ }) ->
          Printf.sprintf "%d error %d" k code
        | Ok _ -> Printf.sprintf "%d unexpected" k
        | Error e -> Printf.sprintf "%d gave_up %s" k (Errors.to_string e)
      in
      Buffer.add_string buf line;
      Buffer.add_char buf '\n'
    done;
    Buffer.contents buf
  in
  let first = run_session () in
  let second = run_session () in
  Alcotest.(check bool) "some request hit an injected fault" true
    (String.length first > 0);
  Alcotest.(check string) "bit-identical transcripts" first second;
  (* Every line is an answer or a structured outcome; answers are sound. *)
  String.split_on_char '\n' first
  |> List.iter (fun line ->
         if line <> "" then
           match String.split_on_char ' ' line with
           | _ :: "answer" :: lo :: hi :: _ ->
             let lo = float_of_string lo and hi = float_of_string hi in
             if not (0.0 <= lo && lo <= hi && hi <= 1.0) then
               Alcotest.failf "unsound transcript line: %s" line
           | _ :: ("overloaded" | "error" | "gave_up") :: _ -> ()
           | _ -> Alcotest.failf "unstructured transcript line: %s" line)

let props =
  [ prop_frame_roundtrip; prop_request_roundtrip; prop_fault_schedule_pure ]

let () =
  Alcotest.run "serve"
    [
      ( "protocol",
        [
          Alcotest.test_case "max-size frame" `Quick test_frame_max_size;
          Alcotest.test_case "truncated frame" `Quick test_frame_truncated;
          Alcotest.test_case "oversized header" `Quick
            test_frame_oversized_header;
          Alcotest.test_case "closed" `Quick test_frame_closed;
          Alcotest.test_case "response round-trip" `Quick
            test_response_roundtrip;
          Alcotest.test_case "garbage rejected" `Quick test_decode_garbage;
        ] );
      ( "histogram",
        [
          Alcotest.test_case "exact under 4 domains" `Quick
            test_histogram_concurrent_exact;
          Alcotest.test_case "empty and overflow" `Quick
            test_histogram_empty_and_overflow;
        ] );
      ( "admission",
        [
          Alcotest.test_case "decide ladder" `Quick test_admission_decide;
          Alcotest.test_case "epoch cap rejects" `Quick
            test_admission_epoch_cap_rejects;
          Alcotest.test_case "deadline on ticket" `Quick
            test_admission_deadline_budget;
        ] );
      ( "cache",
        [
          Alcotest.test_case "epsilon-aware" `Quick test_cache_eps_aware;
          Alcotest.test_case "bounded" `Quick test_cache_bounded;
          Alcotest.test_case "warm save/load round-trip" `Quick
            test_cache_warm_roundtrip;
          Alcotest.test_case "failed save keeps the old file" `Quick
            test_cache_failed_save;
        ] );
      ( "faults",
        [ Alcotest.test_case "schedule mixes" `Quick test_fault_schedule_mixes ] );
      ( "server",
        [
          Alcotest.test_case "safe query, exact + cached" `Quick
            test_serve_safe_query_exact;
          Alcotest.test_case "unsafe and bad queries" `Quick
            test_serve_unsafe_and_bad_queries;
          Alcotest.test_case "deadline: sound best-so-far" `Quick
            test_serve_deadline_sound_enclosure;
          Alcotest.test_case "update: epoch cache invalidation" `Quick
            test_serve_update_epoch_invalidation;
          Alcotest.test_case "update: rejected without table" `Quick
            test_serve_update_rejected_without_table;
          Alcotest.test_case "health and stats" `Quick
            test_serve_health_and_stats;
          Alcotest.test_case "overload sheds soundly" `Slow
            test_serve_overload_sheds_soundly;
          Alcotest.test_case "graceful drain" `Slow test_serve_drain;
          Alcotest.test_case "faulty session reproducible" `Slow
            test_serve_faulty_session_reproducible;
        ] );
      ("properties", List.map (QCheck_alcotest.to_alcotest ~long:false) props);
    ]
