(* Tests for the robustness layer: budget accounting and cooperative
   cancellation, deterministic retry schedules, first-access-only fault
   injection, budget-truncated Monte Carlo, and the degradation-ladder
   supervisor's soundness and bit-reproducibility. *)

let i n = Value.Int n
let q = Rational.of_ints
let parse = Fo_parse.parse_exn
let fact r args = Fact.make r (List.map i args)
let r_fact k = fact "R" [ k ]
let s_fact k = fact "S" [ k ]

(* p_i = (1/2)^(i+1): mass 1, tails 2^-n; the limit of
   P(exists x. R(x)) is 1 - prod (1 - 2^-(i+1)) = 0.711211904... *)
let geo_source () =
  Fact_source.geometric ~first:Rational.half ~ratio:Rational.half
    ~facts:r_fact ()

(* P(exists x. R(x)) = 1 - prod_{k>=1} (1 - 2^-k), to double precision: a
   ladder that truncates deep certifies an enclosure narrower than
   1e-11, which a 10-digit constant falls outside of. *)
let geo_limit = 1.0 -. 0.28878809508660242

(* ------------------------------------------------------------------ *)
(* Budget *)
(* ------------------------------------------------------------------ *)

let test_budget_caps () =
  let b = Budget.create ~max_facts:3 () in
  Budget.spend b Budget.Facts 2;
  Alcotest.(check bool) "under cap" true (Budget.ok b);
  Alcotest.(check (option int)) "remaining" (Some 1)
    (Budget.cap_remaining b Budget.Facts);
  Budget.spend b Budget.Facts 1;
  Alcotest.(check bool) "at cap" false (Budget.ok b);
  (match Budget.exhausted b with
  | Some (Budget.Cap Budget.Facts) -> ()
  | _ -> Alcotest.fail "expected Cap Facts");
  (match Budget.checkpoint b with
  | () -> Alcotest.fail "checkpoint should raise"
  | exception Budget.Exhausted (Budget.Cap Budget.Facts) -> ());
  (* other kinds are not constrained by a Facts cap *)
  let b' = Budget.create ~max_facts:3 () in
  Budget.spend b' Budget.Samples 1_000;
  Alcotest.(check bool) "samples uncapped" true (Budget.ok b')

let test_budget_virtual_clock () =
  (* 100 units per second, 0.1 s deadline: exactly 10 units of work. *)
  let b = Budget.create ~clock:(Budget.Virtual 100) ~timeout:0.1 () in
  Alcotest.(check (option int)) "10 units" (Some 10)
    (Budget.time_remaining_units b);
  Budget.spend b Budget.Steps 4;
  Alcotest.(check (option int)) "6 left" (Some 6)
    (Budget.time_remaining_units b);
  Alcotest.(check (float 1e-12)) "elapsed" 0.04 (Budget.elapsed b);
  Budget.spend b Budget.Steps 6;
  (match Budget.exhausted b with
  | Some Budget.Timeout -> ()
  | _ -> Alcotest.fail "expected Timeout")

let test_budget_child () =
  (* Spends propagate upward; a parent trip exhausts the child. *)
  let parent = Budget.create ~max_facts:2 () in
  let child = Budget.child parent in
  Budget.spend child Budget.Facts 2;
  Alcotest.(check int) "parent saw the spend" 2
    (Budget.spent parent Budget.Facts);
  Alcotest.(check bool) "parent tripped" false (Budget.ok parent);
  Alcotest.(check bool) "child follows parent" false (Budget.ok child);
  (* ...but a blown child cap leaves the parent alive: this is what lets
     one ladder rung fail on a node cap without condemning the rest. *)
  let parent = Budget.unlimited () in
  let child = Budget.child ~max_bdd_nodes:1 parent in
  Budget.spend child Budget.Bdd_nodes 1;
  Alcotest.(check bool) "child tripped" false (Budget.ok child);
  Alcotest.(check bool) "parent unaffected" true (Budget.ok parent)

let test_budget_refund () =
  let b =
    Budget.create ~max_bdd_nodes:5 ~clock:(Budget.Virtual 100) ~timeout:1.0 ()
  in
  Budget.spend b Budget.Bdd_nodes 4;
  Budget.refund b Budget.Bdd_nodes 3;
  Alcotest.(check int) "spent netted" 1 (Budget.spent b Budget.Bdd_nodes);
  (* the virtual clock keeps counting refunded work: refunds free cap
     room, they never rewind time *)
  Alcotest.(check (float 1e-12)) "elapsed monotone" 0.04 (Budget.elapsed b);
  Budget.spend b Budget.Bdd_nodes 4;
  Alcotest.(check bool) "cap sees net spend" false (Budget.ok b);
  (* a trip is sticky: refunding after exhaustion does not revive *)
  Budget.refund b Budget.Bdd_nodes 4;
  (match Budget.exhausted b with
  | Some (Budget.Cap Budget.Bdd_nodes) -> ()
  | _ -> Alcotest.fail "trip must stay sticky");
  (* refunds propagate to the parent like spends do *)
  let parent = Budget.unlimited () in
  let child = Budget.child ~max_bdd_nodes:10 parent in
  Budget.spend child Budget.Bdd_nodes 6;
  Budget.refund child Budget.Bdd_nodes 6;
  Alcotest.(check int) "parent netted" 0 (Budget.spent parent Budget.Bdd_nodes);
  Alcotest.check_raises "negative refund"
    (Invalid_argument "Budget.refund: negative amount") (fun () ->
      Budget.refund child Budget.Bdd_nodes (-1))

(* ------------------------------------------------------------------ *)
(* Retry *)
(* ------------------------------------------------------------------ *)

let fast_policy =
  { Retry.default_policy with base_delay = 1e-4; max_delay = 1e-3 }

let prop_retry_terminates_within_cap =
  QCheck.Test.make ~name:"retry stops after exactly max_attempts failures"
    ~count:50
    QCheck.(pair (int_bound 10_000) (int_range 1 6))
    (fun (seed, max_attempts) ->
      let policy = { fast_policy with max_attempts } in
      let calls = ref 0 in
      let r =
        Retry.run ~policy ~sleep:ignore ~what:"test" ~seed (fun () ->
            incr calls;
            raise (Faulty_source.Transient "injected"))
      in
      (match r with Error _ -> () | Ok _ -> QCheck.Test.fail_report "succeeded?");
      !calls = max_attempts)

let prop_retry_schedule_deterministic =
  QCheck.Test.make ~name:"retry sleep schedule is a pure function of the seed"
    ~count:50
    QCheck.(int_bound 10_000)
    (fun seed ->
      let observed () =
        let slept = ref [] in
        let _ =
          Retry.run ~policy:fast_policy
            ~sleep:(fun d -> slept := d :: !slept)
            ~what:"test" ~seed
            (fun () -> raise (Faulty_source.Transient "injected"))
        in
        List.rev !slept
      in
      let a = observed () and b = observed () in
      (* bit-identical reruns, matching the pure schedule, within bounds *)
      a = b
      && a = Retry.delays fast_policy ~seed
      && List.for_all
           (fun d ->
             d >= 0.0
             && d <= fast_policy.Retry.max_delay *. (1.0 +. fast_policy.Retry.jitter))
           a)

let test_retry_non_retryable () =
  let calls = ref 0 in
  let r =
    Retry.run ~policy:fast_policy ~sleep:ignore
      ~retryable:(function Errors.Engine_failure _ -> true | _ -> false)
      ~what:"test" ~seed:0
      (fun () ->
        incr calls;
        invalid_arg "corrupt")
  in
  Alcotest.(check int) "no second attempt" 1 !calls;
  (match r with
  | Error (Errors.Model_invalid _) -> ()
  | Error e -> Alcotest.failf "wrong class: %s" (Errors.to_string e)
  | Ok _ -> Alcotest.fail "should not succeed")

let test_retry_budget_stops_attempts () =
  let b = Budget.create ~max_steps:1 () in
  Budget.spend b Budget.Steps 1;
  let calls = ref 0 in
  let r =
    Retry.run ~policy:{ fast_policy with max_attempts = 5 } ~sleep:ignore
      ~budget:b ~what:"test" ~seed:0 (fun () ->
        incr calls;
        raise (Faulty_source.Transient "injected"))
  in
  (match r with Error _ -> () | Ok _ -> Alcotest.fail "should not succeed");
  Alcotest.(check bool) "attempts cut short" true (!calls < 5)

(* Regression: backoff sleeps are clamped to the budget's remaining wall
   time.  This chain wants to sleep 0.2 s + 0.4 s between attempts, but
   the budget's deadline is 50 ms — before the clamp, the run would
   voluntarily overshoot the deadline by an order of magnitude. *)
let test_retry_sleeps_capped_by_deadline () =
  let b = Budget.create ~timeout:0.05 () in
  let slept = ref 0.0 in
  let policy =
    {
      Retry.max_attempts = 3;
      base_delay = 0.2;
      multiplier = 2.0;
      max_delay = 1.0;
      jitter = 0.0;
    }
  in
  let t0 = Unix.gettimeofday () in
  let r =
    Retry.run ~policy
      ~sleep:(fun d ->
        slept := !slept +. d;
        Unix.sleepf d)
      ~budget:b ~what:"test" ~seed:0
      (fun () -> raise (Faulty_source.Transient "injected"))
  in
  let elapsed = Unix.gettimeofday () -. t0 in
  (match r with Error _ -> () | Ok _ -> Alcotest.fail "should not succeed");
  Alcotest.(check bool)
    (Printf.sprintf "total sleep %.3fs within deadline" !slept)
    true (!slept <= 0.05 +. 1e-9);
  Alcotest.(check bool)
    (Printf.sprintf "returned in %.3fs, not after the 0.6s schedule" elapsed)
    true
    (elapsed < 0.15);
  (* The static schedule agrees: cumulative delays never exceed the
     budget's remaining time. *)
  let ds = Retry.delays ~budget:(Budget.create ~timeout:0.05 ()) policy ~seed:0 in
  Alcotest.(check bool) "schedule clamped" true
    (List.fold_left ( +. ) 0.0 ds <= 0.05 +. 1e-9)

(* ------------------------------------------------------------------ *)
(* Fault injection *)
(* ------------------------------------------------------------------ *)

let test_faulty_none_is_identity () =
  let clean = geo_source () in
  let w = Faulty_source.wrap Faulty_source.none (geo_source ()) in
  List.iter2
    (fun (f, p) (f', p') ->
      Alcotest.(check string) "fact" (Fact.to_string f) (Fact.to_string f');
      Alcotest.(check bool) "prob" true (Rational.equal p p'))
    (Fact_source.prefix clean 8) (Fact_source.prefix w 8);
  List.iter
    (fun n ->
      Alcotest.(check (option (float 0.0)))
        (Printf.sprintf "tail at %d" n)
        (Fact_source.tail_mass clean n) (Fact_source.tail_mass w n))
    [ 0; 3; 9 ]

let test_faulty_transient_fires_once () =
  let cfg = { Faulty_source.none with seed = 7; transient = 1.0 } in
  let w = Faulty_source.wrap cfg (geo_source ()) in
  (* every entry faults on first access, so each attempt clears exactly
     one more entry; prefix 4 succeeds on the fifth try *)
  let attempts = ref 0 in
  let rec go () =
    incr attempts;
    match Fact_source.prefix w 4 with
    | entries -> entries
    | exception Faulty_source.Transient _ -> go ()
  in
  let entries = go () in
  Alcotest.(check int) "one fault per entry" 5 !attempts;
  List.iter2
    (fun (f, p) (f', p') ->
      Alcotest.(check string) "fact survives" (Fact.to_string f)
        (Fact.to_string f');
      Alcotest.(check bool) "prob survives" true (Rational.equal p p'))
    (Fact_source.prefix (geo_source ()) 4)
    entries;
  (* a survived entry is served clean from then on *)
  Alcotest.(check int) "cached" 4 (List.length (Fact_source.prefix w 4))

let test_faulty_corrupt_fires_once () =
  let cfg = { Faulty_source.none with seed = 3; bad_prob = 1.0 } in
  let w = Faulty_source.wrap cfg (geo_source ()) in
  (match Fact_source.nth w 0 with
  | _ -> Alcotest.fail "first access should raise"
  | exception Invalid_argument msg ->
    Alcotest.(check bool) "names the injection" true
      (Helpers.contains msg "corrupt"));
  (match Fact_source.nth w 0 with
  | Some (f, p) ->
    Alcotest.(check string) "true entry on retry" "R(0)" (Fact.to_string f);
    Alcotest.(check bool) "true prob" true (Rational.equal p Rational.half)
  | None -> Alcotest.fail "entry lost after fault"
  | exception _ -> Alcotest.fail "fault fired twice")

let test_faulty_tail_nan_fires_once () =
  let cfg = { Faulty_source.none with seed = 11; nan_tail = 1.0 } in
  let w = Faulty_source.wrap cfg (geo_source ()) in
  (match Fact_source.tail_mass w 5 with
  | Some x -> Alcotest.(check bool) "NaN answer" true (Float.is_nan x)
  | None -> Alcotest.fail "expected Some nan");
  Alcotest.(check (option (float 0.0)))
    "clean on retry"
    (Fact_source.tail_mass (geo_source ()) 5)
    (Fact_source.tail_mass w 5)

let test_faulty_tail_blackout_fires_once () =
  let cfg = { Faulty_source.none with seed = 11; tail_blackout = 1.0 } in
  let w = Faulty_source.wrap cfg (geo_source ()) in
  Alcotest.(check (option (float 0.0))) "blackout" None (Fact_source.tail_mass w 5);
  Alcotest.(check (option (float 0.0)))
    "clean on retry"
    (Fact_source.tail_mass (geo_source ()) 5)
    (Fact_source.tail_mass w 5)

let prop_fault_schedule_pure =
  QCheck.Test.make ~name:"fault schedule is a pure function of seed and index"
    ~count:50
    QCheck.(int_bound 10_000)
    (fun seed ->
      let cfg = Faulty_source.default ~seed in
      List.for_all
        (fun idx ->
          Faulty_source.entry_faults cfg idx = Faulty_source.entry_faults cfg idx
          && Faulty_source.tail_faults cfg idx = Faulty_source.tail_faults cfg idx)
        (List.init 20 Fun.id))

(* ------------------------------------------------------------------ *)
(* Budget-truncated Monte Carlo *)
(* ------------------------------------------------------------------ *)

let test_mc_budget_clamp_deterministic () =
  let phi = parse "exists x. R(x)" in
  let run domains =
    let cti = Countable_ti.create (geo_source ()) in
    let b = Budget.create ~max_samples:1_500 () in
    Mc_eval.boolean ~budget:b ~domains ~seed:42 ~samples:10_000
      (Countable_ti.sampler cti) phi
  in
  let r1 = run 1 and r3 = run 3 in
  Alcotest.(check int) "clamped to the cap" 1_500 r1.Mc_eval.samples;
  Alcotest.(check int) "request recorded" 10_000 r1.Mc_eval.samples_requested;
  Alcotest.(check bool) "marked interrupted" true r1.Mc_eval.interrupted;
  (* the truncated run is a function of the budget alone, not of the
     domain count *)
  Alcotest.(check int) "same worlds" r1.Mc_eval.samples r3.Mc_eval.samples;
  Alcotest.(check int) "same hits" r1.Mc_eval.hits r3.Mc_eval.hits;
  Alcotest.(check (float 0.0)) "same estimate" r1.Mc_eval.estimate
    r3.Mc_eval.estimate;
  Alcotest.(check bool) "sound enclosure" true
    (Interval.contains r1.Mc_eval.bounds geo_limit)

let test_mc_budget_exhausted_on_entry () =
  let phi = parse "exists x. R(x)" in
  let cti = Countable_ti.create (geo_source ()) in
  let b = Budget.create ~max_samples:0 () in
  match
    Mc_eval.boolean ~budget:b ~seed:0 ~samples:100 (Countable_ti.sampler cti)
      phi
  with
  | _ -> Alcotest.fail "expected Budget.Exhausted"
  | exception Budget.Exhausted (Budget.Cap Budget.Samples) -> ()

(* ------------------------------------------------------------------ *)
(* Budgeted anytime sessions and recoverable completion *)
(* ------------------------------------------------------------------ *)

let test_anytime_budget_interrupt () =
  let b = Budget.create ~max_steps:3 () in
  let s = Anytime.create ~eps:1e-6 ~budget:b (geo_source ()) (parse "exists x. R(x)") in
  let reason, steps = Anytime.run s in
  (match reason with
  | Anytime.Interrupted (Budget.Cap Budget.Steps) -> ()
  | r -> Alcotest.failf "expected Interrupted, got %s" (Anytime.stop_reason_to_string r));
  Alcotest.(check bool) "at most 3 steps" true (List.length steps <= 3);
  (* the running bounds are still a sound enclosure *)
  Alcotest.(check bool) "bounds contain the limit" true
    (Interval.contains (Anytime.bounds s) geo_limit)

let test_bdd_nodes_budget_gc_completes () =
  (* Regression for live-node accounting across the Budget <-> Bdd hook
     pair ([tick] charges each allocation, [on_free] refunds a sweep) —
     the exact wiring Approx_eval and Anytime use.  The workload
     compiles a sequence of lineage blocks over disjoint variables,
     keeping only the latest alive: without GC the [Bdd_nodes] cap trips
     on blocks that are long dead; with GC the refunds keep net spend at
     the live count and the same cap admits the full sequence. *)
  let rounds = 10 and block = 50 in
  let cap = 600 in
  let expr r =
    Bool_expr.disj
      (List.init block (fun idx ->
           let v = 2 * ((r * block) + idx) in
           Bool_expr.and2 (Bool_expr.var v) (Bool_expr.var (v + 1))))
  in
  let run gc_threshold =
    let b = Budget.create ~max_bdd_nodes:cap () in
    let m =
      Bdd.manager
        ~tick:(fun () -> Budget.charge b Budget.Bdd_nodes 1)
        ~on_free:(fun n -> Budget.refund b Budget.Bdd_nodes n)
        ~gc_threshold ()
    in
    let cur = ref (Bdd.tru m) in
    Bdd.protect !cur;
    match
      for r = 0 to rounds - 1 do
        let d = Bdd.of_expr m (expr r) in
        Bdd.protect d;
        Bdd.release !cur;
        cur := d;
        ignore (Bdd.maybe_gc m)
      done
    with
    | () -> Ok (Budget.spent b Budget.Bdd_nodes)
    | exception Budget.Exhausted cause -> Error cause
  in
  (match run max_int with
  | Error (Budget.Cap Budget.Bdd_nodes) -> ()
  | Error c ->
    Alcotest.failf "unexpected exhaustion without GC: %s"
      (Budget.exhaustion_to_string c)
  | Ok spent ->
    Alcotest.failf "expected a node-cap trip without GC (spent %d)" spent);
  match run 128 with
  | Ok spent ->
    Alcotest.(check bool)
      (Printf.sprintf "net spend tracks live nodes (%d <= %d)" spent cap)
      true (spent <= cap)
  | Error c ->
    Alcotest.failf "GC run should complete under the same cap, got %s"
      (Budget.exhaustion_to_string c)

let test_completion_uncertified_tail_partial () =
  (* A convergent source whose certified tail bound shrinks only like
     1/n: no truncation below the probe bound certifies a tiny eps, so
     the "series may converge arbitrarily slowly" caveat of Section 6
     fires — as a recoverable outcome carrying the best sound enclosure
     the deepest observed tail still implies, not as an exception. *)
  let slow =
    Fact_source.make ~name:"slow"
      ~enum:(Seq.map (fun i -> (s_fact i, q 1 ((i + 2) * (i + 2)))) (Seq.ints 0))
      ~tail:(fun n -> Some (1.0 /. float_of_int (n + 1)))
      ()
  in
  let ti = Ti_table.create [ (r_fact 1, q 1 2) ] in
  let c = Completion.complete_ti ti slow in
  match
    Approx_eval.boolean_r (Completion.source c) ~eps:1e-9
      (parse "exists x. S(x)")
  with
  | Ok _ -> Alcotest.fail "a 1/n tail cannot certify eps = 1e-9"
  | Error (Errors.Budget_exhausted { partial = Some iv; what; _ }) ->
    Alcotest.(check bool) "names the uncertified tail" true
      (Helpers.contains what "tail does not certify");
    (* the conditional enclosure of a trivial base interval is wide —
       what matters is that it is a usable interval, not an exception *)
    Alcotest.(check bool) "within [0,1]" true
      (Interval.lo iv >= 0.0 && Interval.hi iv <= 1.0)
  | Error e -> Alcotest.failf "wrong class: %s" (Errors.to_string e)

(* ------------------------------------------------------------------ *)
(* Supervisor *)
(* ------------------------------------------------------------------ *)

let generous_budget () =
  Budget.create ~clock:(Budget.Virtual 1_000_000) ~timeout:2.0 ()

let test_robust_clean_converges () =
  let a =
    Robust_eval.query ~budget:(generous_budget ()) ~eps:0.01 ~mc_samples:2_000
      ~seed:1 (geo_source ()) (parse "exists x. R(x)")
  in
  Alcotest.(check string) "converged" "converged" a.Robust_eval.provenance.stopped;
  Alcotest.(check bool) "width within 2 eps" true
    (Interval.width a.Robust_eval.enclosure <= 0.02);
  Alcotest.(check bool) "contains the limit" true
    (Interval.contains a.Robust_eval.enclosure geo_limit);
  Alcotest.(check bool) "estimate inside the enclosure" true
    (Interval.contains a.Robust_eval.enclosure a.Robust_eval.estimate)

let test_robust_validation () =
  (match Robust_eval.query ~eps:0.0 (geo_source ()) (parse "exists x. R(x)") with
  | _ -> Alcotest.fail "eps = 0 must be rejected"
  | exception Invalid_argument _ -> ());
  match Robust_eval.query (geo_source ()) (parse "R(x)") with
  | _ -> Alcotest.fail "free variables must be rejected"
  | exception Invalid_argument _ -> ()

let arb_fault_config =
  let open QCheck.Gen in
  let gen =
    let* seed = int_bound 100_000 in
    let* transient = float_bound_inclusive 0.8 in
    let* bad_prob = float_bound_inclusive 0.5 in
    let* nan_tail = float_bound_inclusive 0.8 in
    let* tail_blackout = float_bound_inclusive 0.8 in
    return
      {
        Faulty_source.seed;
        transient;
        stall = 0.0;
        stall_seconds = 0.0;
        bad_prob;
        nan_tail;
        tail_blackout;
      }
  in
  QCheck.make
    ~print:(fun c ->
      Printf.sprintf "seed=%d transient=%g bad=%g nan=%g blackout=%g"
        c.Faulty_source.seed c.Faulty_source.transient c.Faulty_source.bad_prob
        c.Faulty_source.nan_tail c.Faulty_source.tail_blackout)
    gen

let prop_robust_sound_under_faults =
  QCheck.Test.make
    ~name:"supervisor never raises and stays sound under any fault schedule"
    ~count:20 arb_fault_config
    (fun cfg ->
      let src = Faulty_source.wrap cfg (geo_source ()) in
      let a =
        Robust_eval.query ~budget:(generous_budget ()) ~eps:0.01
          ~mc_samples:1_000 ~seed:2 src (parse "exists x. R(x)")
      in
      Interval.contains a.Robust_eval.enclosure geo_limit)

let prop_robust_contains_exact_on_table =
  (* The acceptance property on a seed example table: the enclosure
     contains the exact closed-world answer, faults or not.  With
     R(1..3) at 1/2, 1/3, 1/4:  P(exists x. R(x)) = 1 - 1/4 = 3/4. *)
  QCheck.Test.make
    ~name:"enclosure contains the exact table answer under faults" ~count:20
    arb_fault_config
    (fun cfg ->
      let ti =
        Ti_table.create [ (r_fact 1, q 1 2); (r_fact 2, q 1 3); (r_fact 3, q 1 4) ]
      in
      let phi = parse "exists x. R(x)" in
      let exact =
        Rational.to_float (Query_eval.boolean ti phi)
      in
      let src = Faulty_source.wrap cfg (Fact_source.of_list (Ti_table.facts ti)) in
      let a =
        Robust_eval.query ~budget:(generous_budget ()) ~eps:0.01 ~mc_samples:500
          ~seed:5 src phi
      in
      Interval.contains a.Robust_eval.enclosure exact)

let test_robust_starved_budget_never_raises () =
  (* one virtual work unit: nothing can finish, the answer degrades to a
     wide-but-sound enclosure instead of an exception *)
  let b = Budget.create ~clock:(Budget.Virtual 100) ~timeout:0.01 () in
  let a =
    Robust_eval.query ~budget:b ~eps:0.001 ~seed:0
      (Faulty_source.wrap (Faulty_source.default ~seed:9) (geo_source ()))
      (parse "exists x. R(x)")
  in
  Alcotest.(check bool) "budget exhaustion reported" true
    (Helpers.contains a.Robust_eval.provenance.stopped "budget exhausted");
  Alcotest.(check bool) "still sound" true
    (Interval.contains a.Robust_eval.enclosure geo_limit)

let test_robust_bit_identical_under_faults () =
  (* The headline acceptance criterion: faults injected, a 100 ms budget
     on a virtual clock — provenance and enclosure bit-identical across
     runs. *)
  let run () =
    let cfg = { (Faulty_source.default ~seed:5) with stall = 0.0 } in
    let b = Budget.create ~clock:(Budget.Virtual 10_000) ~timeout:0.1 () in
    let a =
      Robust_eval.query ~budget:b ~eps:0.005 ~mc_samples:20_000 ~seed:3
        (Faulty_source.wrap cfg (geo_source ()))
        (parse "exists x. R(x)")
    in
    Robust_eval.answer_to_string a
  in
  let a1 = run () and a2 = run () in
  Alcotest.(check string) "identical answer and provenance" a1 a2

let test_robust_cmp_skips_anytime () =
  let a =
    Robust_eval.query ~budget:(generous_budget ()) ~eps:0.05 ~mc_samples:500
      ~seed:4 (geo_source ())
      (parse "exists x. R(x) & x >= 0")
  in
  let skipped =
    List.exists
      (fun at ->
        at.Robust_eval.engine = Robust_eval.Anytime
        &&
        match at.Robust_eval.outcome with
        | Robust_eval.Skipped _ -> true
        | _ -> false)
      a.Robust_eval.provenance.attempts
  in
  Alcotest.(check bool) "anytime rung skipped for Cmp" true skipped

let outcome_of a engine =
  List.find_map
    (fun at ->
      if at.Robust_eval.engine = engine then Some at.Robust_eval.outcome
      else None)
    a.Robust_eval.provenance.attempts

let test_robust_lifted_rung () =
  (* Safe query: the lifted rung answers first and certifies. *)
  let a =
    Robust_eval.query ~budget:(generous_budget ()) ~eps:0.01 ~mc_samples:500
      ~seed:6 (geo_source ()) (parse "exists x. R(x)")
  in
  (match outcome_of a Robust_eval.Lifted with
  | Some (Robust_eval.Certified _) -> ()
  | Some _ -> Alcotest.fail "lifted rung did not certify the safe query"
  | None -> Alcotest.fail "no lifted attempt recorded");
  Alcotest.(check bool) "contains the limit" true
    (Interval.contains a.Robust_eval.enclosure geo_limit);
  (* Hard query: the rung is skipped (a query property, not a fault),
     and the grounded rungs still answer. *)
  let b =
    Robust_eval.query ~budget:(generous_budget ()) ~eps:0.05 ~mc_samples:500
      ~seed:6 (geo_source ())
      (parse "forall x. R(x)")
  in
  match outcome_of b Robust_eval.Lifted with
  | Some (Robust_eval.Skipped _) -> ()
  | Some _ ->
    Alcotest.fail "lifted rung should be skipped on the hard side"
  | None -> Alcotest.fail "no lifted attempt recorded"

(* ------------------------------------------------------------------ *)

let props =
  [
    prop_retry_terminates_within_cap;
    prop_retry_schedule_deterministic;
    prop_fault_schedule_pure;
    prop_robust_sound_under_faults;
    prop_robust_contains_exact_on_table;
  ]

let () =
  Alcotest.run "robust"
    [
      ( "budget",
        [
          Alcotest.test_case "caps" `Quick test_budget_caps;
          Alcotest.test_case "virtual clock" `Quick test_budget_virtual_clock;
          Alcotest.test_case "child" `Quick test_budget_child;
          Alcotest.test_case "refund" `Quick test_budget_refund;
        ] );
      ( "retry",
        [
          Alcotest.test_case "non-retryable" `Quick test_retry_non_retryable;
          Alcotest.test_case "budget stops attempts" `Quick
            test_retry_budget_stops_attempts;
          Alcotest.test_case "sleeps capped by deadline" `Quick
            test_retry_sleeps_capped_by_deadline;
        ] );
      ( "faulty_source",
        [
          Alcotest.test_case "none is identity" `Quick test_faulty_none_is_identity;
          Alcotest.test_case "transient once" `Quick
            test_faulty_transient_fires_once;
          Alcotest.test_case "corrupt once" `Quick test_faulty_corrupt_fires_once;
          Alcotest.test_case "tail NaN once" `Quick test_faulty_tail_nan_fires_once;
          Alcotest.test_case "tail blackout once" `Quick
            test_faulty_tail_blackout_fires_once;
        ] );
      ( "mc_budget",
        [
          Alcotest.test_case "clamp deterministic" `Quick
            test_mc_budget_clamp_deterministic;
          Alcotest.test_case "exhausted on entry" `Quick
            test_mc_budget_exhausted_on_entry;
        ] );
      ( "engines",
        [
          Alcotest.test_case "anytime interrupt" `Quick test_anytime_budget_interrupt;
          Alcotest.test_case "gc keeps node budget live" `Quick
            test_bdd_nodes_budget_gc_completes;
          Alcotest.test_case "completion partial" `Quick
            test_completion_uncertified_tail_partial;
        ] );
      ( "supervisor",
        [
          Alcotest.test_case "clean convergence" `Quick test_robust_clean_converges;
          Alcotest.test_case "validation" `Quick test_robust_validation;
          Alcotest.test_case "starved budget" `Quick
            test_robust_starved_budget_never_raises;
          Alcotest.test_case "bit-identical under faults" `Quick
            test_robust_bit_identical_under_faults;
          Alcotest.test_case "Cmp skips anytime" `Quick test_robust_cmp_skips_anytime;
          Alcotest.test_case "lifted rung" `Quick test_robust_lifted_rung;
        ] );
      ("properties", List.map QCheck_alcotest.to_alcotest props);
    ]
