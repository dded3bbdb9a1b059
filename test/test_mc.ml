(* Tests for the domain-parallel Monte-Carlo engine (Mc_eval):
   determinism and bit-identity across domain counts, the coverage of
   the Clopper-Pearson interval, and cross-engine agreement with the
   exact truncation engine and the anytime evaluator. *)

let i n = Value.Int n
let q = Rational.of_ints
let fact r args = Fact.make r (List.map i args)
let parse = Fo_parse.parse_exn
let r_fact k = fact "R" [ k ]

let geo_source () =
  Fact_source.geometric ~first:Rational.half ~ratio:Rational.half
    ~facts:r_fact ()

let geo_plan () = Countable_ti.sampler (Countable_ti.create (geo_source ()))

(* A plan with no truncation that draws [R(0)] in exactly its first
   [hits] worlds: on one domain the draws run in order, so the hit count
   of a [R(0)] run is exact. *)
let counted_plan ~hits =
  let drawn = ref 0 in
  {
    Sampler.draw =
      (fun _ ->
        incr drawn;
        if !drawn <= hits then Instance.singleton (r_fact 0) else Instance.empty);
    tv = 0.0;
    support = [ r_fact 0 ];
  }

(* ------------------------------------------------------------------ *)
(* Statistical primitives *)
(* ------------------------------------------------------------------ *)

(* The Clopper-Pearson interval of [hits] of [samples], as [boolean]
   reports it. *)
let binomial_interval ~confidence ~hits ~samples =
  (Mc_eval.boolean ~domains:1 ~confidence ~seed:0 ~samples
     (counted_plan ~hits) (parse "R(0)"))
    .Mc_eval.binomial

let test_binomial_interval () =
  let iv = binomial_interval ~confidence:0.95 ~hits:50 ~samples:100 in
  Alcotest.(check bool) "contains p-hat" true (Interval.contains iv 0.5);
  (* the textbook 95% Clopper-Pearson interval for 50/100 *)
  Alcotest.(check (float 1e-4)) "lo" 0.3983 (Interval.lo iv);
  Alcotest.(check (float 1e-4)) "hi" 0.6017 (Interval.hi iv);
  (* width shrinks with more samples at the same rate *)
  let iv10 =
    binomial_interval ~confidence:0.95 ~hits:5000 ~samples:10_000
  in
  Alcotest.(check bool) "100x samples, ~10x narrower" true
    (Interval.width iv10 < Interval.width iv /. 5.0);
  (* extreme counts: one end pinned, the other closed-form,
     1 - (alpha/2)^(1/n) *)
  let iv0 = binomial_interval ~confidence:0.95 ~hits:0 ~samples:100 in
  Alcotest.(check bool) "0 hits: lo = 0" true (Interval.lo iv0 = 0.0);
  Alcotest.(check (float 1e-12)) "0 hits: hi"
    (1.0 -. (0.025 ** 0.01))
    (Interval.hi iv0);
  let iv1 =
    binomial_interval ~confidence:0.95 ~hits:100 ~samples:100
  in
  Alcotest.(check bool) "all hits: hi = 1" true (Interval.hi iv1 = 1.0);
  Alcotest.(check (float 1e-12)) "all hits: lo" (0.025 ** 0.01)
    (Interval.lo iv1)

let test_binomial_confidence_levels () =
  let at confidence =
    binomial_interval ~confidence ~hits:50 ~samples:100
  in
  (* higher confidence widens the interval, nested around p-hat *)
  let iv90 = at 0.9 and iv95 = at 0.95 and iv99 = at 0.99 and iv999 = at 0.999 in
  List.iter
    (fun (name, narrow, wide) ->
      Alcotest.(check bool) name true
        (Interval.width wide > Interval.width narrow
        && Interval.lo wide <= Interval.lo narrow
        && Interval.hi narrow <= Interval.hi wide))
    [
      ("0.9 inside 0.95", iv90, iv95);
      ("0.95 inside 0.99", iv95, iv99);
      ("0.99 inside 0.999", iv99, iv999);
    ];
  Alcotest.check_raises "confidence 1"
    (Invalid_argument "Mc_eval: confidence must lie in (0, 1)") (fun () ->
      ignore (binomial_interval ~confidence:1.0 ~hits:1 ~samples:2));
  Alcotest.check_raises "confidence 0"
    (Invalid_argument "Mc_eval: confidence must lie in (0, 1)") (fun () ->
      ignore (binomial_interval ~confidence:0.0 ~hits:1 ~samples:2))

(* The Bin(n, p) masses, by the ratio recursion out of the mode (whose
   mass comes from a plain sum of logs). *)
let binomial_masses n p =
  let m = Stdlib.min n (int_of_float (float_of_int (n + 1) *. p)) in
  let log_choose = ref 0.0 in
  for i = 1 to m do
    log_choose :=
      !log_choose +. log (float_of_int (n - m + i) /. float_of_int i)
  done;
  let a = Array.make (n + 1) 0.0 in
  a.(m) <-
    exp
      (!log_choose +. (float_of_int m *. log p)
      +. (float_of_int (n - m) *. log (1.0 -. p)));
  for k = m + 1 to n do
    a.(k) <-
      a.(k - 1) *. float_of_int (n - k + 1) *. p
      /. (float_of_int k *. (1.0 -. p))
  done;
  for k = m - 1 downto 0 do
    a.(k) <-
      a.(k + 1) *. float_of_int (k + 1) *. (1.0 -. p)
      /. (float_of_int (n - k) *. p)
  done;
  a

(* The exact probability that the interval drawn from [n] samples covers
   the true proportion [p]. *)
let coverage ~confidence n p =
  let masses = binomial_masses n p in
  let c = ref 0.0 in
  Array.iteri
    (fun hits mass ->
      if
        Interval.contains
          (binomial_interval ~confidence ~hits ~samples:n)
          p
      then c := !c +. mass)
    masses;
  !c

let test_binomial_coverage () =
  (* The fuzz case that exposed the Wilson interval: 1500 samples of a
     4095/4096 event at 0.999 — three or more misses, where Wilson
     excluded the truth, occur with probability 0.62%. *)
  let c = coverage ~confidence:0.999 1500 (4095.0 /. 4096.0) in
  Alcotest.(check bool)
    (Printf.sprintf "coverage %.5f >= 0.999 near 1" c)
    true (c >= 0.999);
  List.iter
    (fun (n, p, confidence) ->
      let c = coverage ~confidence n p in
      Alcotest.(check bool)
        (Printf.sprintf "coverage %.5f >= %g at n=%d p=%g" c confidence n p)
        true (c >= confidence))
    [
      (20, 0.001, 0.9); (20, 0.3, 0.99); (200, 0.002, 0.99);
      (200, 0.5, 0.9); (200, 0.97, 0.999); (1000, 1.0 /. 4096.0, 0.999);
    ]

(* ------------------------------------------------------------------ *)
(* Determinism and bit-identity *)
(* ------------------------------------------------------------------ *)

let test_bit_identity_across_domains () =
  let phi = parse "exists x. R(x)" in
  let plan = geo_plan () in
  let run d =
    Mc_eval.boolean ~domains:d ~seed:91 ~samples:5000 plan phi
  in
  let base = run 1 in
  List.iter
    (fun d ->
      let r = run d in
      Alcotest.(check int)
        (Printf.sprintf "hits identical at %d domains" d)
        base.Mc_eval.hits r.Mc_eval.hits;
      Alcotest.(check bool)
        (Printf.sprintf "bounds identical at %d domains" d)
        true
        (Interval.equal base.Mc_eval.bounds r.Mc_eval.bounds);
      Alcotest.(check bool)
        (Printf.sprintf "trajectory identical at %d domains" d)
        true
        (base.Mc_eval.width_trajectory = r.Mc_eval.width_trajectory))
    [ 2; 4 ];
  (* and the whole run is reproducible from the seed *)
  let again = run 1 in
  Alcotest.(check int) "same seed, same hits" base.Mc_eval.hits
    again.Mc_eval.hits;
  let other = Mc_eval.boolean ~domains:1 ~seed:92 ~samples:5000 plan phi in
  Alcotest.(check bool) "different seed, different worlds" true
    (other.Mc_eval.hits <> base.Mc_eval.hits
    || other.Mc_eval.estimate <> base.Mc_eval.estimate)

let test_result_accounting () =
  let r =
    Mc_eval.boolean ~domains:2 ~seed:5 ~samples:2100 (geo_plan ())
      (parse "exists x. R(x)")
  in
  Alcotest.(check int) "samples" 2100 r.Mc_eval.samples;
  Alcotest.(check int) "batches = ceil(2100/1024)" 3 r.Mc_eval.batches;
  Alcotest.(check int) "batch size recorded" 1024 r.Mc_eval.batch_size;
  Alcotest.(check bool) "estimate = hits/samples" true
    (r.Mc_eval.estimate
    = float_of_int r.Mc_eval.hits /. float_of_int r.Mc_eval.samples);
  Alcotest.(check bool) "trajectory ends at the last sample" true
    (match List.rev r.Mc_eval.width_trajectory with
    | (n, w) :: _ -> n = 2100 && w = Interval.width r.Mc_eval.bounds
    | [] -> false);
  Alcotest.(check bool) "trajectory widths nonincreasing-ish" true
    (let ws = List.map snd r.Mc_eval.width_trajectory in
     match (ws, List.rev ws) with
     | first :: _, last :: _ -> last <= first
     | _ -> false)

let test_validation () =
  let plan = geo_plan () in
  let phi = parse "exists x. R(x)" in
  Alcotest.check_raises "samples 0"
    (Invalid_argument "Mc_eval: samples must be positive") (fun () ->
      ignore (Mc_eval.boolean ~seed:1 ~samples:0 plan phi));
  Alcotest.check_raises "domains 0"
    (Invalid_argument "Mc_eval: domains must be at least 1") (fun () ->
      ignore (Mc_eval.boolean ~domains:0 ~seed:1 ~samples:10 plan phi));
  Alcotest.check_raises "free variables"
    (Invalid_argument "Mc_eval.boolean: query must be a sentence") (fun () ->
      ignore (Mc_eval.boolean ~seed:1 ~samples:10 plan (parse "R(x)")));
  (* a source with no tail certificate at all is rejected... *)
  Alcotest.(check bool) "uncertified source rejected" true
    (match
       Mc_eval.boolean ~seed:1 ~samples:10
         (Countable_ti.sampler
            (Countable_ti.create
               (Fact_source.divergent_harmonic ~scale:(q 1 2) ~facts:r_fact ())))
         phi
     with
    | exception Invalid_argument _ -> true
    | (_ : Mc_eval.result) -> false);
  (* ...while a certified-but-heavy tail is absorbed into the TV budget
     rather than rejected: telescoping certifies mass/(n+1) at every n,
     which is still about 2.4e-4 at the plan's 4096-fact cap. *)
  let telescoping () =
    Fact_source.telescoping ~mass:Rational.one ~facts:r_fact ()
  in
  let heavy =
    Mc_eval.boolean ~seed:1 ~samples:100
      (Countable_ti.sampler (Countable_ti.create (telescoping ())))
      phi
  in
  Alcotest.(check bool) "heavy tail folded into TV budget" true
    (heavy.Mc_eval.truncation_tv > 0.0
    && Interval.width heavy.Mc_eval.bounds
       > Interval.width heavy.Mc_eval.binomial);
  let exact = Approx_eval.boolean (telescoping ()) ~eps:0.001 phi in
  Alcotest.(check bool) "heavy-tail bounds contain the exact estimate" true
    (Interval.contains heavy.Mc_eval.bounds
       (Rational.to_float exact.Approx_eval.estimate))

(* ------------------------------------------------------------------ *)
(* Statistical correctness against the exact engines *)
(* ------------------------------------------------------------------ *)

(* E1/E16 workload queries; 99% intervals at 40k samples fail with
   probability ~1% per query IF the estimator were merely unbiased —
   with fixed seeds the outcome is deterministic, so these are
   regression pins, not flaky statistics. *)
let test_cross_engine_agreement () =
  let plan = geo_plan () in
  List.iter
    (fun qtext ->
      let phi = parse qtext in
      let mc =
        Mc_eval.boolean ~seed:18 ~samples:40_000 ~confidence:0.99 plan phi
      in
      let exact = Approx_eval.boolean (geo_source ()) ~eps:0.001 phi in
      Alcotest.(check bool)
        (Printf.sprintf "99%% CI contains exact estimate: %s" qtext)
        true
        (Interval.contains mc.Mc_eval.bounds
           (Rational.to_float exact.Approx_eval.estimate));
      let sess = Anytime.create ~eps:0.001 (geo_source ()) phi in
      ignore (Anytime.run sess);
      match Anytime.last_step sess with
      | None -> Alcotest.fail "anytime produced no step"
      | Some s ->
        Alcotest.(check bool)
          (Printf.sprintf "99%% CI meets anytime enclosure: %s" qtext)
          true
          (Interval.intersect mc.Mc_eval.bounds s.Anytime.bounds <> None))
    [
      "exists x. R(x)";
      "forall x. R(x) -> (exists y. R(y) & x = y)";
      "(exists x. R(x)) & !(forall y. R(y))";
    ]

let test_limit_semantics_padding () =
  (* P(forall y. R(y)) is 0 in the limit (infinitely many facts, each
     absent with positive probability) even though every truncated table
     has a world satisfying it.  The padded evaluation domain makes every
     sampled world report its limit value. *)
  let r =
    Mc_eval.boolean ~seed:3 ~samples:2000 (geo_plan ())
      (parse "forall y. R(y)")
  in
  Alcotest.(check int) "no sampled world satisfies forall" 0 r.Mc_eval.hits

let test_marginal_ti () =
  let r = Mc_eval.boolean ~seed:21 ~samples:40_000 (geo_plan ()) (parse "R(0)") in
  Alcotest.(check bool) "R(0) marginal ~ 1/2" true
    (Float.abs (r.Mc_eval.estimate -. 0.5) < 0.02);
  Alcotest.(check bool) "interval contains 1/2" true
    (Interval.contains r.Mc_eval.bounds 0.5)

let test_bid_space () =
  (* E6's BID: block k holds T(k,0), T(k,1) each at 2^-(k+2); marginal of
     T(0,0) is exactly 1/4, and no world may hold both facts of block 0. *)
  let blocks =
    Seq.map
      (fun k ->
        let p = Rational.pow Rational.half (k + 2) in
        Countable_bid.block_finite
          ~id:(Printf.sprintf "B%d" k)
          [ (fact "T" [ k; 0 ], p); (fact "T" [ k; 1 ], p) ])
      (Seq.ints 0)
  in
  let b =
    Countable_bid.create ~name:"geo-bid" ~blocks
      ~tail:(fun n -> Some (Float.succ (0.5 ** float_of_int (n + 1))))
      ()
  in
  let plan = Countable_bid.sampler b in
  let m = Mc_eval.boolean ~seed:6 ~samples:40_000 plan (parse "T(0, 0)") in
  Alcotest.(check bool) "T(0,0) ~ 1/4" true
    (Float.abs (m.Mc_eval.estimate -. 0.25) < 0.02);
  Alcotest.(check bool) "interval contains 1/4" true
    (Interval.contains m.Mc_eval.bounds 0.25);
  let excl =
    Mc_eval.boolean ~seed:7 ~samples:5000 plan
      (parse "T(0, 0) & T(0, 1)")
  in
  Alcotest.(check int) "in-block exclusivity exact" 0 excl.Mc_eval.hits

let test_completion_space () =
  (* MC on a completed source agrees with the exact truncation engine. *)
  let ti =
    Ti_table.create
      [ (fact "R" [ 1 ], q 8 10); (fact "R" [ 2 ], q 4 10) ]
  in
  let c =
    Completion.geometric_policy ~first:(q 1 4) ~ratio:Rational.half
      ~new_facts:(fun j -> fact "N" [ j ])
      ti
  in
  List.iter
    (fun qtext ->
      let phi = parse qtext in
      let exact = Approx_eval.boolean (Completion.source c) ~eps:0.001 phi in
      let mc =
        Mc_eval.boolean ~seed:8 ~samples:40_000 ~confidence:0.99
          (Countable_ti.sampler (Countable_ti.create (Completion.source c)))
          phi
      in
      Alcotest.(check bool)
        (Printf.sprintf "completion MC contains exact: %s" qtext)
        true
        (Interval.contains mc.Mc_eval.bounds
           (Rational.to_float exact.Approx_eval.estimate)))
    [ "exists x. N(x)"; "R(1) & !(exists x. N(x))" ]

let test_estimate_event_generic () =
  (* The engine on a plan built by hand, a fair coin for R(0). *)
  let coin tv =
    {
      Sampler.draw =
        (fun g ->
          if Prng.float g < 0.5 then Instance.singleton (r_fact 0)
          else Instance.empty);
      tv;
      support = [ r_fact 0 ];
    }
  in
  let r = Mc_eval.boolean ~domains:2 ~seed:1 ~samples:20_000 (coin 0.0) (parse "R(0)") in
  Alcotest.(check bool) "fair coin" true
    (Float.abs (r.Mc_eval.estimate -. 0.5) < 0.02);
  Alcotest.(check (float 0.0)) "no truncation tv for an exact plan" 0.0
    r.Mc_eval.truncation_tv;
  (* the tv widening is folded into bounds but not binomial *)
  let w = Mc_eval.boolean ~seed:1 ~samples:1000 (coin 0.1) (parse "R(0)") in
  Alcotest.(check bool) "bounds wider than binomial by 2*tv" true
    (Float.abs
       (Interval.width w.Mc_eval.bounds
       -. (Interval.width w.Mc_eval.binomial +. 0.2))
    < 1e-9)

let () =
  Alcotest.run "mc"
    [
      ( "statistics",
        [
          Alcotest.test_case "binomial interval" `Quick test_binomial_interval;
          Alcotest.test_case "binomial confidence levels" `Quick
            test_binomial_confidence_levels;
          Alcotest.test_case "binomial coverage" `Quick test_binomial_coverage;
        ] );
      ( "engine",
        [
          Alcotest.test_case "bit-identity across domains" `Quick
            test_bit_identity_across_domains;
          Alcotest.test_case "result accounting" `Quick test_result_accounting;
          Alcotest.test_case "validation" `Quick test_validation;
          Alcotest.test_case "generic event estimator" `Quick
            test_estimate_event_generic;
        ] );
      ( "agreement",
        [
          Alcotest.test_case "cross-engine (E1/E16 queries)" `Slow
            test_cross_engine_agreement;
          Alcotest.test_case "limit semantics via padding" `Quick
            test_limit_semantics_padding;
          Alcotest.test_case "TI marginal" `Slow test_marginal_ti;
          Alcotest.test_case "BID space" `Slow test_bid_space;
          Alcotest.test_case "completion space" `Slow test_completion_space;
        ] );
    ]
