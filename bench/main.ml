(* The experiment harness.

   The paper (Grohe & Lindner, PODS 2019) is a theory paper: its only
   figure is Fig. 1, the truncation picture behind Proposition 6.1, and it
   has no tables.  Following DESIGN.md Section 6, this harness regenerates
   Fig. 1's quantitative content and turns every theorem with measurable
   content into a printed table whose numbers must come out with the shape
   the theorem predicts.  EXPERIMENTS.md records paper-vs-measured for
   each experiment id.

   Run everything:        dune exec bench/main.exe
   One experiment:        dune exec bench/main.exe -- --only E1
   Skip wall-clock part:  dune exec bench/main.exe -- --no-timing
   CI smoke run:          dune exec bench/main.exe -- --smoke
                          (fast subset, reduced sample counts, no timing) *)

(* Set by --smoke before any experiment runs; heavy experiments consult it
   to shrink their sample counts so the whole smoke run stays in CI-scale
   seconds. *)
let smoke = ref false

let i n = Value.Int n
let q = Rational.of_ints
let parse = Fo_parse.parse_exn
let r_fact k = Fact.make "R" [ i k ]

let header id title =
  Printf.printf "\n================================================================\n";
  Printf.printf "%s  %s\n" id title;
  Printf.printf "================================================================\n";
  flush stdout

let row fmt = Printf.kfprintf (fun oc -> flush oc) stdout fmt

(* --json <dir>: after the run, write one BENCH_<id>.json per executed
   experiment holding its wall time plus any metrics the experiment
   recorded with [metric].  Hand-rolled writer — the sealed environment
   has no JSON package, and flat string/float pairs need none. *)
let json_dir : string option ref = ref None
let metrics : (string, (string * float) list ref) Hashtbl.t = Hashtbl.create 32

let metric id key value =
  match Hashtbl.find_opt metrics id with
  | Some l -> l := (key, value) :: !l
  | None -> Hashtbl.add metrics id (ref [ (key, value) ])

let write_json dir =
  (try Sys.mkdir dir 0o755 with Sys_error _ -> ());
  Hashtbl.iter
    (fun id kvs ->
      let path = Filename.concat dir (Printf.sprintf "BENCH_%s.json" id) in
      let oc = open_out path in
      let fields =
        List.map
          (fun (k, v) -> Printf.sprintf "    %S: %.17g" k v)
          (List.rev !kvs)
      in
      Printf.fprintf oc "{\n  \"id\": %S,\n  \"metrics\": {\n%s\n  }\n}\n" id
        (String.concat ",\n" fields);
      close_out oc)
    metrics

(* Shared sources *)
let geo_source () =
  Fact_source.geometric ~first:Rational.half ~ratio:Rational.half
    ~facts:r_fact ()

let telescoping_source () =
  Fact_source.telescoping ~mass:(q 9 10) ~facts:r_fact ()

let log_slow_source () =
  (* p_i = c / ((i+2) ln^2 (i+2)) as exact dyadic approximations from
     below; tail certificate from the integral test (Series.log_slow). *)
  let series = Series.log_slow ~scale:0.2 () in
  Fact_source.make ~name:"log-slow(0.2)"
    ~enum:
      (Seq.map
         (fun k ->
           (r_fact k, Rational.of_float_exn (Series.term series k)))
         (Seq.ints 0))
    ~tail:(fun n -> Series.tail series n)
    ()

(* The paper's Example 5.7 completion, reused across experiments. *)
let ex57_ti =
  Ti_table.create
    [
      (Fact.make "R" [ Value.Str "A"; i 1 ], q 8 10);
      (Fact.make "R" [ Value.Str "B"; i 1 ], q 4 10);
      (Fact.make "R" [ Value.Str "B"; i 2 ], q 5 10);
      (Fact.make "R" [ Value.Str "C"; i 3 ], q 9 10);
    ]

let ex57_news () =
  let names = [| "A"; "B"; "C"; "D" |] in
  let orig = Fact.Set.of_list (Ti_table.support ex57_ti) in
  let all =
    Seq.concat_map
      (fun idx ->
        let x = names.(idx mod 4) and iv = (idx / 4) + 1 in
        let f = Fact.make "R" [ Value.Str x; i iv ] in
        if Fact.Set.mem f orig then Seq.empty
        else Seq.return (f, Rational.pow Rational.half iv))
      (Seq.ints 0)
  in
  Fact_source.make ~name:"ex57-2^-i" ~enum:all
    ~tail:(fun n -> Some (8.0 *. (0.5 ** float_of_int (n / 4))))
    ()

(* ------------------------------------------------------------------ *)
(* E1 - Fig. 1 / Prop 6.1: measured additive error vs the eps guarantee *)
(* ------------------------------------------------------------------ *)

let e1 () =
  header "E1" "Fig. 1 / Prop 6.1: additive error of truncation vs guarantee";
  let src = geo_source () in
  (* Ground truth P(exists x. R(x)) = 1 - prod_{i>=1} (1 - 2^-i): compute
     a near-limit reference with a very deep prefix. *)
  let deep = 200 in
  let truth =
    1.0
    -. List.fold_left
         (fun acc (_, p) -> acc *. (1.0 -. Rational.to_float p))
         1.0
         (Fact_source.prefix src deep)
  in
  let phi = parse "exists x. R(x)" in
  row "  query: exists x. R(x); true P(Q) = %.9f\n" truth;
  row "  %-10s %-6s %-14s %-14s %-12s %s\n" "eps" "n(eps)" "estimate"
    "measured-err" "err <= eps" "certified bounds";
  List.iter
    (fun eps ->
      let r = Approx_eval.boolean src ~eps phi in
      let est = Rational.to_float r.Approx_eval.estimate in
      let err = Float.abs (est -. truth) in
      row "  %-10g %-6d %-14.9f %-14.3e %-12b [%.6f, %.6f]\n" eps
        r.Approx_eval.n_used est err (err <= eps)
        (Interval.lo r.Approx_eval.bounds)
        (Interval.hi r.Approx_eval.bounds))
    [ 0.2; 0.1; 0.05; 0.01; 0.001; 0.0001 ];
  (* a second query of quantifier rank 2 *)
  let phi2 = parse "forall x. R(x) -> (exists y. R(y) & x = y)" in
  let r = Approx_eval.boolean src ~eps:0.01 phi2 in
  row "  rank-2 query tautology check: estimate %s (expected 1)\n"
    (Rational.to_string r.Approx_eval.estimate)

(* ------------------------------------------------------------------ *)
(* E2 - truncation budget n(eps) across decay regimes *)
(* ------------------------------------------------------------------ *)

let e2 () =
  header "E2" "n(eps) growth: geometric vs quadratic vs logarithmic decay";
  let sources =
    [ geo_source (); telescoping_source (); log_slow_source () ]
  in
  row "  %-12s" "eps";
  List.iter (fun s -> row "%-20s" (Fact_source.name s)) sources;
  row "\n";
  List.iter
    (fun eps ->
      row "  %-12g" eps;
      List.iter
        (fun s ->
          match Approx_eval.truncation_r ~max_n:(1 lsl 22) s ~eps with
          | Ok (n, _) -> row "%-20d" n
          | Error _ -> row "%-20s" ">2^22 (too slow)")
        sources;
      row "\n")
    [ 0.2; 0.1; 0.01; 0.001; 0.0001 ];
  row "  shape: geometric ~ log(1/eps); telescoping ~ 1/eps; log-slow explodes\n"

(* ------------------------------------------------------------------ *)
(* E3 - Lemma 4.3 / Thm 4.8: the partition function is exactly 1 *)
(* ------------------------------------------------------------------ *)

let e3 () =
  header "E3" "Lemma 4.3: sum of world measures is exactly 1 (rational arithmetic)";
  let t = Countable_ti.create (geo_source ()) in
  row "  %-4s %-10s %s\n" "n" "#worlds" "sum_{D subseteq first n} P_n({D})";
  List.iter
    (fun n ->
      let s = Countable_ti.partition_prefix_sum t ~n in
      row "  %-4d %-10d %s%s\n" n (1 lsl n) (Rational.to_string s)
        (if Rational.is_one s then "   (exact)" else "   VIOLATION"))
    [ 0; 2; 4; 8; 12; 16 ]

(* ------------------------------------------------------------------ *)
(* E4 - Cor 4.7 vs Example 3.3: expected instance size *)
(* ------------------------------------------------------------------ *)

let e4 () =
  header "E4" "Cor 4.7: TI expected size finite; Example 3.3 diverges";
  let t = Countable_ti.create (geo_source ()) in
  row "  countable TI source %s:\n" (Fact_source.name (Countable_ti.source t));
  List.iter
    (fun n ->
      let lo, hi = Countable_ti.expected_size_bounds t ~n in
      row "    E(S) bounds with %3d terms: [%.8f, %.8f]\n" n lo hi)
    [ 5; 10; 20; 40 ];
  let g = Prng.create ~seed:4242 () in
  let mean =
    Size_dist.mean_size (fun _ -> Countable_ti.sample t g) ~samples:20_000
  in
  row "    sampled mean size (20k draws): %.4f (analytic: 1.0)\n" mean;
  row "  Example 3.3 (non-TI): truncated E(S) over the first N worlds:\n";
  List.iter
    (fun n ->
      row "    N = %2d: E(S) >= %s\n" n
        (Rational.to_decimal_string ~digits:2
           (Size_dist.example_3_3_expected_size_prefix n)))
    [ 5; 10; 15; 20; 25 ];
  row "    (diverges: no TI representation can exist - Prop 4.9's witness)\n"

(* ------------------------------------------------------------------ *)
(* E5 - Lemma 4.6 / Borel-Cantelli: divergent marginals are impossible *)
(* ------------------------------------------------------------------ *)

let e5 () =
  header "E5" "Thm 4.8 necessity: divergent marginals rejected; sampled prefix blowup";
  let verdict name make_source =
    match make_source () with
    | exception Invalid_argument msg ->
      row "  %-22s REJECTED: %s\n" name
        (String.sub msg 0 (Stdlib.min 60 (String.length msg)))
    | (_ : Countable_ti.t) -> row "  %-22s accepted\n" name
  in
  verdict "geometric(1/2,1/2)" (fun () -> Countable_ti.create (geo_source ()));
  verdict "telescoping(9/10)" (fun () ->
      Countable_ti.create (telescoping_source ()));
  verdict "harmonic (divergent)" (fun () ->
      Countable_ti.create
        (Fact_source.divergent_harmonic ~scale:Rational.one ~facts:r_fact ()));
  (* Empirical Borel-Cantelli: draw Bernoulli prefixes of the harmonic
     series; the number of included facts grows with the prefix length
     (so no a.s.-finite world exists). *)
  row "  harmonic prefix draws (facts included among first n):\n";
  let g = Prng.create ~seed:9 () in
  List.iter
    (fun n ->
      let count = ref 0 in
      for k = 0 to n - 1 do
        if Prng.bernoulli g (1.0 /. float_of_int (k + 1)) then incr count
      done;
      row "    n = %-7d included ~ %d (ln n = %.1f)\n" n !count
        (log (float_of_int n)))
    [ 100; 1000; 10_000; 100_000 ]

(* ------------------------------------------------------------------ *)
(* E6 - Thm 4.15: BID laws *)
(* ------------------------------------------------------------------ *)

let e6 () =
  header "E6" "Thm 4.15: countable BID - exclusivity exact, cross-block independence";
  let blocks =
    Seq.map
      (fun k ->
        let p = Rational.pow Rational.half (k + 2) in
        Countable_bid.block_finite
          ~id:(Printf.sprintf "B%d" k)
          [ (Fact.make "T" [ i k; i 0 ], p); (Fact.make "T" [ i k; i 1 ], p) ])
      (Seq.ints 0)
  in
  let b =
    Countable_bid.create ~name:"geo-bid" ~blocks
      ~tail:(fun n -> Some (Float.succ (0.5 ** float_of_int (n + 1))))
      ()
  in
  let samples = 50_000 in
  let violations =
    Sampler.exclusivity_violations ~seed:5 ~samples
      (fun g -> Countable_bid.sample b g)
      (fun f ->
        match Fact.args f with
        | Value.Int k :: _ -> Some (string_of_int k)
        | _ -> None)
  in
  row "  in-block exclusivity violations over %d samples: %d (must be 0)\n"
    samples violations;
  let f00 = Fact.make "T" [ i 0; i 0 ] and f10 = Fact.make "T" [ i 1; i 0 ] in
  let gap =
    Sampler.independence_gap ~seed:6 ~samples
      (fun g -> Countable_bid.sample b g)
      f00 f10
  in
  row "  cross-block |P(f,g) - P(f)P(g)| = %.5f (sampling noise scale %.5f)\n"
    gap
    (1.0 /. sqrt (float_of_int samples));
  let m00 =
    Sampler.estimate_marginal ~seed:7 ~samples
      (fun g -> Countable_bid.sample b g)
      f00
  in
  row "  marginal T(0,0): sampled %.4f vs exact 0.25\n" m00;
  (* truncation agrees with the finite BID table *)
  let table = Countable_bid.truncate b ~n_blocks:6 ~alts_per_block:2 in
  row "  finite truncation: %d blocks, partition sum = %s\n"
    (Bid_table.num_blocks table)
    (Rational.to_string
       (Seq.fold_left
          (fun acc (_, p) -> Rational.add acc p)
          Rational.zero (Bid_table.worlds table)))

(* ------------------------------------------------------------------ *)
(* E7 - Thm 5.5: the completion condition, exactly *)
(* ------------------------------------------------------------------ *)

let e7 () =
  header "E7" "Thm 5.5: completion condition P'(A|Omega) = P(A), exact gaps";
  let g = Prng.create ~seed:77 () in
  let random_ti k seedless =
    ignore seedless;
    Ti_table.create
      (List.init k (fun j ->
           (Fact.make "F" [ i j ], q (1 + Prng.int g 8) 10)))
  in
  row "  %-28s %-10s %s\n" "original (random TI)" "n(trunc)" "max world gap";
  List.iter
    (fun k ->
      let ti = random_ti k () in
      let c = Completion.complete_ti ti (ex57_news ()) in
      List.iter
        (fun n ->
          row "  %-28s %-10d %s\n"
            (Printf.sprintf "%d facts" k)
            n
            (Rational.to_string (Completion.completion_condition_gap c ~n)))
        [ 0; 2; 4 ])
    [ 1; 3; 5 ];
  row "  (all gaps exactly 0: conditioning the completion on old worlds\n";
  row "   restores the original measure, per Theorem 5.5)\n"

(* ------------------------------------------------------------------ *)
(* E8 - Example 5.7 worked numbers *)
(* ------------------------------------------------------------------ *)

let e8 () =
  header "E8" "Example 5.7: closed vs open answers on the paper's table";
  let c = Completion.complete_ti ex57_ti (ex57_news ()) in
  let show qs =
    let phi = parse qs in
    let closed = Query_eval.boolean ex57_ti phi in
    let opened = Approx_eval.boolean (Completion.source c) ~eps:0.005 phi in
    row "  %-50s closed %-8s open %-8s (n=%d)\n" qs
      (Rational.to_decimal_string ~digits:4 closed)
      (Rational.to_decimal_string ~digits:4 opened.Approx_eval.estimate)
      opened.Approx_eval.n_used
  in
  show "exists x. R(\"A\", x)";
  show "exists x. R(\"D\", x)";
  show "exists x y. R(\"A\", x) & R(\"A\", y) & x != y";
  show "R(\"D\", 2) & R(\"A\", 2)";
  show "forall x. R(\"B\", x) -> R(\"A\", x)";
  row "  every finite Boolean combination of distinct facts now has P > 0\n"

(* ------------------------------------------------------------------ *)
(* E9 - Prop 6.2: additive fine, multiplicative impossible *)
(* ------------------------------------------------------------------ *)

let e9 () =
  header "E9" "Prop 6.2 witness: additive error bounded, multiplicative unbounded";
  let phi = parse "exists x. R(x)" in
  let eps = 0.01 in
  row "  eps = %g; witness family p(R/S(k)) = 2^-k, R at k = t0\n" eps;
  row "  %-6s %-14s %-14s %-12s %s\n" "t0" "true P(Q)" "estimate"
    "additive-err" "multiplicative ratio";
  List.iter
    (fun t0 ->
      let s = Approx_eval.prop62_witness ~first_acceptance:t0 ~horizon:80 in
      let truth = Rational.to_float (Rational.pow Rational.half t0) in
      let r = Approx_eval.boolean s ~eps phi in
      let est = Rational.to_float r.Approx_eval.estimate in
      let mult =
        if est > 0.0 then Printf.sprintf "%.3f" (truth /. est)
        else "infinite (est = 0, truth > 0)"
      in
      row "  %-6d %-14.3e %-14.3e %-12.3e %s\n" t0 truth est
        (Float.abs (est -. truth))
        mult)
    [ 1; 3; 6; 10; 20; 40 ];
  row "  any fixed-budget evaluator misses deep acceptances: no algorithm\n";
  row "  can bound the ratio (Prop 6.2's computability argument)\n"

(* ------------------------------------------------------------------ *)
(* E10 - claim (∗) tightness *)
(* ------------------------------------------------------------------ *)

let e10 () =
  header "E10" "Claim (*): prod(1-p_i) >= exp(-3/2 sum p_i) - measured gap";
  let families =
    [
      Series.geometric ~first:0.4 ~ratio:0.5 ();
      Series.zeta2 ~scale:0.4 ();
      Series.of_list [ 0.49; 0.4; 0.3; 0.2; 0.1 ];
      Series.geometric ~first:0.01 ~ratio:0.9 ();
    ]
  in
  row "  %-22s %-14s %-14s %s\n" "series" "true product"
    "(*) lower bnd" "ratio (>= 1)";
  List.iter
    (fun s ->
      let n = 60 in
      let prod = Series.product_compl_prefix s n in
      let star = exp (-1.5 *. Series.partial_sum s n) in
      (match Series.star_bound_gap s n with
       | Some gap -> row "  %-22s %-14.8f %-14.8f %.4f\n" (Series.name s) prod star gap
       | None -> row "  %-22s (term >= 1/2: inapplicable)\n" (Series.name s)))
    families;
  row "  bound loosest when terms approach 1/2, near-tight for small p\n"

(* ------------------------------------------------------------------ *)
(* E11 - motivation: sensors *)
(* ------------------------------------------------------------------ *)

let e11 () =
  header "E11" "Intro scenario: closed world 0 vs open world small-positive, monotone";
  let observed =
    Ti_table.create
      [
        (Fact.make "Temp" [ i 1; i 201 ], q 6 10);
        (Fact.make "Temp" [ i 1; i 202 ], q 5 10);
        (Fact.make "Temp" [ i 2; i 205 ], q 6 10);
        (Fact.make "Temp" [ i 2; i 206 ], q 5 10);
      ]
  in
  let news =
    Fact_source.of_list ~name:"sensor-news"
      (List.map
         (fun (o, t, d) ->
           (Fact.make "Temp" [ i o; i t ], Rational.pow Rational.half d))
         [
           (1, 203, 3); (1, 200, 3); (2, 204, 3); (2, 207, 3);
           (1, 204, 4); (1, 199, 4); (2, 203, 4); (2, 208, 4);
           (1, 205, 5); (1, 198, 5); (2, 202, 5); (2, 209, 5);
           (1, 206, 6); (1, 197, 6); (2, 201, 6); (2, 210, 6);
         ])
  in
  let c = Completion.complete_ti observed news in
  row "  %-34s %-10s %s\n" "event" "closed" "open";
  List.iter
    (fun qs ->
      let phi = parse qs in
      let closed = Query_eval.boolean observed phi in
      let opened = Approx_eval.boolean (Completion.source c) ~eps:0.001 phi in
      row "  %-34s %-10s %s\n" qs
        (Rational.to_decimal_string ~digits:4 closed)
        (Rational.to_decimal_string ~digits:6 opened.Approx_eval.estimate))
    [
      "Temp(1, 203)";
      "Temp(1, 199)";
      "Temp(1, 206)";
      "Temp(1, 206) & Temp(2, 205)";
    ];
  row "  monotone: near-gap (20.3) > distant (19.9) > extreme (20.6);\n";
  row "  the closed world flattens all three to probability 0\n"

(* ------------------------------------------------------------------ *)
(* E14 - Prop 4.9 shape: Fact 2.1 bound on FO views *)
(* ------------------------------------------------------------------ *)

let e14 () =
  header "E14" "Prop 4.9 shape: FO-view answers bounded by adom (Fact 2.1)";
  let src =
    Fact_source.geometric ~first:Rational.half ~ratio:Rational.half
      ~facts:(fun k -> Fact.make "E" [ i k; i (k + 1) ])
      ()
  in
  let cti = Countable_ti.create src in
  let g = Prng.create ~seed:14 () in
  let phi = parse "exists y. E(x, y) | E(y, x)" in
  let worst = ref 0.0 in
  let samples = 500 in
  for _ = 1 to samples do
    let w = Countable_ti.sample cti g in
    if not (Instance.is_empty w) then begin
      let _, answers = Fo_eval.answers w phi in
      let ratio =
        float_of_int (Tuple.Set.cardinal answers)
        /. float_of_int (List.length (Instance.active_domain w))
      in
      if ratio > !worst then worst := ratio
    end
  done;
  row "  max |phi(D)| / |adom(D)| over %d TI samples: %.2f (Fact 2.1: <= 1)\n"
    samples !worst;
  row "  Example 3.3 truncated E(S): N=10 -> %s, N=20 -> %s (unbounded)\n"
    (Rational.to_decimal_string ~digits:1
       (Size_dist.example_3_3_expected_size_prefix 10))
    (Rational.to_decimal_string ~digits:1
       (Size_dist.example_3_3_expected_size_prefix 20));
  row "  a TI PDB + FO view can never reproduce that growth (Prop 4.9)\n"

(* ------------------------------------------------------------------ *)
(* E12/E13 - wall-clock ablations via Bechamel *)
(* ------------------------------------------------------------------ *)

let make_wide_ti k =
  Ti_table.create
    (List.concat
       (List.init k (fun j ->
            [
              (Fact.make "R" [ i j ], q 1 3);
              (Fact.make "S" [ i j ], q 1 4);
            ])))

let run_bechamel tests =
  let open Bechamel in
  let instances = [ Toolkit.Instance.monotonic_clock ] in
  (* stabilize:false — the GC-stabilization loop never settles for the
     allocation-heavy rational engines and would hang the harness. *)
  (* limit 40: the heavyweight bodies (world enumeration, 1000-sample MC)
     cost tens of milliseconds per run, so a large sample count would take
     minutes without changing the ns/run verdicts we print. *)
  let cfg =
    Benchmark.cfg ~limit:40 ~quota:(Time.second 0.25) ~stabilize:false ()
  in
  print_string "  (measuring...)\n";
  flush stdout;
  let raw = Benchmark.all cfg instances tests in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  Hashtbl.iter
    (fun name result ->
      match Analyze.OLS.estimates result with
      | Some [ t ] -> row "  %-44s %12.1f ns/run\n" name t
      | _ -> row "  %-44s (no estimate)\n" name)
    results;
  flush stdout

let e12 () =
  header "E12" "Engine ablation (D2): enumeration vs BDD vs safe plan vs MC";
  let phi_safe = parse "exists x. R(x) & S(x)" in
  let phi_hard = parse "exists x y. (R(x) & S(y)) | (R(y) & !S(x))" in
  let small = make_wide_ti 6 in
  let large = make_wide_ti 60 in
  let large_space =
    Mc_eval.Ti (Countable_ti.create (Fact_source.of_ti_table large))
  in
  let open Bechamel in
  run_bechamel
    (Test.make_grouped ~name:"engines"
       [
         Test.make ~name:"enum k=6 (2^12 worlds)"
           (Staged.stage (fun () -> Query_eval.boolean_enum small phi_safe));
         Test.make ~name:"bdd k=6"
           (Staged.stage (fun () -> Query_eval.boolean_bdd small phi_safe));
         Test.make ~name:"safe-plan k=6"
           (Staged.stage (fun () -> Query_eval.boolean_safe small phi_safe));
         Test.make ~name:"bdd k=60"
           (Staged.stage (fun () -> Query_eval.boolean_bdd large phi_safe));
         Test.make ~name:"safe-plan k=60"
           (Staged.stage (fun () -> Query_eval.boolean_safe large phi_safe));
         Test.make ~name:"mc-1000 k=60"
           (Staged.stage (fun () ->
                Mc_eval.boolean ~seed:0xC0FFEE ~samples:1000 large_space
                  phi_safe));
         Test.make ~name:"karp-luby-1000 k=60"
           (Staged.stage (fun () ->
                Query_eval.boolean_karp_luby ~samples:1000 large phi_safe));
         Test.make ~name:"bdd k=6 non-hierarchical"
           (Staged.stage (fun () -> Query_eval.boolean_bdd small phi_hard));
       ]);
  row "  expected shape: safe-plan < bdd << enum; safe-plan scales\n";
  row "  linearly in k while enumeration is infeasible past ~20 facts\n"

let e13 () =
  header "E13" "Carrier ablation (D1): delta session, rational vs interval";
  (* A delta session orders variables newest-first, which separates the
     R(j)/S(j) pairs of [make_wide_ti] (an exponential diagram, see D4);
     as E(j, 0)/E(j, 1) the pairs stay adjacent and the diagram linear. *)
  let ti =
    Ti_table.create
      (List.concat
         (List.init 40 (fun j ->
              [ (Fact.make "E" [ i j; i 0 ], q 1 2);
                (Fact.make "E" [ i j; i 1 ], q 1 3) ])))
  in
  let phi = parse "exists x. E(x, 0) & E(x, 1)" in
  let open Bechamel in
  run_bechamel
    (Test.make_grouped ~name:"carriers"
       [
         Test.make ~name:"session rational (exact)"
           (Staged.stage (fun () ->
                Delta_eval.Exact.prob (Delta_eval.Exact.create ti phi)));
         Test.make ~name:"session interval (certified)"
           (Staged.stage (fun () ->
                Delta_eval.Certified.prob
                  (Delta_eval.Certified.create ti phi)));
       ]);
  row "  exactness cost: rational pays a bignum gcd per op; the interval\n";
  row "  carrier a few float ops and ulp steps per node\n"

let ablate_bdd_order () =
  header "D4" "BDD variable order ablation: interleaved vs separated";
  let k = 12 in
  let e =
    Bool_expr.disj
      (List.init k (fun j -> Bool_expr.and2 (Bool_expr.var j) (Bool_expr.var (j + k))))
  in
  let natural = Bdd.manager () in
  let interleaved =
    Bdd.manager ~order:(fun v -> if v < k then 2 * v else (2 * (v - k)) + 1) ()
  in
  row "  (x0&x%d)|...: natural order size %d, interleaved order size %d\n" k
    (Bdd.size (Bdd.of_expr natural e))
    (Bdd.size (Bdd.of_expr interleaved e));
  row "  (the classical exponential/linear separation)\n"

(* ------------------------------------------------------------------ *)
(* E15 - approximate engines: truncation(+exact) vs Karp-Luby vs MC      *)
(* ------------------------------------------------------------------ *)

let e15 () =
  header "E15"
    "Approximate engines on a rare event: exact/KL relative error vs plain MC";
  (* A conjunctive rare event: P(R(0) & S(0)) = 1/50 * 1/50 = 4e-4 on a
     wide table.  Plain MC at n samples sees ~n*4e-4 hits; Karp-Luby's
     relative error is independent of the probability. *)
  let ti =
    Ti_table.create
      (List.concat
         (List.init 40 (fun j ->
              [
                (Fact.make "R" [ i j ], q 1 50);
                (Fact.make "S" [ i j ], q 1 50);
              ])))
  in
  let phi = parse "exists x. R(x) & S(x)" in
  let exact = Rational.to_float (Query_eval.boolean ti phi) in
  row "  exact P(Q) (lineage+BDD)      = %.8f
" exact;
  let space = Mc_eval.Ti (Countable_ti.create (Fact_source.of_ti_table ti)) in
  List.iter
    (fun samples ->
      let mc = Mc_eval.boolean ~seed:1 ~samples space phi in
      let kl =
        match Query_eval.boolean_karp_luby ~seed:1 ~samples ti phi with
        | Some r -> r
        | None -> failwith "monotone query"
      in
      let rel x = Float.abs (x -. exact) /. exact in
      row
        "  n=%-7d plain-MC est %.6f (rel err %5.1f%%)   Karp-Luby est %.6f          (rel err %5.1f%%)
"
        samples mc.Mc_eval.estimate
        (100. *. rel mc.Mc_eval.estimate)
        kl.Query_eval.estimate
        (100. *. rel kl.Query_eval.estimate))
    [ 100; 1000; 10000 ];
  (* An a-priori (eps, delta) additive guarantee: the Hoeffding count
     ln(2/delta) / (2 eps^2) fixes the sample size up front. *)
  let hoeffding =
    int_of_float (Float.ceil (log (2.0 /. 0.05) /. (2.0 *. 0.005 *. 0.005)))
  in
  let ad = Mc_eval.boolean ~seed:2 ~samples:hoeffding space phi in
  row "  Hoeffding MC (eps 0.005, delta 0.05): %d samples, est %.6f
"
    ad.Mc_eval.samples ad.Mc_eval.estimate;
  row "  shape: KL relative error ~ 1/sqrt(n) regardless of P(Q); plain MC
";
  row "  needs ~1/P(Q) samples per hit (FPRAS vs additive-only sampling)
"

(* ------------------------------------------------------------------ *)
(* E16 - batch truncation vs incremental anytime evaluation            *)
(* ------------------------------------------------------------------ *)

let e16 () =
  header "E16"
    "Batch truncation vs incremental anytime (shared BDD manager across steps)";
  (* Two query shapes: a pure existential chain exercises the delta path
     (only the fresh ground instances are compiled per step); the Boolean
     combination of quantified sentences is opaque to the shape analysis,
     so every step recompiles — but inside the session's one manager,
     where the apply cache already holds every sub-function of the
     previous step's lineage. *)
  let queries =
    [
      ("exists x. R(x)", "delta path", "chain");
      ("(exists x. R(x)) & !(forall y. R(y))", "recompile path", "opaque");
    ]
  in
  let sources =
    [
      ((geo_source : unit -> Fact_source.t), 0.001, "geometric");
      (* Tighter eps on the quadratic source sends the exact-rational
         batch engine into huge-denominator territory; the anytime side
         would not mind (interval carrier), but the comparison must run
         both. *)
      (telescoping_source, 0.01, "telescoping");
      (log_slow_source, 0.05, "log_slow");
      (* log decay: eps 0.001 needs n ~ e^300 *)
    ]
  in
  List.iter
    (fun (mk, eps, skey) ->
      List.iter
        (fun (qtext, mode, qkey) ->
          let phi = parse qtext in
          let bsrc = mk () in
          let r = Approx_eval.boolean ~max_n:(1 lsl 22) bsrc ~eps phi in
          row "\n  source %-20s eps %-8g query %s  [%s]\n"
            (Fact_source.name bsrc) eps qtext mode;
          row "    batch:   n=%-6d est=%.6f certified [%.6f, %.6f]\n"
            r.Approx_eval.n_used
            (Rational.to_float r.Approx_eval.estimate)
            (Interval.lo r.Approx_eval.bounds)
            (Interval.hi r.Approx_eval.bounds);
          let t0 = Unix.gettimeofday () in
          let sess = Anytime.create ~eps ~max_n:(1 lsl 22) (mk ()) phi in
          let reason, steps = Anytime.run sess in
          let anytime_s = Unix.gettimeofday () -. t0 in
          row "    %-5s %-8s %-10s %-10s %-6s %-10s %s\n" "step" "n" "width"
            "bdd-size" "mode" "apply-hit" "nodes-alloc";
          List.iter
            (fun (s : Anytime.step) ->
              row "    %-5d %-8d %-10.2e %-10d %-6s %-10.0f %.0f\n"
                s.Anytime.index s.Anytime.n s.Anytime.width s.Anytime.bdd_size
                (if s.Anytime.incremental then "delta" else "full")
                (Stats.find s.Anytime.stats "bdd.apply.hit")
                (Stats.find s.Anytime.stats "bdd.nodes_allocated"))
            steps;
          let carried_hits =
            List.fold_left
              (fun acc (s : Anytime.step) ->
                if s.Anytime.index > 1 then
                  acc +. Stats.find s.Anytime.stats "bdd.apply.hit"
                else acc)
              0.0 steps
          in
          let final_width =
            match Anytime.last_step sess with
            | Some s -> s.Anytime.width
            | None -> nan
          in
          (* Recorded for the baseline gate: the step count and final
             width pin the anytime answers, the incremental-step count
             and the recompiles after the first step pin the delta path
             (on the chain query every step after the first must be
             incremental). *)
          let key k = Printf.sprintf "%s.%s.%s" skey qkey k in
          metric "E16" (key "steps") (float_of_int (List.length steps));
          metric "E16" (key "incremental_steps")
            (float_of_int
               (List.length
                  (List.filter (fun s -> s.Anytime.incremental) steps)));
          metric "E16" (key "recompiled_after_first")
            (float_of_int
               (List.length
                  (List.filter
                     (fun s -> s.Anytime.index > 1 && not s.Anytime.incremental)
                     steps)));
          metric "E16" (key "final_width") final_width;
          metric "E16" (key "anytime_seconds") anytime_s;
          row
            "    anytime: stopped (%s) at n=%d, width %.2e (target %.2e), \
             %d manager nodes, %.0f apply-cache hits carried past step 1\n"
            (Anytime.stop_reason_to_string reason)
            (Anytime.current_n sess) final_width (2.0 *. eps)
            (Anytime.node_count sess) carried_hits)
        queries)
    sources

(* ------------------------------------------------------------------ *)
(* E17 - domain-parallel Monte-Carlo engine                            *)
(* ------------------------------------------------------------------ *)

let e17 () =
  header "E17"
    "Mc_eval: domain scaling, bit-identity, and cross-engine agreement";
  let samples = if !smoke then 20_000 else 200_000 in
  let space = Mc_eval.Ti (Countable_ti.create (geo_source ())) in
  let phi = parse "exists x. R(x)" in
  (* 1. Throughput vs domain count.  Speedup is bounded by physical
     cores (a 1-core container shows ~1x); the statistical result must
     not move at all: batch b draws from substream(seed, b) into its own
     slot regardless of which domain claims it. *)
  row "  host: %d recommended domains; workload: %d worlds of %s\n"
    (Domain.recommended_domain_count ())
    samples "exists x. R(x) on geometric(1/2,1/2)";
  let time_run d =
    let t0 = Unix.gettimeofday () in
    let r = Mc_eval.boolean ~domains:d ~seed:17 ~samples space phi in
    (r, Unix.gettimeofday () -. t0)
  in
  let base, base_t = time_run 1 in
  row "  %-8s %-10s %-9s %-12s %s\n" "domains" "seconds" "speedup" "estimate"
    "bit-identical to 1-domain run";
  row "  %-8d %-10.3f %-9s %-12.6f %s\n" 1 base_t "1.00" base.Mc_eval.estimate
    "-";
  List.iter
    (fun d ->
      let r, t = time_run d in
      let same =
        r.Mc_eval.hits = base.Mc_eval.hits
        && Interval.equal r.Mc_eval.bounds base.Mc_eval.bounds
        && Interval.equal r.Mc_eval.binomial base.Mc_eval.binomial
        && r.Mc_eval.width_trajectory = base.Mc_eval.width_trajectory
      in
      row "  %-8d %-10.3f %-9.2f %-12.6f %b\n" d t (base_t /. t)
        r.Mc_eval.estimate same)
    [ 2; 4 ];
  (* 2. Agreement with the exact engines on the E1 / E16 workloads: the
     99% MC interval must contain the truncation engine's estimate and
     intersect the anytime session's certified enclosure. *)
  row "\n  %-42s %-22s %-10s %s\n" "query (99% MC interval)" "interval"
    "has exact" "meets anytime";
  List.iter
    (fun qtext ->
      let phi = parse qtext in
      let mc =
        Mc_eval.boolean ~seed:18 ~samples ~confidence:0.99 space phi
      in
      let exact =
        Rational.to_float
          (Approx_eval.boolean (geo_source ()) ~eps:0.001 phi)
            .Approx_eval.estimate
      in
      let sess = Anytime.create ~eps:0.001 (geo_source ()) phi in
      ignore (Anytime.run sess);
      let anytime_bounds =
        match Anytime.last_step sess with
        | Some s -> s.Anytime.bounds
        | None -> Interval.make 0.0 1.0
      in
      row "  %-42s [%.6f, %.6f]   %-10b %b\n" qtext
        (Interval.lo mc.Mc_eval.bounds)
        (Interval.hi mc.Mc_eval.bounds)
        (Interval.contains mc.Mc_eval.bounds exact)
        (Interval.intersect mc.Mc_eval.bounds anytime_bounds <> None))
    [
      "exists x. R(x)";
      "forall x. R(x) -> (exists y. R(y) & x = y)";
      "(exists x. R(x)) & !(forall y. R(y))";
    ]

(* ------------------------------------------------------------------ *)
(* E18 - resource-governed supervisor under faults                     *)
(* ------------------------------------------------------------------ *)

let e18 () =
  header "E18"
    "Robust_eval: enclosure width vs budget and fault rate, degradation path";
  let phi = parse "exists x. R(x)" in
  let limit = 1.0 -. 0.2887880951 in
  let eps = 0.005 in
  (* Virtual clock: [units] of work define the whole allowance, so every
     row is bit-reproducible and independent of the host. *)
  let budget_of units =
    Budget.create ~clock:(Budget.Virtual 10_000)
      ~timeout:(float_of_int units /. 10_000.0)
      ()
  in
  let run ?faults units =
    let src =
      match faults with
      | None -> geo_source ()
      | Some cfg -> Faulty_source.wrap cfg (geo_source ())
    in
    Robust_eval.query ~budget:(budget_of units) ~eps ~mc_samples:20_000 ~seed:3
      src phi
  in
  (* 1. Shrinking budgets, clean vs a moderately hostile fault schedule:
     the answer degrades from a converged certificate to a wide partial
     enclosure, but stays sound at every size. *)
  row "  %-10s %-12s %-28s %-12s %-28s %s\n" "units" "clean width" "clean stop"
    "fault width" "fault stop" "both sound";
  List.iter
    (fun units ->
      let clean = run units in
      let faulted =
        run ~faults:{ (Faulty_source.default ~seed:5) with stall = 0.0 } units
      in
      let sound a = Interval.contains a.Robust_eval.enclosure limit in
      row "  %-10d %-12.6f %-28s %-12.6f %-28s %b\n" units
        (Interval.width clean.Robust_eval.enclosure)
        clean.Robust_eval.provenance.stopped
        (Interval.width faulted.Robust_eval.enclosure)
        faulted.Robust_eval.provenance.stopped
        (sound clean && sound faulted))
    [ 5; 15; 30; 1_000; 100_000 ];
  (* 2. Rising fault rates at a fixed 1000-unit budget: more retries and
     deeper degradation, never an exception, never an unsound interval. *)
  row "\n  %-10s %-12s %-9s %-28s %s\n" "transient" "width" "retries"
    "stopped" "sound";
  let c_attempts = Stats.counter "robust.retry.attempts" in
  List.iter
    (fun rate ->
      let cfg =
        {
          Faulty_source.none with
          seed = 11;
          transient = rate;
          bad_prob = rate /. 4.0;
          nan_tail = rate /. 2.0;
          tail_blackout = rate /. 2.0;
        }
      in
      let before = Stats.count c_attempts in
      let a = run ~faults:cfg 1_000 in
      row "  %-10.2f %-12.6f %-9d %-28s %b\n" rate
        (Interval.width a.Robust_eval.enclosure)
        (Stats.count c_attempts - before)
        a.Robust_eval.provenance.stopped
        (Interval.contains a.Robust_eval.enclosure limit))
    [ 0.0; 0.2; 0.5; 0.9 ];
  (* 3. Reproducibility: the acceptance criterion's 100 ms virtual
     budget with faults — the whole answer, provenance included, must be
     bit-identical across runs. *)
  let faults = { (Faulty_source.default ~seed:5) with stall = 0.0 } in
  let a1 = Robust_eval.answer_to_string (run ~faults 1_000) in
  let a2 = Robust_eval.answer_to_string (run ~faults 1_000) in
  row "\n  faulted 1000-unit answer bit-identical across runs: %b\n" (a1 = a2);
  row "%s\n"
    (String.concat "\n"
       (List.map (fun l -> "    " ^ l) (String.split_on_char '\n' a1)))

(* ------------------------------------------------------------------ *)
(* E19 - BDD kernel microbenchmark: seed kernel vs packed kernel       *)
(* ------------------------------------------------------------------ *)

(* The workload is the lineage shape exact evaluation actually produces:
   a long independent disjunction of conjunction pairs (the lineage of a
   Boolean two-table join), hardened with an xor parity chain and an ite
   combine so every connective of the kernel sits on the hot path.  The
   identical computation runs on the frozen seed kernel (Bdd_baseline,
   polymorphic hashtable caches, derived ite, left-fold of_expr) and on
   the current kernel; the diagrams are canonical, so the two WMC floats
   must agree bit-for-bit, and the report is the wall-clock ratio plus
   the new kernel's cache and node accounting. *)

(* No weight equals 1/2: a fair variable inside the parity chain would
   pin the whole workload's probability at exactly 0.5 and weaken the
   old-vs-new equality check. *)
let e19_weight v = float_of_int ((v mod 7) + 1) /. 9.0

let e19_pairs ~lo n =
  Bool_expr.Or
    (List.init n (fun idx ->
         let v = 2 * (lo + idx) in
         Bool_expr.And [ Bool_expr.Var v; Bool_expr.Var (v + 1) ]))

let e19 () =
  header "E19" "BDD kernel: packed caches, primitive ite, GC vs seed kernel";
  let n = if !smoke then 400 else 1_000 in
  let reps = if !smoke then 3 else 5 in
  let parity_vars = List.init 24 (fun idx -> 2 * idx) in
  let expr = e19_pairs ~lo:0 n in
  let old_run () =
    let m = Bdd_baseline.manager () in
    let b = Bdd_baseline.of_expr m expr in
    let parity =
      List.fold_left
        (fun acc v -> Bdd_baseline.xor m acc (Bdd_baseline.var m v))
        (Bdd_baseline.of_expr m Bool_expr.False)
        parity_vars
    in
    let r = Bdd_baseline.ite m parity (Bdd_baseline.neg m b) b in
    ( Bdd_baseline.float_probability ~weight:e19_weight r,
      Bdd_baseline.node_count m )
  in
  let new_run () =
    let m = Bdd.manager () in
    let b = Bdd.of_expr m expr in
    let parity =
      List.fold_left
        (fun acc v -> Bdd.xor m acc (Bdd.var m v))
        (Bdd.fls m) parity_vars
    in
    let r = Bdd.ite m parity (Bdd.neg m b) b in
    let p =
      Bdd.fold_prob_many ~zero:0.0 ~one:1.0
        ~node:(fun v plo phi ->
          let w = e19_weight v in
          (w *. phi) +. ((1.0 -. w) *. plo))
        [| r |]
    in
    (p.(0), Bdd.node_count m)
  in
  let timed reps f =
    let t0 = Unix.gettimeofday () in
    let r = ref (f ()) in
    for _ = 2 to reps do
      r := f ()
    done;
    (Unix.gettimeofday () -. t0, !r)
  in
  let c_hit = Stats.counter "bdd.apply.hit" in
  let c_miss = Stats.counter "bdd.apply.miss" in
  let hit0 = Stats.count c_hit and miss0 = Stats.count c_miss in
  let old_t, (old_p, old_nodes) = timed reps old_run in
  let new_t, (new_p, new_nodes) = timed reps new_run in
  let hits = Stats.count c_hit - hit0
  and misses = Stats.count c_miss - miss0 in
  let speedup = old_t /. new_t in
  row "  workload: OR of %d pairs + 24-var parity + ite + wmc, x%d reps\n" n
    reps;
  row "  %-24s %-12s %s\n" "kernel" "seconds" "P(lineage)";
  row "  %-24s %-12.4f %.12g\n" "seed (baseline)" old_t old_p;
  row "  %-24s %-12.4f %.12g\n" "packed + primitive ite" new_t new_p;
  row "  results identical: %b   final nodes old/new: %d/%d\n"
    (abs_float (old_p -. new_p) < 1e-12)
    old_nodes new_nodes;
  row "  speedup: %.2fx (acceptance >= 2x: %b)\n" speedup (speedup >= 2.0);
  row "  op cache: %d hits / %d misses (%.1f%% hit rate)\n" hits misses
    (100.0 *. float_of_int hits /. float_of_int (max 1 (hits + misses)));
  metric "E19" "speedup" speedup;
  metric "E19" "old_seconds" old_t;
  metric "E19" "new_seconds" new_t;
  metric "E19" "final_nodes" (float_of_int new_nodes);
  metric "E19" "bdd.apply.hit" (float_of_int hits);
  metric "E19" "bdd.apply.miss" (float_of_int misses);
  (* Root-aware GC on a long session: recompile a drifting lineage many
     times in one manager, protecting only the current diagram — the
     anytime evaluator's access pattern.  With a GC threshold the live
     count stays around one diagram's size while the allocation series
     keeps climbing; with GC off, every dead intermediate accumulates. *)
  let rounds = if !smoke then 8 else 40 in
  let block = if !smoke then 120 else 400 in
  let session gc_threshold =
    let m = Bdd.manager ~gc_threshold () in
    let cur = ref (Bdd.tru m) in
    Bdd.protect !cur;
    for r = 0 to rounds - 1 do
      let b = Bdd.of_expr m (e19_pairs ~lo:(r * block) block) in
      Bdd.protect b;
      Bdd.release !cur;
      cur := b;
      ignore (Bdd.maybe_gc m)
    done;
    (Bdd.node_count m, Bdd.peak_count m, Bdd.allocated_count m)
  in
  let live_gc, peak_gc, alloc_gc = session (1 lsl 12) in
  let live_off, _, alloc_off = session max_int in
  row "\n  %d-round recompile session, %d pairs/round, one manager:\n" rounds
    block;
  row "  %-24s %-10s %-10s %s\n" "gc" "live" "peak" "allocated";
  row "  %-24s %-10d %-10d %d\n" "threshold 4096" live_gc peak_gc alloc_gc;
  row "  %-24s %-10d %-10d %d\n" "off" live_off live_off alloc_off;
  row "  live bounded under GC: %b\n" (live_gc * 4 < live_off);
  metric "E19" "gc_live" (float_of_int live_gc);
  metric "E19" "gc_peak" (float_of_int peak_gc);
  metric "E19" "gc_allocated" (float_of_int alloc_gc);
  metric "E19" "nogc_live" (float_of_int live_off)

(* ------------------------------------------------------------------ *)
(* E20: enumeration oracle cost curve and fuzzer throughput.  The oracle
   is exponential by design — 2^n worlds — so the numbers that matter are
   where the wall clocks out (why [Oracle.max_worlds] sits at 2^16) and
   how many end-to-end differential cases per second the harness
   sustains, which is what prices the CI smoke run and the nightly
   budget. *)

let e20 () =
  header "E20" "Enumeration oracle cost curve and fuzzer throughput";
  let phi = parse "exists x. R(x)" in
  row "  %-8s %-10s %-12s %s\n" "facts" "worlds" "seconds" "worlds/s";
  List.iter
    (fun n ->
      let facts = List.init n (fun k -> (r_fact k, q 1 3)) in
      let t0 = Unix.gettimeofday () in
      let u = Oracle.of_ti_facts facts in
      ignore (Oracle.query_prob u phi);
      ignore (Oracle.enclosure u phi);
      let dt = Float.max (Unix.gettimeofday () -. t0) 1e-9 in
      let worlds = Oracle.num_worlds u in
      row "  %-8d %-10d %-12.6f %.0f\n" n worlds dt
        (float_of_int worlds /. dt);
      metric "E20" (Printf.sprintf "oracle_s_n%d" n) dt)
    (if !smoke then [ 4; 8; 10 ] else [ 4; 6; 8; 10; 12; 14; 16 ]);
  let cases = if !smoke then 15 else 120 in
  let t0 = Unix.gettimeofday () in
  let r = Fuzzer.run ~seed:42 ~cases () in
  let dt = Float.max (Unix.gettimeofday () -. t0) 1e-9 in
  row "\n  fuzzer: %d cases, %d checks in %.2f s (%.1f cases/s, %.1f checks/s)\n"
    r.Fuzzer.cases_run r.Fuzzer.checks_run dt
    (float_of_int r.Fuzzer.cases_run /. dt)
    (float_of_int r.Fuzzer.checks_run /. dt);
  row "  failures: %d (must be 0)\n" (List.length r.Fuzzer.failures);
  metric "E20" "fuzz_cases_per_s" (float_of_int r.Fuzzer.cases_run /. dt);
  metric "E20" "fuzz_checks" (float_of_int r.Fuzzer.checks_run);
  metric "E20" "fuzz_failures" (float_of_int (List.length r.Fuzzer.failures))

(* ------------------------------------------------------------------ *)
(* E21: lifted safe-plan engine vs lineage + BDD on a safe family.  The
   UCQ (exists x. R(x) & S(x)) | (exists y. S(y) & T(y)) has a safe plan
   (UCQ separator, then per-value inclusion-exclusion), so the lifted
   engine runs one O(n) pass of rational arithmetic.  The BDD engine's
   first-occurrence variable order interleaves R_i with S_i but places
   every T_i after the whole R/S block, and OR_i (S_i & T_i) under an
   order that separates the S's from the T's is the textbook
   exponential-OBDD function — the frontier must remember which subset of
   the S's is true.  The BDD cost curve doubles per value while the
   lifted curve stays flat; both engines must agree exactly.  The
   dichotomy router is what spares the BDD engine this query in
   production. *)

let e21 () =
  header "E21" "Lifted UCQ engine vs lineage+BDD on safe queries";
  let table n =
    Ti_table.create
      (List.concat_map
         (fun k ->
           [
             (Fact.make "R" [ i k ], q 1 3);
             (Fact.make "S" [ i k ], q 1 2);
             (Fact.make "T" [ i k ], q 2 5);
           ])
         (List.init n (fun k -> k)))
  in
  let phi = parse "(exists x. R(x) & S(x)) | (exists y. S(y) & T(y))" in
  let sizes = if !smoke then [ 8; 10; 12 ] else [ 10; 12; 14; 16; 18 ] in
  row "  %-8s %-14s %-14s %s\n" "n" "lifted (s)" "bdd (s)" "speedup";
  let last_speedup = ref 0.0 in
  List.iter
    (fun n ->
      let ti = table n in
      let t0 = Unix.gettimeofday () in
      let p_lifted =
        match Query_eval.boolean_safe ti phi with
        | Some p -> p
        | None -> failwith "E21: safe family rejected by the lifted engine"
      in
      let t_lifted = Float.max (Unix.gettimeofday () -. t0) 1e-9 in
      let t0 = Unix.gettimeofday () in
      let p_bdd = Query_eval.boolean_bdd ti phi in
      let t_bdd = Float.max (Unix.gettimeofday () -. t0) 1e-9 in
      if not (Rational.equal p_lifted p_bdd) then
        failwith "E21: lifted and BDD engines disagree";
      let speedup = t_bdd /. t_lifted in
      last_speedup := speedup;
      row "  %-8d %-14.6f %-14.6f %.1fx\n" n t_lifted t_bdd speedup;
      metric "E21" (Printf.sprintf "lifted_s_n%d" n) t_lifted;
      metric "E21" (Printf.sprintf "bdd_s_n%d" n) t_bdd)
    sizes;
  row "  speedup at n=%d: %.1fx (acceptance >= 10x: %b)\n"
    (List.nth sizes (List.length sizes - 1))
    !last_speedup (!last_speedup >= 10.0);
  metric "E21" "speedup" !last_speedup

(* ------------------------------------------------------------------ *)
(* E22: batched evaluation vs the one-at-a-time loop.  The members are
   syntactic variants (alpha-renamings and operand swaps) of one negated
   UCQ: the negation puts it past the safe-plan fragment, and its
   first-occurrence variable order places every T after the S block — the
   same exponential-OBDD frontier as E21.  A one-at-a-time loop pays that
   compilation and its weighted model count once per member; the batch
   compiles it once per shard and answers the remaining members from the
   shared unique table, operation cache, and fold_prob_many memo, so the
   per-query cost collapses to the O(n) lineage grounding.  A few safe
   members ride along to exercise the lifted route.  Everything is exact
   rational arithmetic, so batch answers must equal the sequential
   engine's bit for bit, at every domain count. *)

let e22 () =
  header "E22" "Batch_eval: shared-store batch vs one-at-a-time Query_eval loop";
  let n = if !smoke then 12 else 14 in
  let ti =
    Ti_table.create
      (List.concat_map
         (fun k ->
           [
             (Fact.make "R" [ i k ], q 1 3);
             (Fact.make "S" [ i k ], q 1 2);
             (Fact.make "T" [ i k ], q 2 5);
           ])
         (List.init n (fun k -> k)))
  in
  let hard k =
    (* Alpha-renamed (fresh bound names per member) and, on odd members,
       operand-swapped: distinct syntax, identical Boolean function. *)
    if k mod 2 = 0 then
      parse
        (Printf.sprintf
           "!((exists x%d. R(x%d) & S(x%d)) | (exists y%d. S(y%d) & T(y%d)))"
           k k k k k k)
    else
      parse
        (Printf.sprintf
           "!((exists y%d. T(y%d) & S(y%d)) | (exists x%d. S(x%d) & R(x%d)))"
           k k k k k k)
  in
  let members =
    Array.init 24 (fun k ->
        if k mod 6 = 5 then
          parse (Printf.sprintf "exists z%d. R(z%d) & S(z%d)" k k k)
        else hard k)
  in
  let m = Array.length members in
  let t0 = Unix.gettimeofday () in
  let seq = Array.map (fun phi -> Query_eval.boolean ti phi) members in
  let seq_t = Float.max (Unix.gettimeofday () -. t0) 1e-9 in
  let t0 = Unix.gettimeofday () in
  let r = Batch_eval.boolean ti members in
  let batch_t = Float.max (Unix.gettimeofday () -. t0) 1e-9 in
  let agree = ref true in
  Array.iteri
    (fun idx (mem : Rational.t Batch_eval.member) ->
      if not (Rational.equal mem.Batch_eval.prob seq.(idx)) then agree := false)
    r.Batch_eval.members;
  if not !agree then failwith "E22: batch and sequential engines disagree";
  let identical = ref true in
  List.iter
    (fun d ->
      let rd = Batch_eval.boolean ~domains:d ti members in
      Array.iteri
        (fun idx (mem : Rational.t Batch_eval.member) ->
          if
            not
              (Rational.equal mem.Batch_eval.prob
                 r.Batch_eval.members.(idx).Batch_eval.prob)
          then identical := false)
        rd.Batch_eval.members)
    [ 2; 4 ];
  if not !identical then failwith "E22: answers moved with the domain count";
  let speedup = seq_t /. batch_t in
  row "  table: %d values x {R,S,T}; %d members (%d lifted, %d compiled, pad %d)\n"
    n m r.Batch_eval.lifted r.Batch_eval.compiled
    (List.length r.Batch_eval.padding);
  row "  %-28s %-12s %s\n" "evaluator" "seconds" "per query";
  row "  %-28s %-12.4f %.4f\n" "one-at-a-time Query_eval" seq_t
    (seq_t /. float_of_int m);
  row "  %-28s %-12.4f %.4f\n" "Batch_eval (1 shard)" batch_t
    (batch_t /. float_of_int m);
  row "  batch == sequential (exact rationals): %b\n" !agree;
  row "  bit-identical across domains 1/2/4: %b\n" !identical;
  row "  throughput per query: %.1fx (acceptance >= 10x: %b)\n" speedup
    (speedup >= 10.0);
  metric "E22" "speedup" speedup;
  metric "E22" "seq_seconds" seq_t;
  metric "E22" "batch_seconds" batch_t;
  metric "E22" "members" (float_of_int m);
  metric "E22" "compiled" (float_of_int r.Batch_eval.compiled);
  metric "E22" "lifted" (float_of_int r.Batch_eval.lifted)

(* ------------------------------------------------------------------ *)
(* E23: the resident query service under closed-loop load.  Three
   phases against in-process servers on temp Unix sockets:

   - capacity: one client, connect-per-request, a cheap exact query with
     the cache disabled — every request pays the full parse/admit/
     evaluate path.  Reports QPS and client-side latency quantiles
     (informational in the baseline gate: wall-clock on a shared runner).
   - overload: 8 closed-loop client threads against 2 workers and a
     4-deep queue, each request a deliberately expensive open-world
     query (a three-variable grounding at tiny eps).  Every response
     must be a sound answer or a structured Overloaded — never a hang —
     and the shed rate (rejections + degraded-ladder answers) is the
     gated baseline key: it should sit near saturation regardless of
     machine speed, because the clients are closed-loop.
   - deadline: a bimodal mix — generous deadlines on the cheap query
     (always certified, and the repeats must hit the result cache)
     against 1 ms deadlines on the expensive one (never certified; the
     server returns the best-so-far sound enclosure with the budget
     marked exhausted instead of timing out).  The hit rate is the
     certified fraction, pinned near 1/2 by construction. *)

let e23 () =
  header "E23" "Serve: closed-loop load on the resident query service";
  let open_world_source () =
    Fact_source.append_finite
      [ (r_fact 1, q 1 2); (r_fact 2, q 1 3); (r_fact 3, q 1 4) ]
      (Fact_source.geometric ~first:Rational.half ~ratio:Rational.half
         ~facts:(fun j -> Fact.make "N" [ i j ])
         ())
  in
  let sock =
    let n = ref 0 in
    fun () ->
      incr n;
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "iowpdb_bench_%d_%d.sock" (Unix.getpid ()) !n)
  in
  let with_server ?(domains = 2) ?(admission = Admission.default_config)
      ?default_deadline_s ?(cache_capacity = 0) f =
    let path = sock () in
    let cfg =
      {
        Server.endpoint = `Unix path;
        make_source = open_world_source;
        domains;
        admission;
        default_eps = 0.01;
        default_samples = 2_000;
        shed_samples = 200;
        default_deadline_s;
        cache_capacity;
        warm_cache = None;
        updatable = None;
      }
    in
    let t = Server.start cfg in
    Fun.protect
      ~finally:(fun () ->
        Server.request_drain t;
        Server.wait t)
      (fun () -> f (`Unix path))
  in
  let call endpoint ?eps ?deadline_ms ~seed query =
    let conn = Client.connect endpoint in
    Fun.protect
      ~finally:(fun () -> Client.close conn)
      (fun () ->
        Client.request conn
          (Protocol.Query { query; eps; deadline_ms; mc_samples = None; seed }))
  in
  let assert_sound what = function
    | Protocol.Answer { lo; hi; estimate; _ } ->
      if
        not
          (0.0 <= lo && lo <= estimate && estimate <= hi && hi <= 1.0)
      then
        failwith
          (Printf.sprintf "E23 %s: unsound enclosure [%.17g, %.17g] ~ %.17g"
             what lo hi estimate)
    | _ -> failwith (Printf.sprintf "E23 %s: expected an answer" what)
  in
  let cheap = "exists x. R(x)" (* exact: P = 3/4 *)
  (* Three variables grounded over the ~30 open-world domain values
     (negation keeps it off the lifted rung): tens of milliseconds of
     lineage and BDD work at eps = 1e-6. *)
  and costly = "exists x. exists y. exists z. N(x) & N(y) & N(z) & !R(y)" in
  (* --- capacity ----------------------------------------------------- *)
  let n_cap = if !smoke then 60 else 200 in
  let latencies = Array.make n_cap 0.0 in
  let cap_qps, p50, p99 =
    with_server ~default_deadline_s:5.0 @@ fun ep ->
    let t0 = Unix.gettimeofday () in
    for k = 0 to n_cap - 1 do
      let r0 = Unix.gettimeofday () in
      let r = call ep ~seed:k cheap in
      latencies.(k) <- Unix.gettimeofday () -. r0;
      assert_sound "capacity" r;
      match r with
      | Protocol.Answer { lo; hi; _ } when lo <= 0.75 && 0.75 <= hi -> ()
      | _ -> failwith "E23 capacity: enclosure must contain P = 3/4"
    done;
    let total = Float.max (Unix.gettimeofday () -. t0) 1e-9 in
    Array.sort compare latencies;
    let pct p =
      latencies.(max 0 (min (n_cap - 1)
                          (int_of_float (Float.ceil (p *. float_of_int n_cap)) - 1)))
    in
    (float_of_int n_cap /. total, pct 0.50, pct 0.99)
  in
  row "  capacity: %d sequential requests, connect-per-request\n" n_cap;
  row "    %.0f QPS, latency p50 %.2f ms, p99 %.2f ms\n" cap_qps (1e3 *. p50)
    (1e3 *. p99);
  (* --- overload ----------------------------------------------------- *)
  let threads = 8 and per_thread = if !smoke then 6 else 15 in
  let admission =
    { Admission.default_config with queue_bound = 4; window_s = 0.5 }
  in
  let answers = Atomic.make 0
  and shed_answers = Atomic.make 0
  and overloaded = Atomic.make 0 in
  with_server ~domains:2 ~admission ~default_deadline_s:2.0 (fun ep ->
      let worker tid () =
        for k = 0 to per_thread - 1 do
          match call ep ~eps:1e-6 ~seed:((tid * 1000) + k) costly with
          | Protocol.Answer { shed; _ } as r ->
            assert_sound "overload" r;
            Atomic.incr answers;
            if shed then Atomic.incr shed_answers
          | Protocol.Overloaded { retry_after_ms; _ } ->
            Atomic.incr overloaded;
            Thread.delay (float_of_int (min retry_after_ms 20) /. 1e3)
          | Protocol.Error_resp { code; msg } ->
            failwith (Printf.sprintf "E23 overload: error %d: %s" code msg)
          | Protocol.Health_ok _ | Protocol.Stats_resp _
          | Protocol.Update_ok _ ->
            failwith "E23 overload: unexpected response kind"
        done
      in
      let ts = List.init threads (fun tid -> Thread.create (worker tid) ()) in
      List.iter Thread.join ts);
  let total = threads * per_thread in
  let shed_rate =
    float_of_int (Atomic.get overloaded + Atomic.get shed_answers)
    /. float_of_int total
  in
  if Atomic.get answers = 0 then
    failwith "E23 overload: no request ever completed";
  if Atomic.get overloaded + Atomic.get shed_answers = 0 then
    failwith "E23 overload: saturation never triggered load shedding";
  row "  overload: %d threads x %d requests vs 2 workers, queue bound 4\n"
    threads per_thread;
  row "    %d answered (%d on the shed ladder), %d rejected; shed rate %.2f\n"
    (Atomic.get answers) (Atomic.get shed_answers) (Atomic.get overloaded)
    shed_rate;
  (* --- deadline ----------------------------------------------------- *)
  let pairs = if !smoke then 10 else 50 in
  let certified = ref 0 and exhausted = ref 0 and cache_hits = ref 0 in
  with_server ~cache_capacity:64 (fun ep ->
      for k = 0 to pairs - 1 do
        (match call ep ~deadline_ms:2_000 ~seed:k cheap with
        | Protocol.Answer { budget_exhausted; cached; _ } as r ->
          assert_sound "deadline/cheap" r;
          if not budget_exhausted then Stdlib.incr certified;
          if cached then Stdlib.incr cache_hits
        | _ -> failwith "E23 deadline: cheap query must answer");
        match call ep ~eps:1e-6 ~deadline_ms:1 ~seed:k costly with
        | Protocol.Answer { budget_exhausted; _ } as r ->
          assert_sound "deadline/costly" r;
          if budget_exhausted then Stdlib.incr exhausted
          else Stdlib.incr certified
        | _ -> failwith "E23 deadline: past-deadline query must still answer"
      done);
  let deadline_hit_rate = float_of_int !certified /. float_of_int (2 * pairs) in
  if !cache_hits = 0 then
    failwith "E23 deadline: repeated cheap query never hit the result cache";
  row "  deadline: %d x 2s on the cheap query vs %d x 1ms on the costly one\n"
    pairs pairs;
  row
    "    %d certified, %d best-so-far (budget exhausted), %d cache hits; \
     hit rate %.2f\n"
    !certified !exhausted !cache_hits deadline_hit_rate;
  metric "E23" "capacity_qps" cap_qps;
  metric "E23" "latency_p50" p50;
  metric "E23" "latency_p99" p99;
  metric "E23" "shed_rate" shed_rate;
  metric "E23" "deadline_hit_rate" deadline_hit_rate

(* E24 -- Store: the persistent mmap fact store.

   Three phases against the .iow pack format:

   - cold boot: a 100k-fact table parsed from text (Ti_table.of_file:
     line splitting, exact rational arithmetic, map building) vs
     mmap-loading its pack (header + whole-file checksum, zero facts
     decoded) and certifying a tail bound off the sidecar.  The ratio is
     the gated number: the pack must boot at least 20x faster.
   - truncation: 1000 tail-mass truncation queries answered by the one
     truncation search (Fact_source.search) over the pack's fact source,
     whose certificate is the precomputed sidecar, vs the linear prefix
     scan a text-loaded table needs.  Gated at 10x.
   - warm restart: an in-process server booted from the pack with
     --warm-cache semantics: answer a costly open-world query, drain
     (persisting the epsilon-aware result cache tagged with the pack
     checksum), reboot, and re-ask — the warm boot must answer from the
     restored cache (cached = true, serve.cache.warm.reused > 0). *)

let e24 () =
  header "E24" "Store: zero-parse mmap boot, O(1) slices, warm restarts";
  let n = 100_000 in
  let text_path = Filename.temp_file "iowpdb_e24" ".ti"
  and pack_path = Filename.temp_file "iowpdb_e24" ".iow" in
  let cleanup = ref [ text_path; pack_path ] in
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun p -> try Sys.remove p with Sys_error _ -> ())
        !cleanup)
  @@ fun () ->
  (* Strictly descending distinct probabilities (2n-i)/(4n), so the pack
     order is forced and every tail is distinct. *)
  let oc = open_out text_path in
  for i = 0 to n - 1 do
    Printf.fprintf oc "R(%d) %d/%d\n" i ((2 * n) - i) (4 * n)
  done;
  close_out oc;
  let best f =
    let b = ref infinity and r = ref None in
    for _ = 1 to 3 do
      let t0 = Unix.gettimeofday () in
      let v = f () in
      b := Float.min !b (Unix.gettimeofday () -. t0);
      r := Some v
    done;
    (!b, Option.get !r)
  in
  (* --- cold boot ---------------------------------------------------- *)
  let text_parse_seconds, ti = best (fun () -> Ti_table.of_file text_path) in
  Store.write_ti ~path:pack_path ti;
  let store_load_seconds, st =
    best (fun () ->
        let st = Store.load pack_path in
        (* What serve --store does at boot: wrap the pack as a fact
           source and certify one tail bound off the sidecar — still no
           fact decoded. *)
        let src = Store.fact_source st in
        (match Fact_source.tail_mass src 0 with
        | Some _ -> ()
        | None -> failwith "E24 boot: pack source must certify its tail");
        st)
  in
  (match Store.verify_against_ti st ti with
  | Ok () -> ()
  | Error msg -> failwith ("E24 boot: pack round-trip mismatch: " ^ msg));
  let boot_speedup = text_parse_seconds /. store_load_seconds in
  row "  cold boot, %d facts (%d pack bytes):\n" n (Store.byte_size st);
  row "    text parse %.1f ms, mmap load %.2f ms — %.0fx\n"
    (1e3 *. text_parse_seconds)
    (1e3 *. store_load_seconds)
    boot_speedup;
  if boot_speedup < 20.0 then
    failwith
      (Printf.sprintf "E24 boot: speedup %.1fx below the 20x gate"
         boot_speedup);
  (* --- truncation slices -------------------------------------------- *)
  let k_queries = 1_000 in
  (* The text-loaded comparator: probabilities as floats (decoded once,
     untimed), truncation by the linear prefix scan a sidecar-less table
     needs — accumulate until the remaining mass drops under eps. *)
  let probs = Array.init n (fun i -> Rational.to_float (Store.prob st i)) in
  let total = Array.fold_left ( +. ) 0.0 probs in
  let rng = Prng.create ~seed:24 () in
  let targets =
    Array.init k_queries (fun _ -> Store.tail_mass st (Prng.int rng (n + 1)))
  in
  let scan_for eps =
    let acc = ref 0.0 and i = ref 0 in
    while !i < n && total -. !acc > eps do
      acc := !acc +. probs.(!i);
      incr i
    done;
    !i
  in
  let slice_scan_seconds, _ =
    best (fun () ->
        let s = ref 0 in
        Array.iter (fun eps -> s := !s + scan_for eps) targets;
        !s)
  in
  (* The one truncation search over the pack's fact source, whose
     certificate is the sidecar lookup. *)
  let src = Store.fact_source st in
  let search eps =
    match Fact_source.search (Fact_source.tail_mass src) eps with
    | Found (m, tail) -> (m, tail)
    | Too_slow _ | Silent _ -> failwith "E24 slice: sidecar search found no n"
  in
  let slice_sidecar_seconds, _ =
    best (fun () ->
        let s = ref 0 in
        Array.iter (fun eps -> s := !s + fst (search eps)) targets;
        !s)
  in
  (* Same answers up to float-rounding slack between the two
     accumulators: the sidecar result must certify its bound. *)
  Array.iter
    (fun eps ->
      let m, tail = search eps in
      if tail > eps then failwith "E24 slice: sidecar answer not certified";
      if m > 0 && Store.tail_mass st (m - 1) <= eps then
        failwith "E24 slice: sidecar answer not minimal")
    targets;
  let slice_speedup = slice_scan_seconds /. slice_sidecar_seconds in
  row "  truncation, %d tail-mass queries on %d facts:\n" k_queries n;
  row "    linear scan %.1f ms, sidecar search %.2f ms — %.0fx\n"
    (1e3 *. slice_scan_seconds)
    (1e3 *. slice_sidecar_seconds)
    slice_speedup;
  if slice_speedup < 10.0 then
    failwith
      (Printf.sprintf "E24 slice: speedup %.1fx below the 10x gate"
         slice_speedup);
  (* --- warm restart -------------------------------------------------- *)
  let small_path = Filename.temp_file "iowpdb_e24" ".iow" in
  let warm_path = Filename.temp_file "iowpdb_e24" ".cache" in
  cleanup := small_path :: warm_path :: !cleanup;
  Store.write_ti ~path:small_path
    (Ti_table.create [ (r_fact 1, q 1 2); (r_fact 2, q 1 3); (r_fact 3, q 1 4) ]);
  let small = Store.load small_path in
  (try Sys.remove warm_path with Sys_error _ -> ());
  let sock =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "iowpdb_e24_%d.sock" (Unix.getpid ()))
  in
  let cfg =
    {
      Server.endpoint = `Unix sock;
      make_source =
        (fun () ->
          Store.fact_source
            ~rest:
              (Fact_source.geometric ~first:Rational.half ~ratio:Rational.half
                 ~facts:(fun j -> Fact.make "N" [ i j ])
                 ())
            small);
      domains = 2;
      admission = Admission.default_config;
      default_eps = 0.01;
      default_samples = 2_000;
      shed_samples = 200;
      default_deadline_s = Some 10.0;
      cache_capacity = 64;
      warm_cache = Some (warm_path, Store.checksum_hex small ^ ":e24");
      updatable = None;
    }
  in
  let costly = "exists x. exists y. R(x) & N(y)" in
  let ask ep =
    let conn = Client.connect ep in
    Fun.protect
      ~finally:(fun () -> Client.close conn)
      (fun () ->
        Client.request conn
          (Protocol.Query
             {
               query = costly;
               eps = Some 1e-3;
               deadline_ms = None;
               mc_samples = None;
               seed = 0;
             }))
  in
  let boot () =
    let t = Server.start cfg in
    let t0 = Unix.gettimeofday () in
    let r = ask (`Unix sock) in
    let dt = Unix.gettimeofday () -. t0 in
    Server.request_drain t;
    Server.wait t;
    (dt, r)
  in
  let cold_first_seconds, cold_r = boot () in
  let reused_before = Stats.find (Stats.snapshot ()) "serve.cache.warm.reused" in
  let warm_first_seconds, warm_r = boot () in
  let warm_reused =
    Stats.find (Stats.snapshot ()) "serve.cache.warm.reused" -. reused_before
  in
  (match (cold_r, warm_r) with
  | ( Protocol.Answer { cached = false; lo; hi; _ },
      Protocol.Answer { cached = true; lo = lo'; hi = hi'; _ } ) ->
    if not (lo = lo' && hi = hi') then
      failwith "E24 warm: restored enclosure differs from the computed one"
  | Protocol.Answer { cached = true; _ }, _ ->
    failwith "E24 warm: cold boot unexpectedly answered from cache"
  | _, Protocol.Answer { cached = false; _ } ->
    failwith "E24 warm: warm boot did not answer from the restored cache"
  | _ -> failwith "E24 warm: expected answers");
  if warm_reused < 1.0 then
    failwith "E24 warm: serve.cache.warm.reused did not advance";
  row "  warm restart (pack + persisted result cache):\n";
  row "    cold first answer %.1f ms, warm first answer %.2f ms (reused %.0f)\n"
    (1e3 *. cold_first_seconds)
    (1e3 *. warm_first_seconds)
    warm_reused;
  metric "E24" "text_parse_seconds" text_parse_seconds;
  metric "E24" "store_load_seconds" store_load_seconds;
  metric "E24" "boot_speedup" boot_speedup;
  metric "E24" "slice_scan_seconds" slice_scan_seconds;
  metric "E24" "slice_sidecar_seconds" slice_sidecar_seconds;
  metric "E24" "slice_speedup" slice_speedup;
  metric "E24" "cold_first_seconds" cold_first_seconds;
  metric "E24" "warm_first_seconds" warm_first_seconds;
  metric "E24" "warm_reused" warm_reused

(* E25 -- Delta: incremental evaluation under streaming updates.

   A delta session boots from a pack snapshot (the E24 store), compiles
   the lineage of [exists x. R(x)] once, then absorbs a seed-pure
   stream of deltas — mostly reweights (the streaming hot path), some
   deletes and re-inserts, a few genuinely fresh facts — re-deriving
   the certified interval after every delta through the memoized WMC
   fold, so only the slice of the diagram that can see the changed
   variable pays carrier arithmetic.  The comparator is what a server
   without the session layer would do per delta: recompile the lineage
   over the current table and fold the whole diagram from scratch.
   Gated: the per-delta incremental latency must beat the from-scratch
   latency by at least 5x (the ISSUE-10 acceptance bar), and the
   incremental interval must agree with a fresh session's (both enclose
   the same exact count). *)

let e25 () =
  header "E25" "Delta: incremental evaluation under streaming updates";
  let n = if !smoke then 5_000 else 100_000 in
  let k_deltas = if !smoke then 100 else 1_000 in
  let pack_path = Filename.temp_file "iowpdb_e25" ".iow" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove pack_path with Sys_error _ -> ())
  @@ fun () ->
  (* The materialized prefix the session starts from: a pack snapshot
     with strictly descending probabilities ~1/(4n), kept small enough
     that P(exists x. R(x)) does not saturate at 1 — so the
     incremental-vs-fresh interval agreement check below has teeth. *)
  Store.write_ti ~path:pack_path
    (Ti_table.create
       (List.init n (fun i -> (r_fact i, q ((2 * n) - i) (8 * n * n)))));
  let st = Store.load pack_path in
  let tbl = Fact_source.truncate (Store.fact_source st) n in
  let phi = parse "exists x. R(x)" in
  let t0 = Unix.gettimeofday () in
  let s = Delta_eval.Certified.create tbl phi in
  let iv0 = Delta_eval.Certified.prob s in
  let compile_seconds = Unix.gettimeofday () -. t0 in
  row "  session boot: %d facts, %d live nodes in %.1f ms, P in [%.9g, %.9g]\n"
    n
    (Delta_eval.Certified.live_nodes s)
    (1e3 *. compile_seconds) (Interval.lo iv0) (Interval.hi iv0);
  (* Seed-pure delta stream against the running table. *)
  let rng = Prng.create ~seed:25 () in
  let fresh = ref n in
  let deltas =
    Array.init k_deltas (fun _ ->
        match Prng.int rng 10 with
        | 0 | 1 -> Delta_eval.Delete (r_fact (Prng.int rng n))
        | 2 ->
          incr fresh;
          Delta_eval.Insert (r_fact !fresh, q 1 (4 * n))
        | _ ->
          Delta_eval.Reweight
            (r_fact (Prng.int rng n), q (1 + Prng.int rng (2 * n)) (8 * n * n)))
  in
  let kinds = Hashtbl.create 4 in
  let inc_t0 = Unix.gettimeofday () in
  Array.iter
    (fun d ->
      let k = Delta_eval.apply_kind_to_string (Delta_eval.Certified.apply s d) in
      ignore (Delta_eval.Certified.prob s : Interval.t);
      Hashtbl.replace kinds k
        (1 + Option.value ~default:0 (Hashtbl.find_opt kinds k)))
    deltas;
  let incremental_total_seconds = Unix.gettimeofday () -. inc_t0 in
  let incremental_avg = incremental_total_seconds /. float_of_int k_deltas in
  (* The robust supervisor's Delta rung answers off the live session. *)
  let a = Robust_eval.query_session s in
  (match a.Robust_eval.provenance.Robust_eval.attempts with
  | [ { Robust_eval.engine = Robust_eval.Delta;
        outcome = Robust_eval.Certified _; _ } ] ->
    ()
  | _ -> failwith "E25: expected one certified Delta attempt");
  let iv_inc = Delta_eval.Certified.prob s in
  (* From-scratch comparator on the post-stream table: recompile the
     lineage and fold the whole diagram, the per-delta cost without the
     session layer.  A few repetitions; the best time is the fairest
     comparator (warm caches, no GC hiccough). *)
  let reps = if !smoke then 3 else 5 in
  let scratch_best = ref infinity and iv_fresh = ref Interval.one in
  for _ = 1 to reps do
    let t0 = Unix.gettimeofday () in
    let s' =
      Delta_eval.Certified.create (Delta_eval.Certified.table s) phi
    in
    iv_fresh := Delta_eval.Certified.prob s';
    scratch_best := Float.min !scratch_best (Unix.gettimeofday () -. t0)
  done;
  if Interval.intersect iv_inc !iv_fresh = None then
    failwith "E25: incremental and from-scratch intervals are disjoint";
  let speedup = !scratch_best /. incremental_avg in
  row "  %d deltas (%s):\n" k_deltas
    (String.concat ", "
       (Hashtbl.fold
          (fun k c acc -> Printf.sprintf "%d %s" c k :: acc)
          kinds []
       |> List.sort compare));
  row "    incremental %.3f ms/delta, from-scratch %.1f ms/delta — %.0fx\n"
    (1e3 *. incremental_avg) (1e3 *. !scratch_best) speedup;
  row "    P in [%.9g, %.9g] after the stream (epoch %d, %d live nodes)\n"
    (Interval.lo iv_inc) (Interval.hi iv_inc)
    (Delta_eval.Certified.epoch s)
    (Delta_eval.Certified.live_nodes s);
  if speedup < 5.0 then
    failwith
      (Printf.sprintf "E25: incremental speedup %.1fx below the 5x gate"
         speedup);
  metric "E25" "n_facts" (float_of_int n);
  metric "E25" "n_deltas" (float_of_int k_deltas);
  metric "E25" "compile_seconds" compile_seconds;
  metric "E25" "incremental_total_seconds" incremental_total_seconds;
  metric "E25" "scratch_per_delta_seconds" !scratch_best;
  metric "E25" "speedup" speedup

(* ------------------------------------------------------------------ *)
(* Driver *)
(* ------------------------------------------------------------------ *)

let experiments =
  [
    ("E1", e1); ("E2", e2); ("E3", e3); ("E4", e4); ("E5", e5); ("E6", e6);
    ("E7", e7); ("E8", e8); ("E9", e9); ("E10", e10); ("E11", e11);
    ("E14", e14); ("E15", e15); ("E16", e16); ("E17", e17); ("E18", e18);
    ("E19", e19); ("E20", e20); ("E21", e21); ("E22", e22); ("E23", e23);
    ("E24", e24); ("E25", e25);
  ]

let timing_experiments = [ ("E12", e12); ("E13", e13); ("D4", ablate_bdd_order) ]

(* The CI smoke subset: one experiment per engine family, each cheap at
   the reduced sample counts the [smoke] flag selects. *)
let smoke_ids =
  [ "E1"; "E3"; "E8"; "E16"; "E17"; "E18"; "E19"; "E20"; "E21"; "E22"; "E23";
    "E24"; "E25" ]

let () =
  let args = Array.to_list Sys.argv in
  smoke := List.mem "--smoke" args;
  (match List.find_index (fun a -> a = "--json") args with
  | Some idx when idx + 1 < List.length args ->
    json_dir := Some (List.nth args (idx + 1))
  | _ -> ());
  let only =
    match List.find_index (fun a -> a = "--only") args with
    | Some idx when idx + 1 < List.length args ->
      Some (String.split_on_char ',' (List.nth args (idx + 1)))
    | _ -> if !smoke then Some smoke_ids else None
  in
  let no_timing = !smoke || List.mem "--no-timing" args in
  let wanted id =
    match only with None -> true | Some ids -> List.mem id ids
  in
  let run_one (id, f) =
    if wanted id then begin
      let t0 = Unix.gettimeofday () in
      f ();
      metric id "seconds" (Unix.gettimeofday () -. t0)
    end
  in
  List.iter run_one experiments;
  if not no_timing then List.iter run_one timing_experiments;
  (match !json_dir with Some dir -> write_json dir | None -> ());
  print_newline ()
