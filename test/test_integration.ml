(* End-to-end integration tests: whole-paper scenarios wired through every
   layer — relational substrate, logic, finite engines, the countable TI
   construction, completions and the truncation approximation. *)

let i n = Value.Int n
let s x = Value.Str x
let q = Rational.of_ints
let parse = Fo_parse.parse_exn

let check_q msg expected actual =
  Alcotest.(check string) msg (Rational.to_string expected)
    (Rational.to_string actual)

(* ------------------------------------------------------------------ *)
(* Scenario 1: the paper's Example 5.7, end to end. *)
(* ------------------------------------------------------------------ *)

let ex57_ti =
  Ti_table.create
    [
      (Fact.make "R" [ s "A"; i 1 ], q 8 10);
      (Fact.make "R" [ s "B"; i 1 ], q 4 10);
      (Fact.make "R" [ s "B"; i 2 ], q 5 10);
      (Fact.make "R" [ s "C"; i 3 ], q 9 10);
    ]

let names = [| "A"; "B"; "C"; "D" |]

let ex57_news () =
  let orig = Fact.Set.of_list (Ti_table.support ex57_ti) in
  let all =
    Seq.concat_map
      (fun idx ->
        let x = names.(idx mod 4) and iv = (idx / 4) + 1 in
        let f = Fact.make "R" [ s x; i iv ] in
        if Fact.Set.mem f orig then Seq.empty
        else Seq.return (f, Rational.pow Rational.half iv))
      (Seq.ints 0)
  in
  Fact_source.make ~name:"ex57" ~enum:all
    ~tail:(fun n -> Some (8.0 *. (0.5 ** float_of_int (n / 4))))
    ()

let test_ex57_closed_world_quirks () =
  (* Under the CWA, D never occurs and two facts R(A, .) can't coexist
     (only one exists at all). *)
  check_q "D never occurs" Rational.zero
    (Query_eval.boolean ex57_ti (parse "exists x. R(\"D\", x)"));
  check_q "two A-facts impossible" Rational.zero
    (Query_eval.boolean ex57_ti
       (parse "exists x y. R(\"A\", x) & R(\"A\", y) & x != y"))

let test_ex57_open_world_positivity () =
  (* In the completion, every finite Boolean combination of distinct new
     facts has positive probability (closing claim of Example 5.7). *)
  let c = Completion.complete_ti ex57_ti (ex57_news ()) in
  let queries =
    [
      "exists x. R(\"D\", x)";
      "exists x y. R(\"A\", x) & R(\"A\", y) & x != y";
      "R(\"D\", 2) & R(\"A\", 2)";
      "R(\"D\", 1) & !R(\"D\", 2)";
    ]
  in
  List.iter
    (fun qs ->
      let r = Approx_eval.boolean (Completion.source c) ~eps:0.01 (parse qs) in
      Alcotest.(check bool) (qs ^ " positive") true
        (Rational.sign r.Approx_eval.estimate > 0))
    queries

let test_ex57_monotone_in_eps () =
  (* Tighter eps uses at least as many facts and the certified bounds
     shrink. *)
  let c = Completion.complete_ti ex57_ti (ex57_news ()) in
  let phi = parse "exists x. R(\"D\", x)" in
  let r1 = Approx_eval.boolean (Completion.source c) ~eps:0.2 phi in
  let r2 = Approx_eval.boolean (Completion.source c) ~eps:0.01 phi in
  Alcotest.(check bool) "more facts" true
    (r2.Approx_eval.n_used >= r1.Approx_eval.n_used);
  Alcotest.(check bool) "narrower bounds" true
    (Interval.width r2.Approx_eval.bounds <= Interval.width r1.Approx_eval.bounds)

(* ------------------------------------------------------------------ *)
(* Scenario 2: sensors (the paper's introduction). *)
(* ------------------------------------------------------------------ *)

(* Temperatures in two offices, measured in tenths of a degree on a
   discrete grid.  The closed-world PDB has a gap: no reading between
   20.2 and 20.5 for office 1.  Facts: Temp(office, tenth-degrees). *)
let sensor_ti =
  Ti_table.create
    [
      (Fact.make "Temp" [ i 1; i 201 ], q 1 2);
      (Fact.make "Temp" [ i 1; i 202 ], q 1 2);
      (Fact.make "Temp" [ i 2; i 205 ], q 1 2);
      (Fact.make "Temp" [ i 2; i 206 ], q 1 2);
    ]

let sensor_news () =
  (* Open world: unseen readings 20.3, 20.4 (and a widening grid) get
     geometrically decaying probabilities for both offices. *)
  let grid = [| 203; 204; 207; 208; 199; 200 |] in
  let entries =
    List.concat
      (List.init (Array.length grid) (fun gi ->
           List.map
             (fun office ->
               ( Fact.make "Temp" [ i office; i grid.(gi) ],
                 Rational.pow Rational.half (gi + 3) ))
             [ 1; 2 ]))
  in
  Fact_source.of_list ~name:"sensor-news" entries

let test_sensor_gap () =
  (* Closed world: a reading of 20.3 in office 1 is "impossible". *)
  check_q "gap impossible closed" Rational.zero
    (Query_eval.boolean sensor_ti (parse "Temp(1, 203)"));
  let c = Completion.complete_ti sensor_ti (sensor_news ()) in
  let opened eps qs =
    (Approx_eval.boolean (Completion.source c) ~eps (parse qs))
      .Approx_eval.estimate
  in
  Alcotest.(check bool) "gap possible open" true
    (Rational.sign (opened 0.01 "Temp(1, 203)") > 0);
  (* And closer gaps are more likely than distant ones (the intro's
     monotonicity desideratum). *)
  let p203 = opened 0.001 "Temp(1, 203)" in
  let p199 = opened 0.001 "Temp(1, 199)" in
  Alcotest.(check bool) "nearer reading more likely" true
    Rational.(p199 < p203)

let test_sensor_comparison_query () =
  (* "Office 1 warmer than office 2": impossible closed-world (all office-1
     readings are below all office-2 readings), positive open-world. *)
  let phi = parse "exists x y. Temp(1, x) & Temp(2, y) & (exists z. Gt(x, y, z))" in
  ignore phi;
  (* Without arithmetic atoms, express "warmer" on the finite grid by
     enumerating pairs: 206 > 205 etc.  Use a helper view instead: just
     check a representative pair. *)
  let closed =
    Query_eval.boolean sensor_ti (parse "Temp(1, 207) & Temp(2, 205)")
  in
  check_q "closed zero" Rational.zero closed;
  let c = Completion.complete_ti sensor_ti (sensor_news ()) in
  let r =
    Approx_eval.boolean (Completion.source c) ~eps:0.01
      (parse "Temp(1, 207) & Temp(2, 205)")
  in
  Alcotest.(check bool) "open positive" true
    (Rational.sign r.Approx_eval.estimate > 0)

(* ------------------------------------------------------------------ *)
(* Scenario 3: census completion (Example 3.2, countable case). *)
(* ------------------------------------------------------------------ *)

let test_census_name_completion () =
  (* A record with a missing first name: complete over a countable
     universe of strings.  Known names get frequencies; unseen strings
     share a geometric tail — a countable PDB, as in Example 3.2. *)
  let known =
    [
      (Fact.make "Person" [ s "Martin"; s "Grohe" ], q 45 100);
      (Fact.make "Person" [ s "Peter"; s "Grohe" ], q 30 100);
    ]
  in
  let unseen =
    Fact_source.geometric ~name:"unseen-names" ~first:(q 1 8)
      ~ratio:Rational.half
      ~facts:(fun k -> Fact.make "Person" [ s (Printf.sprintf "name%d" k); s "Grohe" ])
      ()
  in
  let src = Fact_source.append_finite known unseen in
  let cti = Countable_ti.create src in
  (* total mass = 0.75 + 0.25 = 1: expected size 1 record *)
  let lo, hi = Countable_ti.expected_size_bounds cti ~n:40 in
  Alcotest.(check bool) "expected one name" true (lo <= 1.0 && 1.0 <= hi && hi -. lo < 1e-6);
  (* approximate query: some unseen name occurs *)
  let r =
    Approx_eval.boolean src ~eps:0.01
      (parse "exists x. Person(x, \"Grohe\")")
  in
  Alcotest.(check bool) "someone named" true
    (Rational.to_float r.Approx_eval.estimate > 0.5)

(* ------------------------------------------------------------------ *)
(* Scenario 4: engines against the approximation on a countable PDB. *)
(* ------------------------------------------------------------------ *)

let test_truncation_vs_rich_truncation () =
  (* Evaluating with a much deeper truncation refines the answer within
     the coarser run's certified bounds. *)
  let src =
    Fact_source.telescoping ~mass:Rational.half
      ~facts:(fun k -> Fact.make "R" [ i k ])
      ()
  in
  let phi = parse "exists x. R(x)" in
  let coarse = Approx_eval.boolean src ~eps:0.2 phi in
  let fine = Approx_eval.boolean src ~eps:0.002 phi in
  Alcotest.(check bool) "fine estimate within coarse certified bounds" true
    (Interval.contains coarse.Approx_eval.bounds
       (Rational.to_float fine.Approx_eval.estimate));
  (* Monte Carlo over the sampled countable PDB agrees with the estimate *)
  let plan = Countable_ti.sampler (Countable_ti.create src) in
  let est =
    (Mc_eval.boolean ~seed:17 ~samples:20_000 plan phi).Mc_eval.estimate
  in
  Alcotest.(check bool) "sampled vs approximated" true
    (Float.abs (est -. Rational.to_float fine.Approx_eval.estimate) < 0.02)

let test_bid_vs_ti_special_case () =
  (* A countable BID PDB with singleton blocks is the countable TI PDB:
     samplers agree in distribution on a marginal. *)
  let p k = Rational.pow Rational.half (k + 1) in
  let blocks =
    Seq.map
      (fun k ->
        Countable_bid.block_finite
          ~id:(Printf.sprintf "b%d" k)
          [ (Fact.make "R" [ i k ], p k) ])
      (Seq.ints 0)
  in
  let cb =
    Countable_bid.create ~name:"singletons" ~blocks
      ~tail:(fun n -> Some (Float.succ (0.5 ** float_of_int n)))
      ()
  in
  let src =
    Fact_source.geometric ~first:Rational.half ~ratio:Rational.half
      ~facts:(fun k -> Fact.make "R" [ i k ])
      ()
  in
  let ct = Countable_ti.create src in
  let f = Fact.make "R" [ i 1 ] in
  let m_bid =
    Sampler.estimate_marginal ~seed:23 ~samples:30_000
      (Countable_bid.sampler cb).Sampler.draw f
  in
  let m_ti =
    Sampler.estimate_marginal ~seed:29 ~samples:30_000
      (Countable_ti.sampler ct).Sampler.draw f
  in
  Alcotest.(check bool) "samplers agree" true (Float.abs (m_bid -. m_ti) < 0.015);
  Alcotest.(check bool) "near exact 1/4" true (Float.abs (m_ti -. 0.25) < 0.01)

(* ------------------------------------------------------------------ *)
(* Scenario 5: Proposition 4.9's shape — FO views of TI PDBs have
   bounded answers, Example 3.3 does not. *)
(* ------------------------------------------------------------------ *)

let test_definability_gap_shape () =
  (* For a TI world C and a single-free-variable view phi, the answer size
     is bounded by |adom(C)| + #constants (Fact 2.1).  Example 3.3's
     instance sizes outgrow any such bound relative to their
     probability-weighted budget. *)
  let src =
    Fact_source.geometric ~first:Rational.half ~ratio:Rational.half
      ~facts:(fun k -> Fact.make "E" [ i k; i (k + 1) ])
      ()
  in
  let draw = (Countable_ti.sampler (Countable_ti.create src)).Sampler.draw in
  let g = Prng.create ~seed:31 () in
  for _ = 1 to 200 do
    let w = draw g in
    let _, answers = Fo_eval.answers w (parse "exists y. E(x, y)") in
    if Tuple.Set.cardinal answers > 2 * Instance.size w then
      Alcotest.fail "FO view exceeded the Fact 2.1 bound"
  done;
  (* Example 3.3 truncated expectation passes any fixed bound. *)
  Alcotest.(check bool) "E(S) truncations unbounded" true
    (Rational.to_float (Size_dist.example_3_3_expected_size_prefix 20) > 1000.0)

let () =
  Alcotest.run "integration"
    [
      ( "example-5.7",
        [
          Alcotest.test_case "closed world quirks" `Quick
            test_ex57_closed_world_quirks;
          Alcotest.test_case "open world positivity" `Quick
            test_ex57_open_world_positivity;
          Alcotest.test_case "monotone in eps" `Quick test_ex57_monotone_in_eps;
        ] );
      ( "sensors",
        [
          Alcotest.test_case "gap readings" `Quick test_sensor_gap;
          Alcotest.test_case "comparison query" `Quick test_sensor_comparison_query;
        ] );
      ( "census",
        [ Alcotest.test_case "name completion" `Quick test_census_name_completion ] );
      ( "cross-engine",
        [
          Alcotest.test_case "truncation refinement" `Slow
            test_truncation_vs_rich_truncation;
          Alcotest.test_case "bid = ti on singletons" `Slow
            test_bid_vs_ti_special_case;
        ] );
      ( "definability",
        [ Alcotest.test_case "prop 4.9 shape" `Quick test_definability_gap_shape ] );
    ]
