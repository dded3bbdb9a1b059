(* Tests for monotone DNF conversion and the Karp-Luby estimator. *)

module E = Bool_expr

let x0 = E.var 0
let x1 = E.var 1
let x2 = E.var 2

(* The exact WMC of a lineage under float marginals (finite floats are
   dyadic rationals), as the reference the float estimators aim at. *)
let float_wmc ~weight e =
  Rational.to_float
    (Wmc.probability ~weight:(fun v -> Rational.of_float_exn (weight v)) e)

let test_of_expr_basic () =
  (match Dnf.of_expr (E.or2 (E.and2 x0 x1) x2) with
   | Some d ->
     Alcotest.(check int) "2 clauses" 2 (Dnf.num_clauses d);
     Alcotest.(check (list int)) "vars" [ 0; 1; 2 ] (Dnf.vars d)
   | None -> Alcotest.fail "monotone expression");
  (match Dnf.of_expr E.tru with
   | Some [ [] ] -> ()
   | _ -> Alcotest.fail "true is [[]]");
  (match Dnf.of_expr E.fls with
   | Some [] -> ()
   | _ -> Alcotest.fail "false is []")

let test_of_expr_distributes () =
  (* (x0 | x1) & (x1 | x2): distribution gives 4 clauses, absorption by
     {1} (since x1&x1 = x1 subsumes x0&x1 and x1&x2) leaves {1},{0,2}. *)
  match Dnf.of_expr (E.and2 (E.or2 x0 x1) (E.or2 x1 x2)) with
  | Some d ->
    Alcotest.(check int) "absorbed to 2" 2 (Dnf.num_clauses d);
    Alcotest.(check bool) "has {1}" true (List.mem [ 1 ] d);
    Alcotest.(check bool) "has {0,2}" true (List.mem [ 0; 2 ] d)
  | None -> Alcotest.fail "monotone expression"

let test_of_expr_rejects () =
  Alcotest.(check bool) "negation rejected" true
    (Dnf.of_expr (E.neg x0) = None);
  Alcotest.(check bool) "implication rejected" true
    (Dnf.of_expr (E.implies x0 x1) = None);
  (* clause blowup guard: AND of many wide ORs *)
  let wide =
    E.conj (List.init 16 (fun j -> E.disj [ E.var (2 * j); E.var ((2 * j) + 1) ]))
  in
  Alcotest.(check bool) "blowup capped" true
    (Dnf.of_expr ~max_clauses:1000 wide = None)

let test_dnf_eval_agrees () =
  let exprs =
    [
      x0;
      E.and2 x0 x1;
      E.or2 (E.and2 x0 x1) (E.and2 x1 x2);
      E.conj [ E.disj [ x0; x1 ]; E.disj [ x1; x2 ]; x0 ];
    ]
  in
  List.iter
    (fun e ->
      match Dnf.of_expr e with
      | None -> Alcotest.fail "monotone"
      | Some d ->
        for mask = 0 to 7 do
          let env i = mask land (1 lsl i) <> 0 in
          Alcotest.(check bool)
            (Printf.sprintf "%s @ %d" (E.to_string e) mask)
            (E.eval env e) (Dnf.eval env d)
        done)
    exprs

let test_to_expr_roundtrip () =
  let e = E.or2 (E.and2 x0 x1) x2 in
  match Dnf.of_expr e with
  | None -> Alcotest.fail "monotone"
  | Some d ->
    let e' = Dnf.to_expr d in
    for mask = 0 to 7 do
      let env i = mask land (1 lsl i) <> 0 in
      Alcotest.(check bool) "semantics kept" (E.eval env e) (E.eval env e')
    done

(* A clause's weight is the Karp-Luby estimate of a one-clause DNF,
   which is exact. *)
let test_clause_weight () =
  let e = Dnf.karp_luby ~samples:1 ~weight:(fun _ -> 0.5) [ [ 0; 1; 2 ] ] in
  Alcotest.(check (float 0.0)) "1/8" 0.125 e.Dnf.value

let test_karp_luby_exact_cases () =
  (* single clause: estimator is exactly the clause weight, zero variance *)
  let e = Dnf.karp_luby ~samples:100 ~weight:(fun _ -> 0.3) [ [ 0; 1 ] ] in
  Alcotest.(check (float 1e-12)) "single clause exact" 0.09 e.Dnf.value;
  Alcotest.(check (float 1e-12)) "zero variance" 0.0 e.Dnf.std_error

let test_karp_luby_matches_wmc () =
  (* random-ish monotone DNF: compare against exact WMC *)
  let expr = E.disj [ E.and2 x0 x1; E.and2 x1 x2; E.and2 x2 x0 ] in
  let weight v = 0.1 +. (0.2 *. float_of_int v) in
  let exact = float_wmc ~weight expr in
  match Dnf.of_expr expr with
  | None -> Alcotest.fail "monotone"
  | Some d ->
    let e = Dnf.karp_luby ~seed:5 ~samples:60_000 ~weight d in
    Alcotest.(check bool)
      (Printf.sprintf "estimate %.4f vs exact %.4f" e.Dnf.value exact)
      true
      (Float.abs (e.Dnf.value -. exact)
       < Stdlib.max (6.0 *. e.Dnf.std_error) 0.01);
    Alcotest.(check bool) "union bound above" true (e.Dnf.union_bound >= exact -. 1e-9)

let test_karp_luby_small_probability () =
  (* the FPRAS advantage: a very unlikely event still gets small RELATIVE
     error, where naive MC would need ~10^6 samples per hit *)
  let clause = [ 0; 1; 2 ] in
  let weight _ = 0.01 in
  (* P = 10^-6 *)
  let e = Dnf.karp_luby ~seed:7 ~samples:2000 ~weight [ clause ] in
  Alcotest.(check bool) "relative error tiny" true
    (Float.abs (e.Dnf.value -. 1e-6) /. 1e-6 < 1e-9)

let test_karp_luby_guards () =
  Alcotest.check_raises "empty dnf"
    (Invalid_argument "Dnf.karp_luby: empty DNF (probability is 0)")
    (fun () -> ignore (Dnf.karp_luby ~samples:10 ~weight:(fun _ -> 0.5) []));
  Alcotest.check_raises "bad samples"
    (Invalid_argument "Dnf.karp_luby: samples <= 0") (fun () ->
      ignore (Dnf.karp_luby ~samples:0 ~weight:(fun _ -> 0.5) [ [ 0 ] ]))

(* ------------------------------------------------------------------ *)
(* Engine-level integration *)
(* ------------------------------------------------------------------ *)

let i n = Value.Int n
let q = Rational.of_ints
let parse = Fo_parse.parse_exn

let ti =
  Ti_table.create
    (List.concat
       (List.init 6 (fun j ->
            [
              (Fact.make "R" [ i j ], q 1 5);
              (Fact.make "S" [ i j ], q 1 7);
            ])))

let test_engine_karp_luby () =
  let phi = parse "exists x. R(x) & S(x)" in
  let exact = Rational.to_float (Query_eval.boolean ti phi) in
  (match Query_eval.boolean_karp_luby ~seed:3 ~samples:50_000 ti phi with
   | Some r ->
     Alcotest.(check bool)
       (Printf.sprintf "kl %.5f vs exact %.5f" r.Query_eval.estimate exact)
       true
       (Float.abs (r.Query_eval.estimate -. exact)
        < Stdlib.max (6.0 *. r.Query_eval.std_error) 0.005)
   | None -> Alcotest.fail "monotone query rejected");
  (* negated query falls back to None *)
  Alcotest.(check bool) "negation unsupported" true
    (Query_eval.boolean_karp_luby ~samples:10 ti (parse "!(exists x. R(x))")
     = None);
  (* unsatisfiable lineage: Some 0 *)
  (match Query_eval.boolean_karp_luby ~samples:10 ti (parse "R(99)") with
   | Some r -> Alcotest.(check (float 0.0)) "zero" 0.0 r.Query_eval.estimate
   | None -> Alcotest.fail "false lineage is monotone")

let test_engine_mc_adaptive () =
  let phi = parse "exists x. R(x)" in
  let exact = Rational.to_float (Query_eval.boolean ti phi) in
  (* An a-priori (eps, delta) additive guarantee from plain sampling:
     the Hoeffding count ln(2/delta)/(2 eps^2) ~ 6623 worlds. *)
  let eps = 0.02 and delta = 0.01 in
  let samples =
    int_of_float (Float.ceil (log (2.0 /. delta) /. (2.0 *. eps *. eps)))
  in
  let plan =
    Countable_ti.sampler (Countable_ti.create (Fact_source.of_ti_table ti))
  in
  let r = Mc_eval.boolean ~seed:11 ~samples plan phi in
  Alcotest.(check bool) "sample count from bound" true
    (r.Mc_eval.samples >= 6000 && r.Mc_eval.samples <= 7000);
  Alcotest.(check bool) "within eps (prob 99%)" true
    (Float.abs (r.Mc_eval.estimate -. exact) <= eps)

(* ------------------------------------------------------------------ *)
(* Properties *)
(* ------------------------------------------------------------------ *)

let arb_monotone =
  let open QCheck.Gen in
  let rec gen n =
    if n = 0 then map E.var (int_range 0 5)
    else
      frequency
        [
          (2, map E.var (int_range 0 5));
          (3, map2 E.and2 (gen (n / 2)) (gen (n / 2)));
          (3, map2 E.or2 (gen (n / 2)) (gen (n / 2)));
        ]
  in
  QCheck.make ~print:E.to_string (gen 5)

let props =
  [
    QCheck.Test.make ~name:"dnf semantics = expr semantics" ~count:200
      arb_monotone (fun e ->
        match Dnf.of_expr e with
        | None -> false
        | Some d ->
          List.for_all
            (fun mask ->
              let env i = mask land (1 lsl i) <> 0 in
              E.eval env e = Dnf.eval env d)
            [ 0; 9; 21; 42; 63 ]);
    QCheck.Test.make ~name:"no clause subsumes another" ~count:200 arb_monotone
      (fun e ->
        match Dnf.of_expr e with
        | None -> false
        | Some d ->
          let module S = Set.Make (Int) in
          let sets = List.map S.of_list d in
          List.for_all
            (fun s ->
              List.for_all
                (fun s' -> S.equal s s' || not (S.subset s' s))
                sets)
            sets);
    QCheck.Test.make ~name:"karp-luby unbiased-ish on random dnf" ~count:20
      arb_monotone (fun e ->
        match Dnf.of_expr e with
        | None | Some [] -> true
        | Some d ->
          let weight v = 0.15 +. (0.1 *. float_of_int v) in
          let exact = float_wmc ~weight (Dnf.to_expr d) in
          let est = Dnf.karp_luby ~seed:13 ~samples:20_000 ~weight d in
          Float.abs (est.Dnf.value -. exact)
          < Stdlib.max (8.0 *. est.Dnf.std_error) 0.02);
  ]

let () =
  Alcotest.run "dnf"
    [
      ( "conversion",
        [
          Alcotest.test_case "basic" `Quick test_of_expr_basic;
          Alcotest.test_case "distributes/absorbs" `Quick test_of_expr_distributes;
          Alcotest.test_case "rejections" `Quick test_of_expr_rejects;
          Alcotest.test_case "eval agrees" `Quick test_dnf_eval_agrees;
          Alcotest.test_case "to_expr roundtrip" `Quick test_to_expr_roundtrip;
          Alcotest.test_case "clause weight" `Quick test_clause_weight;
        ] );
      ( "karp-luby",
        [
          Alcotest.test_case "exact cases" `Quick test_karp_luby_exact_cases;
          Alcotest.test_case "matches wmc" `Slow test_karp_luby_matches_wmc;
          Alcotest.test_case "small probability" `Quick
            test_karp_luby_small_probability;
          Alcotest.test_case "guards" `Quick test_karp_luby_guards;
        ] );
      ( "engines",
        [
          Alcotest.test_case "karp-luby engine" `Slow test_engine_karp_luby;
          Alcotest.test_case "adaptive MC" `Slow test_engine_mc_adaptive;
        ] );
      ("properties", List.map QCheck_alcotest.to_alcotest props);
    ]
