(* Tests for the extension features: built-in comparison atoms, open-world
   answer marginals on completions, and expected answer counts. *)

let i n = Value.Int n
let s x = Value.Str x
let q = Rational.of_ints
let parse = Fo_parse.parse_exn

let check_q msg expected actual =
  Alcotest.(check string) msg (Rational.to_string expected)
    (Rational.to_string actual)

(* ------------------------------------------------------------------ *)
(* Comparison atoms: parsing and printing *)
(* ------------------------------------------------------------------ *)

let test_cmp_parse_print () =
  List.iter
    (fun str ->
      let f = parse str in
      Alcotest.(check bool) ("roundtrip " ^ str) true
        (Fo.equal f (parse (Fo.to_string f))))
    [ "x < y"; "x <= 3"; "x > y"; "x >= -2"; "exists x y. R(x, y) & x < y" ];
  Alcotest.(check bool) "ast shape" true
    (Fo.equal (parse "x < 3") (Fo.lt (Fo.v "x") (Fo.cint 3)));
  Alcotest.(check bool) "chained with and" true
    (Fo.equal (parse "x < 3 & y > 4")
       (Fo.And (Fo.lt (Fo.v "x") (Fo.cint 3), Fo.gt (Fo.v "y") (Fo.cint 4))))

let test_cmp_structure () =
  let f = parse "exists x. R(x) & x > 7" in
  Alcotest.(check (list string)) "closed" [] (Fo.free_vars f);
  Alcotest.(check int) "constants" 1 (List.length (Fo.constants f));
  Alcotest.(check bool) "positive" true (Fo.is_positive f);
  Alcotest.(check int) "rank" 1 (Fo.quantifier_rank f);
  (* substitution reaches comparison terms *)
  let g = Fo.substitute [ ("x", i 9) ] (parse "x > 7") in
  Alcotest.(check string) "subst" "9 > 7" (Fo.to_string g)

(* ------------------------------------------------------------------ *)
(* Comparison atoms: evaluation *)
(* ------------------------------------------------------------------ *)

let inst =
  Instance.of_list
    [ Fact.make "N" [ i 1 ]; Fact.make "N" [ i 5 ]; Fact.make "N" [ i 9 ] ]

let test_cmp_eval () =
  let check str expected =
    Alcotest.(check bool) str expected (Fo_eval.models inst (parse str))
  in
  check "exists x. N(x) & x > 7" true;
  check "exists x. N(x) & x > 9" false;
  check "forall x. N(x) -> x >= 1" true;
  check "forall x. N(x) -> x > 1" false;
  check "exists x y. N(x) & N(y) & x < y" true;
  check "5 <= 5" true;
  check "5 < 5" false;
  check "exists x. N(x) & 4 < x & x < 6" true

let test_cmp_answers () =
  let _, tuples = Fo_eval.answers inst (parse "N(x) & x > 2") in
  Alcotest.(check int) "two answers" 2 (Tuple.Set.cardinal tuples);
  Alcotest.(check bool) "5 in" true (Tuple.Set.mem [| i 5 |] tuples);
  Alcotest.(check bool) "9 in" true (Tuple.Set.mem [| i 9 |] tuples)

let test_cmp_across_sorts () =
  (* the documented total order: all ints before all strings *)
  Alcotest.(check bool) "int < str" true
    (Fo_eval.models Instance.empty
       (parse "exists x. x = 3 & x < \"a\""))

(* ------------------------------------------------------------------ *)
(* Comparison atoms: probabilistic engines *)
(* ------------------------------------------------------------------ *)

let ti =
  Ti_table.create
    [
      (Fact.make "T" [ i 10 ], q 1 2);
      (Fact.make "T" [ i 20 ], q 1 3);
      (Fact.make "T" [ i 30 ], q 1 4);
    ]

let test_cmp_engines_agree () =
  List.iter
    (fun str ->
      let phi = parse str in
      let reference = Query_eval.boolean_enum ti phi in
      check_q ("bdd " ^ str) reference (Query_eval.boolean_bdd ti phi);
      check_q ("auto " ^ str) reference (Query_eval.boolean ti phi))
    [
      "exists x. T(x) & x > 15";
      "exists x. T(x) & x >= 30";
      "forall x. T(x) -> x < 25";
      "exists x y. T(x) & T(y) & x < y";
    ]

let test_cmp_exact_values () =
  (* P(exists x. T(x) & x > 15) = 1 - (1-1/3)(1-1/4) = 1/2 *)
  check_q "upper half" Rational.half
    (Query_eval.boolean ti (parse "exists x. T(x) & x > 15"));
  (* P(forall x. T(x) -> x < 25) = P(!T(30)) = 3/4 *)
  check_q "all below 25" (q 3 4)
    (Query_eval.boolean ti (parse "forall x. T(x) -> x < 25"))

let test_cmp_in_completion () =
  (* The paper-faithful "office 1 warmer than office 2" query. *)
  let observed =
    Ti_table.create
      [
        (Fact.make "Temp" [ i 1; i 201 ], q 1 2);
        (Fact.make "Temp" [ i 2; i 205 ], q 1 2);
      ]
  in
  let warmer = parse "exists x y. Temp(1, x) & Temp(2, y) & x > y" in
  check_q "closed world zero" Rational.zero (Query_eval.boolean observed warmer);
  let news =
    Fact_source.of_list ~name:"warm-tail"
      [
        (Fact.make "Temp" [ i 1; i 206 ], q 1 8);
        (Fact.make "Temp" [ i 2; i 199 ], q 1 8);
      ]
  in
  let c = Completion.complete_ti observed news in
  let r = Approx_eval.boolean (Completion.source c) ~eps:0.001 warmer in
  (* warmer iff Temp(1,206) & Temp(2,205): wait - also (201 > 199):
     Temp(1,201) & Temp(2,199): 1/2 * 1/8 = 1/16; and 206>205 and 206>199.
     P = P((A & b') | (a' & (B | b'))) with A=Temp(1,201) p=1/2,
     B=Temp(2,205) p=1/2, a'=Temp(1,206) p=1/8, b'=Temp(2,199) p=1/8.
     Compute reference by brute force below. *)
  let reference =
    Query_eval.boolean_finite (Completion.truncated c ~n:2) warmer
  in
  check_q "open world exact on truncation" reference r.Approx_eval.estimate;
  Alcotest.(check bool) "positive" true (Rational.sign r.Approx_eval.estimate > 0)

(* ------------------------------------------------------------------ *)
(* Completion marginals / expected answer count, through the completed
   source *)
(* ------------------------------------------------------------------ *)

let base =
  Ti_table.create
    [
      (Fact.make "P" [ s "a" ], q 1 2);
      (Fact.make "P" [ s "b" ], q 1 4);
    ]

let completion () =
  Completion.complete_ti base
    (Fact_source.of_list ~name:"ext"
       [
         (Fact.make "P" [ s "c" ], q 1 8);
         (Fact.make "P" [ s "d" ], q 1 16);
       ])

let test_completion_marginals () =
  let c = completion () in
  let ms =
    Approx_eval.marginals (Completion.source c) ~eps:0.01 (parse "P(x)")
  in
  Alcotest.(check int) "4 tuples" 4 (List.length ms);
  let find v =
    match List.find_opt (fun (t, _) -> Tuple.equal t [| s v |]) ms with
    | Some (_, p) -> p
    | None -> Alcotest.failf "missing %s" v
  in
  check_q "a" (q 1 2) (find "a");
  check_q "b" (q 1 4) (find "b");
  check_q "c" (q 1 8) (find "c");
  check_q "d" (q 1 16) (find "d")

let test_completion_expected_count () =
  let c = completion () in
  (* E|answers| = 1/2 + 1/4 + 1/8 + 1/16 = 15/16, by linearity *)
  check_q "expected count" (q 15 16)
    (Rational.sum
       (List.map snd
          (Approx_eval.marginals (Completion.source c) ~eps:0.01
             (parse "P(x)"))))

let test_completion_marginals_guards () =
  let src () = Completion.source (completion ()) in
  (* A sentence has one candidate answer, the empty tuple, carrying its
     probability: 1 - (1/2)(3/4)(7/8)(15/16) = 709/1024. *)
  (match Approx_eval.marginals (src ()) ~eps:0.01 (parse "exists x. P(x)") with
   | [ (tup, p) ] ->
     Alcotest.(check int) "empty tuple" 0 (Array.length tup);
     check_q "sentence probability" (q 709 1024) p
   | ms -> Alcotest.failf "%d tuples for a sentence" (List.length ms));
  Alcotest.check_raises "too many vars"
    (Invalid_argument "Query_eval.marginals: more than 3 free variables")
    (fun () ->
      ignore
        (Approx_eval.marginals (src ()) ~eps:0.1
           (parse "P(x) & P(y) & P(z) & P(w)")))

let test_completion_marginals_with_join () =
  (* marginal of a conjunctive formula over original and new facts *)
  let obs =
    Ti_table.create
      [ (Fact.make "A" [ i 1 ], q 1 2); (Fact.make "B" [ i 1 ], q 1 3) ]
  in
  let c =
    Completion.complete_ti obs
      (Fact_source.of_list ~name:"j" [ (Fact.make "B" [ i 2 ], q 1 5); (Fact.make "A" [ i 2 ], q 1 7) ])
  in
  let ms =
    Approx_eval.marginals (Completion.source c) ~eps:0.01 (parse "A(x) & B(x)")
  in
  Alcotest.(check int) "two joined tuples" 2 (List.length ms);
  List.iter
    (fun (tup, p) ->
      match tup with
      | [| Value.Int 1 |] -> check_q "1/6" (q 1 6) p
      | [| Value.Int 2 |] -> check_q "1/35" (q 1 35) p
      | _ -> Alcotest.fail "unexpected tuple")
    ms

(* ------------------------------------------------------------------ *)
(* Properties *)
(* ------------------------------------------------------------------ *)

let props =
  [
    QCheck.Test.make ~name:"cmp eval consistent with Value.compare" ~count:300
      QCheck.(pair (int_range (-20) 20) (int_range (-20) 20))
      (fun (a, b) ->
        let f op = Fo.Cmp (op, Fo.cint a, Fo.cint b) in
        Fo_eval.models Instance.empty (f Fo.Lt) = (a < b)
        && Fo_eval.models Instance.empty (f Fo.Le) = (a <= b)
        && Fo_eval.models Instance.empty (f Fo.Gt) = (a > b)
        && Fo_eval.models Instance.empty (f Fo.Ge) = (a >= b));
    QCheck.Test.make ~name:"cmp lineage constant-folds" ~count:200
      QCheck.(pair (int_range 0 9) (int_range 0 9))
      (fun (a, b) ->
        let alpha = Lineage.alphabet [] in
        let lin = Lineage.of_sentence alpha (Fo.lt (Fo.cint a) (Fo.cint b)) in
        Bool_expr.is_constant lin = Some (a < b));
    QCheck.Test.make ~name:"trichotomy in formulas" ~count:200
      QCheck.(pair (int_range (-9) 9) (int_range (-9) 9))
      (fun (a, b) ->
        let parsef s = Fo_parse.parse_exn s in
        let str = Printf.sprintf "%d < %d | %d = %d | %d > %d" a b a b a b in
        Fo_eval.models Instance.empty (parsef str));
  ]

let () =
  Alcotest.run "extensions"
    [
      ( "cmp-syntax",
        [
          Alcotest.test_case "parse/print" `Quick test_cmp_parse_print;
          Alcotest.test_case "structure" `Quick test_cmp_structure;
        ] );
      ( "cmp-eval",
        [
          Alcotest.test_case "sentences" `Quick test_cmp_eval;
          Alcotest.test_case "answers" `Quick test_cmp_answers;
          Alcotest.test_case "across sorts" `Quick test_cmp_across_sorts;
        ] );
      ( "cmp-probabilistic",
        [
          Alcotest.test_case "engines agree" `Quick test_cmp_engines_agree;
          Alcotest.test_case "exact values" `Quick test_cmp_exact_values;
          Alcotest.test_case "in completion" `Quick test_cmp_in_completion;
        ] );
      ( "completion-marginals",
        [
          Alcotest.test_case "marginals" `Quick test_completion_marginals;
          Alcotest.test_case "expected count" `Quick test_completion_expected_count;
          Alcotest.test_case "guards" `Quick test_completion_marginals_guards;
          Alcotest.test_case "with join" `Quick test_completion_marginals_with_join;
        ] );
      ("properties", List.map QCheck_alcotest.to_alcotest props);
    ]
