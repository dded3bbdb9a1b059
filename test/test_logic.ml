(* Tests for the logic library: FO syntax, parser, active-domain
   evaluation, lineage extraction and safe plans. *)

let i n = Value.Int n
let p = Fo_parse.parse_exn

(* ------------------------------------------------------------------ *)
(* Fo structure *)
(* ------------------------------------------------------------------ *)

let test_free_vars () =
  Alcotest.(check (list string)) "open" [ "x"; "y" ]
    (Fo.free_vars (p "R(x, y)"));
  Alcotest.(check (list string)) "bound" [ "y" ]
    (Fo.free_vars (p "exists x. R(x, y)"));
  Alcotest.(check (list string)) "sentence" []
    (Fo.free_vars (p "exists x y. R(x, y)"));
  Alcotest.(check bool) "is_sentence" true
    (Fo.is_sentence (p "forall x. S(x) -> S(x)"))

let test_quantifier_rank () =
  Alcotest.(check int) "qf" 0 (Fo.quantifier_rank (p "R(1) & S(2)"));
  Alcotest.(check int) "rank 1" 1 (Fo.quantifier_rank (p "exists x. R(x)"));
  Alcotest.(check int) "nested" 2
    (Fo.quantifier_rank (p "exists x. forall y. R(x, y)"));
  Alcotest.(check int) "parallel" 1
    (Fo.quantifier_rank (p "(exists x. R(x)) & (exists y. S(y))"))

let test_constants_relations () =
  let f = p "R(1, \"a\") & exists x. S(x, 2)" in
  Alcotest.(check int) "constants" 3 (List.length (Fo.constants f));
  Alcotest.(check (list (pair string int))) "relations"
    [ ("R", 2); ("S", 2) ] (Fo.relations f);
  Alcotest.check_raises "arity clash"
    (Invalid_argument "Fo.relations: R used with arities 1 and 2") (fun () ->
      ignore (Fo.relations (p "R(1) & R(1, 2)")))

let test_substitute () =
  let f = p "R(x) & exists x. S(x)" in
  let g = Fo.substitute [ ("x", i 7) ] f in
  Alcotest.(check string) "only free occurrence" "R(7) & (exists x. S(x))"
    (Fo.to_string g);
  Alcotest.(check (list string)) "closed now" [] (Fo.free_vars g)

let test_shapes () =
  Alcotest.(check bool) "positive" true (Fo.is_positive (p "R(x) & S(y)"));
  Alcotest.(check bool) "not positive" false (Fo.is_positive (p "!R(x)"));
  Alcotest.(check bool) "qf" true (Fo.is_quantifier_free (p "R(x) | S(x)"));
  Alcotest.(check bool) "not qf" false
    (Fo.is_quantifier_free (p "exists x. R(x)"))

(* ------------------------------------------------------------------ *)
(* Parser *)
(* ------------------------------------------------------------------ *)

let test_parse_roundtrip () =
  List.iter
    (fun s ->
      let f = p s in
      let f' = p (Fo.to_string f) in
      Alcotest.(check bool) ("roundtrip " ^ s) true (Fo.equal f f'))
    [
      "R(x)";
      "exists x. R(x)";
      "exists x y. R(x, y) & S(y)";
      "forall x. R(x) -> S(x)";
      "!R(1) | S(\"abc\")";
      "x = y";
      "R(#t, #f)";
      "true & false";
      "exists x. x = 3 & R(x)";
    ]

let test_parse_precedence () =
  (* a & b | c parses as (a & b) | c *)
  Alcotest.(check bool) "and binds tighter" true
    (Fo.equal (p "R(1) & S(1) | T(1)") (p "(R(1) & S(1)) | T(1)"));
  (* a -> b -> c is right associative *)
  Alcotest.(check bool) "implies right assoc" true
    (Fo.equal (p "R(1) -> S(1) -> T(1)") (p "R(1) -> (S(1) -> T(1))"));
  (* quantifier scopes to the end *)
  Alcotest.(check bool) "quantifier scope" true
    (Fo.equal (p "exists x. R(x) & S(x)") (p "exists x. (R(x) & S(x))"))

let test_parse_neq () =
  Alcotest.(check bool) "x != y is !(x = y)" true
    (Fo.equal (p "x != y") (Fo.Not (Fo.Eq (Fo.v "x", Fo.v "y"))))

let test_parse_errors () =
  List.iter
    (fun s ->
      match Fo_parse.parse s with
      | Ok _ -> Alcotest.failf "expected parse error for %S" s
      | Error _ -> ())
    [ ""; "R("; "R(x"; "exists . R(1)"; "R(x))"; "x ="; "&"; "R(x) &"; "\"unterminated" ]

(* ------------------------------------------------------------------ *)
(* Evaluation *)
(* ------------------------------------------------------------------ *)

let inst =
  Instance.of_list
    [
      Fact.make "R" [ i 1; i 2 ];
      Fact.make "R" [ i 2; i 3 ];
      Fact.make "S" [ i 3 ];
    ]

let test_eval_sentences () =
  let check s expected =
    Alcotest.(check bool) s expected (Fo_eval.models inst (p s))
  in
  check "exists x y. R(x, y)" true;
  check "exists x. R(x, x)" false;
  check "exists x. S(x)" true;
  check "S(3)" true;
  check "S(1)" false;
  check "exists x y. R(x, y) & S(y)" true;
  check "forall x. S(x) -> (exists y. R(y, x))" true;
  check "exists x. R(1, x) & R(x, 3)" true;
  check "forall x. S(x)" false;
  check "!S(1)" true;
  check "exists x. x = 1 & (exists y. R(x, y))" true;
  check "true" true;
  check "false" false

let test_eval_free_var_guard () =
  Alcotest.check_raises "free vars rejected"
    (Invalid_argument "Fo_eval.models: formula has free variables x")
    (fun () -> ignore (Fo_eval.models inst (p "R(x, x)")))

let test_eval_extra_domain () =
  (* forall over a larger domain can flip an answer. *)
  let phi = p "forall x. S(x) | (exists y. (R(x, y) | R(y, x)))" in
  Alcotest.(check bool) "true on adom" true (Fo_eval.models inst phi);
  Alcotest.(check bool) "false with extra element" false
    (Fo_eval.models ~extra_domain:[ i 99 ] inst phi)

let test_answers () =
  let xs, tuples = Fo_eval.answers inst (p "R(x, y) & S(y)") in
  Alcotest.(check (list string)) "vars" [ "x"; "y" ] xs;
  Alcotest.(check int) "one answer" 1 (Tuple.Set.cardinal tuples);
  Alcotest.(check bool) "(2,3)" true
    (Tuple.Set.mem [| i 2; i 3 |] tuples);
  (* sentence answer conventions *)
  let _, yes = Fo_eval.answers inst (p "exists x. S(x)") in
  Alcotest.(check int) "true sentence: empty tuple" 1 (Tuple.Set.cardinal yes);
  let _, no = Fo_eval.answers inst (p "S(1)") in
  Alcotest.(check int) "false sentence: empty set" 0 (Tuple.Set.cardinal no)

let test_answers_negation_activedomain () =
  (* !S(x) under active-domain semantics: answers restricted to the
     domain, so finite (Fact 2.1 / safety). *)
  let _, tuples = Fo_eval.answers inst (p "!S(x)") in
  Alcotest.(check int) "3 of 4 domain values minus S" 2
    (Tuple.Set.cardinal tuples)
(* domain is {1,2,3}: facts values; !S holds for 1 and 2 *)

(* ------------------------------------------------------------------ *)
(* Lineage *)
(* ------------------------------------------------------------------ *)

let alpha =
  Lineage.alphabet
    [
      Fact.make "R" [ i 1 ];
      Fact.make "R" [ i 2 ];
      Fact.make "S" [ i 2 ];
    ]

let test_lineage_atoms () =
  let lin = Lineage.of_sentence alpha (p "R(1)") in
  Alcotest.(check string) "single var" "x0" (Bool_expr.to_string lin);
  let lin = Lineage.of_sentence alpha (p "R(9)") in
  Alcotest.(check string) "absent fact" "false" (Bool_expr.to_string lin)

let test_lineage_exists () =
  let lin = Lineage.of_sentence alpha (p "exists x. R(x)") in
  (* over domain {1, 2}: x0 | x1 *)
  Alcotest.(check (list int)) "vars 0,1" [ 0; 1 ] (Bool_expr.vars lin);
  let lin2 = Lineage.of_sentence alpha (p "exists x. R(x) & S(x)") in
  (* only x=2 can satisfy both: R(2) & S(2) *)
  Alcotest.(check (list int)) "vars 1,2" [ 1; 2 ] (Bool_expr.vars lin2)

let test_lineage_semantics_vs_eval () =
  (* For every world over the alphabet, lineage eval = direct FO eval with
     the alphabet's domain. *)
  let facts = Lineage.facts alpha in
  let queries =
    [
      "exists x. R(x)";
      "exists x. R(x) & S(x)";
      "forall x. R(x) -> S(x)";
      "!(exists x. S(x))";
      "exists x y. R(x) & S(y) & x != y";
    ]
  in
  List.iter
    (fun qs ->
      let q = p qs in
      let lin = Lineage.of_sentence alpha q in
      let dom = Lineage.domain alpha q in
      List.iteri
        (fun mask () ->
          ignore mask)
        [];
      for mask = 0 to (1 lsl List.length facts) - 1 do
        let world =
          Instance.of_list
            (List.filteri (fun idx _ -> mask land (1 lsl idx) <> 0) facts)
        in
        let env v = Instance.mem (Lineage.fact_of_var alpha v) world in
        let expected =
          Fo_eval.models ~extra_domain:dom world q
        in
        Alcotest.(check bool)
          (Printf.sprintf "%s world %d" qs mask)
          expected (Bool_expr.eval env lin)
      done)
    queries

let test_lineage_free_vars () =
  Alcotest.check_raises "free var"
    (Invalid_argument "Lineage.of_sentence: formula has free variables x")
    (fun () -> ignore (Lineage.of_sentence alpha (p "R(x)")));
  let lin = Lineage.of_formula alpha [ ("x", i 2) ] (p "R(x)") in
  Alcotest.(check string) "bound" "x1" (Bool_expr.to_string lin)

(* The reference grounder: every quantifier expands over the whole
   domain (the alphabet's values, the formula's constants, [extra] and
   the bound values).  The production grounder expands only the values
   a quantifier's atoms can match plus one representative, and must
   give the same Boolean function under the same first-occurrence
   variable order. *)
let naive_lineage ?(extra = []) alpha bindings phi =
  let dom =
    List.sort_uniq Value.compare
      (List.concat_map Fact.args (Lineage.facts alpha)
      @ Fo.constants phi @ extra @ List.map snd bindings)
  in
  let value env = function Fo.Var x -> List.assoc x env | Fo.Const v -> v in
  let holds b = if b then Bool_expr.tru else Bool_expr.fls in
  let rec lin env = function
    | Fo.True -> Bool_expr.tru
    | Fo.False -> Bool_expr.fls
    | Fo.Atom (r, ts) -> (
      match Lineage.var_of_fact alpha (Fact.make r (List.map (value env) ts)) with
      | Some v -> Bool_expr.var v
      | None -> Bool_expr.fls)
    | Fo.Eq (s, t) -> holds (Value.equal (value env s) (value env t))
    | Fo.Cmp (op, s, t) ->
      let c = Value.compare (value env s) (value env t) in
      holds
        (match op with
        | Fo.Lt -> c < 0
        | Fo.Le -> c <= 0
        | Fo.Gt -> c > 0
        | Fo.Ge -> c >= 0)
    | Fo.Not f -> Bool_expr.neg (lin env f)
    | Fo.And (f, g) -> Bool_expr.and2 (lin env f) (lin env g)
    | Fo.Or (f, g) -> Bool_expr.or2 (lin env f) (lin env g)
    | Fo.Implies (f, g) -> Bool_expr.implies (lin env f) (lin env g)
    | Fo.Exists (x, f) -> Bool_expr.disj (List.map (fun v -> lin ((x, v) :: env) f) dom)
    | Fo.Forall (x, f) -> Bool_expr.conj (List.map (fun v -> lin ((x, v) :: env) f) dom)
  in
  lin bindings phi

(* The grounder against the reference: equal ROBDD roots in one manager,
   and the same first-occurrence order over the alphabet's variables. *)
let same_grounding ?extra ?(bindings = []) alpha phi =
  let got = Lineage.of_formula ?extra alpha bindings phi
  and want = naive_lineage ?extra alpha bindings phi in
  let vars = List.init (Lineage.alphabet_size alpha) Fun.id in
  let order_got = Wmc.first_occurrence_order [ got ]
  and order_want = Wmc.first_occurrence_order [ want ] in
  let m = Bdd.manager ~order:order_want () in
  Bdd.equal (Bdd.of_expr m got) (Bdd.of_expr m want)
  && List.map order_got vars = List.map order_want vars

let chain_alpha =
  (* perfbench's R/S/T core, four links, beside a P/E chain whose values
     only widen the domain *)
  let s k = Value.Str (Printf.sprintf "a%d" k)
  and t k = Value.Str (Printf.sprintf "b%d" k) in
  Lineage.alphabet
    (List.concat
       (List.init 4 (fun k ->
            [ Fact.make "R" [ s k ]; Fact.make "S" [ s k; t k ] ]
            @ (if k < 3 then [ Fact.make "S" [ s (k + 1); t k ] ] else [])
            @ [ Fact.make "T" [ t k ];
                Fact.make "P" [ i k ];
                Fact.make "E" [ i k; i (k + 1) ] ])))

let test_grounding_fixed () =
  let pads = [ Value.Str "\x00pad.0.0"; Value.Str "\x00pad.0.1" ] in
  List.iter
    (fun q ->
      Alcotest.(check bool) q true (same_grounding ~extra:pads chain_alpha (p q));
      Alcotest.(check bool) (q ^ " unpadded") true
        (same_grounding chain_alpha (p q)))
    [
      "exists x y. R(x) & S(x, y) & T(y)";
      "exists x y. R(x) & S(x, y) & T(y) & x != \"a2\"";
      "forall x. R(x) -> exists y. S(x, y) & T(y)";
      "forall y. T(y) -> exists x. R(x) & S(x, y)";
    ];
  let small =
    Lineage.alphabet
      [ Fact.make "R" [ i 1 ]; Fact.make "R" [ i 2 ]; Fact.make "R" [ i 5 ];
        Fact.make "S" [ i 1; i 2 ]; Fact.make "S" [ i 3; i 1 ] ]
  in
  List.iter
    (fun q ->
      Alcotest.(check bool) q true
        (same_grounding ~extra:[ i 7 ] small (p q)))
    [
      (* a non-candidate x reaches R through y: the Eq fallback *)
      "exists x y. x = y & R(y)";
      "exists x. x < 3 & R(x)";
      (* the order tells non-candidates apart: the Cmp fallback *)
      "exists x. x > 4 & S(3, 1)";
      (* only the representative holds *)
      "forall x. !R(x)";
      "exists x. !R(x)";
      "exists x y. S(x, y) & !R(y)";
      "forall x. exists y. S(x, y) | R(x)";
    ];
  let self = Lineage.alphabet [ Fact.make "R" [ i 1; i 1 ]; Fact.make "R" [ i 1; i 2 ] ] in
  Alcotest.(check bool) "exists x. R(x, x)" true
    (same_grounding self (p "exists x. R(x, x)"));
  Alcotest.(check bool) "of_formula with bindings" true
    (same_grounding ~bindings:[ ("x", Value.Str "a1"); ("w", i 9) ] chain_alpha
       (p "exists y. S(x, y) & T(y) & (R(x) | y = w)"))

let test_grounding_after_extend () =
  (* Grounding builds the alphabet's fact index (some positions' maps
     too); [extend] must carry the index along, so grounding over the
     extended alphabet equals grounding over a fresh one. *)
  let more =
    [ Fact.make "R" [ Value.Str "a9" ]; Fact.make "S" [ Value.Str "a9"; Value.Str "b0" ];
      Fact.make "S" [ Value.Str "a0"; Value.Str "b9" ]; Fact.make "T" [ Value.Str "b9" ] ]
  in
  let queries =
    List.map p
      [ "exists x y. R(x) & S(x, y) & T(y)";
        "forall x. R(x) -> exists y. S(x, y) & T(y)" ]
  in
  List.iter (fun q -> ignore (Lineage.of_sentence chain_alpha q)) queries;
  let extended = Lineage.extend chain_alpha more
  and fresh = Lineage.alphabet (Lineage.facts chain_alpha @ more) in
  List.iter
    (fun q ->
      Alcotest.(check string) (Fo.to_string q)
        (Bool_expr.to_string (Lineage.of_sentence fresh q))
        (Bool_expr.to_string (Lineage.of_sentence extended q)))
    queries

let test_grounding_tight () =
  (* x ranges over the S values plus the constant 0; y under x = k over
     its one S partner, the constant and one representative, never over
     the rest of the domain: 1 + 2 leaves at x = 0, 4 leaves at each of
     x = 1..5, one Or node; the whole domain would give 42 nodes. *)
  let alpha =
    Lineage.alphabet
      (Fact.make "R" [ i 0 ] :: List.init 5 (fun k -> Fact.make "S" [ i (k + 1); i (k + 1) ]))
  in
  let q = p "exists x y. S(x, y) | R(0)" in
  Alcotest.(check int) "grounded size" 23
    (Bool_expr.size (Lineage.of_sentence alpha q));
  Alcotest.(check int) "reference size" 42
    (Bool_expr.size (naive_lineage alpha [] q))

(* ------------------------------------------------------------------ *)
(* Safe plans *)
(* ------------------------------------------------------------------ *)

let test_safety_classification () =
  List.iter
    (fun (q, expected) ->
      Alcotest.(check bool) q expected (Safe_plan.is_safe (p q)))
    [
      ("exists x. R(x)", true);
      ("exists x. R(x, x)", true);
      ("exists x y. R(x, y)", true);
      ("exists x y. R(x) & S(x, y)", true);
      ("exists x y. R(x) & S(x, y) & T(y)", false) (* non-hierarchical *);
      ("exists x. R(x) & S(x)", true);
      ("exists x y. R(x) & S(y)", true) (* disconnected *);
      ("exists x y. R(x, y) & R(y, x)", false) (* entangled self-join *);
      ("exists x. R(x) | S(x)", true) (* UCQ: independent union *);
      ("exists x. !R(x)", false);
      ("R(1)", true);
      ("exists x. R(x) & x = 1", true) (* constant folded *);
      ("exists x. R(x) & x = 1 & x = 2", true) (* unsatisfiable: plan 0 *);
      ("exists x. R(x, 1) & R(x, 2)", true) (* position-consistent self-join *);
      ("(exists x. R(x) & S(x)) | (exists y. R(y) & T(y))", true)
      (* UCQ separator + inclusion-exclusion *);
      ("(exists x. R(x)) | (exists y. S(y) & T(y))", true);
      ("R(1) | (exists x. R(x) & S(x))", false) (* ground atom entangled *);
      ("forall x. R(x)", false);
    ]

let test_plan_shapes () =
  (* The certificate itself: rule structure, not just the verdict. *)
  let plan q =
    match Safe_plan.plan_of (p q) with
    | Some pl -> Safe_plan.plan_to_string pl
    | None -> "<none>"
  in
  Alcotest.(check bool) "union rule fires" true
    (String.length (plan "(exists x. R(x)) | (exists y. S(y))") > 0
    && String.sub (plan "(exists x. R(x)) | (exists y. S(y))") 0 5 = "union");
  Alcotest.(check string) "contradictory equalities plan to zero" "0"
    (plan "exists x. R(x) & x = 1 & x = 2");
  Alcotest.(check bool) "inclusion-exclusion fires" true
    (let s = plan "(exists x. R(x) & S(x)) | (exists y. R(y) & T(y))" in
     (* the shared R forces a UCQ separator whose body is incl-excl *)
     String.length s > 0
     && Option.is_some
          (String.index_opt s 'i' (* "incl-excl" occurs *))
     && String.sub s 0 7 = "project");
  Alcotest.(check string) "hard query has no plan" "<none>"
    (plan "exists x y. R(x) & S(x, y) & T(y)")

module SP = Safe_plan

let weight_of assoc f =
  Option.value (List.assoc_opt (Fact.to_string f) assoc) ~default:Rational.zero

let test_safe_plan_single_rel () =
  (* P(exists x. R(x)) = 1 - (1-1/2)(1-1/3) = 2/3 *)
  let facts = [ Fact.make "R" [ i 1 ]; Fact.make "R" [ i 2 ] ] in
  let w = weight_of [ ("R(1)", Rational.half); ("R(2)", Rational.of_ints 1 3) ] in
  match SP.probability ~weight:w ~facts (p "exists x. R(x)") with
  | Some pr -> Alcotest.(check string) "2/3" "2/3" (Rational.to_string pr)
  | None -> Alcotest.fail "safe query rejected"

let test_safe_plan_join () =
  (* P(exists x. R(x) & S(x)) with R(1)=1/2, S(1)=1/3, R(2)=1/4, S(2)=1/5:
     per value v: p_R(v) * p_S(v); 1 - (1 - 1/6)(1 - 1/20) = 1 - (5/6)(19/20)
     = 1 - 95/120 = 25/120 = 5/24. *)
  let facts =
    [
      Fact.make "R" [ i 1 ]; Fact.make "S" [ i 1 ];
      Fact.make "R" [ i 2 ]; Fact.make "S" [ i 2 ];
    ]
  in
  let w =
    weight_of
      [
        ("R(1)", Rational.half); ("S(1)", Rational.of_ints 1 3);
        ("R(2)", Rational.of_ints 1 4); ("S(2)", Rational.of_ints 1 5);
      ]
  in
  match SP.probability ~weight:w ~facts (p "exists x. R(x) & S(x)") with
  | Some pr -> Alcotest.(check string) "5/24" "5/24" (Rational.to_string pr)
  | None -> Alcotest.fail "safe query rejected"

let test_safe_plan_rejects_unsafe () =
  let facts = [ Fact.make "R" [ i 1 ]; Fact.make "S" [ i 1; i 2 ]; Fact.make "T" [ i 2 ] ] in
  let w _ = Rational.half in
  Alcotest.(check bool) "H0 rejected" true
    (SP.probability ~weight:w ~facts (p "exists x y. R(x) & S(x, y) & T(y)")
     = None);
  Alcotest.(check bool) "self join rejected" true
    (SP.probability ~weight:w ~facts (p "exists x y. S(x, y) & S(y, x)") = None)

let test_safe_plan_unsat_equalities () =
  (* Regression: the old collect silently picked one of two conflicting
     constant bindings and answered P(R(1)); the answer is 0. *)
  let facts = [ Fact.make "R" [ i 1 ]; Fact.make "R" [ i 2 ] ] in
  let w _ = Rational.half in
  match
    SP.probability ~weight:w ~facts (p "exists x. R(x) & x = 1 & x = 2")
  with
  | Some pr -> Alcotest.(check string) "0" "0" (Rational.to_string pr)
  | None -> Alcotest.fail "unsatisfiable query must answer 0, not fall back"

let test_safe_plan_duplicate_atoms () =
  (* Regression: equality substitution collapses R(x)[x:=1] and R(1) into
     syntactically identical duplicates — idempotent, not a self-join. *)
  let facts = [ Fact.make "R" [ i 1 ] ] in
  let w _ = Rational.half in
  match SP.probability ~weight:w ~facts (p "exists x. R(x) & x = 1 & R(1)") with
  | Some pr -> Alcotest.(check string) "1/2" "1/2" (Rational.to_string pr)
  | None -> Alcotest.fail "duplicate atoms must keep the fast path"

let test_safe_plan_union () =
  (* Independent union: P = 1 - (1 - 1/2)(1 - 1/3) = 2/3. *)
  let facts = [ Fact.make "R" [ i 1 ]; Fact.make "S" [ i 1 ] ] in
  let w = weight_of [ ("R(1)", Rational.half); ("S(1)", Rational.of_ints 1 3) ] in
  match
    SP.probability ~weight:w ~facts (p "(exists x. R(x)) | (exists y. S(y))")
  with
  | Some pr -> Alcotest.(check string) "2/3" "2/3" (Rational.to_string pr)
  | None -> Alcotest.fail "independent union rejected"

let test_safe_plan_incl_excl () =
  (* Shared relation forces a UCQ separator, then inclusion-exclusion per
     value: p = P(RS) + P(RT) - P(RST) = 1/6 + 1/8 - 1/24 = 1/4. *)
  let facts =
    [ Fact.make "R" [ i 1 ]; Fact.make "S" [ i 1 ]; Fact.make "T" [ i 1 ] ]
  in
  let w =
    weight_of
      [
        ("R(1)", Rational.half);
        ("S(1)", Rational.of_ints 1 3);
        ("T(1)", Rational.of_ints 1 4);
      ]
  in
  match
    SP.probability ~weight:w ~facts
      (p "(exists x. R(x) & S(x)) | (exists y. R(y) & T(y))")
  with
  | Some pr -> Alcotest.(check string) "1/4" "1/4" (Rational.to_string pr)
  | None -> Alcotest.fail "inclusion-exclusion rejected"

(* ------------------------------------------------------------------ *)
(* Properties *)
(* ------------------------------------------------------------------ *)

let arb_small_formula =
  (* random quantified boolean combinations over R/1, S/1 with constants
     from a tiny universe *)
  let open QCheck.Gen in
  let term = oneof [ map (fun n -> Fo.cint n) (int_range 1 3); return (Fo.v "x") ] in
  let rec gen n =
    if n = 0 then
      oneof
        [
          map (fun t -> Fo.atom "R" [ t ]) term;
          map (fun t -> Fo.atom "S" [ t ]) term;
        ]
    else
      frequency
        [
          (2, map (fun t -> Fo.atom "R" [ t ]) term);
          (2, map Fo.(fun f -> Not f) (gen (n - 1)));
          (3, map2 (fun f g -> Fo.And (f, g)) (gen (n / 2)) (gen (n / 2)));
          (3, map2 (fun f g -> Fo.Or (f, g)) (gen (n / 2)) (gen (n / 2)));
        ]
  in
  let sentence = map (fun f -> Fo.Exists ("x", f)) (gen 4) in
  QCheck.make ~print:Fo.to_string sentence

let alpha_props =
  Lineage.alphabet
    [
      Fact.make "R" [ i 1 ]; Fact.make "R" [ i 2 ]; Fact.make "R" [ i 3 ];
      Fact.make "S" [ i 1 ]; Fact.make "S" [ i 2 ];
    ]

let props =
  [
    QCheck.Test.make ~name:"parse . to_string = id" ~count:200
      arb_small_formula (fun f ->
        Fo.equal f (Fo_parse.parse_exn (Fo.to_string f)));
    QCheck.Test.make ~name:"lineage eval = FO eval on random worlds"
      ~count:100 arb_small_formula (fun q ->
        let lin = Lineage.of_sentence alpha_props q in
        let dom = Lineage.domain alpha_props q in
        let facts = Lineage.facts alpha_props in
        List.for_all
          (fun mask ->
            let world =
              Instance.of_list
                (List.filteri (fun idx _ -> mask land (1 lsl idx) <> 0) facts)
            in
            let env v = Instance.mem (Lineage.fact_of_var alpha_props v) world in
            Bool_expr.eval env lin
            = Fo_eval.models ~extra_domain:dom world q)
          [ 0; 1; 5; 12; 21; 31 ]);
    QCheck.Test.make ~name:"grounding = whole-domain reference" ~count:300
      QCheck.(make ~print:string_of_int (Gen.int_bound 1_000_000))
      (fun seed ->
        let g = Prng.create ~seed () in
        let cfg = Oracle_gen.default in
        let sch = Oracle_gen.schema cfg g in
        let facts = List.map fst (Oracle_gen.ti_facts cfg g sch) in
        let phi = Oracle_gen.sentence cfg g sch in
        let alpha = Lineage.alphabet facts in
        let extra = Query_eval.choose_padding facts [ phi ] in
        same_grounding ~extra alpha phi
        &&
        match phi with
        | Fo.Exists (x, body) | Fo.Forall (x, body) ->
          List.for_all
            (fun v -> same_grounding ~extra ~bindings:[ (x, v) ] alpha body)
            Oracle_gen.value_pool
        | _ -> true);
    QCheck.Test.make ~name:"substitute closes formulas" ~count:200
      arb_small_formula (fun q ->
        (* strip the quantifier to get a free-variable formula *)
        match q with
        | Fo.Exists (x, body) ->
          Fo.free_vars (Fo.substitute [ (x, i 1) ] body) = []
        | _ -> true);
  ]

(* Random rank-<=3 UCQs over a small schema, paired with a random small TI
   table: whenever the lifted engine answers, it must agree with the
   enumeration oracle by exact rational equality.  Disjuncts share
   relations often enough to exercise independent union, UCQ separators
   and inclusion-exclusion, not just single-CQ plans. *)
let arb_ucq_case =
  let open QCheck.Gen in
  let fact_pool =
    List.map (fun n -> Fact.make "R" [ i n ]) [ 1; 2; 3 ]
    @ List.map (fun n -> Fact.make "S" [ i n ]) [ 1; 2; 3 ]
    @ List.concat_map
        (fun a -> List.map (fun b -> Fact.make "T" [ i a; i b ]) [ 1; 2 ])
        [ 1; 2 ]
  in
  let rat = map (fun n -> Rational.of_ints n 8) (int_range 1 7) in
  let gen_table =
    list_size (int_range 1 8) (oneofl fact_pool) >>= fun fs ->
    let fs = List.sort_uniq Fact.compare fs in
    let rec probs = function
      | [] -> return []
      | f :: rest ->
        rat >>= fun pr ->
        probs rest >>= fun tl -> return ((f, pr) :: tl)
    in
    probs fs
  in
  let term vars =
    oneof
      (map (fun n -> Fo.cint n) (int_range 1 3)
      :: List.map (fun v -> return (Fo.v v)) vars)
  in
  let gen_atom vars =
    oneof
      [
        map (fun t -> Fo.atom "R" [ t ]) (term vars);
        map (fun t -> Fo.atom "S" [ t ]) (term vars);
        map2 (fun t u -> Fo.atom "T" [ t; u ]) (term vars) (term vars);
      ]
  in
  let gen_cq =
    int_range 1 3 >>= fun nv ->
    let vars = List.filteri (fun k _ -> k < nv) [ "x"; "y"; "z" ] in
    list_size (int_range 1 3) (gen_atom vars) >>= fun atoms ->
    oneof
      [
        return atoms;
        map
          (fun n -> Fo.Eq (Fo.v (List.hd vars), Fo.cint n) :: atoms)
          (int_range 1 3);
      ]
    >>= fun lits -> return (Fo.exists_many vars (Fo.conj lits))
  in
  let gen_case =
    gen_table >>= fun entries ->
    list_size (int_range 1 3) gen_cq >>= fun cqs ->
    return (Fo.disj cqs, entries)
  in
  let print (phi, entries) =
    Printf.sprintf "%s on {%s}" (Fo.to_string phi)
      (String.concat "; "
         (List.map
            (fun (f, pr) ->
              Fact.to_string f ^ " @ " ^ Rational.to_string pr)
            entries))
  in
  QCheck.make ~print gen_case

let ucq_props =
  [
    QCheck.Test.make ~name:"lifted UCQ = enumeration oracle (rank <= 3)"
      ~count:400 arb_ucq_case (fun (phi, entries) ->
        let ti = Ti_table.create entries in
        match Query_eval.boolean_safe ti phi with
        | None -> true (* routed to the grounded engines; nothing to check *)
        | Some pr -> Rational.equal pr (Query_eval.boolean_enum ti phi));
    QCheck.Test.make ~name:"planner verdict matches Query_eval.safe"
      ~count:400 arb_ucq_case (fun (phi, _) ->
        Query_eval.safe phi = (Safe_plan.plan_of phi <> None));
  ]

let () =
  Alcotest.run "logic"
    [
      ( "fo",
        [
          Alcotest.test_case "free vars" `Quick test_free_vars;
          Alcotest.test_case "quantifier rank" `Quick test_quantifier_rank;
          Alcotest.test_case "constants/relations" `Quick
            test_constants_relations;
          Alcotest.test_case "substitute" `Quick test_substitute;
          Alcotest.test_case "shapes" `Quick test_shapes;
        ] );
      ( "parser",
        [
          Alcotest.test_case "roundtrip" `Quick test_parse_roundtrip;
          Alcotest.test_case "precedence" `Quick test_parse_precedence;
          Alcotest.test_case "neq" `Quick test_parse_neq;
          Alcotest.test_case "errors" `Quick test_parse_errors;
        ] );
      ( "eval",
        [
          Alcotest.test_case "sentences" `Quick test_eval_sentences;
          Alcotest.test_case "free var guard" `Quick test_eval_free_var_guard;
          Alcotest.test_case "extra domain" `Quick test_eval_extra_domain;
          Alcotest.test_case "answers" `Quick test_answers;
          Alcotest.test_case "negation active domain" `Quick
            test_answers_negation_activedomain;
        ] );
      ( "lineage",
        [
          Alcotest.test_case "atoms" `Quick test_lineage_atoms;
          Alcotest.test_case "exists" `Quick test_lineage_exists;
          Alcotest.test_case "semantics" `Quick test_lineage_semantics_vs_eval;
          Alcotest.test_case "free vars" `Quick test_lineage_free_vars;
          Alcotest.test_case "grounding = reference" `Quick
            test_grounding_fixed;
          Alcotest.test_case "grounding is tight" `Quick test_grounding_tight;
          Alcotest.test_case "grounding after extend" `Quick
            test_grounding_after_extend;
        ] );
      ( "safe-plan",
        [
          Alcotest.test_case "classification" `Quick test_safety_classification;
          Alcotest.test_case "plan shapes" `Quick test_plan_shapes;
          Alcotest.test_case "single relation" `Quick test_safe_plan_single_rel;
          Alcotest.test_case "join" `Quick test_safe_plan_join;
          Alcotest.test_case "rejects unsafe" `Quick test_safe_plan_rejects_unsafe;
          Alcotest.test_case "unsat equalities" `Quick
            test_safe_plan_unsat_equalities;
          Alcotest.test_case "duplicate atoms" `Quick
            test_safe_plan_duplicate_atoms;
          Alcotest.test_case "independent union" `Quick test_safe_plan_union;
          Alcotest.test_case "inclusion-exclusion" `Quick
            test_safe_plan_incl_excl;
        ] );
      ("properties", List.map QCheck_alcotest.to_alcotest props);
      ("ucq-properties", List.map QCheck_alcotest.to_alcotest ucq_props);
    ]
