(* Cross-cutting law-based property tests: algebraic identities that tie
   several layers together, each a theorem-flavored invariant.

   - probability complement: P(!Q) = 1 - P(Q), exactly;
   - quantifier duality: forall x phi  <->  !(exists x. !phi);
   - monotonicity of positive queries in the fact probabilities;
   - open-world dominance: completing a PDB can only increase the
     probability of a positive existential query;
   - BDD boolean-algebra laws on random expressions, and a collection
     that recycles node slots never changes what an operation returns. *)

let i n = Value.Int n
let q = Rational.of_ints
let parse = Fo_parse.parse_exn

(* ------------------------------------------------------------------ *)
(* Generators *)
(* ------------------------------------------------------------------ *)

let arb_ti =
  let open QCheck.Gen in
  let gen =
    let* nr = int_range 1 3 in
    let* ns = int_range 1 3 in
    let* probs = list_repeat (nr + ns) (map (fun k -> q k 10) (int_range 1 9)) in
    let facts =
      List.init nr (fun k -> Fact.make "R" [ i k ])
      @ List.init ns (fun k -> Fact.make "S" [ i k ])
    in
    return (Ti_table.create (List.combine facts probs))
  in
  QCheck.make ~print:Ti_table.to_string gen

let arb_sentence =
  QCheck.oneofl
    (List.map parse
       [
         "exists x. R(x)";
         "exists x. R(x) & S(x)";
         "exists x y. R(x) & S(y)";
         "forall x. R(x) -> S(x)";
         "exists x. R(x) | S(x)";
         "exists x y. R(x) & S(y) & x != y";
         "exists x. R(x) & x >= 1";
       ])

let arb_positive_existential =
  QCheck.oneofl
    (List.map parse
       [
         "exists x. R(x)";
         "exists x. R(x) & S(x)";
         "exists x y. R(x) & S(y)";
         "exists x. R(x) | S(x)";
       ])

(* ------------------------------------------------------------------ *)
(* Laws *)
(* ------------------------------------------------------------------ *)

let prop_complement =
  QCheck.Test.make ~name:"P(!Q) = 1 - P(Q) exactly" ~count:150
    QCheck.(pair arb_ti arb_sentence)
    (fun (ti, phi) ->
      Rational.equal
        (Query_eval.boolean ti (Fo.Not phi))
        (Rational.compl (Query_eval.boolean ti phi)))

let prop_quantifier_duality =
  QCheck.Test.make ~name:"forall = not exists not (probabilistically)"
    ~count:100 arb_ti (fun ti ->
      let a = Query_eval.boolean ti (parse "forall x. R(x) -> S(x)") in
      let b =
        Query_eval.boolean ti (parse "!(exists x. R(x) & !S(x))")
      in
      Rational.equal a b)

let prop_or_inclusion_exclusion =
  QCheck.Test.make ~name:"P(A|B) = P(A)+P(B)-P(A&B) exactly" ~count:100
    arb_ti (fun ti ->
      let p s = Query_eval.boolean ti (parse s) in
      Rational.equal
        (p "(exists x. R(x)) | (exists x. S(x))")
        (Rational.sub
           (Rational.add (p "exists x. R(x)") (p "exists x. S(x)"))
           (p "(exists x. R(x)) & (exists x. S(x))")))

let prop_monotone_in_probabilities =
  QCheck.Test.make ~name:"raising a marginal raises positive queries"
    ~count:100
    QCheck.(triple arb_ti arb_positive_existential (int_range 0 2))
    (fun (ti, phi, which) ->
      match Ti_table.facts ti with
      | [] -> true
      | facts ->
        let f, p = List.nth facts (which mod List.length facts) in
        let bumped =
          Ti_table.add ti f
            (Rational.add p (Rational.div (Rational.compl p) (Rational.of_int 2)))
        in
        Rational.compare (Query_eval.boolean ti phi)
          (Query_eval.boolean bumped phi)
        <= 0)

let prop_adding_fact_monotone =
  QCheck.Test.make ~name:"adding a fact raises positive queries" ~count:100
    QCheck.(pair arb_ti arb_positive_existential)
    (fun (ti, phi) ->
      let extended = Ti_table.add ti (Fact.make "R" [ i 7 ]) (q 1 3) in
      Rational.compare (Query_eval.boolean ti phi)
        (Query_eval.boolean extended phi)
      <= 0)

let prop_open_world_dominates =
  QCheck.Test.make ~name:"completion raises positive existential queries"
    ~count:60
    QCheck.(pair arb_ti arb_positive_existential)
    (fun (ti, phi) ->
      let c =
        Completion.openpdb_lambda ~lambda:(q 1 6)
          ~new_facts:[ Fact.make "R" [ i 8 ]; Fact.make "S" [ i 8 ] ]
          ti
      in
      let closed = Query_eval.boolean ti phi in
      let opened =
        (Approx_eval.boolean (Completion.source c) ~eps:0.01 phi)
          .Approx_eval.estimate
      in
      Rational.compare closed opened <= 0)

let prop_cc_on_random_tables =
  QCheck.Test.make ~name:"(CC) exact for random tables and policies" ~count:40
    QCheck.(pair arb_ti (int_range 1 9))
    (fun (ti, k) ->
      let c =
        Completion.openpdb_lambda ~lambda:(q k 10)
          ~new_facts:[ Fact.make "N" [ i 0 ]; Fact.make "N" [ i 1 ] ]
          ti
      in
      Rational.is_zero (Completion.completion_condition_gap c ~n:2))

(* BDD boolean-algebra laws on random expressions. *)
let arb_expr =
  let open QCheck.Gen in
  let rec gen n =
    if n = 0 then oneof [ return Bool_expr.tru; map Bool_expr.var (int_range 0 4) ]
    else
      frequency
        [
          (2, map Bool_expr.var (int_range 0 4));
          (2, map Bool_expr.neg (gen (n - 1)));
          (3, map2 Bool_expr.and2 (gen (n / 2)) (gen (n / 2)));
          (3, map2 Bool_expr.or2 (gen (n / 2)) (gen (n / 2)));
        ]
  in
  QCheck.make ~print:Bool_expr.to_string (gen 5)

let prop_bdd_de_morgan =
  QCheck.Test.make ~name:"bdd de morgan" ~count:200
    QCheck.(pair arb_expr arb_expr)
    (fun (a, b) ->
      let m = Bdd.manager () in
      let da = Bdd.of_expr m a and db = Bdd.of_expr m b in
      Bdd.equal
        (Bdd.neg m (Bdd.conj m da db))
        (Bdd.disj m (Bdd.neg m da) (Bdd.neg m db)))

let prop_bdd_shannon =
  QCheck.Test.make ~name:"bdd shannon expansion" ~count:200
    QCheck.(pair arb_expr (int_range 0 4))
    (fun (a, v) ->
      let m = Bdd.manager () in
      let d = Bdd.of_expr m a in
      let hi = Bdd.restrict m d v true and lo = Bdd.restrict m d v false in
      let x = Bdd.var m v in
      Bdd.equal d (Bdd.disj m (Bdd.conj m x hi) (Bdd.conj m (Bdd.neg m x) lo)))

let prop_bdd_xor_self =
  QCheck.Test.make ~name:"bdd a xor a = false" ~count:200 arb_expr (fun a ->
      let m = Bdd.manager () in
      let d = Bdd.of_expr m a in
      Bdd.is_fls (Bdd.xor m d d))

let prop_wmc_total_probability =
  QCheck.Test.make ~name:"wmc law of total probability over one variable"
    ~count:150 arb_expr (fun a ->
      (* P(f) = p_v P(f|v) + (1-p_v) P(f|!v) for any v, via restrict *)
      let m = Bdd.manager () in
      let d = Bdd.of_expr m a in
      let weight k = Rational.of_ints (2 + (3 * k)) 20 in
      let count t = (Wmc.count ~weight [| t |]).(0) in
      let v = 2 in
      let p = count d in
      let p_hi = count (Bdd.restrict m d v true) in
      let p_lo = count (Bdd.restrict m d v false) in
      Rational.equal p
        (Rational.add
           (Rational.mul (weight v) p_hi)
           (Rational.mul (Rational.compl (weight v)) p_lo)))

(* Countable-original completion (Remark 5.6). *)
let test_complete_countable_ti () =
  let orig =
    Countable_ti.create
      (Fact_source.geometric ~first:Rational.half ~ratio:Rational.half
         ~facts:(fun k -> Fact.make "R" [ i k ])
         ())
  in
  let news =
    Fact_source.geometric ~first:(q 1 4) ~ratio:Rational.half
      ~facts:(fun k -> Fact.make "New" [ i k ])
      ()
  in
  let completed = Completion.complete_countable_ti orig news in
  (* marginals from both families survive *)
  (match Countable_ti.marginal completed (Fact.make "R" [ i 1 ]) with
   | Some p -> Alcotest.(check string) "orig marginal" "1/4" (Rational.to_string p)
   | None -> Alcotest.fail "orig marginal expected");
  (match Countable_ti.marginal completed (Fact.make "New" [ i 0 ]) with
   | Some p -> Alcotest.(check string) "new marginal" "1/4" (Rational.to_string p)
   | None -> Alcotest.fail "new marginal expected");
  (* expected size = 1 + 1/2 *)
  let lo, hi = Countable_ti.expected_size_bounds completed ~n:60 in
  Alcotest.(check bool) "E(S) = 3/2" true
    (lo <= 1.5 && 1.5 <= hi && hi -. lo < 1e-6);
  (* still a valid countable TI PDB: partition identity *)
  Alcotest.(check string) "partition" "1"
    (Rational.to_string (Countable_ti.partition_prefix_sum completed ~n:8));
  (* divergent news rejected *)
  Alcotest.(check bool) "divergent rejected" true
    (match
       Completion.complete_countable_ti orig
         (Fact_source.divergent_harmonic ~scale:Rational.one
            ~facts:(fun k -> Fact.make "H" [ i k ])
            ())
     with
     | exception Invalid_argument _ -> true
     | _ -> false)

(* A sweep frees node indices that the next allocations reuse, so it
   must also forget the operation cache: an entry keyed by freed indices
   would otherwise answer for the new nodes now sitting there.  Compile
   every pairwise connective over a few variables, release everything
   and collect, then allocate more fresh variables than the sweep freed
   (so every recycled slot, the first variables' slots included, holds a
   new variable) and build the same connectives over them: each must
   depend on exactly its two operands. *)
let test_bdd_gc_recycles_slots () =
  let m = Bdd.manager ~gc_threshold:1 () in
  let build vars =
    let nodes = List.map (fun v -> (v, Bdd.var m v)) vars in
    List.concat_map
      (fun (a, da) ->
        List.concat_map
          (fun (b, db) ->
            if a >= b then []
            else
              List.map
                (fun (name, op) -> (name, a, b, op m da db))
                [ ("conj", Bdd.conj); ("disj", Bdd.disj); ("xor", Bdd.xor) ])
          nodes)
      nodes
  in
  ignore (build [ 0; 1; 2; 3 ]);
  let freed = Bdd.maybe_gc m in
  Alcotest.(check bool) "the sweep freed the first diagrams" true (freed > 0);
  List.iter
    (fun (name, a, b, d) ->
      Alcotest.(check (list int))
        (Printf.sprintf "%s x%d x%d after gc" name a b)
        [ a; b ] (Bdd.support d))
    (build (List.init (freed + 4) (fun k -> 100 + k)))

let () =
  Alcotest.run "laws"
    [
      ( "countable-completion",
        [ Alcotest.test_case "remark 5.6" `Quick test_complete_countable_ti ] );
      ( "probability-laws",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_complement;
            prop_quantifier_duality;
            prop_or_inclusion_exclusion;
            prop_monotone_in_probabilities;
            prop_adding_fact_monotone;
            prop_open_world_dominates;
            prop_cc_on_random_tables;
          ] );
      ( "bdd-laws",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_bdd_de_morgan;
            prop_bdd_shannon;
            prop_bdd_xor_self;
            prop_wmc_total_probability;
          ]
        @ [
            Alcotest.test_case "gc then recycled slots" `Quick
              test_bdd_gc_recycles_slots;
          ] );
    ]
