(* The enumeration oracle itself, and the satellite checks that lean on
   it: Corollary 4.7 expected size, Proposition 3.4 tail decay, a
   chi-squared goodness-of-fit of the world sampler against the oracle's
   exact world probabilities, and the located-error paths of the parser
   and the corpus loader. *)

let i n = Value.Int n
let q = Rational.of_ints
let parse = Fo_parse.parse_exn
let rcheck = Alcotest.testable (Fmt.of_to_string Rational.to_string) Rational.equal

let table2 =
  [ (Fact.make "R" [ i 1 ], q 1 2); (Fact.make "R" [ i 2 ], q 1 4) ]

(* ------------------------------------------------------------------ *)
(* Universe construction *)
(* ------------------------------------------------------------------ *)

let test_ti_universe () =
  let u = Oracle.of_ti_facts table2 in
  Alcotest.(check int) "worlds" 4 (Oracle.num_worlds u);
  Alcotest.check rcheck "mass" Rational.one (Oracle.mass u);
  Alcotest.check rcheck "marginal R(1)" (q 1 2)
    (Oracle.marginal u (Fact.make "R" [ i 1 ]));
  Alcotest.check rcheck "E(S_D) = sum p_f" (q 3 4) (Oracle.expected_size u);
  (* P(exists x. R(x)) = 1 - 1/2 * 3/4 = 5/8, same in both semantics. *)
  let phi = parse "exists x. R(x)" in
  Alcotest.check rcheck "exists truncated" (q 5 8)
    (Oracle.query_prob ~semantics:Oracle.Truncated u phi);
  Alcotest.check rcheck "exists limit" (q 5 8)
    (Oracle.query_prob ~semantics:Oracle.Limit u phi);
  (* forall x. R(x): 1/8 on the truncated domain {1, 2}; 0 in the limit
     (the padding value is never in R). *)
  let all = parse "forall x. R(x)" in
  Alcotest.check rcheck "forall truncated" (q 1 8)
    (Oracle.query_prob ~semantics:Oracle.Truncated u all);
  Alcotest.check rcheck "forall limit" Rational.zero
    (Oracle.query_prob ~semantics:Oracle.Limit u all)

let test_ti_rejects () =
  Alcotest.check_raises "duplicate fact"
    (Invalid_argument "Oracle.of_ti_facts: duplicate fact R(1)")
    (fun () ->
      ignore
        (Oracle.of_ti_facts
           [ (Fact.make "R" [ i 1 ], q 1 2); (Fact.make "R" [ i 1 ], q 1 4) ]));
  (match
     Oracle.of_ti_facts [ (Fact.make "R" [ i 1 ], q 3 2) ]
   with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "probability above 1 accepted");
  match
    Oracle.of_ti_facts (List.init 17 (fun k -> (Fact.make "R" [ i k ], q 1 2)))
  with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "17 facts accepted"

let test_bid_universe () =
  let blocks =
    [
      ("b0", [ (Fact.make "R" [ i 1 ], q 1 2); (Fact.make "R" [ i 2 ], q 1 4) ]);
      ("b1", [ (Fact.make "S" [ i 1 ], q 1 3) ]);
    ]
  in
  let u = Oracle.of_bid_blocks blocks in
  (* 3 options for b0 (two alternatives + slack) x 2 for b1. *)
  Alcotest.(check int) "worlds" 6 (Oracle.num_worlds u);
  Alcotest.check rcheck "mass" Rational.one (Oracle.mass u);
  Alcotest.check rcheck "marginal" (q 1 4)
    (Oracle.marginal u (Fact.make "R" [ i 2 ]));
  (* Within-block exclusivity. *)
  Alcotest.check rcheck "exclusive" Rational.zero
    (Oracle.query_prob u (parse "R(1) & R(2)"));
  Alcotest.check rcheck "E(S)" (q 13 12) (Oracle.expected_size u)

let test_condition () =
  let u = Oracle.of_ti_facts table2 in
  let c =
    Oracle.condition u (fun inst -> Instance.mem (Fact.make "R" [ i 1 ]) inst)
  in
  Alcotest.check rcheck "conditional mass" Rational.one (Oracle.mass c);
  Alcotest.check rcheck "P(R(2) | R(1)) = P(R(2))" (q 1 4)
    (Oracle.marginal c (Fact.make "R" [ i 2 ]))

let test_enclosure () =
  let u = Oracle.of_ti_facts ~tail:(q 1 8) table2 in
  let e = Oracle.enclosure u (parse "exists x. R(x)") in
  Alcotest.check rcheck "width = tail" (q 1 8) (Oracle.width e);
  Alcotest.check rcheck "lo = cond * (1 - tail)"
    (Rational.mul (q 5 8) (q 7 8))
    e.Oracle.lo;
  Alcotest.(check bool) "not exact" true (Option.is_none (Oracle.exact e));
  let u0 = Oracle.of_ti_facts table2 in
  let e0 = Oracle.enclosure u0 (parse "exists x. R(x)") in
  (match Oracle.exact e0 with
  | Some v -> Alcotest.check rcheck "exact when tail 0" (q 5 8) v
  | None -> Alcotest.fail "tail-0 enclosure not exact")

let test_float_comparisons () =
  Alcotest.(check bool) "nan never le" false
    (Oracle.float_le_rational Float.nan Rational.one);
  Alcotest.(check bool) "nan never ge" false
    (Oracle.rational_le_float Rational.zero Float.nan);
  Alcotest.(check bool) "neg_inf le" true
    (Oracle.float_le_rational Float.neg_infinity Rational.zero);
  Alcotest.(check bool) "le inf" true
    (Oracle.rational_le_float Rational.one Float.infinity);
  (* 0.1 the float is strictly above 1/10 the rational: the comparison
     must be exact, not within some epsilon. *)
  Alcotest.(check bool) "0.1 > 1/10 exactly" false
    (Oracle.float_le_rational 0.1 (q 1 10))

(* ------------------------------------------------------------------ *)
(* Size distribution: Corollary 4.7 and Proposition 3.4 *)
(* ------------------------------------------------------------------ *)

let arb_ti_facts =
  let open QCheck.Gen in
  let gen =
    let* n = int_range 1 6 in
    let* probs = list_repeat n (map (fun k -> q k 12) (int_range 0 12)) in
    return (List.mapi (fun k p -> (Fact.make "R" [ i k ], p)) probs)
  in
  QCheck.make
    ~print:(fun fs ->
      String.concat "; "
        (List.map
           (fun (f, p) ->
             Fact.to_string f ^ " " ^ Rational.to_string p)
           fs))
    gen

let prop_expected_size =
  QCheck.Test.make ~name:"Corollary 4.7: E(S_D) = sum p_f exactly" ~count:100
    arb_ti_facts (fun facts ->
      let u = Oracle.of_ti_facts facts in
      Rational.equal (Oracle.expected_size u)
        (Rational.sum (List.map snd facts)))

let prop_size_tail =
  QCheck.Test.make
    ~name:"Proposition 3.4: Pr(S_D >= n) is antitone and hits 0" ~count:100
    arb_ti_facts (fun facts ->
      let u = Oracle.of_ti_facts facts in
      let worlds = Oracle.worlds u in
      let tails =
        List.init (List.length facts + 2) (fun n ->
            Size_dist.tail_size_probability worlds n)
      in
      (* antitone in n, total mass at n = 0, and exactly 0 beyond the
         largest possible world. *)
      let rec antitone = function
        | a :: (b :: _ as rest) -> Rational.(b <= a) && antitone rest
        | _ -> true
      in
      antitone tails
      && Rational.is_one (List.hd tails)
      && Rational.is_zero (List.nth tails (List.length facts + 1)))

let test_size_distribution_consistency () =
  let u = Oracle.of_ti_facts table2 in
  let dist = Oracle.size_distribution u in
  Alcotest.check rcheck "sums to 1" Rational.one
    (Rational.sum (List.map snd dist));
  let mean =
    Rational.sum
      (List.map (fun (k, p) -> Rational.mul (Rational.of_int k) p) dist)
  in
  Alcotest.check rcheck "mean matches" (Oracle.expected_size u) mean;
  (* Against the independent Size_dist computation. *)
  let worlds = Oracle.worlds u in
  List.iter
    (fun n ->
      let tail_direct = Size_dist.tail_size_probability worlds n in
      let tail_dist =
        Rational.sum
          (List.filter_map
             (fun (k, p) -> if k >= n then Some p else None)
             dist)
      in
      Alcotest.check rcheck
        (Printf.sprintf "Pr(S >= %d)" n)
        tail_direct tail_dist)
    [ 0; 1; 2; 3 ]

(* ------------------------------------------------------------------ *)
(* Chi-squared goodness of fit: sampler vs oracle *)
(* ------------------------------------------------------------------ *)

let test_sampler_chi_squared () =
  let facts =
    [
      (Fact.make "R" [ i 1 ], q 1 2);
      (Fact.make "R" [ i 2 ], q 1 4);
      (Fact.make "S" [ i 1 ], q 3 4);
      (Fact.make "S" [ i 2 ], q 1 3);
    ]
  in
  let ti = Ti_table.create facts in
  let u = Oracle.of_ti_facts facts in
  let key inst =
    Instance.to_set inst |> Fact.Set.elements |> List.map Fact.to_string
    |> String.concat ";"
  in
  let expected = List.map (fun (w, p) -> (key w, p)) (Oracle.worlds u) in
  Alcotest.(check int) "16 worlds" 16 (List.length expected);
  let samples = 20_000 in
  let counts = Hashtbl.create 16 in
  let g = Prng.create ~seed:1234 () in
  for _ = 1 to samples do
    let k = key (Ti_table.sample ti g) in
    Hashtbl.replace counts k (1 + Option.value ~default:0 (Hashtbl.find_opt counts k))
  done;
  (* Every sampled world must be a world of the oracle. *)
  Hashtbl.iter
    (fun k _ ->
      if not (List.mem_assoc k expected) then
        Alcotest.fail ("sampler produced an impossible world: " ^ k))
    counts;
  let chi2 =
    List.fold_left
      (fun acc (k, p) ->
        let np = float_of_int samples *. Rational.to_float p in
        let obs = float_of_int (Option.value ~default:0 (Hashtbl.find_opt counts k)) in
        acc +. (((obs -. np) ** 2.0) /. np))
      0.0 expected
  in
  (* 0.999 quantile of chi-squared with df = 15 is 37.70; the seed is
     fixed, so this either always passes or never does. *)
  if chi2 >= 37.70 then
    Alcotest.fail
      (Printf.sprintf "chi-squared %.2f exceeds the 0.999 quantile 37.70" chi2)

(* ------------------------------------------------------------------ *)
(* Located errors: parser, safe plans, corpus loader *)
(* ------------------------------------------------------------------ *)

let test_parser_errors () =
  List.iter
    (fun s ->
      match Fo_parse.parse s with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail (Printf.sprintf "%S parsed" s))
    [
      "exists x R(x)";
      "R(";
      "x =";
      ")";
      "forall . R(x)";
      "exists x. R(x) &";
      "R(x) | | S(x)";
    ];
  (* and the error message carries a position *)
  match Fo_parse.parse "exists x R(x)" with
  | Error msg ->
    let has_digit = String.exists (fun c -> c >= '0' && c <= '9') msg in
    Alcotest.(check bool) "error is located" true has_digit
  | Ok _ -> Alcotest.fail "parsed"

let test_safe_plan_fallback () =
  let ti =
    Ti_table.create
      [
        (Fact.make "R" [ i 1 ], q 1 2);
        (Fact.make "S" [ i 1; i 2 ], q 1 2);
        (Fact.make "T" [ i 2 ], q 1 2);
      ]
  in
  (* The canonical unsafe query H0 falls back (None) ... *)
  let h0 = parse "exists x y. R(x) & S(x, y) & T(y)" in
  Alcotest.(check bool) "H0 is unsafe" true
    (Option.is_none (Query_eval.boolean_safe ti h0));
  (* ... and the BDD fallback still matches the oracle exactly. *)
  let u = Oracle.of_ti_table ti in
  Alcotest.check rcheck "fallback matches oracle" (Oracle.query_prob u h0)
    (Query_eval.boolean ti h0);
  (* A hierarchical CQ takes the safe plan and agrees too. *)
  let safe = parse "exists x. R(x)" in
  match Query_eval.boolean_safe ti safe with
  | None -> Alcotest.fail "hierarchical query not planned"
  | Some p -> Alcotest.check rcheck "plan matches oracle" (Oracle.query_prob u safe) p

let test_corpus_loader_errors () =
  let located lines expect_frag =
    match Fuzzer.of_lines ~file:"bad.case" lines with
    | exception Invalid_argument msg ->
      Alcotest.(check bool)
        (Printf.sprintf "%S in %S" expect_frag msg)
        true
        (let nl = String.length expect_frag and ml = String.length msg in
         let rec go i =
           i + nl <= ml && (String.sub msg i nl = expect_frag || go (i + 1))
         in
         go 0)
    | _ -> Alcotest.fail "malformed corpus accepted"
  in
  located [ "kind ti"; "query exists x. R(x)"; "frobnicate 3" ] "bad.case:3";
  located [ "kind nope"; "query true" ] "bad.case:1";
  located [ "kind ti"; "query exists x R(x)" ] "bad.case:2";
  located [ "query true" ] "no kind";
  located [ "kind ti" ] "no query";
  located [ "kind ti"; "query true"; "ti R(1) garbage" ] "bad.case";
  (* arity mismatch inside a table line is caught by the table parser *)
  located [ "kind ti"; "query true"; "ti R(1 2/3" ] "bad.case"

let () =
  Alcotest.run "oracle"
    [
      ( "universes",
        [
          Alcotest.test_case "TI enumeration" `Quick test_ti_universe;
          Alcotest.test_case "TI rejections" `Quick test_ti_rejects;
          Alcotest.test_case "BID enumeration" `Quick test_bid_universe;
          Alcotest.test_case "conditioning" `Quick test_condition;
          Alcotest.test_case "tail enclosure" `Quick test_enclosure;
          Alcotest.test_case "float comparisons" `Quick test_float_comparisons;
        ] );
      ( "size",
        Alcotest.test_case "size distribution consistency" `Quick
          test_size_distribution_consistency
        :: List.map QCheck_alcotest.to_alcotest
             [ prop_expected_size; prop_size_tail ] );
      ( "statistics",
        [ Alcotest.test_case "sampler chi-squared" `Quick test_sampler_chi_squared ] );
      ( "errors",
        [
          Alcotest.test_case "parser errors" `Quick test_parser_errors;
          Alcotest.test_case "safe plan fallback" `Quick test_safe_plan_fallback;
          Alcotest.test_case "corpus loader errors" `Quick test_corpus_loader_errors;
        ] );
    ]
