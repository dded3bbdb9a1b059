(* Tests for the finite-PDB core: TI tables, BID tables, explicit world
   tables (views, conditioning, products) and the four query engines. *)

let i n = Value.Int n
let q = Rational.of_ints
let fact r args = Fact.make r (List.map i args)
let parse = Fo_parse.parse_exn

let check_q msg expected actual =
  Alcotest.(check string) msg (Rational.to_string expected)
    (Rational.to_string actual)

(* A small reference TI table used throughout. *)
let ti =
  Ti_table.create
    [
      (fact "R" [ 1 ], q 1 2);
      (fact "R" [ 2 ], q 1 3);
      (fact "S" [ 1 ], q 1 4);
      (fact "S" [ 2 ], q 1 5);
    ]

(* ------------------------------------------------------------------ *)
(* Ti_table *)
(* ------------------------------------------------------------------ *)

let test_ti_basics () =
  Alcotest.(check int) "size" 4 (Ti_table.size ti);
  check_q "prob" (q 1 3) (Ti_table.prob ti (fact "R" [ 2 ]));
  check_q "absent" Rational.zero (Ti_table.prob ti (fact "R" [ 9 ]));
  check_q "expected size" (q 77 60) (Ti_table.expected_instance_size ti);
  Alcotest.(check int) "adom" 2 (List.length (Ti_table.active_domain ti))

let test_ti_validation () =
  Alcotest.check_raises "dup"
    (Invalid_argument "Ti_table: duplicate fact R(1)") (fun () ->
      ignore (Ti_table.create [ (fact "R" [ 1 ], q 1 2); (fact "R" [ 1 ], q 1 3) ]));
  Alcotest.check_raises "range"
    (Invalid_argument "Ti_table: probability 3/2 out of range for R(1)")
    (fun () -> ignore (Ti_table.create [ (fact "R" [ 1 ], q 3 2) ]));
  (* zero-probability facts are dropped *)
  let t = Ti_table.create [ (fact "R" [ 1 ], Rational.zero) ] in
  Alcotest.(check int) "zero dropped" 0 (Ti_table.size t)

let test_ti_schema_validation () =
  let schema = Schema.make [ Schema.relation "R" 1 ] in
  Alcotest.check_raises "nonconforming"
    (Invalid_argument "Ti_table: fact R(1, 2) does not conform to the schema")
    (fun () -> ignore (Ti_table.create ~schema [ (fact "R" [ 1; 2 ], q 1 2) ]))

let test_ti_worlds_sum_to_one () =
  let total =
    Seq.fold_left
      (fun acc (_, p) -> Rational.add acc p)
      Rational.zero (Ti_table.worlds ti)
  in
  check_q "partition" Rational.one total;
  Alcotest.(check int) "2^4 worlds" 16 (Seq.length (Ti_table.worlds ti))

let test_ti_world_probability () =
  let w = Instance.of_list [ fact "R" [ 1 ] ] in
  (* 1/2 * 2/3 * 3/4 * 4/5 = 1/5 *)
  check_q "P({R(1)})" (q 1 5) (Ti_table.world_probability ti w);
  check_q "foreign fact" Rational.zero
    (Ti_table.world_probability ti (Instance.of_list [ fact "Z" [ 0 ] ]))

let test_ti_marginal_consistency () =
  List.iter
    (fun (f, p) -> check_q (Fact.to_string f) p (Ti_table.marginal_check ti f))
    (Ti_table.facts ti)

let test_ti_sampling_marginals () =
  let g = Prng.create ~seed:99 () in
  let n = 40_000 in
  let hits = ref 0 in
  for _ = 1 to n do
    if Instance.mem (fact "R" [ 1 ]) (Ti_table.sample ti g) then incr hits
  done;
  let frac = float_of_int !hits /. float_of_int n in
  Alcotest.(check bool) "~1/2" true (Float.abs (frac -. 0.5) < 0.02)

let test_ti_text_format () =
  let lines = String.split_on_char '\n' (Ti_table.to_string ti) in
  let ti' = Ti_table.of_lines lines in
  Alcotest.(check int) "same size" (Ti_table.size ti) (Ti_table.size ti');
  List.iter
    (fun (f, p) -> check_q (Fact.to_string f) p (Ti_table.prob ti' f))
    (Ti_table.facts ti);
  let ti'' = Ti_table.of_lines [ "# comment"; ""; "R(1) 0.25" ] in
  check_q "decimal prob" (q 1 4) (Ti_table.prob ti'' (fact "R" [ 1 ]))

let test_ti_of_file () =
  let path = Filename.temp_file "iowpdb" ".ti" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  let oc = open_out path in
  output_string oc (Ti_table.to_string ti);
  close_out oc;
  let ti' = Ti_table.of_file path in
  Alcotest.(check int) "roundtrip size" (Ti_table.size ti) (Ti_table.size ti');
  List.iter
    (fun (f, p) -> check_q (Fact.to_string f) p (Ti_table.prob ti' f))
    (Ti_table.facts ti)

let test_ti_of_file_no_leak () =
  (* Regression: a malformed table used to leave the input channel open;
     repeated failing loads exhausted the fd table. *)
  let bad = Filename.temp_file "iowpdb" ".ti" in
  Fun.protect ~finally:(fun () -> Sys.remove bad) @@ fun () ->
  let oc = open_out bad in
  output_string oc "R(1) not-a-probability\n";
  close_out oc;
  let fd_count () =
    if Sys.file_exists "/proc/self/fd" then
      Some (Array.length (Sys.readdir "/proc/self/fd"))
    else None
  in
  let before = fd_count () in
  for _ = 1 to 64 do
    match Ti_table.of_file bad with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.fail "malformed table must be rejected"
  done;
  Alcotest.(check (option int)) "no fd leak" before (fd_count ())

let test_ti_of_file_streaming_large () =
  (* The parser streams line by line: a multi-MB generated table loads
     without ever materializing the file, and errors deep in the file
     still cite path:line.  (Correctness at scale is what's assertable;
     the O(longest line) peak is by construction — no line list.) *)
  let n = 60_000 in
  let path = Filename.temp_file "iowpdb_large" ".ti" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  let oc = open_out path in
  output_string oc "# generated table\n";
  for j = 1 to n do
    Printf.fprintf oc "R(%d, \"pad_%016d\") %d/%d\n" j j j (2 * n)
  done;
  close_out oc;
  Alcotest.(check bool)
    "file is multi-MB" true
    ((Unix.stat path).Unix.st_size > 2_000_000);
  let t = Ti_table.of_file path in
  Alcotest.(check int) "size" n (Ti_table.size t);
  check_q "first" (q 1 (2 * n))
    (Ti_table.prob t
       (Fact.make "R" [ i 1; Value.Str (Printf.sprintf "pad_%016d" 1) ]));
  check_q "last" Rational.half
    (Ti_table.prob t
       (Fact.make "R" [ i n; Value.Str (Printf.sprintf "pad_%016d" n) ]));
  (* A malformed line deep in the file is still located precisely. *)
  let oc = open_out_gen [ Open_append ] 0o644 path in
  output_string oc "R(0) 3/2\n";
  close_out oc;
  match Ti_table.of_file path with
  | _ -> Alcotest.fail "expected a parse error"
  | exception Invalid_argument msg ->
    Alcotest.(check bool)
      (Printf.sprintf "cites line %d in %S" (n + 2) msg)
      true
      (Helpers.contains msg
         (Printf.sprintf "%s:%d" path (n + 2)))

let contains = Helpers.contains

let expect_parse_error name lines needles =
  match Ti_table.of_lines ~file:"t.ti" lines with
  | _ -> Alcotest.failf "%s: expected a parse error" name
  | exception Invalid_argument msg ->
    List.iter
      (fun needle ->
        Alcotest.(check bool)
          (Printf.sprintf "%s mentions %S in %S" name needle msg)
          true (contains msg needle))
      needles

let test_ti_located_errors () =
  (* Errors cite the file and the 1-based line an editor shows; blank
     lines and comments count. *)
  expect_parse_error "bad probability" [ "# header"; ""; "R(1) nope" ]
    [ "t.ti:3"; "bad probability" ];
  expect_parse_error "no fact" [ "R(1) 1/2"; "garbage" ] [ "t.ti:2" ];
  expect_parse_error "out of range" [ "R(1) 3/2" ] [ "t.ti:1"; "out of range" ];
  expect_parse_error "missing probability" [ "R(1)" ] [ "t.ti:1" ];
  (* without a file name the location degrades to "line N" *)
  match Ti_table.of_lines [ "R(1) nope" ] with
  | _ -> Alcotest.fail "expected a parse error"
  | exception Invalid_argument msg ->
    Alcotest.(check bool) "line number" true (contains msg "line 1")

let test_ti_duplicate_policy () =
  (* Same fact, same probability: harmless redundancy, collapses. *)
  let ti = Ti_table.of_lines [ "R(1) 1/2"; "R(1) 0.5" ] in
  Alcotest.(check int) "collapsed" 1 (Ti_table.size ti);
  check_q "kept once" (q 1 2) (Ti_table.prob ti (fact "R" [ 1 ]));
  (* Same fact, different probability: a contradiction, rejected with
     both line numbers. *)
  expect_parse_error "contradictory duplicate"
    [ "R(1) 1/2"; "# sep"; "R(1) 1/3" ]
    [ "t.ti:3"; "duplicate fact R(1)"; "at line 1" ]

let expect_bid_parse_error name lines needles =
  match Bid_table.of_lines ~file:"b.bid" lines with
  | _ -> Alcotest.failf "%s: expected a parse error" name
  | exception Invalid_argument msg ->
    List.iter
      (fun needle ->
        Alcotest.(check bool)
          (Printf.sprintf "%s mentions %S in %S" name needle msg)
          true (contains msg needle))
      needles

let test_bid_parser_errors () =
  expect_bid_parse_error "bad probability"
    [ "# header"; "b1: R(1) nope" ]
    [ "b.bid:2"; "bad probability" ];
  expect_bid_parse_error "no block prefix" [ "garbage" ]
    [ "b.bid:1"; "block_id" ];
  expect_bid_parse_error "contradictory duplicate in block"
    [ "b1: R(1) 1/2 | R(1) 1/3" ]
    [ "b.bid:1"; "duplicate fact R(1)" ];
  (* same-probability repeats collapse, mirroring Ti_table *)
  let b = Bid_table.of_lines [ "b1: R(1) 1/4 | R(1) 1/4" ] in
  Alcotest.(check int) "collapsed" 1 (Bid_table.size b)

(* ------------------------------------------------------------------ *)
(* Bid_table *)
(* ------------------------------------------------------------------ *)

let bid =
  Bid_table.create
    [
      {
        Bid_table.block_id = "b1";
        alternatives = [ (fact "R" [ 1 ], q 1 2); (fact "R" [ 2 ], q 1 3) ];
      };
      { Bid_table.block_id = "b2"; alternatives = [ (fact "S" [ 1 ], q 1 4) ] };
    ]

let test_bid_basics () =
  Alcotest.(check int) "support" 3 (Bid_table.size bid);
  Alcotest.(check int) "blocks" 2 (Bid_table.num_blocks bid);
  check_q "slack b1" (q 1 6) (Bid_table.block_slack bid "b1");
  check_q "slack b2" (q 3 4) (Bid_table.block_slack bid "b2");
  Alcotest.(check (option string)) "block of" (Some "b1")
    (Bid_table.block_of_fact bid (fact "R" [ 2 ]))

let test_bid_validation () =
  Alcotest.check_raises "over mass"
    (Invalid_argument "Bid_table: block b sums to 7/6 > 1") (fun () ->
      ignore
        (Bid_table.create
           [
             {
               Bid_table.block_id = "b";
               alternatives =
                 [ (fact "R" [ 1 ], q 1 2); (fact "R" [ 2 ], q 2 3) ];
             };
           ]));
  Alcotest.check_raises "dup fact"
    (Invalid_argument "Bid_table: fact R(1) occurs twice") (fun () ->
      ignore
        (Bid_table.create
           [
             { Bid_table.block_id = "a"; alternatives = [ (fact "R" [ 1 ], q 1 3) ] };
             { Bid_table.block_id = "b"; alternatives = [ (fact "R" [ 1 ], q 1 3) ] };
           ]))

let test_bid_worlds () =
  let ws = List.of_seq (Bid_table.worlds bid) in
  (* (2 alternatives + 1) * (1 + 1) = 6 worlds *)
  Alcotest.(check int) "6 worlds" 6 (List.length ws);
  let total = List.fold_left (fun acc (_, p) -> Rational.add acc p) Rational.zero ws in
  check_q "partition" Rational.one total;
  (* exclusivity: no world has both R(1) and R(2) *)
  Alcotest.(check bool) "exclusive" true
    (List.for_all
       (fun (w, _) ->
         not (Instance.mem (fact "R" [ 1 ]) w && Instance.mem (fact "R" [ 2 ]) w))
       ws)

let test_bid_world_probability () =
  (* P({R(1), S(1)}) = 1/2 * 1/4 = 1/8 *)
  check_q "good world" (q 1 8)
    (Bid_table.world_probability bid
       (Instance.of_list [ fact "R" [ 1 ]; fact "S" [ 1 ] ]));
  (* P({}) = slack(b1) * slack(b2) = 1/6 * 3/4 = 1/8 *)
  check_q "empty world" (q 1 8) (Bid_table.world_probability bid Instance.empty);
  (* bad: two facts from b1 *)
  check_q "bad world" Rational.zero
    (Bid_table.world_probability bid
       (Instance.of_list [ fact "R" [ 1 ]; fact "R" [ 2 ] ]))

let test_bid_marginals_against_worlds () =
  List.iter
    (fun f ->
      let direct = Bid_table.prob bid f in
      let from_worlds =
        Seq.fold_left
          (fun acc (w, p) -> if Instance.mem f w then Rational.add acc p else acc)
          Rational.zero (Bid_table.worlds bid)
      in
      check_q (Fact.to_string f) direct from_worlds)
    (Bid_table.support bid)

let test_bid_sampling_exclusivity () =
  let g = Prng.create ~seed:7 () in
  for _ = 1 to 2000 do
    let w = Bid_table.sample bid g in
    if Instance.mem (fact "R" [ 1 ]) w && Instance.mem (fact "R" [ 2 ]) w then
      Alcotest.fail "sampled world violates block exclusivity"
  done

let test_bid_of_ti () =
  let b = Bid_table.of_ti ti in
  Alcotest.(check int) "singleton blocks" (Ti_table.size ti)
    (Bid_table.num_blocks b)

(* ------------------------------------------------------------------ *)
(* Finite_pdb *)
(* ------------------------------------------------------------------ *)

let test_finite_create_validation () =
  Alcotest.check_raises "bad mass"
    (Invalid_argument "Finite_pdb.create: masses sum to 3/4, not 1") (fun () ->
      ignore (Finite_pdb.create [ (Instance.empty, q 3 4) ]));
  (* duplicates merged *)
  let d =
    Finite_pdb.create
      [ (Instance.empty, q 1 2); (Instance.empty, q 1 4); (Instance.singleton (fact "R" [ 1 ]), q 1 4) ]
  in
  Alcotest.(check int) "merged" 2 (Finite_pdb.num_worlds d);
  check_q "merged mass" (q 3 4) (Finite_pdb.prob_of d Instance.empty)

let test_finite_of_ti_marginals () =
  let d = Finite_pdb.of_ti ti in
  Alcotest.(check int) "16 worlds" 16 (Finite_pdb.num_worlds d);
  List.iter
    (fun (f, p) -> check_q (Fact.to_string f) p (Finite_pdb.prob_ef d f))
    (Ti_table.facts ti);
  check_q "expected size matches" (Ti_table.expected_instance_size ti)
    (Finite_pdb.expected_size d);
  Alcotest.(check bool) "is TI" true (Finite_pdb.is_tuple_independent d)

let test_finite_of_bid_not_ti () =
  let d = Finite_pdb.of_bid bid in
  Alcotest.(check bool) "BID with 2-block is not TI" false
    (Finite_pdb.is_tuple_independent d)

let test_finite_prob_intersects () =
  let d = Finite_pdb.of_ti ti in
  (* P(E_F) for F = {R(1), R(2)}: 1 - (1/2)(2/3) = 2/3 *)
  check_q "E_F" (q 2 3)
    (Finite_pdb.prob_intersects d
       (Fact.Set.of_list [ fact "R" [ 1 ]; fact "R" [ 2 ] ]))

let test_finite_condition () =
  let d = Finite_pdb.of_ti ti in
  let c = Finite_pdb.condition d (fun w -> Instance.mem (fact "R" [ 1 ]) w) in
  check_q "P(R(1) | R(1)) = 1" Rational.one (Finite_pdb.prob_ef c (fact "R" [ 1 ]));
  (* independence: conditioning on R(1) leaves S(1) untouched *)
  check_q "P(S(1) | R(1)) = 1/4" (q 1 4) (Finite_pdb.prob_ef c (fact "S" [ 1 ]));
  Alcotest.check_raises "null event"
    (Invalid_argument "Finite_pdb.condition: conditioning on a null event")
    (fun () ->
      ignore (Finite_pdb.condition d (fun w -> Instance.size w > 100)))

let test_finite_view () =
  (* View: T(x) := exists y. R-binary... use unary R, S from ti:
     T(x) := R(x) & S(x). *)
  let d = Finite_pdb.of_ti ti in
  let v = Finite_pdb.apply_fo_view [ ("T", parse "R(x) & S(x)") ] d in
  (* P(T(1) present) = P(R(1) & S(1)) = 1/8 *)
  check_q "pushforward marginal" (q 1 8) (Finite_pdb.prob_ef v (fact "T" [ 1 ]));
  (* all worlds of the image contain only T-facts *)
  Alcotest.(check bool) "image schema" true
    (List.for_all
       (fun (w, _) ->
         Instance.for_all (fun f -> Fact.rel f = "T") w)
       (Finite_pdb.worlds v))

let test_finite_product () =
  let a = Finite_pdb.of_ti (Ti_table.create [ (fact "A" [ 1 ], q 1 2) ]) in
  let b = Finite_pdb.of_ti (Ti_table.create [ (fact "B" [ 1 ], q 1 3) ]) in
  let ab = Finite_pdb.product a b in
  Alcotest.(check int) "4 worlds" 4 (Finite_pdb.num_worlds ab);
  check_q "joint" (q 1 6)
    (Finite_pdb.prob_of ab (Instance.of_list [ fact "A" [ 1 ]; fact "B" [ 1 ] ]));
  Alcotest.check_raises "overlap"
    (Invalid_argument "Instance.disjoint_union: operands share a fact")
    (fun () -> ignore (Finite_pdb.product a a))

let test_finite_size_distribution () =
  let d = Finite_pdb.of_ti (Ti_table.create [ (fact "A" [ 1 ], q 1 2); (fact "B" [ 1 ], q 1 2) ]) in
  let dist = Finite_pdb.size_distribution d in
  Alcotest.(check int) "3 sizes" 3 (List.length dist);
  check_q "P(size 1) = 1/2" (q 1 2) (List.assoc 1 dist)

(* ------------------------------------------------------------------ *)
(* Query engines *)
(* ------------------------------------------------------------------ *)

let queries_for_agreement =
  [
    "exists x. R(x)";
    "exists x. R(x) & S(x)";
    "exists x y. R(x) & S(y)";
    "forall x. R(x) -> S(x)";
    "!(exists x. S(x))";
    "R(1) | S(2)";
    "exists x. R(x) & !S(x)";
    "exists x y. R(x) & S(y) & x != y";
    "true";
    "false";
  ]

let test_engines_agree () =
  List.iter
    (fun qs ->
      let phi = parse qs in
      let reference = Query_eval.boolean_enum ti phi in
      check_q ("bdd " ^ qs) reference (Query_eval.boolean_bdd ti phi);
      check_q ("auto " ^ qs) reference (Query_eval.boolean ti phi);
      match Query_eval.boolean_safe ti phi with
      | Some p -> check_q ("safe " ^ qs) reference p
      | None -> ())
    queries_for_agreement

let test_engine_finite_agrees () =
  let d = Finite_pdb.of_ti ti in
  List.iter
    (fun qs ->
      let phi = parse qs in
      check_q ("finite " ^ qs)
        (Query_eval.boolean_enum ti phi)
        (Query_eval.boolean_finite d phi))
    queries_for_agreement

let test_monte_carlo () =
  let phi = parse "exists x. R(x)" in
  let exact = Rational.to_float (Query_eval.boolean ti phi) in
  let space = Mc_eval.Ti (Countable_ti.create (Fact_source.of_ti_table ti)) in
  let r = Mc_eval.boolean ~seed:0xC0FFEE ~samples:20_000 space phi in
  let p = r.Mc_eval.estimate in
  let std_error = sqrt (p *. (1.0 -. p) /. 20_000.0) in
  Alcotest.(check bool) "within 5 sigma" true
    (Float.abs (p -. exact) < Stdlib.max (5.0 *. std_error) 0.02);
  Alcotest.(check bool) "interval contains exact" true
    (Interval.contains r.Mc_eval.bounds exact);
  Alcotest.(check int) "samples recorded" 20_000 r.Mc_eval.samples

let test_marginals () =
  let ms = Query_eval.marginals ti (parse "R(x)") in
  Alcotest.(check int) "two tuples" 2 (List.length ms);
  let find v = List.assoc [| i v |] (List.map (fun (t, p) -> (t, p)) ms) in
  ignore find;
  List.iter
    (fun (tup, p) ->
      match tup with
      | [| Value.Int 1 |] -> check_q "R(1)" (q 1 2) p
      | [| Value.Int 2 |] -> check_q "R(2)" (q 1 3) p
      | _ -> Alcotest.fail "unexpected tuple")
    ms;
  (* conjunctive marginal *)
  let ms = Query_eval.marginals ti (parse "R(x) & S(x)") in
  List.iter
    (fun (tup, p) ->
      match tup with
      | [| Value.Int 1 |] -> check_q "R&S 1" (q 1 8) p
      | [| Value.Int 2 |] -> check_q "R&S 2" (q 1 15) p
      | _ -> Alcotest.fail "unexpected tuple")
    ms

let test_marginals_match_view () =
  (* marginal of T(x) in the view pushforward = marginal of the formula *)
  let d = Finite_pdb.of_ti ti in
  let v = Finite_pdb.apply_fo_view [ ("T", parse "R(x) & S(x)") ] d in
  List.iter
    (fun (tup, p) ->
      check_q "view vs marginal" p
        (Finite_pdb.prob_ef v (Fact.make_arr "T" tup)))
    (Query_eval.marginals ti (parse "R(x) & S(x)"))

let test_free_var_guard () =
  Alcotest.check_raises "free vars"
    (Invalid_argument "Query_eval: query has free variables x") (fun () ->
      ignore (Query_eval.boolean_enum ti (parse "R(x)")))

let test_dichotomy_routing_counters () =
  (* Regression for the has_self_join fix: after equality substitution the
     two R atoms are syntactically identical, so dedup must keep this on
     the lifted path — observable through the router's counters. *)
  let c_safe = Stats.counter "query.safe_plan" in
  let c_bdd = Stats.counter "query.bdd_fallback" in
  let easy = parse "exists x. R(x) & x = 1 & R(1)" in
  let hard = parse "exists x y. R(x) & T(x, y) & S(y)" in
  Alcotest.(check bool) "router verdicts" true
    (Query_eval.safe easy && not (Query_eval.safe hard));
  let before_safe = Stats.count c_safe in
  check_q "deduped query value" (q 1 2) (Query_eval.boolean ti easy);
  Alcotest.(check int) "safe_plan counter fires on deduped duplicate atoms"
    (before_safe + 1) (Stats.count c_safe);
  let before_bdd = Stats.count c_bdd in
  ignore (Query_eval.boolean ti hard);
  Alcotest.(check int) "bdd_fallback counter fires on the hard query"
    (before_bdd + 1) (Stats.count c_bdd)

(* ------------------------------------------------------------------ *)
(* Properties *)
(* ------------------------------------------------------------------ *)

let arb_ti =
  let open QCheck.Gen in
  let gen =
    let* nr = int_range 0 3 in
    let* ns = int_range 0 3 in
    let* probs =
      list_repeat (nr + ns) (map (fun k -> q k 10) (int_range 1 9))
    in
    let facts =
      List.init nr (fun k -> fact "R" [ k ]) @ List.init ns (fun k -> fact "S" [ k ])
    in
    return (Ti_table.create (List.combine facts probs))
  in
  QCheck.make ~print:Ti_table.to_string gen

let arb_query =
  QCheck.oneofl (List.map parse queries_for_agreement)

(* Random TI tables over R/1, S/1, T/2 with small domains and dyadic
   probabilities, paired with random sentences of quantifier rank <= 2 —
   a much wider net than the fixed query list above. *)
let arb_ti3 =
  let open QCheck.Gen in
  let all_facts =
    List.init 3 (fun k -> fact "R" [ k ])
    @ List.init 3 (fun k -> fact "S" [ k ])
    @ List.concat_map
        (fun a -> List.init 3 (fun b -> fact "T" [ a; b ]))
        [ 0; 1; 2 ]
  in
  let gen =
    let* chosen = list_repeat 4 (oneofl all_facts) in
    let chosen = List.sort_uniq Fact.compare chosen in
    let* probs =
      list_repeat (List.length chosen) (map (fun k -> q k 8) (int_range 1 7))
    in
    return (Ti_table.create (List.combine chosen probs))
  in
  QCheck.make ~print:Ti_table.to_string gen

let arb_sentence =
  let open QCheck.Gen in
  let rels = [ ("R", 1); ("S", 1); ("T", 2) ] in
  let term scope =
    oneof
      (map Fo.cint (int_range 0 2)
       :: (if scope = [] then [] else [ map Fo.v (oneofl scope) ]))
  in
  let leaf scope =
    frequency
      [
        ( 6,
          let* rel, arity = oneofl rels in
          let* ts = list_repeat arity (term scope) in
          return (Fo.atom rel ts) );
        (1, return Fo.True);
        (1, return Fo.False);
      ]
  in
  (* [quant] bounds the remaining quantifier budget, so every generated
     sentence has quantifier rank <= 2; [scope] holds the bound variables
     available to atoms. *)
  let rec gen scope depth quant =
    if depth = 0 then leaf scope
    else
      frequency
        ([
           (2, leaf scope);
           (2, map (fun f -> Fo.Not f) (gen scope (depth - 1) quant));
           ( 3,
             map2
               (fun a b -> Fo.And (a, b))
               (gen scope (depth - 1) quant)
               (gen scope (depth - 1) quant) );
           ( 3,
             map2
               (fun a b -> Fo.Or (a, b))
               (gen scope (depth - 1) quant)
               (gen scope (depth - 1) quant) );
         ]
         @
         if quant = 0 then []
         else begin
           let x = Printf.sprintf "v%d" quant in
           let inner = gen (x :: scope) (depth - 1) (quant - 1) in
           [
             (4, map (fun f -> Fo.Exists (x, f)) inner);
             (4, map (fun f -> Fo.Forall (x, f)) inner);
           ]
         end)
  in
  QCheck.make ~print:Fo.to_string (gen [] 4 2)

let props =
  [
    QCheck.Test.make ~name:"worlds sum to 1" ~count:100 arb_ti (fun t ->
        Rational.equal Rational.one
          (Seq.fold_left
             (fun acc (_, p) -> Rational.add acc p)
             Rational.zero (Ti_table.worlds t)));
    QCheck.Test.make ~name:"enum = bdd on random tables/queries" ~count:150
      QCheck.(pair arb_ti arb_query)
      (fun (t, phi) ->
        Rational.equal
          (Query_eval.boolean_enum t phi)
          (Query_eval.boolean_bdd t phi));
    QCheck.Test.make ~name:"safe (when applicable) = enum" ~count:150
      QCheck.(pair arb_ti arb_query)
      (fun (t, phi) ->
        match Query_eval.boolean_safe t phi with
        | None -> true
        | Some p -> Rational.equal p (Query_eval.boolean_enum t phi));
    QCheck.Test.make ~name:"all engines agree on random rank<=2 sentences"
      ~count:300
      QCheck.(pair arb_ti3 arb_sentence)
      (fun (t, phi) ->
        let reference = Query_eval.boolean_enum t phi in
        Rational.equal reference (Query_eval.boolean_bdd t phi)
        && (match Query_eval.boolean_safe t phi with
            | None -> true
            | Some p -> Rational.equal p reference)
        && Rational.equal reference (Query_eval.boolean t phi));
    QCheck.Test.make ~name:"finite pdb roundtrip preserves marginals"
      ~count:100 arb_ti (fun t ->
        let d = Finite_pdb.of_ti t in
        List.for_all
          (fun (f, p) -> Rational.equal p (Finite_pdb.prob_ef d f))
          (Ti_table.facts t));
    QCheck.Test.make ~name:"conditioning renormalizes" ~count:100 arb_ti
      (fun t ->
        QCheck.assume (Ti_table.size t > 0);
        let d = Finite_pdb.of_ti t in
        let f = List.hd (Ti_table.support t) in
        let c = Finite_pdb.condition d (fun w -> Instance.mem f w) in
        Rational.equal Rational.one
          (List.fold_left
             (fun acc (_, p) -> Rational.add acc p)
             Rational.zero (Finite_pdb.worlds c)));
  ]

let () =
  Alcotest.run "pdb"
    [
      ( "ti_table",
        [
          Alcotest.test_case "basics" `Quick test_ti_basics;
          Alcotest.test_case "validation" `Quick test_ti_validation;
          Alcotest.test_case "schema validation" `Quick test_ti_schema_validation;
          Alcotest.test_case "worlds sum" `Quick test_ti_worlds_sum_to_one;
          Alcotest.test_case "world probability" `Quick test_ti_world_probability;
          Alcotest.test_case "marginal consistency" `Quick
            test_ti_marginal_consistency;
          Alcotest.test_case "sampling" `Slow test_ti_sampling_marginals;
          Alcotest.test_case "text format" `Quick test_ti_text_format;
          Alcotest.test_case "of_file" `Quick test_ti_of_file;
          Alcotest.test_case "of_file fd leak" `Quick test_ti_of_file_no_leak;
          Alcotest.test_case "of_file streams multi-MB" `Slow
            test_ti_of_file_streaming_large;
          Alcotest.test_case "located errors" `Quick test_ti_located_errors;
          Alcotest.test_case "duplicate policy" `Quick test_ti_duplicate_policy;
        ] );
      ( "bid_table",
        [
          Alcotest.test_case "basics" `Quick test_bid_basics;
          Alcotest.test_case "validation" `Quick test_bid_validation;
          Alcotest.test_case "worlds" `Quick test_bid_worlds;
          Alcotest.test_case "world probability" `Quick test_bid_world_probability;
          Alcotest.test_case "marginals vs worlds" `Quick
            test_bid_marginals_against_worlds;
          Alcotest.test_case "sampling exclusivity" `Quick
            test_bid_sampling_exclusivity;
          Alcotest.test_case "of_ti" `Quick test_bid_of_ti;
          Alcotest.test_case "parser errors" `Quick test_bid_parser_errors;
        ] );
      ( "finite_pdb",
        [
          Alcotest.test_case "create validation" `Quick
            test_finite_create_validation;
          Alcotest.test_case "of_ti marginals" `Quick test_finite_of_ti_marginals;
          Alcotest.test_case "bid not TI" `Quick test_finite_of_bid_not_ti;
          Alcotest.test_case "prob intersects" `Quick test_finite_prob_intersects;
          Alcotest.test_case "condition" `Quick test_finite_condition;
          Alcotest.test_case "FO view" `Quick test_finite_view;
          Alcotest.test_case "product" `Quick test_finite_product;
          Alcotest.test_case "size distribution" `Quick
            test_finite_size_distribution;
        ] );
      ( "query_eval",
        [
          Alcotest.test_case "engines agree" `Quick test_engines_agree;
          Alcotest.test_case "finite engine" `Quick test_engine_finite_agrees;
          Alcotest.test_case "monte carlo" `Slow test_monte_carlo;
          Alcotest.test_case "marginals" `Quick test_marginals;
          Alcotest.test_case "marginals = view" `Quick test_marginals_match_view;
          Alcotest.test_case "free var guard" `Quick test_free_var_guard;
          Alcotest.test_case "dichotomy routing counters" `Quick
            test_dichotomy_routing_counters;
        ] );
      ("properties", List.map QCheck_alcotest.to_alcotest props);
    ]
