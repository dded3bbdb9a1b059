(* Tests for the streaming delta sessions: the mutation-differential
   law (incremental == from-scratch by exact rational equality at every
   step), invertibility of deltas, BID block exclusivity under
   reweights, and the edge cases around absent facts and zero
   marginals. *)

let i n = Value.Int n
let q = Rational.of_ints
let parse = Fo_parse.parse_exn
let fact r args = Fact.make r (List.map i args)

(* The padded from-scratch reference: what the session must equal after
   every delta.  Comparison queries carry no padding and an exact
   domain, which is plain [Query_eval.boolean]. *)
let from_scratch session phi tbl =
  if Fo.has_cmp phi then Query_eval.boolean tbl phi
  else
    Query_eval.boolean
      ~extra_domain:(Delta_eval.Exact.padding session)
      tbl phi

(* ------------------------------------------------------------------ *)
(* Generators *)
(* ------------------------------------------------------------------ *)

let fact_pool =
  List.init 4 (fun k -> fact "R" [ k ]) @ List.init 4 (fun k -> fact "S" [ k ])

let arb_ti =
  let open QCheck.Gen in
  let gen =
    let* picks =
      list_repeat (List.length fact_pool)
        (pair bool (map (fun k -> q k 10) (int_range 1 9)))
    in
    let facts =
      List.filter_map
        (fun (f, (keep, p)) -> if keep then Some (f, p) else None)
        (List.combine fact_pool picks)
    in
    return (Ti_table.create facts)
  in
  QCheck.make ~print:Ti_table.to_string gen

let sentences =
  List.map parse
    [
      "exists x. R(x)";
      "exists x. R(x) & S(x)";
      "exists x y. R(x) & S(y)";
      "forall x. R(x) -> S(x)";
      "exists x. R(x) | S(x)";
      "forall x. !R(x)";
      "exists x y. R(x) & S(y) & x != y";
      "exists x. R(x) & x >= 1";
    ]

let arb_sentence = QCheck.oneofl ~print:Fo.to_string sentences

let arb_delta =
  let open QCheck.Gen in
  let gen =
    let* f = oneofl fact_pool in
    let* op = int_range 0 2 in
    let* p = map (fun k -> q k 10) (int_range 0 10) in
    return
      (match op with
      | 0 -> Delta_eval.Insert (f, p)
      | 1 -> Delta_eval.Delete f
      | _ -> Delta_eval.Reweight (f, p))
  in
  QCheck.make ~print:Delta_eval.delta_to_string gen

let arb_deltas = QCheck.list_of_size (QCheck.Gen.int_range 1 12) arb_delta

(* ------------------------------------------------------------------ *)
(* Properties *)
(* ------------------------------------------------------------------ *)

let prop_incremental_matches_scratch =
  QCheck.Test.make
    ~name:"incremental == from-scratch at every step (exact)" ~count:300
    QCheck.(triple arb_ti arb_sentence arb_deltas)
    (fun (ti, phi, deltas) ->
      let s = Delta_eval.Exact.create ti phi in
      let tbl = ref ti in
      List.for_all
        (fun d ->
          ignore (Delta_eval.Exact.apply s d);
          tbl := Delta_eval.apply_table !tbl d;
          Rational.equal (Delta_eval.Exact.prob s)
            (from_scratch s phi !tbl))
        deltas)

let prop_inverse_restores =
  QCheck.Test.make ~name:"delta then inverse restores the exact answer"
    ~count:300
    QCheck.(triple arb_ti arb_sentence arb_delta)
    (fun (ti, phi, d) ->
      let s = Delta_eval.Exact.create ti phi in
      let p0 = Delta_eval.Exact.prob s in
      let inv = Delta_eval.Exact.inverse s d in
      ignore (Delta_eval.Exact.apply s d);
      ignore (Delta_eval.Exact.apply s inv);
      Rational.equal p0 (Delta_eval.Exact.prob s)
      && Ti_table.facts (Delta_eval.Exact.table s) = Ti_table.facts ti)

let arb_bid_deltas =
  let open QCheck.Gen in
  let gen =
    list_size (int_range 1 10)
      (let* block = oneofl [ "b0"; "b1" ] in
       let* f = oneofl fact_pool in
       let* p = map (fun k -> q k 8) (int_range 0 8) in
       let* remove = bool in
       return
         (if remove then Delta_eval.Bid.B_remove f
          else Delta_eval.Bid.B_set (block, f, p)))
  in
  QCheck.make gen

let prop_bid_exclusivity =
  QCheck.Test.make
    ~name:"BID reweights preserve block exclusivity" ~count:200
    QCheck.(pair arb_sentence arb_bid_deltas)
    (fun (phi, deltas) ->
      let bid =
        Bid_table.create
          [
            {
              Bid_table.block_id = "b0";
              alternatives = [ (fact "R" [ 0 ], q 1 3); (fact "R" [ 1 ], q 1 3) ];
            };
          ]
      in
      let s = Delta_eval.Bid.create bid phi in
      List.for_all
        (fun d ->
          let before = Bid_table.blocks (Delta_eval.Bid.table s) in
          (match Delta_eval.Bid.apply s d with
          | Ok () -> true
          | Error _ ->
            (* a rejected delta must leave the table untouched *)
            Bid_table.blocks (Delta_eval.Bid.table s) = before)
          &&
          (* every block's mass stays a probability *)
          List.for_all
            (fun b ->
              Rational.sign
                (Bid_table.block_slack (Delta_eval.Bid.table s)
                   b.Bid_table.block_id)
              >= 0)
            (Bid_table.blocks (Delta_eval.Bid.table s))
          &&
          (* the cached incremental answer equals a fresh session's *)
          Rational.equal (Delta_eval.Bid.prob s)
            (Delta_eval.Bid.prob
               (Delta_eval.Bid.create (Delta_eval.Bid.table s) phi)))
        deltas)

(* ------------------------------------------------------------------ *)
(* Units: edge cases *)
(* ------------------------------------------------------------------ *)

let check_rat = Alcotest.testable (Fmt.of_to_string Rational.to_string) Rational.equal

let test_empty_delta () =
  let ti = Ti_table.create [ (fact "R" [ 0 ], Rational.half) ] in
  let phi = parse "exists x. R(x)" in
  let s = Delta_eval.Exact.create ti phi in
  let p0 = Delta_eval.Exact.prob s in
  (* reweight to the current value: a recognized no-op *)
  Alcotest.(check string)
    "same-weight reweight is a noop" "noop"
    (Delta_eval.apply_kind_to_string
       (Delta_eval.Exact.apply s (Reweight (fact "R" [ 0 ], Rational.half))));
  Alcotest.check check_rat "probability unchanged" p0 (Delta_eval.Exact.prob s);
  Alcotest.(check int) "epoch unchanged" 0 (Delta_eval.Exact.epoch s)

let test_delete_absent () =
  let ti = Ti_table.create [ (fact "R" [ 0 ], Rational.half) ] in
  let s = Delta_eval.Exact.create ti (parse "exists x. R(x)") in
  let p0 = Delta_eval.Exact.prob s in
  Alcotest.(check string)
    "delete of an absent fact is a noop" "noop"
    (Delta_eval.apply_kind_to_string
       (Delta_eval.Exact.apply s (Delete (fact "R" [ 7 ]))));
  Alcotest.check check_rat "probability unchanged" p0 (Delta_eval.Exact.prob s)

let test_reweight_to_zero () =
  let f = fact "R" [ 0 ] in
  let ti = Ti_table.create [ (f, Rational.half); (fact "R" [ 1 ], q 1 4) ] in
  let phi = parse "exists x. R(x)" in
  let s = Delta_eval.Exact.create ti phi in
  Alcotest.(check string)
    "reweight-to-zero patches in place" "patched"
    (Delta_eval.apply_kind_to_string
       (Delta_eval.Exact.apply s (Reweight (f, Rational.zero))));
  Alcotest.(check bool)
    "fact left the table" false
    (Ti_table.mem (Delta_eval.Exact.table s) f);
  Alcotest.check check_rat "matches from-scratch" (q 1 4)
    (Delta_eval.Exact.prob s);
  (* and the variable revives on re-insertion without recompiling *)
  Alcotest.(check string)
    "re-insert is a patch" "patched"
    (Delta_eval.apply_kind_to_string
       (Delta_eval.Exact.apply s (Insert (f, Rational.half))));
  Alcotest.check check_rat "restored" (q 5 8) (Delta_eval.Exact.prob s)

let test_fresh_value_extends () =
  let ti = Ti_table.create [ (fact "R" [ 0 ], Rational.half) ] in
  let s = Delta_eval.Exact.create ti (parse "exists x. R(x)") in
  Alcotest.(check string)
    "fresh constant extends the diagram" "extended"
    (Delta_eval.apply_kind_to_string
       (Delta_eval.Exact.apply s (Insert (fact "R" [ 99 ], Rational.half))));
  Alcotest.check check_rat "joined answer" (q 3 4) (Delta_eval.Exact.prob s)

let test_known_value_recompiles () =
  (* S(0)'s value 0 is already in the domain, so its old ground atom
     compiled to False: absorbing it must recompile, not patch. *)
  let ti = Ti_table.create [ (fact "R" [ 0 ], Rational.half) ] in
  let phi = parse "exists x. R(x) & S(x)" in
  let s = Delta_eval.Exact.create ti phi in
  Alcotest.check check_rat "initially zero" Rational.zero
    (Delta_eval.Exact.prob s);
  Alcotest.(check string)
    "known-value insert recompiles" "recompiled"
    (Delta_eval.apply_kind_to_string
       (Delta_eval.Exact.apply s (Insert (fact "S" [ 0 ], Rational.half))));
  Alcotest.check check_rat "joined answer" (q 1 4) (Delta_eval.Exact.prob s)

let test_wide_join_stays_linear () =
  (* The table's alphabet lists R(0..39) before S(0..39); the initial
     diagram of a join over them is linear only if co-occurring atoms sit
     adjacent in the variable order (first occurrence over the lineage),
     and exponential under a plain newest-first order. *)
  let k = 40 in
  let ti =
    Ti_table.create
      (List.concat
         (List.init k (fun j -> [ (fact "R" [ j ], q 1 3); (fact "S" [ j ], q 1 4) ])))
  in
  let phi = parse "exists x. R(x) & S(x)" in
  let allocated = ref 0 in
  let tick () =
    incr allocated;
    if !allocated > 100_000 then Alcotest.fail "initial diagram blew up"
  in
  let s = Delta_eval.Certified.create ~tick ti phi in
  let size = Delta_eval.Certified.diagram_size s in
  Alcotest.(check bool)
    (Printf.sprintf "diagram of %d nodes <= 2k + 2" size)
    true
    (size <= (2 * k) + 2);
  let exact = Delta_eval.Exact.create ti phi in
  Alcotest.check check_rat "exact session = from scratch"
    (from_scratch exact phi ti)
    (Delta_eval.Exact.prob exact);
  Alcotest.(check bool) "certified encloses it" true
    (Interval.contains
       (Delta_eval.Certified.prob s)
       (Rational.to_float (Delta_eval.Exact.prob exact)))

let test_batched_extend () =
  (* A prefix extension enters as one delta: one delta-join, one epoch,
     the from-scratch answer.  A [tick] that raises mid-batch (a budget
     tripping) publishes nothing. *)
  let armed = ref false in
  let tick () = if !armed then raise Exit in
  let ti = Ti_table.create [ (fact "R" [ 0 ], Rational.half) ] in
  let phi = parse "exists x. R(x)" in
  let s = Delta_eval.Exact.create ~tick ti phi in
  let p0 = Delta_eval.Exact.prob s in
  armed := true;
  let batch = [ (fact "R" [ 1 ], q 1 4); (fact "R" [ 2 ], q 1 8) ] in
  (match Delta_eval.Exact.extend s batch with
  | _ -> Alcotest.fail "an armed tick must abort the batch"
  | exception Exit -> ());
  Alcotest.(check int) "no epoch published" 0 (Delta_eval.Exact.epoch s);
  Alcotest.(check int) "table untouched" 1
    (Ti_table.size (Delta_eval.Exact.table s));
  Alcotest.check check_rat "answer untouched" p0 (Delta_eval.Exact.prob s);
  armed := false;
  Alcotest.(check string)
    "one delta-join" "extended"
    (Delta_eval.apply_kind_to_string (Delta_eval.Exact.extend s batch));
  Alcotest.(check int) "one epoch" 1 (Delta_eval.Exact.epoch s);
  Alcotest.check check_rat "from-scratch answer"
    (from_scratch s phi (Delta_eval.Exact.table s))
    (Delta_eval.Exact.prob s);
  Alcotest.check check_rat "1 - 1/2 * 3/4 * 7/8" (q 43 64)
    (Delta_eval.Exact.prob s);
  Alcotest.check_raises "present facts are rejected"
    (Invalid_argument "Delta_eval.extend: R(1) is already present")
    (fun () -> ignore (Delta_eval.Exact.extend s [ (fact "R" [ 1 ], q 1 2) ]))

let test_delta_string_roundtrip () =
  List.iter
    (fun d ->
      Alcotest.(check string)
        "roundtrip"
        (Delta_eval.delta_to_string d)
        (Delta_eval.delta_to_string
           (Delta_eval.delta_of_string (Delta_eval.delta_to_string d))))
    [
      Delta_eval.Insert (fact "R" [ 1; 2 ], q 1 3);
      Delta_eval.Delete (fact "S" [ 0 ]);
      Delta_eval.Reweight (Fact.make "T" [ Value.Str "a b"; i 3 ], q 7 9);
    ]

let test_bid_rejections () =
  let f0 = fact "R" [ 0 ] and f1 = fact "R" [ 1 ] in
  let bid =
    Bid_table.create
      [
        {
          Bid_table.block_id = "b0";
          alternatives = [ (f0, Rational.half); (f1, q 2 5) ];
        };
      ]
  in
  let s = Delta_eval.Bid.create bid (parse "exists x. R(x)") in
  (match Delta_eval.Bid.apply s (B_set ("b0", f0, q 7 10)) with
  | Ok () -> Alcotest.fail "over-mass reweight must be rejected"
  | Error _ -> ());
  (match Delta_eval.Bid.apply s (B_set ("b1", f0, q 1 10)) with
  | Ok () -> Alcotest.fail "cross-block migration must be rejected"
  | Error _ -> ());
  Alcotest.(check int) "epoch untouched by rejections" 0
    (Delta_eval.Bid.epoch s);
  (match Delta_eval.Bid.apply s (B_set ("b0", f0, q 11 20)) with
  | Ok () -> ()
  | Error e -> Alcotest.failf "legal reweight rejected: %s" e);
  Alcotest.check check_rat "mass updated"
    (q 1 20)
    (Bid_table.block_slack (Delta_eval.Bid.table s) "b0")

let () =
  Alcotest.run "delta"
    [
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_incremental_matches_scratch;
            prop_inverse_restores;
            prop_bid_exclusivity;
          ] );
      ( "edge-cases",
        [
          Alcotest.test_case "empty delta" `Quick test_empty_delta;
          Alcotest.test_case "delete of absent fact" `Quick test_delete_absent;
          Alcotest.test_case "reweight to zero" `Quick test_reweight_to_zero;
          Alcotest.test_case "fresh value extends" `Quick
            test_fresh_value_extends;
          Alcotest.test_case "known value recompiles" `Quick
            test_known_value_recompiles;
          Alcotest.test_case "wide join stays linear" `Quick
            test_wide_join_stays_linear;
          Alcotest.test_case "batched extend" `Quick test_batched_extend;
          Alcotest.test_case "delta text roundtrip" `Quick
            test_delta_string_roundtrip;
          Alcotest.test_case "bid rejections" `Quick test_bid_rejections;
        ] );
    ]
