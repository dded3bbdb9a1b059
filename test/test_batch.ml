(* Tests for the batched evaluator (Batch_eval) and the Atomic-backed
   Stats registry the worker domains rely on. *)

let i n = Value.Int n
let q = Rational.of_ints
let fact r args = Fact.make r (List.map i args)
let parse = Fo_parse.parse_exn

let check_q msg expected actual =
  Alcotest.(check string) msg (Rational.to_string expected)
    (Rational.to_string actual)

let ti =
  Ti_table.create
    [
      (fact "R" [ 1 ], q 1 2);
      (fact "R" [ 2 ], q 1 3);
      (fact "S" [ 1 ], q 1 4);
      (fact "S" [ 2 ], q 1 5);
    ]

(* A batch hitting all three routes: safe members (lifted), negated /
   universal members (compiled), and a syntactic repeat (duplicate). *)
let mixed_queries =
  [|
    parse "exists x. R(x)";
    parse "exists x. R(x) & S(x)";
    parse "exists x. R(x)";
    parse "!(forall y. R(y))";
    parse "(exists x. R(x)) & !(forall y. R(y))";
  |]

(* ------------------------------------------------------------------ *)
(* Batch_eval *)
(* ------------------------------------------------------------------ *)

let test_batch_matches_sequential () =
  let r = Batch_eval.boolean ti mixed_queries in
  let pads = Batch_eval.padding ti mixed_queries in
  Array.iteri
    (fun idx (m : Rational.t Batch_eval.member) ->
      let extra_domain = if Fo.has_cmp m.Batch_eval.query then [] else pads in
      check_q
        (Printf.sprintf "member %d equals sequential engine" idx)
        (Query_eval.boolean ~extra_domain ti m.Batch_eval.query)
        m.Batch_eval.prob)
    r.Batch_eval.members

let test_batch_routing () =
  let r = Batch_eval.boolean ti mixed_queries in
  let route idx = r.Batch_eval.members.(idx).Batch_eval.route in
  Alcotest.(check bool) "safe member lifted" true (route 0 = Batch_eval.Lifted);
  Alcotest.(check bool) "join member lifted" true (route 1 = Batch_eval.Lifted);
  Alcotest.(check bool) "repeat answered as duplicate" true
    (route 2 = Batch_eval.Duplicate 0);
  (match route 3 with
  | Batch_eval.Compiled _ -> ()
  | _ -> Alcotest.fail "negated member should compile");
  Alcotest.(check int) "lifted count" 2 r.Batch_eval.lifted;
  Alcotest.(check int) "compiled count" 2 r.Batch_eval.compiled;
  Alcotest.(check int) "dedup count" 1 r.Batch_eval.deduped;
  Alcotest.(check int) "one shard by default" 1 r.Batch_eval.shards;
  check_q "duplicate shares the representative's answer"
    r.Batch_eval.members.(0).Batch_eval.prob
    r.Batch_eval.members.(2).Batch_eval.prob

let test_batch_bit_identical_across_domains () =
  let base = Batch_eval.boolean ti mixed_queries in
  List.iter
    (fun d ->
      let r = Batch_eval.boolean ~domains:d ti mixed_queries in
      Array.iteri
        (fun idx (m : Rational.t Batch_eval.member) ->
          check_q
            (Printf.sprintf "member %d at domains=%d" idx d)
            base.Batch_eval.members.(idx).Batch_eval.prob m.Batch_eval.prob)
        r.Batch_eval.members)
    [ 2; 3; 4 ]

let test_batch_empty_and_validation () =
  let r = Batch_eval.boolean ti [||] in
  Alcotest.(check int) "empty batch" 0 (Array.length r.Batch_eval.members);
  Alcotest.(check int) "no shards" 0 r.Batch_eval.shards;
  Alcotest.check_raises "domains must be positive"
    (Invalid_argument "Batch_eval.boolean: domains must be positive") (fun () ->
      ignore (Batch_eval.boolean ~domains:0 ti [| parse "exists x. R(x)" |]));
  Alcotest.check_raises "free variables rejected"
    (Invalid_argument "Batch_eval: query has free variables x") (fun () ->
      ignore (Batch_eval.boolean ti [| parse "R(x)" |]))

let test_batch_padding_rank_and_collisions () =
  (* Max rank over the non-Cmp members decides the padding size. *)
  let qs = [| parse "exists x. R(x)"; parse "forall x. exists y. R(y)" |] in
  Alcotest.(check int) "max rank padding" 2
    (List.length (Batch_eval.padding ti qs));
  (* A Cmp member contributes no padding demand. *)
  let qs_cmp = [| parse "exists x. exists y. R(x) & R(y) & x < y" |] in
  Alcotest.(check int) "cmp members unpadded" 0
    (List.length (Batch_eval.padding ti qs_cmp));
  (* Collision avoidance: plant the first-attempt pad value in the
     support; the chosen padding must dodge it and stay inert. *)
  let clash =
    Ti_table.create
      [
        (Fact.make "R" [ Value.Str "\x00pad.0.0" ], q 1 2);
        (fact "R" [ 1 ], q 1 3);
      ]
  in
  let pads = Batch_eval.padding clash [| parse "exists x. R(x)" |] in
  Alcotest.(check int) "still one pad" 1 (List.length pads);
  Alcotest.(check bool) "collision avoided" false
    (List.exists (Value.equal (Value.Str "\x00pad.0.0")) pads);
  (* And the padded batch answer still matches the sequential engine. *)
  let r = Batch_eval.boolean clash [| parse "!(forall y. R(y)) " |] in
  check_q "padded semantics on clash table"
    (Query_eval.boolean ~extra_domain:pads clash (parse "!(forall y. R(y))"))
    r.Batch_eval.members.(0).Batch_eval.prob

(* ------------------------------------------------------------------ *)
(* Atomic Stats under worker domains *)
(* ------------------------------------------------------------------ *)

let test_stats_counters_multi_domain () =
  let c = Stats.counter "test.batch.atomic.counter" in
  let t = Stats.timer "test.batch.atomic.timer" in
  let count0 = Stats.count c and elapsed0 = Stats.elapsed t in
  let per_domain = 25_000 and workers = 4 in
  let spawned =
    List.init workers (fun _ ->
        Domain.spawn (fun () ->
            for _ = 1 to per_domain do
              Stats.incr c
            done;
            for _ = 1 to 1_000 do
              Stats.add_elapsed t 0.5
            done))
  in
  List.iter Domain.join spawned;
  Alcotest.(check int) "no increment lost" (count0 + (workers * per_domain))
    (Stats.count c);
  Alcotest.(check (float 1e-6)) "no timer accumulation lost"
    (elapsed0 +. (float_of_int workers *. 500.0))
    (Stats.elapsed t)

let prop_stats_exact_count_multi_domain =
  QCheck.Test.make ~name:"atomic counters are exact at any domain count"
    ~count:25
    QCheck.(pair (int_range 1 4) (int_range 1 5_000))
    (fun (workers, per_domain) ->
      let c = Stats.counter "test.batch.atomic.qcheck" in
      let count0 = Stats.count c in
      let spawned =
        List.init workers (fun _ ->
            Domain.spawn (fun () ->
                for _ = 1 to per_domain do
                  Stats.incr c
                done))
      in
      List.iter Domain.join spawned;
      Stats.count c = count0 + (workers * per_domain))

let prop_batch_equals_map_sequential =
  (* The metamorphic law on random safe/unsafe batches over the fixed
     table: batch = map sequential (under the batch's padding). *)
  let queries =
    [
      "exists x. R(x)";
      "exists x. R(x) & S(x)";
      "!(exists x. R(x) & S(x))";
      "forall x. R(x) -> S(x)";
      "(exists x. R(x)) & !(forall y. S(y))";
      "exists x. exists y. R(x) & S(y)";
    ]
  in
  QCheck.Test.make ~name:"batch = map sequential on random batches" ~count:40
    QCheck.(
      pair (int_range 1 4)
        (list_of_size Gen.(1 -- 6) (oneofl (List.map parse queries))))
    (fun (domains, phis) ->
      let qs = Array.of_list phis in
      let r = Batch_eval.boolean ~domains ti qs in
      let pads = Batch_eval.padding ti qs in
      Array.for_all2
        (fun (m : Rational.t Batch_eval.member) phi ->
          let extra_domain = if Fo.has_cmp phi then [] else pads in
          Rational.equal m.Batch_eval.prob
            (Query_eval.boolean ~extra_domain ti phi))
        r.Batch_eval.members qs)

let () =
  Alcotest.run "batch"
    [
      ( "batch_eval",
        [
          Alcotest.test_case "matches sequential" `Quick
            test_batch_matches_sequential;
          Alcotest.test_case "routing and dedup" `Quick test_batch_routing;
          Alcotest.test_case "bit-identical across domains" `Quick
            test_batch_bit_identical_across_domains;
          Alcotest.test_case "empty batch and validation" `Quick
            test_batch_empty_and_validation;
          Alcotest.test_case "padding rank and collisions" `Quick
            test_batch_padding_rank_and_collisions;
        ] );
      ( "stats",
        [
          Alcotest.test_case "counters and timers across domains" `Quick
            test_stats_counters_multi_domain;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_stats_exact_count_multi_domain;
            prop_batch_equals_map_sequential;
          ] );
    ]
