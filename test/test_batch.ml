(* Tests for the batched evaluator (Batch_eval), its Robust_eval
   integration (query_batch), and the Atomic-backed Stats registry the
   worker domains rely on. *)

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

let test_batch_effective_cache_size () =
  let r = Batch_eval.boolean ~cache_size:100 ti mixed_queries in
  Alcotest.(check int) "rounded up to a power of two" 128 r.Batch_eval.cache_size;
  let d = Batch_eval.boolean ti mixed_queries in
  Alcotest.(check int) "default cache size reported" Bdd.default_cache_size
    d.Batch_eval.cache_size

let test_batch_budget_hooks () =
  (* tick fires per fresh node from worker shards; a raising tick aborts
     the whole batch instead of returning partial garbage. *)
  let ticks = Atomic.make 0 in
  let r =
    Batch_eval.boolean ~domains:2
      ~tick:(fun () -> Atomic.incr ticks)
      ti mixed_queries
  in
  Alcotest.(check bool) "ticks observed" true (Atomic.get ticks > 0);
  Alcotest.(check int) "two compiled members, two shards" 2 r.Batch_eval.shards;
  let exception Stop in
  Alcotest.check_raises "raising tick aborts" Stop (fun () ->
      ignore
        (Batch_eval.boolean ~tick:(fun () -> raise Stop) ti mixed_queries))

(* ------------------------------------------------------------------ *)
(* Robust_eval.query_batch *)
(* ------------------------------------------------------------------ *)

let geo_src () =
  Fact_source.geometric ~first:Rational.half ~ratio:Rational.half
    ~facts:(fun k -> fact "R" [ k ])
    ()

let test_query_batch_sound_and_aligned () =
  let phis =
    [
      parse "exists x. R(x)";
      parse "exists x. R(x)";
      parse "!(exists x. R(x))";
    ]
  in
  let answers = Robust_eval.query_batch ~eps:0.01 (geo_src ()) phis in
  Alcotest.(check int) "positional alignment" 3 (List.length answers);
  let limit = 1.0 -. 0.2887880951 in
  let a0 = List.nth answers 0 and a1 = List.nth answers 1 in
  Alcotest.(check bool) "enclosure sound" true
    (Interval.contains a0.Robust_eval.enclosure limit);
  Alcotest.(check bool) "complement enclosure sound" true
    (Interval.contains (List.nth answers 2).Robust_eval.enclosure (1.0 -. limit));
  Alcotest.(check (float 0.0)) "duplicate members agree"
    a0.Robust_eval.estimate a1.Robust_eval.estimate;
  List.iter
    (fun (a : Robust_eval.answer) ->
      match a.Robust_eval.provenance.Robust_eval.attempts with
      | { Robust_eval.engine = Robust_eval.Batched; tries = 1; outcome = Robust_eval.Certified _ } :: _ ->
        ()
      | _ -> Alcotest.fail "expected a leading certified Batched attempt")
    answers

let test_query_batch_falls_back_on_exhaustion () =
  (* A 1-node cap kills the batched path; every member must degrade to
     the per-member ladder and stay sound, with the failed Batched
     attempt first in its provenance. *)
  let phis = [ parse "(exists x. R(x)) & !(forall y. R(y))" ] in
  let a =
    List.hd
      (Robust_eval.query_batch ~eps:0.05 ~max_bdd_nodes:1 (geo_src ()) phis)
  in
  (match a.Robust_eval.provenance.Robust_eval.attempts with
  | { Robust_eval.engine = Robust_eval.Batched; outcome = Robust_eval.Failed _; _ } :: _ :: _ ->
    ()
  | _ -> Alcotest.fail "expected Batched failure then ladder attempts");
  Alcotest.(check bool) "fallback enclosure sound" true
    (Interval.contains a.Robust_eval.enclosure (1.0 -. 0.2887880951))

let test_query_batch_validation () =
  Alcotest.check_raises "domains" (Invalid_argument "Robust_eval.query_batch: domains must be positive")
    (fun () ->
      ignore (Robust_eval.query_batch ~domains:0 (geo_src ()) [ parse "exists x. R(x)" ]))

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
          Alcotest.test_case "effective cache size" `Quick
            test_batch_effective_cache_size;
          Alcotest.test_case "budget hooks" `Quick test_batch_budget_hooks;
        ] );
      ( "robust",
        [
          Alcotest.test_case "query_batch sound and aligned" `Quick
            test_query_batch_sound_and_aligned;
          Alcotest.test_case "query_batch fallback on exhaustion" `Quick
            test_query_batch_falls_back_on_exhaustion;
          Alcotest.test_case "query_batch validation" `Quick
            test_query_batch_validation;
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
