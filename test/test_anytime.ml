(* Tests for the incremental anytime evaluator: monotone narrowing,
   agreement with the batch approximation and with the exact closed-world
   engines on truncations, cache reuse across steps, and stop reasons. *)

let i n = Value.Int n
let q = Rational.of_ints
let fact r args = Fact.make r (List.map i args)
let parse = Fo_parse.parse_exn
let r_fact k = fact "R" [ k ]

(* p_i = (1/2)^(i+1): mass 1, tails 2^-n. *)
let geo_source () =
  Fact_source.geometric ~first:Rational.half ~ratio:Rational.half
    ~facts:r_fact ()

let widths_non_increasing steps =
  let rec go = function
    | a :: (b :: _ as rest) ->
      a.Anytime.width >= b.Anytime.width -. 1e-15 && go rest
    | _ -> true
  in
  go steps

(* ------------------------------------------------------------------ *)
(* Certification *)
(* ------------------------------------------------------------------ *)

let test_converges_and_narrows () =
  let eps = 0.01 in
  let sess = Anytime.create ~eps (geo_source ()) (parse "exists x. R(x)") in
  let reason, steps = Anytime.run sess in
  (match reason with
   | Anytime.Converged -> ()
   | r -> Alcotest.failf "expected convergence, got %s" (Anytime.stop_reason_to_string r));
  Alcotest.(check bool) "at least two steps" true (List.length steps >= 2);
  Alcotest.(check bool) "widths monotone non-increasing" true
    (widths_non_increasing steps);
  let final = List.nth steps (List.length steps - 1) in
  Alcotest.(check bool) "final width within budget" true
    (final.Anytime.width <= 2.0 *. eps);
  (* the certified interval really contains the limit
     1 - prod (1 - 2^-(i+1)) = 0.711211904... *)
  Alcotest.(check bool) "contains the limit" true
    (Interval.contains final.Anytime.bounds (1.0 -. 0.2887880951))

let test_contains_batch_estimate () =
  (* With +1 growth the session stops at the smallest certifiable n, which
     is at most the batch truncation point; the batch estimate of the same
     monotone query therefore lies inside the final anytime interval. *)
  let eps = 0.01 in
  let phi = parse "exists x. R(x)" in
  let sess =
    Anytime.create ~eps ~growth:(fun n -> n + 1) (geo_source ()) phi
  in
  let _, steps = Anytime.run sess in
  let final = List.nth steps (List.length steps - 1) in
  let batch = Approx_eval.boolean (geo_source ()) ~eps phi in
  Alcotest.(check bool) "batch estimate inside anytime interval" true
    (Interval.contains final.Anytime.bounds
       (Rational.to_float batch.Approx_eval.estimate))

let test_delta_path_matches_exact_truncations () =
  (* On a pure existential query every step takes the delta path, and the
     per-step estimate must bracket the exact closed-world probability of
     the same truncation (inert padding values cannot satisfy R). *)
  let phi = parse "exists x. R(x)" in
  let sess = Anytime.create ~eps:0.01 (geo_source ()) phi in
  let _, steps = Anytime.run sess in
  List.iteri
    (fun idx s ->
      if idx > 0 then
        Alcotest.(check bool)
          (Printf.sprintf "step %d incremental" s.Anytime.index)
          true s.Anytime.incremental;
      let exact =
        Query_eval.boolean (Fact_source.truncate (geo_source ()) s.Anytime.n) phi
      in
      Alcotest.(check bool)
        (Printf.sprintf "estimate brackets exact at n=%d" s.Anytime.n)
        true
        (Interval.contains s.Anytime.estimate (Rational.to_float exact)))
    steps

let test_cmp_query_agrees_with_batch () =
  (* A [Cmp] query can tell inert padding values apart, so the session
     must evaluate it unpadded, as the batch engine does: padding
     [exists x. 100 < x] with string values (which sort above every
     integer) would make it true at every depth, an enclosure disjoint
     from the truncated-semantics answer 0. *)
  let src () =
    Fact_source.of_list
      (List.init 20 (fun k -> (r_fact k, Rational.pow Rational.half (k + 1))))
  in
  let phi = parse "exists x. 100 < x" in
  let batch = Approx_eval.boolean (src ()) ~eps:0.01 phi in
  let sess = Anytime.create ~eps:0.01 (src ()) phi in
  let _ = Anytime.run sess in
  Alcotest.(check bool) "anytime and batch enclosures intersect" true
    (Interval.intersect batch.Approx_eval.bounds (Anytime.bounds sess) <> None)

(* ------------------------------------------------------------------ *)
(* Cache reuse *)
(* ------------------------------------------------------------------ *)

let test_recompile_path_reuses_caches () =
  (* exists & !forall is not a pure quantifier chain, so every step
     recompiles — in the shared manager, where the sub-functions of the
     previous lineage are already resident.  Later steps must therefore
     see apply-cache hits carried over from earlier ones. *)
  let phi = parse "(exists x. R(x)) & !(forall y. R(y))" in
  let sess = Anytime.create ~eps:0.02 (geo_source ()) phi in
  let _, steps = Anytime.run sess in
  Alcotest.(check bool) "several steps" true (List.length steps >= 2);
  List.iter
    (fun s ->
      Alcotest.(check bool)
        (Printf.sprintf "step %d recompiles" s.Anytime.index)
        false s.Anytime.incremental)
    steps;
  let late_hits =
    List.filter
      (fun s ->
        s.Anytime.index > 1 && Stats.find s.Anytime.stats "bdd.apply.hit" > 0.0)
      steps
  in
  Alcotest.(check bool) "apply-cache hits carried between steps" true
    (late_hits <> []);
  Alcotest.(check bool) "still narrows monotonically" true
    (widths_non_increasing steps)

(* ------------------------------------------------------------------ *)
(* Stop reasons *)
(* ------------------------------------------------------------------ *)

let test_exhausted_source_is_exact () =
  let src =
    Fact_source.of_list [ (r_fact 0, q 1 2); (r_fact 1, q 1 4) ]
  in
  let sess = Anytime.create ~eps:0.001 src (parse "exists x. R(x)") in
  let reason, steps = Anytime.run sess in
  (match reason with
   | Anytime.Converged | Anytime.Exhausted -> ()
   | r ->
     Alcotest.failf "finite source must converge or exhaust, got %s"
       (Anytime.stop_reason_to_string r));
  let final = List.nth steps (List.length steps - 1) in
  (* P = 1 - 1/2 * 3/4 = 5/8, exactly *)
  Alcotest.(check bool) "tight around 5/8" true
    (Interval.contains final.Anytime.bounds 0.625
     && final.Anytime.width < 1e-9)

let test_step_budget () =
  (* One step per unit of growth cannot reach the eps=0.001 truncation
     point (n=11) in 3 steps; the budget's step cap stops the session.
     [step] spends its unit before checking, and a cap trips once the
     spend reaches it, so a cap of 4 admits 3 steps. *)
  let sess =
    Anytime.create ~eps:0.001 ~growth:(fun n -> n + 1)
      ~budget:(Budget.create ~max_steps:4 ())
      (geo_source ())
      (parse "exists x. R(x)")
  in
  let reason, steps = Anytime.run sess in
  (match reason with
   | Anytime.Interrupted (Budget.Cap Budget.Steps) -> ()
   | r -> Alcotest.failf "expected step budget, got %s" (Anytime.stop_reason_to_string r));
  Alcotest.(check int) "3 steps" 3 (List.length steps);
  Alcotest.(check int) "n advanced once per step" 3 (Anytime.current_n sess);
  (* partial answers are still certified *)
  Alcotest.(check bool) "bounds still sound" true
    (Interval.contains (List.nth steps 2).Anytime.bounds (1.0 -. 0.2887880951))

let test_prefix_budget () =
  let sess =
    Anytime.create ~eps:0.001 ~max_n:4 (geo_source ()) (parse "exists x. R(x)")
  in
  let reason, _ = Anytime.run sess in
  match reason with
  | Anytime.Prefix_budget -> ()
  | r -> Alcotest.failf "expected prefix budget, got %s" (Anytime.stop_reason_to_string r)

let test_step_after_stop_is_none () =
  let sess = Anytime.create ~eps:0.05 (geo_source ()) (parse "exists x. R(x)") in
  let _ = Anytime.run sess in
  Alcotest.(check bool) "no step after stop" true (Anytime.step sess = None);
  Alcotest.(check bool) "stop reason recorded" true
    (Anytime.stop_reason sess <> None)

let test_create_validation () =
  Alcotest.check_raises "free variables"
    (Invalid_argument "Anytime: query must be a sentence") (fun () ->
      ignore (Anytime.create (geo_source ()) (parse "R(x)")));
  Alcotest.check_raises "bad eps"
    (Invalid_argument "Anytime: eps must lie in (0, 1/2)") (fun () ->
      ignore (Anytime.create ~eps:0.5 (geo_source ()) (parse "exists x. R(x)")))

let () =
  Alcotest.run "anytime"
    [
      ( "certification",
        [
          Alcotest.test_case "converges and narrows" `Quick
            test_converges_and_narrows;
          Alcotest.test_case "contains batch estimate" `Quick
            test_contains_batch_estimate;
          Alcotest.test_case "delta path matches exact truncations" `Quick
            test_delta_path_matches_exact_truncations;
          Alcotest.test_case "cmp query agrees with batch" `Quick
            test_cmp_query_agrees_with_batch;
        ] );
      ( "reuse",
        [
          Alcotest.test_case "recompile path reuses caches" `Quick
            test_recompile_path_reuses_caches;
        ] );
      ( "stopping",
        [
          Alcotest.test_case "exhausted source exact" `Quick
            test_exhausted_source_is_exact;
          Alcotest.test_case "step budget" `Quick test_step_budget;
          Alcotest.test_case "prefix budget" `Quick test_prefix_budget;
          Alcotest.test_case "step after stop" `Quick test_step_after_stop_is_none;
          Alcotest.test_case "create validation" `Quick test_create_validation;
        ] );
    ]
