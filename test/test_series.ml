(* Tests for the Series module: certified tails, truncation points and the
   infinite-product machinery of Section 2.2 / claim (∗) of the paper. *)

module S = Series

(* Truncation points and convergence of a series are asked of its tail
   certificate through the one truncation search. *)
let prefix_for_tail s bound =
  match Fact_source.search (S.tail s) bound with
  | Fact_source.Found (n, _) -> Some n
  | Too_slow _ | Silent _ -> None

let converges s = prefix_for_tail s infinity <> None

let checkf = Alcotest.(check (float 1e-9))

let test_geometric_terms () =
  let s = S.geometric ~first:1.0 ~ratio:0.5 () in
  checkf "a0" 1.0 (S.term s 0);
  checkf "a3" 0.125 (S.term s 3);
  checkf "partial 4" 1.875 (S.partial_sum s 4);
  (match S.tail s 2 with
   | Some t -> checkf "tail exact" 0.5 t
   | None -> Alcotest.fail "geometric must have tails");
  Alcotest.(check bool) "converges" true (converges s)

let test_geometric_invalid () =
  Alcotest.check_raises "ratio 1" (Invalid_argument "Series.geometric")
    (fun () -> ignore (S.geometric ~ratio:1.0 ()));
  Alcotest.check_raises "neg ratio" (Invalid_argument "Series.geometric")
    (fun () -> ignore (S.geometric ~ratio:(-0.1) ()))

let test_zeta2 () =
  let s = S.zeta2 () in
  checkf "a0" 1.0 (S.term s 0);
  checkf "a1" 0.25 (S.term s 1);
  (* Tail bound sound: true tail at n is pi^2/6 - partial, must be <= bound. *)
  let pi = 4.0 *. atan 1.0 in
  let total = pi *. pi /. 6.0 in
  List.iter
    (fun n ->
      match S.tail s n with
      | Some b ->
        let true_tail = total -. S.partial_sum s n in
        if true_tail > b +. 1e-9 then
          Alcotest.failf "tail bound unsound at %d: %g > %g" n true_tail b
      | None -> Alcotest.fail "zeta2 must have tails")
    [ 1; 2; 10; 100; 1000 ]

let test_basel_is_probability () =
  let s = S.basel_probability () in
  let approx = S.partial_sum s 200_000 in
  Alcotest.(check bool) "sums to ~1" true (Float.abs (approx -. 1.0) < 1e-4);
  Alcotest.(check bool) "below 1" true (approx < 1.0)

let test_log_slow_sound () =
  let s = S.log_slow () in
  (* Soundness of the integral-test tail: check tail(n) >= sum of the next
     50k terms for a few n. *)
  List.iter
    (fun n ->
      match S.tail s n with
      | Some b ->
        let chunk =
          Prob.kahan_sum_seq (Seq.init 50_000 (fun i -> S.term s (n + i)))
        in
        if chunk > b then Alcotest.failf "log_slow tail unsound at %d" n
      | None -> Alcotest.fail "log_slow must have tails")
    [ 1; 10; 100 ]

let test_of_list () =
  let s = S.of_list [ 0.5; 0.25; 0.125 ] in
  checkf "term 1" 0.25 (S.term s 1);
  checkf "term past end" 0.0 (S.term s 7);
  (match S.tail s 1 with
   | Some t -> checkf "suffix tail" 0.375 t
   | None -> Alcotest.fail "finite series has tails");
  (match S.tail s 3 with
   | Some t -> checkf "zero tail" 0.0 t
   | None -> Alcotest.fail "finite series has tails")

let test_prefix_for_tail () =
  let s = S.geometric ~ratio:0.5 () in
  (* tail n = 2^(1-n); want <= 0.01 -> n >= 1 + log2(100) ~ 7.64 -> 8 *)
  (match prefix_for_tail s 0.01 with
   | Some n ->
     Alcotest.(check int) "geometric n(0.01)" 8 n;
     (match S.tail s n with
      | Some t -> Alcotest.(check bool) "achieves bound" true (t <= 0.01)
      | None -> Alcotest.fail "tail expected")
   | None -> Alcotest.fail "prefix expected");
  (match prefix_for_tail s 10.0 with
   | Some n -> Alcotest.(check int) "trivial bound" 0 n
   | None -> Alcotest.fail "prefix expected")

let test_prefix_growth_shapes () =
  (* E2's shape in miniature: geometric needs O(log 1/eps) terms, zeta2
     needs O(1/eps), log_slow needs exp(1/eps)-ish. *)
  let n_of s eps =
    match prefix_for_tail s eps with Some n -> n | None -> max_int
  in
  let geo = S.geometric ~ratio:0.5 () and z = S.zeta2 () in
  Alcotest.(check bool) "geometric much cheaper than zeta at 1e-4" true
    (n_of geo 1e-4 * 100 < n_of z 1e-4);
  Alcotest.(check bool) "zeta n(1e-4) ~ 1e4" true
    (let n = n_of z 1e-4 in n >= 9_000 && n <= 11_000)

let test_product_compl_prefix () =
  let s = S.of_list [ 0.5; 0.5 ] in
  checkf "(1-.5)^2" 0.25 (S.product_compl_prefix s 2);
  checkf "empty product" 1.0 (S.product_compl_prefix s 0);
  (* trailing zero terms contribute factor 1 *)
  checkf "with zeros" 0.25 (S.product_compl_prefix s 10)

let test_product_compl_bounds () =
  let s = S.geometric ~first:0.25 ~ratio:0.5 () in
  (* Total product over all i of (1 - 0.25 * 0.5^i). *)
  let reference = S.product_compl_prefix s 200 (* converged far past eps *) in
  (match S.product_compl_bounds s 8 with
   | Some (lo, hi) ->
     Alcotest.(check bool) "lo <= ref" true (lo <= reference +. 1e-12);
     Alcotest.(check bool) "ref <= hi" true (reference <= hi +. 1e-12);
     Alcotest.(check bool) "bracket tight-ish" true (hi -. lo < 0.01)
   | None -> Alcotest.fail "bounds expected")

let test_star_bound () =
  (* Claim (∗): prod (1-p_i) >= exp(-3/2 sum p_i) whenever p_i < 1/2,
     i.e. gap >= 1. *)
  List.iter
    (fun s ->
      match S.star_bound_gap s 50 with
      | Some gap ->
        Alcotest.(check bool) (S.name s ^ " gap >= 1") true (gap >= 1.0 -. 1e-12)
      | None -> Alcotest.fail "gap expected")
    [
      S.geometric ~first:0.4 ~ratio:0.5 ();
      S.zeta2 ~scale:0.4 ();
      S.of_list [ 0.49; 0.3; 0.2; 0.1 ];
    ];
  (* Inapplicable when a term >= 1/2. *)
  Alcotest.(check bool) "term 1/2 excluded" true
    (S.star_bound_gap (S.of_list [ 0.5 ]) 1 = None)

let test_distributive_law () =
  (* Lemma 2.3 on finite instances: identity holds to float accuracy. *)
  List.iter
    (fun xs ->
      let gap = S.distributive_law_check xs in
      if gap > 1e-9 then Alcotest.failf "distributive law gap %g" gap)
    [ []; [ 0.5 ]; [ 0.1; 0.2; 0.3 ]; [ 1.0; 1.0; 1.0 ]; [ 0.9; 0.8; 0.7; 0.6; 0.5 ] ]

let props =
  [
    QCheck.Test.make ~name:"geometric tail sound" ~count:200
      QCheck.(pair (float_range 0.01 0.9) (int_range 0 30))
      (fun (ratio, n) ->
        let s = S.geometric ~ratio () in
        match S.tail s n with
        | Some b ->
          (* sum 2000 terms of the tail; must be below the bound *)
          let approx =
            Prob.kahan_sum_seq (Seq.init 2000 (fun i -> S.term s (n + i)))
          in
          approx <= b +. 1e-9
        | None -> false);
    QCheck.Test.make ~name:"prefix_for_tail returns least-ish point" ~count:100
      (QCheck.float_range 1e-6 0.5)
      (fun eps ->
        let s = S.zeta2 () in
        match prefix_for_tail s eps with
        | Some n -> (
            (match S.tail s n with Some t -> t <= eps | None -> false)
            &&
            match S.tail s (Stdlib.max 0 (n - 1)) with
            | Some t -> n = 0 || t > eps
            | None -> false)
        | None -> false);
    QCheck.Test.make ~name:"distributive law random" ~count:100
      QCheck.(list_of_size (QCheck.Gen.int_range 0 10) (float_range 0.0 1.0))
      (fun xs -> S.distributive_law_check xs < 1e-6);
    QCheck.Test.make ~name:"star gap >= 1 on random small probs" ~count:100
      QCheck.(list_of_size (QCheck.Gen.int_range 0 20) (float_range 0.0 0.49))
      (fun xs ->
        match S.star_bound_gap (S.of_list xs) (List.length xs) with
        | Some gap -> gap >= 1.0 -. 1e-9
        | None -> false);
  ]

let () =
  Alcotest.run "series"
    [
      ( "stock",
        [
          Alcotest.test_case "geometric" `Quick test_geometric_terms;
          Alcotest.test_case "geometric invalid" `Quick test_geometric_invalid;
          Alcotest.test_case "zeta2 sound" `Quick test_zeta2;
          Alcotest.test_case "basel probability" `Slow test_basel_is_probability;
          Alcotest.test_case "log_slow sound" `Slow test_log_slow_sound;
          Alcotest.test_case "of_list" `Quick test_of_list;
        ] );
      ( "truncation",
        [
          Alcotest.test_case "prefix_for_tail" `Quick test_prefix_for_tail;
          Alcotest.test_case "growth shapes" `Quick test_prefix_growth_shapes;
        ] );
      ( "products",
        [
          Alcotest.test_case "prefix product" `Quick test_product_compl_prefix;
          Alcotest.test_case "two-sided bounds" `Quick test_product_compl_bounds;
          Alcotest.test_case "claim (*) gap" `Quick test_star_bound;
          Alcotest.test_case "lemma 2.3 finite" `Quick test_distributive_law;
        ] );
      ("properties", List.map QCheck_alcotest.to_alcotest props);
    ]
