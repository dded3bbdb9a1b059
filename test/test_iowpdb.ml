(* Tests for the infinite open-world core: fact sources, the countable TI
   construction (Section 4.1), countable BID PDBs (Section 4.4),
   completions (Section 5) and the truncation approximation (Section 6). *)

let i n = Value.Int n
let q = Rational.of_ints
let fact r args = Fact.make r (List.map i args)
let parse = Fo_parse.parse_exn

let check_q msg expected actual =
  Alcotest.(check string) msg (Rational.to_string expected)
    (Rational.to_string actual)

let r_fact k = fact "R" [ k ]

(* p_i = (1/2)^(i+1): mass 1, tails 2^-n. *)
let geo_source () =
  Fact_source.geometric ~first:Rational.half ~ratio:Rational.half
    ~facts:(fun k -> r_fact k)
    ()

(* ------------------------------------------------------------------ *)
(* Fact_source *)
(* ------------------------------------------------------------------ *)

let test_source_geometric () =
  let s = geo_source () in
  (match Fact_source.nth s 0 with
   | Some (f, p) ->
     Alcotest.(check string) "first fact" "R(0)" (Fact.to_string f);
     check_q "first prob" Rational.half p
   | None -> Alcotest.fail "nonempty");
  check_q "prefix sum 3" (q 7 8) (Fact_source.prefix_sum s 3);
  (match Fact_source.tail_mass s 3 with
   | Some t -> Alcotest.(check bool) "tail ~1/8" true (Float.abs (t -. 0.125) < 1e-9)
   | None -> Alcotest.fail "tail expected");
  Alcotest.(check bool) "converges" true (Fact_source.converges s)

let test_source_prob_lookup () =
  let s = geo_source () in
  (match Fact_source.prob s (r_fact 5) with
   | Some p -> check_q "p_5 = 2^-6" (q 1 64) p
   | None -> Alcotest.fail "should find R(5)");
  Alcotest.(check bool) "alien fact not found" true
    (Fact_source.prob s (fact "Z" [ 0 ]) = None)

let test_source_telescoping () =
  let s = Fact_source.telescoping ~mass:Rational.one ~facts:r_fact () in
  (* p_0 = 1/2, p_1 = 1/6, p_2 = 1/12 *)
  (match Fact_source.nth s 1 with
   | Some (_, p) -> check_q "p_1" (q 1 6) p
   | None -> Alcotest.fail "nonempty");
  (* tail(n) = 1/(n+1) exactly *)
  (match Fact_source.tail_mass s 9 with
   | Some t -> Alcotest.(check bool) "tail 1/10" true (Float.abs (t -. 0.1) < 1e-9)
   | None -> Alcotest.fail "tail expected")

let test_source_divergent () =
  let s = Fact_source.divergent_harmonic ~scale:Rational.one ~facts:r_fact () in
  Alcotest.(check bool) "diverges" false (Fact_source.converges s);
  Alcotest.(check bool) "no truncation point" true
    (Fact_source.search ~max_n:4096 (Fact_source.tail_mass s) 0.1
    = Fact_source.Silent 4096)

let test_source_of_list_validation () =
  Alcotest.check_raises "duplicate"
    (Invalid_argument "Fact_source finite: duplicate fact R(1)") (fun () ->
      ignore
        (Fact_source.of_list [ (r_fact 1, q 1 2); (r_fact 1, q 1 3) ]));
  Alcotest.check_raises "zero prob"
    (Invalid_argument "Fact_source finite: probability 0 for R(1) not in (0,1]")
    (fun () -> ignore (Fact_source.of_list [ (r_fact 1, Rational.zero) ]));
  (* finite source has exactly-zero tail past its end *)
  let s = Fact_source.of_list [ (r_fact 1, q 1 2) ] in
  Alcotest.(check (option (float 0.0))) "tail 0" (Some 0.0)
    (Fact_source.tail_mass s 5)

let test_source_truncate () =
  let s = geo_source () in
  let t = Fact_source.truncate s 3 in
  Alcotest.(check int) "3 facts" 3 (Ti_table.size t);
  check_q "marginal preserved" (q 1 4) (Ti_table.prob t (r_fact 1))

let test_source_of_ti_table () =
  let ti = Ti_table.create (List.init 12 (fun j -> (r_fact j, q 1 (j + 2)))) in
  let size = Ti_table.size ti in
  List.iter
    (fun n ->
      Alcotest.(check bool)
        (Printf.sprintf "n = %d is the table" n)
        true
        (Fact_source.truncate (Fact_source.of_ti_table ti) n == ti))
    [ size; size + 1; 1000 ];
  let first n =
    Ti_table.create (List.filteri (fun i _ -> i < n) (Ti_table.facts ti))
  in
  Alcotest.(check bool) "a proper prefix is pulled" true
    (Ti_table.facts (Fact_source.truncate (Fact_source.of_ti_table ti) 5)
    = Ti_table.facts (first 5));
  (* Under a budget the table costs what pulling it would: [size] facts,
     and one more for finding the end when asked past it. *)
  List.iter
    (fun n ->
      let spent src =
        let b = Budget.create () in
        ignore (Fact_source.truncate (Fact_source.with_budget b src) n);
        Budget.spent b Budget.Facts
      in
      Alcotest.(check int)
        (Printf.sprintf "facts charged at n = %d" n)
        (spent (Fact_source.of_list (Ti_table.facts ti)))
        (spent (Fact_source.of_ti_table ti)))
    [ 0; 5; size; size + 1; size + 7 ];
  Alcotest.check_raises "a cap below the table trips"
    (Budget.Exhausted (Budget.Cap Budget.Facts)) (fun () ->
      let b = Budget.create ~max_facts:(size - 1) () in
      ignore
        (Fact_source.truncate
           (Fact_source.with_budget b (Fact_source.of_ti_table ti))
           size))

let test_source_prefix_for_tail () =
  let s = geo_source () in
  (* tail(n) = 2^-n (+ulp); want <= 0.01 -> n = 7 *)
  (match Fact_source.search (Fact_source.tail_mass s) 0.01 with
   | Found (n, t) ->
     Alcotest.(check int) "n(0.01)" 7 n;
     Alcotest.(check bool) "certified there" true (t <= 0.01)
   | Too_slow _ | Silent _ -> Alcotest.fail "expected truncation point")

let test_source_append_interleave_map () =
  let head = [ (fact "A" [ 0 ], q 9 10) ] in
  let s = Fact_source.append_finite head (geo_source ()) in
  (match Fact_source.nth s 0 with
   | Some (f, _) -> Alcotest.(check string) "head first" "A(0)" (Fact.to_string f)
   | None -> Alcotest.fail "nonempty");
  (match Fact_source.nth s 1 with
   | Some (f, _) -> Alcotest.(check string) "then tail" "R(0)" (Fact.to_string f)
   | None -> Alcotest.fail "nonempty");
  (* sound tails on the composite *)
  (match Fact_source.tail_mass s 0 with
   | Some t -> Alcotest.(check bool) "head+tail mass" true (t >= 1.9 -. 1e-6)
   | None -> Alcotest.fail "tail expected");
  let s_fact k = fact "S" [ k ] in
  let both =
    Fact_source.interleave (geo_source ())
      (Fact_source.geometric ~first:Rational.half ~ratio:Rational.half
         ~facts:s_fact ())
  in
  (match (Fact_source.nth both 0, Fact_source.nth both 1) with
   | Some (f0, _), Some (f1, _) ->
     Alcotest.(check string) "alternate 0" "R(0)" (Fact.to_string f0);
     Alcotest.(check string) "alternate 1" "S(0)" (Fact.to_string f1)
   | _ -> Alcotest.fail "nonempty");
  Alcotest.(check bool) "interleaved converges" true (Fact_source.converges both)

(* Regression: the finite constructors used to sum nearest-rounded
   marginals and add a fixed relative headroom of 1e-12, which the
   rounding error outgrows: with 44,985 facts at 1/13 the certified mass
   at index 0 fell below the exact 44985/13.  Each partial sum now
   rounds up. *)
let test_source_finite_tail_sound () =
  let n = 44_985 and p = q 1 13 in
  let entries = List.init n (fun k -> (r_fact k, p)) in
  let exact = Rational.mul (Rational.of_int n) p in
  let sound what src =
    match Fact_source.tail_mass src 0 with
    | Some t ->
      Alcotest.(check bool) what true
        (Rational.compare (Rational.of_float_exn t) exact >= 0)
    | None -> Alcotest.failf "%s: no certificate" what
  in
  sound "of_list" (Fact_source.of_list entries);
  sound "append_finite"
    (Fact_source.append_finite entries (Fact_source.of_list []))

let test_source_deep_certificate () =
  (* Regression: [converges] used to probe a fixed ladder {0, 1, 16, 1024}
     and declared any source whose certificate first answers deeper than
     that divergent — sending Approx_eval down the "diverges" error path
     for sources that merely converge slowly. *)
  let deep () =
    Fact_source.make ~name:"deep-cert"
      ~enum:
        (Seq.map
           (fun k -> (r_fact k, Rational.pow Rational.half (k + 1)))
           (Seq.ints 0))
      ~tail:(fun n -> if n >= 2000 then Some 0.6 else None)
      ()
  in
  Alcotest.(check bool) "certificate found past the old ladder" true
    (Fact_source.converges (deep ()));
  Alcotest.(check bool) "no certificate below its depth" false
    (Fact_source.converges ~max_n:1024 (deep ()));
  (* The certificate exists but 0.6 is too weak for any eps in (0, 1/2):
     the failure must be diagnosed as "too slowly", not divergence. *)
  let contains ~sub msg =
    let ls = String.length sub and lm = String.length msg in
    let rec find i = i + ls <= lm && (String.sub msg i ls = sub || find (i + 1)) in
    find 0
  in
  match Approx_eval.boolean (deep ()) ~eps:0.1 (parse "exists x. R(x)") with
  | exception Invalid_argument msg ->
    Alcotest.(check bool)
      ("mentions slow convergence: " ^ msg)
      true
      (contains ~sub:"converges too slowly" msg)
  | _ -> Alcotest.fail "a 0.6 tail bound cannot certify eps = 0.1"

(* ------------------------------------------------------------------ *)
(* Countable_ti (Section 4.1) *)
(* ------------------------------------------------------------------ *)

let test_cti_rejects_divergent () =
  let s = Fact_source.divergent_harmonic ~scale:Rational.one ~facts:r_fact () in
  (match Countable_ti.create s with
   | exception Invalid_argument msg ->
     Alcotest.(check bool) "mentions theorem 4.8" true
       (String.length msg > 0
        && Option.is_some
             (String.index_opt msg '4'))
   | _ -> Alcotest.fail "divergent source must be rejected (Theorem 4.8)")

(* A certificate that answers only NaN certifies nothing: [converges]
   says so, and the constructors agree with it instead of accepting the
   NaN as a tail that merely never gets small. *)
let nan_tail_source () =
  Fact_source.make ~name:"nan-tail"
    ~enum:
      (Seq.map (fun k -> (r_fact k, Rational.pow Rational.half (k + 1))) (Seq.ints 0))
    ~tail:(fun _ -> Some nan)
    ()

let test_cti_rejects_nan_tail () =
  Alcotest.(check bool) "converges says no" false
    (Fact_source.converges (nan_tail_source ()));
  match Countable_ti.create_r (nan_tail_source ()) with
  | Error (Errors.Divergent_source { source; probed_to }) ->
    Alcotest.(check string) "names the source" "nan-tail" source;
    Alcotest.(check int) "probed to 2^20" (1 lsl 20) probed_to
  | Error e -> Alcotest.fail ("wrong rejection: " ^ Errors.to_string e)
  | Ok _ -> Alcotest.fail "a NaN-only certificate must be rejected"

(* A certificate that answers only from depth 2000 on: [create] accepts
   it, and a bound asked at a shallower [n] is the vacuous enclosure,
   not an assertion failure. *)
let late_tail n = if n >= 2000 then Some 0.6 else None

let late_source rel =
  Fact_source.make ~name:"late-tail"
    ~enum:
      (Seq.map
         (fun k -> (fact rel [ k ], Rational.pow Rational.half (k + 1)))
         (Seq.ints 0))
    ~tail:late_tail ()

let test_cti_silent_certificate () =
  let t = Countable_ti.create (late_source "R") in
  let lo, hi = Countable_ti.expected_size_bounds t ~n:3 in
  Alcotest.(check (float 0.0)) "prefix" 0.875 lo;
  Alcotest.(check (float 0.0)) "no upper bound" infinity hi;
  (* Every world agreeing with the first 3 facts: prod (1 - p_i) =
     21/64, and the unknown rest leaves [0, 21/64]. *)
  let check_vacuous what iv =
    Alcotest.(check (float 0.0)) (what ^ " lo") 0.0 (Interval.lo iv);
    Alcotest.(check bool) (what ^ " hi") true
      (Interval.contains iv (21.0 /. 64.0) && Interval.hi iv < 0.33)
  in
  check_vacuous "empty world" (Countable_ti.empty_world_prob_bounds t ~n:3);
  check_vacuous "{R(0)}"
    (Countable_ti.instance_prob_bounds t ~n:3 (Instance.of_list [ r_fact 0 ]))

let test_cti_marginals () =
  let t = Countable_ti.create (geo_source ()) in
  (match Countable_ti.marginal t (r_fact 3) with
   | Some p -> check_q "p_3" (q 1 16) p
   | None -> Alcotest.fail "marginal expected")

let test_cti_expected_size () =
  let t = Countable_ti.create (geo_source ()) in
  let lo, hi = Countable_ti.expected_size_bounds t ~n:30 in
  (* E(S) = sum 2^-(i+1) = 1 (Corollary 4.7: finite) *)
  Alcotest.(check bool) "brackets 1" true (lo <= 1.0 && 1.0 <= hi);
  Alcotest.(check bool) "tight" true (hi -. lo < 1e-6)

let test_cti_partition_sums_to_one () =
  let t = Countable_ti.create (geo_source ()) in
  (* Lemma 4.3's finite core: the 2^n subset sum of prefix measures is
     exactly 1 for every n — exact rational arithmetic. *)
  List.iter
    (fun n ->
      check_q
        (Printf.sprintf "partition n=%d" n)
        Rational.one
        (Countable_ti.partition_prefix_sum t ~n))
    [ 0; 1; 2; 5; 10 ]

let test_cti_instance_prob () =
  let t = Countable_ti.create (geo_source ()) in
  let d = Instance.of_list [ r_fact 0 ] in
  (* P({R(0)}) = 1/2 * prod_{i>=1}(1 - 2^-(i+1)) *)
  let bounds = Countable_ti.instance_prob_bounds t ~n:40 d in
  let prefix20 = Countable_ti.instance_prob_prefix t ~n:20 d in
  let prefix40 = Countable_ti.instance_prob_prefix t ~n:40 d in
  (* prefix is antitone and the bounds bracket the limit *)
  Alcotest.(check bool) "prefix antitone" true
    (Rational.compare prefix40 prefix20 <= 0);
  Alcotest.(check bool) "upper >= lower" true
    (Interval.lo bounds <= Interval.hi bounds);
  Alcotest.(check bool) "prefix above lower bound" true
    (Rational.to_float prefix40 >= Interval.lo bounds -. 1e-12);
  (* numeric reference: 0.5 * prod_{i>=1}(1-2^-(i+1)) = 0.28878809508...;
     the enclosure at n=40 is ulp-tight, so check overlap with a small
     bracket around the constant rather than containment of a truncated
     literal. *)
  Alcotest.(check bool) "contains reference" true
    (Interval.intersect bounds (Interval.make 0.2887880945 0.2887880955)
     <> None);
  Alcotest.check_raises "beyond prefix"
    (Invalid_argument
       "Countable_ti.instance_prob_bounds: instance has facts beyond the first n")
    (fun () ->
      ignore (Countable_ti.instance_prob_bounds t ~n:2 (Instance.of_list [ r_fact 10 ])))

let test_cti_empty_world () =
  let t = Countable_ti.create (geo_source ()) in
  let b = Countable_ti.empty_world_prob_bounds t ~n:40 in
  (* prod (1 - 2^-i) for i>=1 = 0.28878809508... (digital search tree
     constant); the enclosure is ulp-tight, so test overlap with a small
     bracket around the constant. *)
  Alcotest.(check bool) "pentagonal-number constant" true
    (Interval.intersect b (Interval.make 0.2887880945 0.2887880955) <> None);
  Alcotest.(check bool) "positive" true (Interval.lo b > 0.0)

let test_cti_truncate_for_mass () =
  let t = Countable_ti.create (geo_source ()) in
  match
    Fact_source.search
      (Fact_source.tail_mass (Countable_ti.source t))
      0.01
  with
  | Found (n, _) ->
    Alcotest.(check int) "n = 7" 7 n;
    Alcotest.(check int) "table size" 7
      (Ti_table.size (Countable_ti.truncate t ~n))
  | Too_slow _ | Silent _ -> Alcotest.fail "expected truncation"

let test_cti_sampling () =
  let draw = (Countable_ti.sampler (Countable_ti.create (geo_source ()))).draw in
  let g = Prng.create ~seed:2024 () in
  let n = 20_000 in
  let sizes = ref 0 and hit0 = ref 0 in
  for _ = 1 to n do
    let w = draw g in
    sizes := !sizes + Instance.size w;
    if Instance.mem (r_fact 0) w then incr hit0
  done;
  let mean_size = float_of_int !sizes /. float_of_int n in
  Alcotest.(check bool) "mean size ~ E(S)=1" true (Float.abs (mean_size -. 1.0) < 0.05);
  let m0 = float_of_int !hit0 /. float_of_int n in
  Alcotest.(check bool) "marginal R(0) ~ 1/2" true (Float.abs (m0 -. 0.5) < 0.02)

let test_cti_sampled_independence () =
  let t = Countable_ti.sampler (Countable_ti.create (geo_source ())) in
  let gap =
    Sampler.independence_gap ~seed:5 ~samples:30_000 t.draw (r_fact 0)
      (r_fact 1)
  in
  Alcotest.(check bool) "independence gap small" true (gap < 0.01)

let test_sampler_draws_reproducible () =
  (* Regression: [draws] used to thread one mutable generator through
     [Seq.init], so a second traversal of the (non-memoizing) sequence
     continued the stream and produced different values.  Each draw now
     runs on its own substream of the seed. *)
  let t = Countable_ti.sampler (Countable_ti.create (geo_source ())) in
  let seq = Sampler.draws ~seed:31 ~samples:20 t.draw in
  let first = List.map Instance.to_string (List.of_seq seq) in
  let second = List.map Instance.to_string (List.of_seq seq) in
  Alcotest.(check (list string)) "two traversals identical" first second;
  (* order-independence: element k alone equals element k of a full
     traversal *)
  let nth k = Instance.to_string (Option.get (Seq.uncons (Seq.drop k seq) |> Option.map fst)) in
  Alcotest.(check string) "random access matches" (List.nth first 7) (nth 7);
  Alcotest.(check bool) "draws differ across indices" true
    (List.length (List.sort_uniq compare first) > 1)

(* ------------------------------------------------------------------ *)
(* Countable_bid (Section 4.4) *)
(* ------------------------------------------------------------------ *)

(* Blocks B_k = { T(k, 0), T(k, 1) } with probabilities 2^-(k+2) each:
   block mass 2^-(k+1), total mass 1/2. *)
let bid_blocks () =
  Seq.map
    (fun k ->
      let p = Rational.pow Rational.half (k + 2) in
      Countable_bid.block_finite
        ~id:(Printf.sprintf "B%d" k)
        [ (fact "T" [ k; 0 ], p); (fact "T" [ k; 1 ], p) ])
    (Seq.ints 0)

let bid () =
  Countable_bid.create ~name:"geo-bid" ~blocks:(bid_blocks ())
    ~tail:(fun n -> Some (Float.succ (0.5 ** float_of_int (n + 1))))
    ()

let test_cbid_create_and_masses () =
  let b = bid () in
  (match Countable_bid.nth_block b 0 with
   | Some blk ->
     check_q "mass" Rational.half (Countable_bid.block_mass blk);
     check_q "slack" Rational.half (Countable_bid.block_slack blk)
   | None -> Alcotest.fail "block expected");
  let lo, hi = Countable_bid.expected_size_bounds b ~n:30 in
  Alcotest.(check bool) "E(S) ~ 1" true (lo <= 1.0 +. 1e-9 && 1.0 <= hi +. 1e-9 && hi -. lo < 1e-6)

let test_cbid_rejects_divergent () =
  let blocks =
    Seq.map
      (fun k ->
        Countable_bid.block_finite
          ~id:(Printf.sprintf "B%d" k)
          [ (fact "T" [ k; 0 ], Rational.half) ])
      (Seq.ints 0)
  in
  Alcotest.check_raises "no certificate"
    (Invalid_argument
       "Countable_bid.create: divergent-bid has no convergence certificate \
        (Theorem 4.15)") (fun () ->
      ignore
        (Countable_bid.create ~name:"divergent-bid" ~blocks
           ~tail:(fun _ -> None)
           ()))

let bid_blocks ids =
  List.mapi
    (fun k id ->
      Countable_bid.block_finite ~id
        [ (fact "T" [ k; 0 ], Rational.pow Rational.half (k + 2)) ])
    ids

let test_cbid_silent_certificate () =
  let t =
    Countable_bid.create ~name:"late-bid"
      ~blocks:(List.to_seq (bid_blocks (List.init 10 (Printf.sprintf "B%d"))))
      ~tail:late_tail ()
  in
  let lo, hi = Countable_bid.expected_size_bounds t ~n:3 in
  Alcotest.(check (float 0.0)) "prefix" 0.4375 lo;
  Alcotest.(check (float 0.0)) "no upper bound" infinity hi

(* Block ids are checked as blocks are pulled: the certificate of a
   finite list answers without forcing it, so the duplicate surfaces at
   the first pull past it. *)
let test_cbid_duplicate_id () =
  let t = Countable_bid.of_finite_blocks (bid_blocks [ "B0"; "B1"; "B0" ]) in
  Alcotest.check_raises "duplicate id"
    (Invalid_argument "Countable_bid: duplicate block id B0") (fun () ->
      ignore (Countable_bid.expected_size_bounds t ~n:3))

let test_cbid_rejects_nan_tail () =
  let blocks =
    Seq.map
      (fun k ->
        Countable_bid.block_finite
          ~id:(Printf.sprintf "B%d" k)
          [ (fact "T" [ k; 0 ], Rational.pow Rational.half (k + 2)) ])
      (Seq.ints 0)
  in
  Alcotest.check_raises "NaN-only certificate"
    (Invalid_argument
       "Countable_bid.create: nan-bid has no convergence certificate \
        (Theorem 4.15)") (fun () ->
      ignore
        (Countable_bid.create ~name:"nan-bid" ~blocks ~tail:(fun _ -> Some nan)
           ()));
  (* A finite enumeration still certifies itself: its tail is exactly 0
     once the blocks run out, whatever the raw certificate says. *)
  let finite =
    Countable_bid.create ~name:"finite-nan"
      ~blocks:(Seq.take 3 blocks)
      ~tail:(fun _ -> Some nan)
      ()
  in
  Alcotest.(check bool) "finite enumeration accepted" true
    (Countable_bid.tail_mass finite 3 = Some 0.0)

let test_cbid_marginal () =
  let b = bid () in
  (match Countable_bid.marginal b (fact "T" [ 1; 1 ]) with
   | Some p -> check_q "p" (q 1 8) p
   | None -> Alcotest.fail "marginal expected")

let test_cbid_truncate () =
  let b = bid () in
  let table = Countable_bid.truncate b ~n_blocks:4 ~alts_per_block:2 in
  Alcotest.(check int) "4 blocks" 4 (Bid_table.num_blocks table);
  Alcotest.(check int) "8 facts" 8 (Bid_table.size table);
  check_q "preserved marginal" (q 1 8) (Bid_table.prob table (fact "T" [ 1; 1 ]))

let test_cbid_sampling_laws () =
  let draw = (Countable_bid.sampler (bid ())).draw in
  (* exclusivity: zero violations *)
  Alcotest.(check int) "exclusivity" 0
    (Sampler.exclusivity_violations ~seed:11 ~samples:20_000 draw
       (fun f ->
         match Fact.args f with
         | Value.Int k :: _ -> Some (string_of_int k)
         | _ -> None));
  (* marginal of T(0,0) ~ 1/4 *)
  let m =
    Sampler.estimate_marginal ~seed:12 ~samples:30_000 draw (fact "T" [ 0; 0 ])
  in
  Alcotest.(check bool) "marginal ~1/4" true (Float.abs (m -. 0.25) < 0.02);
  (* cross-block independence *)
  let gap =
    Sampler.independence_gap ~seed:13 ~samples:30_000 draw (fact "T" [ 0; 0 ])
      (fact "T" [ 1; 0 ])
  in
  Alcotest.(check bool) "cross-block independent" true (gap < 0.01)

let test_cbid_infinite_block () =
  (* One block with countably many alternatives T(0,j) ~ 2^-(j+2), block
     mass 1/2, plus the exact mass passed explicitly. *)
  let alts = Seq.map (fun j -> (fact "U" [ j ], Rational.pow Rational.half (j + 2))) (Seq.ints 0) in
  let blk = Countable_bid.block ~id:"inf" ~mass:Rational.half alts in
  check_q "mass" Rational.half (Countable_bid.block_mass blk);
  let some_alts = Countable_bid.alternatives ~limit:5 blk in
  Alcotest.(check int) "limited" 5 (List.length some_alts);
  let b =
    Countable_bid.create ~name:"one-inf-block"
      ~blocks:(Seq.return blk)
      ~tail:(fun n -> Some (if n >= 1 then 0.0 else 0.5))
      ()
  in
  let draw = (Countable_bid.sampler b).draw in
  let g = Prng.create ~seed:3 () in
  let hits = ref 0 in
  for _ = 1 to 10_000 do
    let w = draw g in
    if Instance.size w > 1 then Alcotest.fail "at most one fact per block";
    if Instance.mem (fact "U" [ 0 ]) w then incr hits
  done;
  let m = float_of_int !hits /. 10_000.0 in
  Alcotest.(check bool) "U(0) ~ 1/4" true (Float.abs (m -. 0.25) < 0.02)

(* ------------------------------------------------------------------ *)
(* Completion (Section 5) *)
(* ------------------------------------------------------------------ *)

(* The paper's Example 5.7 original table. *)
let ex57_ti =
  Ti_table.create
    [
      (Fact.make "R" [ Value.Str "A"; i 1 ], q 8 10);
      (Fact.make "R" [ Value.Str "B"; i 1 ], q 4 10);
      (Fact.make "R" [ Value.Str "B"; i 2 ], q 5 10);
      (Fact.make "R" [ Value.Str "C"; i 3 ], q 9 10);
    ]

(* New facts R(x, i) for (x, i) outside the table, with probability
   2^-i spread over the four names: enumerate diagonally. *)
let ex57_news () =
  let names = [| "A"; "B"; "C"; "D" |] in
  let orig = Fact.Set.of_list (Ti_table.support ex57_ti) in
  let all =
    Seq.concat_map
      (fun idx ->
        let x = names.(idx mod 4) and iv = (idx / 4) + 1 in
        let f = Fact.make "R" [ Value.Str x; i iv ] in
        if Fact.Set.mem f orig then Seq.empty
        else Seq.return (f, Rational.pow Rational.half iv))
      (Seq.ints 0)
  in
  (* tail bound: entries at index >= n have value-index >= n/4 + 1; each
     value-index level contributes at most 4 * 2^-i; total <= 8 * 2^-(n/4). *)
  Fact_source.make ~name:"ex57" ~enum:all
    ~tail:(fun n -> Some (8.0 *. (0.5 ** float_of_int (n / 4))))
    ()

let test_completion_cc_exact () =
  let c = Completion.complete_ti ex57_ti (ex57_news ()) in
  (* Theorem 5.5: the completion condition holds exactly at every
     truncation level. *)
  List.iter
    (fun n ->
      check_q
        (Printf.sprintf "CC gap at n=%d" n)
        Rational.zero
        (Completion.completion_condition_gap c ~n))
    [ 0; 1; 2; 4 ]

let test_completion_marginals () =
  let c = Completion.complete_ti ex57_ti (ex57_news ()) in
  (* original marginals preserved *)
  (match Completion.marginal c (Fact.make "R" [ Value.Str "A"; i 1 ]) with
   | Some p -> check_q "original preserved" (q 8 10) p
   | None -> Alcotest.fail "marginal expected");
  (* new fact gets its policy probability: R(D, 1) ~ 1/2 *)
  (match Completion.marginal c (Fact.make "R" [ Value.Str "D"; i 1 ]) with
   | Some p -> check_q "new fact" Rational.half p
   | None -> Alcotest.fail "new marginal expected")

let test_completion_query_exhausted_certificate () =
  (* Regression: the completion engine searched the truncation point,
     threw the certified tail value away, and re-asked the certificate
     afterwards; with a certificate that cannot answer twice the record's
     [tail_mass] came out nan, poisoning the certified bounds.  The value
     observed during the search is threaded through the certify step. *)
  let budget = Hashtbl.create 8 in
  let news =
    Fact_source.make ~name:"probe-once-news"
      ~enum:
        (Seq.map
           (fun k -> (fact "N" [ k ], Rational.pow Rational.half (k + 1)))
           (Seq.ints 0))
      ~tail:(fun n ->
        (* depths 0 and 1 answer freely (they feed [converges] during
           [complete_ti], and probes inside the table ask depth 0);
           every deeper depth answers exactly once *)
        if n <= 1 then Some (0.5 ** float_of_int n)
        else if Hashtbl.mem budget n then None
        else begin
          Hashtbl.add budget n ();
          Some (0.5 ** float_of_int n)
        end)
      ()
  in
  let c = Completion.complete_ti ex57_ti news in
  let r =
    Approx_eval.boolean (Completion.source c) ~eps:0.01 (parse "exists x. N(x)")
  in
  Alcotest.(check bool) "tail_mass is a number" false
    (Float.is_nan r.Approx_eval.tail_mass);
  (* [n_used] counts the table's facts too; past them the completed
     source's tail is the new-fact certificate. *)
  Alcotest.(check (float 0.0)) "tail is the value observed in the search"
    (0.5 ** float_of_int (r.Approx_eval.n_used - Ti_table.size ex57_ti))
    r.Approx_eval.tail_mass;
  Alcotest.(check bool) "bounds are finite and ordered" true
    (Interval.width r.Approx_eval.bounds >= 0.0
    && Interval.hi r.Approx_eval.bounds <= 1.0);
  Alcotest.(check bool) "bounds enclose the truncated estimate" true
    (Interval.contains r.Approx_eval.bounds
       (Rational.to_float r.Approx_eval.estimate)
    || Interval.hi r.Approx_eval.bounds
       >= Rational.to_float r.Approx_eval.estimate)

let test_completion_marginals_valuations () =
  (* Two free variables: the valuation built internally is reversed and
     zipped with the sorted free-variable list; a pairing mistake would
     report the transposed tuple.  Hand-computable instance: original
     R(1,10) at 1/2, one new fact R(2,20) at 1/4. *)
  let ti = Ti_table.create [ (fact "R" [ 1; 10 ], q 1 2) ] in
  let c =
    Completion.complete_ti ti
      (Fact_source.of_list [ (fact "R" [ 2; 20 ], q 1 4) ])
  in
  let ms =
    Approx_eval.marginals (Completion.source c) ~eps:0.01 (parse "R(x, y)")
  in
  let show (tup, p) =
    Printf.sprintf "%s:%s"
      (String.concat ","
         (List.map Value.to_string (Array.to_list tup)))
      (Rational.to_string p)
  in
  Alcotest.(check (list string))
    "tuples paired (x,y), sorted"
    [ "1,10:1/2"; "2,20:1/4" ]
    (List.map show ms)

let test_completion_marginals_errors () =
  let src () =
    Completion.source (Completion.complete_ti ex57_ti (ex57_news ()))
  in
  (* k = 0: the sentence's probability on the empty tuple. *)
  (match
     Approx_eval.marginals (src ()) ~eps:0.1 (parse "exists x y. R(x, y)")
   with
   | [ (tup, p) ] ->
     Alcotest.(check int) "k = 0 gives the empty tuple" 0 (Array.length tup);
     Alcotest.(check bool) "k = 0 positive" true (Rational.sign p > 0)
   | ms -> Alcotest.failf "k = 0 gave %d tuples" (List.length ms));
  Alcotest.check_raises "k > 3"
    (Invalid_argument "Query_eval.marginals: more than 3 free variables")
    (fun () ->
      ignore
        (Approx_eval.marginals (src ()) ~eps:0.1
           (parse "R(x, y) & R(z, w)")))

let test_completion_rejects () =
  Alcotest.check_raises "prob 1 new fact"
    (Invalid_argument
       "Completion: new fact N(1) has probability 1, so P'(Omega) = 0 \
        (forbidden by Definition 5.1)") (fun () ->
      ignore
        (Completion.complete_ti ex57_ti
           (Fact_source.of_list [ (fact "N" [ 1 ], Rational.one) ])));
  Alcotest.check_raises "overlapping fact"
    (Invalid_argument "Completion: R(\"A\", 1) already occurs in the original PDB")
    (fun () ->
      ignore
        (Completion.complete_ti ex57_ti
           (Fact_source.of_list
              [ (Fact.make "R" [ Value.Str "A"; i 1 ], Rational.half) ])))

let test_completion_openpdb () =
  let c =
    Completion.openpdb_lambda ~lambda:(q 1 10)
      ~new_facts:[ fact "N" [ 1 ]; fact "N" [ 2 ] ]
      ex57_ti
  in
  (match Completion.marginal c (fact "N" [ 2 ]) with
   | Some p -> check_q "lambda" (q 1 10) p
   | None -> Alcotest.fail "lambda marginal");
  check_q "CC still exact" Rational.zero
    (Completion.completion_condition_gap c ~n:2)

let test_completion_query_open_vs_closed () =
  (* The closed world says P(exists i. R(D, i)) = 0; the open world gives
     a small positive value. *)
  let phi = parse "exists x. R(\"D\", x)" in
  let closed = Query_eval.boolean ex57_ti phi in
  check_q "closed world zero" Rational.zero closed;
  let c = Completion.complete_ti ex57_ti (ex57_news ()) in
  let r = Approx_eval.boolean (Completion.source c) ~eps:0.01 phi in
  Alcotest.(check bool) "open world positive" true
    (Rational.sign r.Approx_eval.estimate > 0);
  (* sanity: P(exists i. R(D,i)) = 1 - prod_i (1 - 2^-i) ~ 0.7112 *)
  Alcotest.(check bool) "near analytic value" true
    (Float.abs (Rational.to_float r.Approx_eval.estimate -. 0.7112) < 0.02)

let test_completion_omega_silent_certificate () =
  let c = Completion.complete_ti ex57_ti (late_source "N") in
  let om = Completion.omega_prob_bounds c ~n:3 in
  Alcotest.(check (float 0.0)) "lo" 0.0 (Interval.lo om);
  Alcotest.(check bool) "hi is the prefix product 21/64" true
    (Interval.contains om (21.0 /. 64.0) && Interval.hi om < 0.33)

let test_completion_omega_positive () =
  let c = Completion.complete_ti ex57_ti (ex57_news ()) in
  let om = Completion.omega_prob_bounds c ~n:60 in
  Alcotest.(check bool) "P'(Omega) > 0" true (Interval.lo om > 0.0);
  Alcotest.(check bool) "P'(Omega) < 1" true (Interval.hi om < 1.0)

(* ------------------------------------------------------------------ *)
(* Approx_eval (Section 6) *)
(* ------------------------------------------------------------------ *)

let test_approx_error_guarantee () =
  (* Source with known closed forms: p_i = 2^-(i+1) on R(i).
     P(exists x. R(x)) = 1 - prod (1 - 2^-(i+1)) = 1 - 0.288788... *)
  let s = geo_source () in
  let phi = parse "exists x. R(x)" in
  let truth = 1.0 -. 0.2887880951 in
  List.iter
    (fun eps ->
      let r = Approx_eval.boolean s ~eps phi in
      let est = Rational.to_float r.Approx_eval.estimate in
      if Float.abs (est -. truth) > eps then
        Alcotest.failf "error %g exceeds eps %g" (Float.abs (est -. truth)) eps;
      (* certified bounds really contain the truth *)
      Alcotest.(check bool)
        (Printf.sprintf "bounds at eps=%g" eps)
        true
        (Interval.contains r.Approx_eval.bounds truth))
    [ 0.3; 0.1; 0.01; 0.001 ]

let test_approx_n_grows_with_precision () =
  let s = geo_source () in
  let n_at eps =
    match Approx_eval.truncation_r s ~eps with
    | Ok (n, _) -> n
    | Error _ -> Alcotest.fail "expected truncation point"
  in
  Alcotest.(check bool) "monotone" true (n_at 0.2 <= n_at 0.01 && n_at 0.01 <= n_at 0.0001);
  (* geometric: n ~ log2(3/(2 eps)); at 1e-4 that's ~ 14 *)
  Alcotest.(check bool) "log growth" true (n_at 0.0001 < 25)

let test_approx_lifted_step_cap () =
  (* Each plan-rule application is checked before it is spent, as every
     budgeted access is, so a Steps cap of k admits exactly k. *)
  let phi = parse "exists x. R(x)" in
  let run b =
    Approx_eval.boolean_lifted_r ~budget:b (geo_source ()) ~eps:0.01 phi
  in
  let free = Budget.create () in
  (match run free with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "uncapped: %s" (Errors.to_string e));
  let k = Budget.spent free Budget.Steps in
  Alcotest.(check bool) "the plan takes steps" true (k > 0);
  (match run (Budget.create ~max_steps:k ()) with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "cap %d: %s" k (Errors.to_string e));
  match run (Budget.create ~max_steps:(k - 1) ()) with
  | Error (Errors.Budget_exhausted { exhaustion = Budget.Cap Budget.Steps; _ })
    ->
    ()
  | Ok _ -> Alcotest.failf "cap %d admitted %d steps" (k - 1) k
  | Error e -> Alcotest.failf "cap %d: %s" (k - 1) (Errors.to_string e)

let test_approx_eps_validation () =
  let s = geo_source () in
  let phi = parse "exists x. R(x)" in
  Alcotest.check_raises "eps 0" (Invalid_argument "Approx_eval: eps must lie in (0, 1/2)")
    (fun () -> ignore (Approx_eval.boolean s ~eps:0.0 phi));
  Alcotest.check_raises "eps 1/2" (Invalid_argument "Approx_eval: eps must lie in (0, 1/2)")
    (fun () -> ignore (Approx_eval.boolean s ~eps:0.5 phi))

let test_approx_divergent_rejected () =
  let s = Fact_source.divergent_harmonic ~scale:Rational.one ~facts:r_fact () in
  (match Approx_eval.boolean ~max_n:1024 s ~eps:0.1 (parse "exists x. R(x)") with
   | exception Invalid_argument _ -> ()
   | _ -> Alcotest.fail "divergent source must be rejected")

let test_approx_tiny_exact_answer_enclosed () =
  (* Regression: [Rational.to_float] shifted by a fixed 80 guard bits, so
     below about 2^-27 its quotient kept fewer than 53 significant bits
     and the one-ulp bracket around an exact answer missed it: 3^-30 got
     the bounds [4.85693574885489e-15, 4.85693574885490e-15]. *)
  let n = 30 in
  let tbl = Ti_table.create (List.init n (fun k -> (r_fact k, q 1 3))) in
  let phi =
    parse (String.concat " & " (List.init n (Printf.sprintf "R(%d)")))
  in
  let r = Approx_eval.boolean (Fact_source.of_ti_table tbl) ~eps:0.01 phi in
  let exact = Rational.pow (q 1 3) n in
  check_q "estimate is exact" exact r.Approx_eval.estimate;
  let lo = Interval.lo r.Approx_eval.bounds
  and hi = Interval.hi r.Approx_eval.bounds in
  Alcotest.(check bool)
    (Printf.sprintf "[%.17g, %.17g] contains 3^-30" lo hi)
    true
    (Rational.compare (Rational.of_float_exn lo) exact <= 0
    && Rational.compare exact (Rational.of_float_exn hi) <= 0)

let test_approx_exhausted_tail_exact_zero () =
  (* Regression: [boolean] used to re-ask the tail certificate after the
     truncation search; with a certificate that answers each depth at most
     once the second ask failed and [tail_mass] came out nan, poisoning the
     certified bounds.  The observed value is now threaded through, and an
     enumeration exhausted at the truncation point sharpens it to exactly
     0.0. *)
  let probed = Hashtbl.create 8 in
  let s =
    Fact_source.make ~name:"probe-once"
      ~enum:(List.to_seq [ (r_fact 0, q 1 2); (r_fact 1, q 1 4) ])
      ~tail:(fun n ->
        if Hashtbl.mem probed n then None
        else begin
          Hashtbl.add probed n ();
          if n >= 2 then Some 0.0 else Some 1.0
        end)
      ()
  in
  let r = Approx_eval.boolean s ~eps:0.01 (parse "exists x. R(x)") in
  Alcotest.(check (float 0.0)) "tail exactly 0" 0.0 r.Approx_eval.tail_mass;
  check_q "estimate exact on the full table" (q 5 8) r.Approx_eval.estimate;
  Alcotest.(check bool) "bounds collapse to the estimate" true
    (Interval.width r.Approx_eval.bounds < 1e-9)

let test_approx_marginals () =
  let s = geo_source () in
  let ms = Approx_eval.marginals s ~eps:0.05 (parse "R(x)") in
  Alcotest.(check bool) "several tuples" true (List.length ms >= 4);
  (* the marginal of R(0) is 1/2 exactly (it is within the truncation) *)
  (match List.find_opt (fun (t, _) -> Tuple.compare t [| i 0 |] = 0) ms with
   | Some (_, p) -> check_q "R(0)" Rational.half p
   | None -> Alcotest.fail "R(0) expected")

let test_approx_marginals_padded () =
  (* Regression: the marginals decided inner quantifiers on the bare
     truncation.  On {R(0): 1/2, S(0): 1/3} the tuple (0) of
     [R(x) & forall y. R(y)] got 1/2, though [forall y. R(y)] fails in
     the limit (some value is never an R), as the padded Boolean engine
     says for the query's existential closure. *)
  let src =
    Fact_source.of_list [ (fact "R" [ 0 ], q 1 2); (fact "S" [ 0 ], q 1 3) ]
  in
  let ms =
    Approx_eval.marginals src ~eps:0.01 (parse "R(x) & forall y. R(y)")
  in
  Alcotest.(check int) "no tuple has positive probability" 0 (List.length ms);
  check_q "existential closure" Rational.zero
    (Approx_eval.boolean src ~eps:0.01
       (parse "exists x. R(x) & forall y. R(y)"))
      .Approx_eval.estimate

let test_prop62_witness_shape () =
  (* Additive error stays below eps; multiplicative error explodes as the
     first acceptance time grows. *)
  let phi = parse "exists x. R(x)" in
  let eps = 0.01 in
  List.iter
    (fun t0 ->
      let s = Approx_eval.prop62_witness ~first_acceptance:t0 ~horizon:60 in
      let truth = Rational.to_float (Rational.pow Rational.half t0) in
      let r = Approx_eval.boolean s ~eps phi in
      let est = Rational.to_float r.Approx_eval.estimate in
      Alcotest.(check bool)
        (Printf.sprintf "additive ok at t0=%d" t0)
        true
        (Float.abs (est -. truth) <= eps))
    [ 1; 5; 20; 40 ];
  (* deep acceptance: estimate is 0 although the truth is positive *)
  let s = Approx_eval.prop62_witness ~first_acceptance:40 ~horizon:60 in
  let r = Approx_eval.boolean s ~eps phi in
  Alcotest.(check bool) "estimate 0" true (Rational.is_zero r.Approx_eval.estimate);
  Alcotest.(check bool) "truth positive" true (Rational.sign (Rational.pow Rational.half 40) > 0)

(* ------------------------------------------------------------------ *)
(* Size_dist (Section 3.2 / Example 3.3) *)
(* ------------------------------------------------------------------ *)

let test_example_3_3 () =
  (* masses approach 1 *)
  let m = Size_dist.example_3_3_mass_prefix 100 in
  Alcotest.(check bool) "mass below 1" true Rational.(m < one);
  Alcotest.(check bool) "mass near 1" true
    (Rational.to_float m > 0.98);
  (* truncated expectation diverges: strictly growing and large *)
  let e10 = Size_dist.example_3_3_expected_size_prefix 10 in
  let e15 = Size_dist.example_3_3_expected_size_prefix 15 in
  Alcotest.(check bool) "grows" true Rational.(e15 > e10);
  Alcotest.(check bool) "large" true (Rational.to_float e15 > 100.0)

let test_tail_size_probability () =
  let worlds = List.of_seq (Seq.take 12 (Size_dist.example_3_3 ())) in
  (* equation (6): P(S >= n) decreasing in n *)
  let p1 = Size_dist.tail_size_probability worlds 1 in
  let p4 = Size_dist.tail_size_probability worlds 4 in
  let p100 = Size_dist.tail_size_probability worlds 100 in
  Alcotest.(check bool) "antitone" true
    Rational.(p4 <= p1 && p100 <= p4);
  Alcotest.(check bool) "vanishing" true Rational.(p100 < q 1 5)

let test_histogram () =
  let draw = (Countable_ti.sampler (Countable_ti.create (geo_source ()))).draw in
  let g = Prng.create ~seed:1 () in
  let h = Size_dist.histogram (fun _ -> draw g) ~samples:2000 in
  let total = List.fold_left (fun acc (_, c) -> acc + c) 0 h in
  Alcotest.(check int) "counts sum" 2000 total;
  Alcotest.(check bool) "mostly small" true
    (match List.assoc_opt 0 h with Some c -> c > 400 | None -> false)

(* ------------------------------------------------------------------ *)
(* The truncation search *)
(* ------------------------------------------------------------------ *)

(* The reference: a naive least-n linear scan of the certificate. *)
let scan_search ~max_n tail bound =
  let rec go n deepest =
    if n > max_n then
      match deepest with
      | Some (m, t) -> Fact_source.Too_slow (m, t)
      | None -> Silent max_n
    else
      match tail n with
      | Some t when t <= bound -> Found (n, t)
      | Some t -> go (n + 1) (Some (n, t))
      | None -> go (n + 1) deepest
  in
  go 0 None

(* A certificate that records every index it is asked. *)
let recorded tail =
  let asked = ref [] in
  ((fun n -> asked := n :: !asked; tail n), asked)

let search_sources () =
  let s_fact k = fact "S" [ k ] in
  let pack =
    let path = Filename.temp_file "iowpdb_search" ".iow" in
    Fun.protect
      ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
      (fun () ->
        Store.write_ti ~path
          (Ti_table.create (List.init 30 (fun j -> (fact "P" [ j ], q 1 (j + 2)))));
        Store.load path)
  in
  [
    geo_source ();
    Fact_source.geometric ~first:(q 1 3) ~ratio:(q 3 4) ~facts:s_fact ();
    Fact_source.telescoping ~mass:Rational.one ~facts:r_fact ();
    Fact_source.of_list (List.init 20 (fun j -> (r_fact j, q 1 (j + 2))));
    Fact_source.interleave (geo_source ())
      (Fact_source.telescoping ~mass:(q 1 2) ~facts:s_fact ());
    Fact_source.append_finite
      [ (fact "A" [ 0 ], q 9 10); (fact "A" [ 1 ], q 1 3) ]
      (geo_source ());
    Store.fact_source pack;
  ]

let prop_search_is_least_scan =
  let sources = search_sources () in
  let max_n = 300 in
  QCheck.Test.make ~name:"search = least-n scan, each index once, <= 2n+1"
    ~count:300
    QCheck.(
      pair (int_range 0 (List.length sources - 1))
        (oneof [ always 0.0; float_range 1e-3 2.0 ]))
    (fun (k, bound) ->
      let src = List.nth sources k in
      let tail, asked = recorded (Fact_source.tail_mass src) in
      let got = Fact_source.search ~max_n tail bound in
      let want = scan_search ~max_n (Fact_source.tail_mass src) bound in
      let sorted = List.sort compare !asked in
      let once = List.sort_uniq compare sorted = sorted in
      let within =
        match got with
        | Found (n, _) -> List.for_all (fun i -> i <= (2 * n) + 1) sorted
        | Too_slow _ | Silent _ -> true
      in
      if got <> want then
        QCheck.Test.fail_reportf "%s at %g: search and scan disagree"
          (Fact_source.name src) bound;
      once && within)

let test_search_classifies_in_one_pass () =
  (* A divergent source and a certificate stuck at 0.6 are classified by
     a single gallop to max_n: at most ceil(log2(max_n+1)) + 1 probes. *)
  let counted src =
    let probes = ref 0 in
    ( Fact_source.make ~name:(Fact_source.name src)
        ~enum:(Fact_source.seq_of src)
        ~tail:(fun n ->
          incr probes;
          Fact_source.tail_mass src n)
        (),
      probes )
  in
  let probe_cap max_n =
    let rec bits b = if 1 lsl b >= max_n + 1 then b else bits (b + 1) in
    bits 0 + 1
  in
  let deep () =
    Fact_source.make ~name:"deep-cert"
      ~enum:
        (Seq.map
           (fun k -> (r_fact k, Rational.pow Rational.half (k + 1)))
           (Seq.ints 0))
      ~tail:(fun n -> if n >= 2000 then Some 0.6 else None)
      ()
  in
  List.iter
    (fun max_n ->
      let src, probes =
        counted (Fact_source.divergent_harmonic ~scale:Rational.one ~facts:r_fact ())
      in
      (match Approx_eval.truncation_r ~max_n src ~eps:0.1 with
      | Error (Errors.Divergent_source { probed_to; _ }) ->
        Alcotest.(check int) "probed to max_n" max_n probed_to
      | _ -> Alcotest.fail "divergent source must be Divergent_source");
      Alcotest.(check bool)
        (Printf.sprintf "divergent: %d probes <= %d" !probes (probe_cap max_n))
        true
        (!probes <= probe_cap max_n);
      let src, probes = counted (deep ()) in
      (match Approx_eval.truncation_r ~max_n src ~eps:0.1 with
      | Error (Errors.Budget_exhausted { what; _ }) ->
        Alcotest.(check bool) "too slow" true
          (Helpers.contains what "converges too slowly")
      | _ -> Alcotest.fail "a 0.6 certificate must converge too slowly");
      Alcotest.(check bool)
        (Printf.sprintf "too slow: %d probes <= %d" !probes (probe_cap max_n))
        true
        (!probes <= probe_cap max_n))
    [ 1 lsl 20; 4096; 3000 ]

(* ------------------------------------------------------------------ *)
(* Sampling plans *)
(* ------------------------------------------------------------------ *)

(* Random countable spaces.  TI: finite tables whose probabilities may
   fall below the cut, geometric sources, and the telescoping source,
   whose certificate is too weak for the cut within the depth cap.  BID:
   finite and infinite blocks, some ending in an alternative below the
   in-block cut. *)
type plan_space =
  | Table of Rational.t list
  | Geometric of Rational.t * Rational.t
  | Telescoping
  | Blocks of Rational.t list option list  (* [None]: infinite block *)

let tiny = Rational.pow Rational.half 24

let space_to_string = function
  | Table ps -> "table " ^ String.concat " " (List.map Rational.to_string ps)
  | Geometric (a, r) ->
    Printf.sprintf "geometric %s %s" (Rational.to_string a) (Rational.to_string r)
  | Telescoping -> "telescoping"
  | Blocks bs ->
    "blocks "
    ^ String.concat " | "
        (List.map
           (function
             | None -> "inf"
             | Some ps -> String.concat " " (List.map Rational.to_string ps))
           bs)

let gen_space =
  let open QCheck.Gen in
  let prob = oneof [ map (fun k -> q k 16) (int_range 1 15); return tiny ] in
  let block =
    oneof
      [
        return None;
        (* numerators over 64 summing to at most 60, then maybe a tiny
           last alternative *)
        map2
          (fun ks tail ->
            let rec keep acc sum = function
              | k :: rest when sum + k <= 60 -> keep (q k 64 :: acc) (sum + k) rest
              | _ -> List.rev acc
            in
            Some (keep [] 0 ks @ if tail then [ tiny ] else []))
          (list_size (int_range 0 4) (int_range 1 30))
          bool;
      ]
  in
  oneof
    [
      map (fun ps -> Table ps) (list_size (int_range 0 12) prob);
      (* ratios 2^-k: a search that probes 2^20 up front (a mutant of
         [Fact_source.search]) then costs a power of two, not a
         million-digit power of 15/16 *)
      map2
        (fun a r -> Geometric (q a 16, r))
        (int_range 1 8)
        (oneofl [ q 1 16; q 1 4; Rational.half ]);
      return Telescoping;
      map (fun bs -> Blocks bs) (list_size (int_range 0 6) block);
    ]

let ti_source = function
  | Table ps ->
    Some (Fact_source.of_list (List.mapi (fun k p -> (r_fact k, p)) ps))
  | Geometric (first, ratio) ->
    Some (Fact_source.geometric ~first ~ratio ~facts:r_fact ())
  | Telescoping ->
    Some (Fact_source.telescoping ~mass:Rational.one ~facts:r_fact ())
  | Blocks _ -> None

let bid_space bs =
  Countable_bid.of_finite_blocks
    (List.mapi
       (fun b alts ->
         let id = Printf.sprintf "B%d" b in
         match alts with
         | Some ps ->
           Countable_bid.block_finite ~id
             (List.mapi (fun j p -> (fact "T" [ b; j ], p)) ps)
         | None ->
           Countable_bid.block ~id ~mass:Rational.half
             (Seq.map
                (fun j -> (fact "T" [ b; j ], Rational.pow Rational.half (j + 2)))
                (Seq.ints 0)))
       bs)

(* TI: the plan keeps the first n facts for the least n whose certified
   tail is at most the cut (or the depth cap, when the certificate never
   gets there), and its tv is that tail. *)
let ti_plan_ok src =
  let plan = Countable_ti.sampler (Countable_ti.create src) in
  let n = List.length plan.support in
  let tail k = Fact_source.tail_mass src k in
  let least =
    if plan.tv <= Sampler.tail_cut then
      n = 0
      || (match tail (n - 1) with Some t -> t > Sampler.tail_cut | None -> true)
    else n = Sampler.max_depth
  in
  tail n = Some plan.tv && least
  && plan.support = List.map fst (Fact_source.prefix src n)
  && Seq.for_all
       (fun w -> Instance.subset w (Instance.of_list plan.support))
       (Sampler.draws ~seed:n ~samples:20 plan.draw)

(* BID: the plan keeps the blocks before the cut, a prefix of each
   block's alternatives, and its tv is the block tail plus the in-block
   mass it drops; no draw holds two facts of one block. *)
let bid_plan_ok bid =
  let plan = Countable_bid.sampler bid in
  let n, tail = Sampler.cut ~what:"bid" (Countable_bid.tail_mass bid) in
  let support = Fact.Set.of_list plan.support in
  let blocks = List.filter_map (Countable_bid.nth_block bid) (List.init n Fun.id) in
  let dropped, kept_count, prefixes =
    List.fold_left
      (fun (dropped, count, prefixes) b ->
        let alts = Countable_bid.alternatives ~limit:Sampler.max_depth b in
        let kept = List.filter (fun (f, _) -> Fact.Set.mem f support) alts in
        let k = List.length kept in
        let kept_mass =
          List.fold_left (fun m (_, p) -> m +. Rational.to_float p) 0.0 kept
        in
        let mass = Rational.to_float (Countable_bid.block_mass b) in
        ( dropped +. Float.max 0.0 (mass -. kept_mass),
          count + k,
          prefixes && kept = List.filteri (fun i _ -> i < k) alts ))
      (0.0, 0, true) blocks
  in
  let block_of f =
    match Fact.args f with Value.Int b :: _ -> Some (string_of_int b) | _ -> None
  in
  Float.abs (plan.tv -. (dropped +. tail)) <= 1e-12
  && kept_count = List.length plan.support
  && prefixes
  && Sampler.exclusivity_violations ~seed:n ~samples:200 plan.draw block_of = 0
  && Seq.for_all
       (fun w -> Fact.Set.subset (Instance.to_set w) support)
       (Sampler.draws ~seed:(n + 1) ~samples:20 plan.draw)

let prop_sampler_plans =
  QCheck.Test.make ~name:"sampler plans: support, cut, tv, exclusivity"
    ~count:120
    (QCheck.make ~print:space_to_string gen_space)
    (fun space ->
      match (ti_source space, space) with
      | Some src, _ -> ti_plan_ok src
      | None, Blocks bs -> bid_plan_ok (bid_space bs)
      | None, _ -> assert false)

(* ------------------------------------------------------------------ *)
(* Properties *)
(* ------------------------------------------------------------------ *)

let props =
  [
    QCheck.Test.make ~name:"truncations keep marginals" ~count:50
      (QCheck.int_range 1 30)
      (fun n ->
        let s = geo_source () in
        let t = Fact_source.truncate s n in
        List.for_all
          (fun (f, p) -> Rational.equal p (Ti_table.prob t f))
          (Fact_source.prefix s n));
    QCheck.Test.make ~name:"partition sums exactly 1 for random prefixes"
      ~count:30
      (QCheck.int_range 0 12)
      (fun n ->
        let t = Countable_ti.create (geo_source ()) in
        Rational.equal Rational.one (Countable_ti.partition_prefix_sum t ~n));
    QCheck.Test.make ~name:"approx result certified bounds contain estimate*omega"
      ~count:30
      (QCheck.float_range 0.01 0.4)
      (fun eps ->
        let s = geo_source () in
        let r = Approx_eval.boolean s ~eps (parse "exists x. R(x)") in
        Interval.lo r.Approx_eval.bounds <= Interval.hi r.Approx_eval.bounds);
    QCheck.Test.make ~name:"CC gap is 0 for random lambda completions"
      ~count:30
      (QCheck.int_range 1 9)
      (fun k ->
        let c =
          Completion.openpdb_lambda ~lambda:(q k 10)
            ~new_facts:[ fact "N" [ 1 ]; fact "N" [ 2 ]; fact "N" [ 3 ] ]
            ex57_ti
        in
        Rational.is_zero (Completion.completion_condition_gap c ~n:3));
  ]

let () =
  Alcotest.run "iowpdb"
    [
      ( "fact_source",
        [
          Alcotest.test_case "geometric" `Quick test_source_geometric;
          Alcotest.test_case "prob lookup" `Quick test_source_prob_lookup;
          Alcotest.test_case "telescoping" `Quick test_source_telescoping;
          Alcotest.test_case "divergent" `Quick test_source_divergent;
          Alcotest.test_case "of_list validation" `Quick
            test_source_of_list_validation;
          Alcotest.test_case "truncate" `Quick test_source_truncate;
          Alcotest.test_case "of_ti_table hands back its table" `Quick
            test_source_of_ti_table;
          Alcotest.test_case "prefix_for_tail" `Quick test_source_prefix_for_tail;
          Alcotest.test_case "append/interleave/map" `Quick
            test_source_append_interleave_map;
          Alcotest.test_case "deep certificate" `Quick
            test_source_deep_certificate;
          Alcotest.test_case "finite tail sound at 45k facts" `Quick
            test_source_finite_tail_sound;
        ] );
      ("sampler", [ QCheck_alcotest.to_alcotest prop_sampler_plans ]);
      ( "search",
        [
          QCheck_alcotest.to_alcotest prop_search_is_least_scan;
          Alcotest.test_case "classifies in one pass" `Quick
            test_search_classifies_in_one_pass;
        ] );
      ( "countable_ti",
        [
          Alcotest.test_case "rejects divergent (Thm 4.8)" `Quick
            test_cti_rejects_divergent;
          Alcotest.test_case "marginals" `Quick test_cti_marginals;
          Alcotest.test_case "expected size (Cor 4.7)" `Quick
            test_cti_expected_size;
          Alcotest.test_case "partition = 1 (Lemma 4.3)" `Quick
            test_cti_partition_sums_to_one;
          Alcotest.test_case "instance probability" `Quick test_cti_instance_prob;
          Alcotest.test_case "empty world" `Quick test_cti_empty_world;
          Alcotest.test_case "truncate for mass" `Quick test_cti_truncate_for_mass;
          Alcotest.test_case "sampling" `Slow test_cti_sampling;
          Alcotest.test_case "sampled independence (Lemma 4.4)" `Slow
            test_cti_sampled_independence;
          Alcotest.test_case "draws reproducible" `Quick
            test_sampler_draws_reproducible;
          Alcotest.test_case "rejects NaN-only tail" `Quick
            test_cti_rejects_nan_tail;
          Alcotest.test_case "silent certificate: vacuous bounds" `Quick
            test_cti_silent_certificate;
        ] );
      ( "countable_bid",
        [
          Alcotest.test_case "create/masses" `Quick test_cbid_create_and_masses;
          Alcotest.test_case "rejects divergent (Thm 4.15)" `Quick
            test_cbid_rejects_divergent;
          Alcotest.test_case "marginal" `Quick test_cbid_marginal;
          Alcotest.test_case "truncate" `Quick test_cbid_truncate;
          Alcotest.test_case "sampling laws" `Slow test_cbid_sampling_laws;
          Alcotest.test_case "infinite block" `Slow test_cbid_infinite_block;
          Alcotest.test_case "rejects NaN-only tail" `Quick
            test_cbid_rejects_nan_tail;
          Alcotest.test_case "silent certificate: vacuous bounds" `Quick
            test_cbid_silent_certificate;
          Alcotest.test_case "duplicate block id" `Quick test_cbid_duplicate_id;
        ] );
      ( "completion",
        [
          Alcotest.test_case "CC exact (Thm 5.5)" `Quick test_completion_cc_exact;
          Alcotest.test_case "marginals" `Quick test_completion_marginals;
          Alcotest.test_case "query_prob survives exhausted certificate"
            `Quick test_completion_query_exhausted_certificate;
          Alcotest.test_case "marginals valuation pairing" `Quick
            test_completion_marginals_valuations;
          Alcotest.test_case "marginals arity errors" `Quick
            test_completion_marginals_errors;
          Alcotest.test_case "rejections" `Quick test_completion_rejects;
          Alcotest.test_case "openpdb lambda" `Quick test_completion_openpdb;
          Alcotest.test_case "open vs closed world" `Quick
            test_completion_query_open_vs_closed;
          Alcotest.test_case "omega positive" `Quick test_completion_omega_positive;
          Alcotest.test_case "omega vacuous where certificate silent" `Quick
            test_completion_omega_silent_certificate;
        ] );
      ( "approx_eval",
        [
          Alcotest.test_case "error guarantee (Prop 6.1)" `Quick
            test_approx_error_guarantee;
          Alcotest.test_case "n grows with precision" `Quick
            test_approx_n_grows_with_precision;
          Alcotest.test_case "eps validation" `Quick test_approx_eps_validation;
          Alcotest.test_case "lifted step cap admits k steps" `Quick
            test_approx_lifted_step_cap;
          Alcotest.test_case "divergent rejected" `Quick
            test_approx_divergent_rejected;
          Alcotest.test_case "exhausted tail is exact zero" `Quick
            test_approx_exhausted_tail_exact_zero;
          Alcotest.test_case "tiny exact answer enclosed" `Quick
            test_approx_tiny_exact_answer_enclosed;
          Alcotest.test_case "marginals" `Quick test_approx_marginals;
          Alcotest.test_case "marginals pad quantifiers" `Quick
            test_approx_marginals_padded;
          Alcotest.test_case "prop 6.2 witness" `Quick test_prop62_witness_shape;
        ] );
      ( "size_dist",
        [
          Alcotest.test_case "example 3.3" `Quick test_example_3_3;
          Alcotest.test_case "tail size probability" `Quick
            test_tail_size_probability;
          Alcotest.test_case "histogram" `Slow test_histogram;
        ] );
      ("properties", List.map QCheck_alcotest.to_alcotest props);
    ]
