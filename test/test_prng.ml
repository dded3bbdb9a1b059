(* Tests for the SplitMix64 PRNG and its distribution helpers.
   Statistical assertions use generous tolerances on large samples so the
   suite is deterministic (fixed seeds) and robust. *)

let g () = Prng.create ~seed:424242 ()

let mean_of n f =
  let gen = g () in
  let acc = ref 0.0 in
  for _ = 1 to n do acc := !acc +. f gen done;
  !acc /. float_of_int n

(* [Prng.float] is the 53 high bits of one SplitMix64 output. *)
let test_determinism () =
  let a = Prng.create ~seed:7 () and b = Prng.create ~seed:7 () in
  for i = 1 to 100 do
    Alcotest.(check (float 0.0))
      (Printf.sprintf "draw %d equal" i)
      (Prng.float a) (Prng.float b)
  done

let test_seeds_differ () =
  let a = Prng.create ~seed:1 () and b = Prng.create ~seed:2 () in
  Alcotest.(check bool) "different streams" false (Prng.float a = Prng.float b)

let test_substream () =
  (* substream g i must equal the (i+1)-th successive SplitMix64 split of
     g, without advancing g: the first draws of those splits of seed
     424242, computed by splitting (next_int64, then mix64) one by one. *)
  let expected =
    [ 0x1.1798f1e358ecdp-1; 0x1.e86303e22a0a7p-1; 0x1.83d7132bb2c98p-3;
      0x1.9d1868cdf69e6p-1; 0x1.d527cece8ffc8p-1 ]
  in
  let b = g () in
  let got = List.init 5 (fun i -> Prng.float (Prng.substream b i)) in
  List.iteri
    (fun i (x, y) ->
      Alcotest.(check (float 0.0))
        (Printf.sprintf "substream %d = split^%d" i (i + 1)) x y)
    (List.combine expected got);
  Alcotest.(check (float 0.0)) "parent not advanced" (Prng.float (g ()))
    (Prng.float b);
  (* pure in both arguments: same index, same stream *)
  let c = g () in
  Alcotest.(check (float 0.0)) "pure"
    (Prng.float (Prng.substream c 3))
    (Prng.float (Prng.substream c 3));
  Alcotest.check_raises "negative index" (Invalid_argument "Prng.substream")
    (fun () -> ignore (Prng.substream c (-1)))

let test_substream_decorrelated () =
  (* Adjacent substreams should not produce overlapping prefixes. *)
  let a = g () in
  let draw i =
    let s = Prng.substream a i in
    List.init 50 (fun _ -> Prng.float s)
  in
  Alcotest.(check bool) "streams 0 and 1 differ" false (draw 0 = draw 1)

let test_float_range () =
  let gen = g () in
  for _ = 1 to 10_000 do
    let f = Prng.float gen in
    if f < 0.0 || f >= 1.0 then Alcotest.failf "float out of range: %g" f
  done

let test_float_mean () =
  let m = mean_of 100_000 Prng.float in
  Alcotest.(check bool) "mean near 0.5" true (Float.abs (m -. 0.5) < 0.01)

let test_int_range_and_uniformity () =
  let gen = g () in
  let counts = Array.make 10 0 in
  let n = 100_000 in
  for _ = 1 to n do
    let v = Prng.int gen 10 in
    if v < 0 || v >= 10 then Alcotest.failf "int out of range: %d" v;
    counts.(v) <- counts.(v) + 1
  done;
  Array.iteri
    (fun i c ->
      let expected = float_of_int n /. 10.0 in
      if Float.abs (float_of_int c -. expected) > 0.05 *. expected then
        Alcotest.failf "bucket %d skewed: %d" i c)
    counts;
  Alcotest.(check int) "int 1 is 0" 0 (Prng.int gen 1);
  Alcotest.check_raises "int 0" (Invalid_argument "Prng.int") (fun () ->
      ignore (Prng.int gen 0))

let test_bernoulli () =
  let m = mean_of 100_000 (fun gen -> if Prng.bernoulli gen 0.3 then 1.0 else 0.0) in
  Alcotest.(check bool) "p=0.3" true (Float.abs (m -. 0.3) < 0.01);
  let gen = g () in
  Alcotest.(check bool) "p=0 never" false (Prng.bernoulli gen 0.0);
  Alcotest.(check bool) "p=1 always" true (Prng.bernoulli gen 1.0);
  Alcotest.check_raises "p out of range" (Invalid_argument "Prng.bernoulli")
    (fun () -> ignore (Prng.bernoulli gen 1.5))

let test_bernoulli_rational () =
  let p = Rational.of_ints 1 3 in
  let m =
    mean_of 90_000 (fun gen -> if Prng.bernoulli_rational gen p then 1.0 else 0.0)
  in
  Alcotest.(check bool) "p=1/3" true (Float.abs (m -. (1.0 /. 3.0)) < 0.01);
  let gen = g () in
  Alcotest.(check bool) "0 never" false
    (Prng.bernoulli_rational gen Rational.zero);
  Alcotest.(check bool) "1 always" true
    (Prng.bernoulli_rational gen Rational.one)

let test_pick_categorical () =
  let gen = g () in
  Alcotest.(check bool) "pick member" true
    (List.mem (Prng.pick gen [| 1; 2; 3 |]) [ 1; 2; 3 ]);
  Alcotest.check_raises "pick empty" (Invalid_argument "Prng.pick") (fun () ->
      ignore (Prng.pick gen ([||] : int array)));
  (* categorical with weights 1:3 -> second bucket ~ 75% *)
  let hits = ref 0 in
  let n = 40_000 in
  let gen = g () in
  for _ = 1 to n do
    if Prng.categorical gen [| 1.0; 3.0 |] = 1 then incr hits
  done;
  let frac = float_of_int !hits /. float_of_int n in
  Alcotest.(check bool) "categorical ratio" true (Float.abs (frac -. 0.75) < 0.02);
  Alcotest.check_raises "all zero" (Invalid_argument "Prng.categorical")
    (fun () -> ignore (Prng.categorical gen [| 0.0; 0.0 |]))

let props =
  [
    QCheck.Test.make ~name:"int g n in range" ~count:500
      (QCheck.int_range 1 1_000_000)
      (fun n ->
        let gen = Prng.create ~seed:n () in
        let v = Prng.int gen n in
        v >= 0 && v < n);
  ]

let () =
  Alcotest.run "prng"
    [
      ( "generator",
        [
          Alcotest.test_case "determinism" `Quick test_determinism;
          Alcotest.test_case "seeds differ" `Quick test_seeds_differ;
          Alcotest.test_case "substream" `Quick test_substream;
          Alcotest.test_case "substream decorrelated" `Quick
            test_substream_decorrelated;
          Alcotest.test_case "float range" `Quick test_float_range;
          Alcotest.test_case "float mean" `Slow test_float_mean;
          Alcotest.test_case "int uniformity" `Slow test_int_range_and_uniformity;
        ] );
      ( "distributions",
        [
          Alcotest.test_case "bernoulli" `Slow test_bernoulli;
          Alcotest.test_case "bernoulli rational" `Slow test_bernoulli_rational;
          Alcotest.test_case "pick/categorical" `Quick test_pick_categorical;
        ] );
      ("properties", List.map QCheck_alcotest.to_alcotest props);
    ]
