(* Tests for exact rational arithmetic. *)

module Q = Rational
module B = Bigint

let q = Q.of_ints
let check_q msg expected actual =
  Alcotest.(check string) msg (Q.to_string expected) (Q.to_string actual)

let test_canonical_form () =
  check_q "2/4 = 1/2" Q.half (q 2 4);
  check_q "-2/-4 = 1/2" Q.half (q (-2) (-4));
  check_q "2/-4 = -1/2" (q (-1) 2) (q 2 (-4));
  check_q "0/7 = 0" Q.zero (q 0 7);
  Alcotest.(check string) "den positive" "2" (B.to_string (Q.den (q 3 (-6))));
  Alcotest.(check string) "coprime" "1/3" (Q.to_string (q 113 339))

let test_make_zero_den () =
  Alcotest.check_raises "den 0" Division_by_zero (fun () ->
      ignore (Q.make B.one B.zero))

let test_field_ops () =
  check_q "1/2 + 1/3" (q 5 6) Q.(add half (q 1 3));
  check_q "1/2 - 1/3" (q 1 6) Q.(sub half (q 1 3));
  check_q "2/3 * 3/4" Q.half Q.(mul (q 2 3) (q 3 4));
  check_q "(1/2) / (1/3)" (q 3 2) Q.(div half (q 1 3));
  check_q "inv 2/5" (q 5 2) (Q.inv (q 2 5));
  check_q "abs" Q.half (Q.abs (q (-1) 2))

let test_pow () =
  check_q "pow (2/3)^3" (q 8 27) (Q.pow (q 2 3) 3);
  check_q "pow (2/3)^-2" (q 9 4) (Q.pow (q 2 3) (-2));
  check_q "pow x^0" Q.one (Q.pow (q 7 11) 0)

let test_compl () =
  check_q "compl 1/3" (q 2 3) (Q.compl (q 1 3));
  check_q "compl 0" Q.one (Q.compl Q.zero);
  check_q "compl 1" Q.zero (Q.compl Q.one)

let test_sum_product () =
  check_q "sum" (q 11 6) (Q.sum [ Q.one; Q.half; q 1 3 ]);
  check_q "empty sum" Q.zero (Q.sum []);
  check_q "product" (q 1 4) (Q.product [ Q.half; Q.half ]);
  check_q "empty product" Q.one (Q.product [])

(* [floor] is reached through [to_decimal_string]: the integer part is
   the floor of [|x|] and the digits are the floor of the scaled
   fraction, truncated rather than rounded. *)
let test_floor_ceil () =
  Alcotest.(check string) "floor 7/2" "3.5" (Q.to_decimal_string (q 7 2));
  Alcotest.(check string) "floor -7/2" "-3.5" (Q.to_decimal_string (q (-7) 2));
  Alcotest.(check string) "floor 3" "3" (Q.to_decimal_string (q 3 1));
  Alcotest.(check string) "digits truncate" "0.66"
    (Q.to_decimal_string ~digits:2 (q 2 3));
  Alcotest.(check string) "digits truncate, negative" "-0.66"
    (Q.to_decimal_string ~digits:2 (q (-2) 3))

let test_compare () =
  Alcotest.(check bool) "1/2 < 2/3" true Q.(half < q 2 3);
  Alcotest.(check bool) "-1/2 < 1/3" true Q.(q (-1) 2 < q 1 3);
  Alcotest.(check bool) "1/2 = 2/4" true Q.(half = q 2 4);
  Alcotest.(check bool) "ge" true Q.(q 2 3 >= half)

let test_strings () =
  check_q "of_string a/b" (q 22 7) (Q.of_string "22/7");
  check_q "of_string int" (q 5 1) (Q.of_string "5");
  check_q "of_string neg frac" (q (-3) 4) (Q.of_string "-3/4");
  check_q "of_string decimal" (q 5 4) (Q.of_string "1.25");
  check_q "of_string neg decimal" (q (-5) 4) (Q.of_string "-1.25");
  check_q "of_string .5" Q.half (Q.of_string "0.5");
  Alcotest.(check bool) "bad 1/0" true (Q.of_string_opt "1/0" = None);
  Alcotest.(check bool) "bad empty" true (Q.of_string_opt "" = None);
  Alcotest.(check bool) "bad x" true (Q.of_string_opt "x" = None)

let test_decimal_string () =
  Alcotest.(check string) "1/4" "0.25" (Q.to_decimal_string (q 1 4));
  Alcotest.(check string) "1/3 trunc" "0.3333"
    (Q.to_decimal_string ~digits:4 (q 1 3));
  Alcotest.(check string) "-5/2" "-2.5" (Q.to_decimal_string (q (-5) 2));
  Alcotest.(check string) "7" "7" (Q.to_decimal_string (q 7 1))

let test_to_float () =
  Alcotest.(check (float 1e-15)) "1/2" 0.5 (Q.to_float Q.half);
  Alcotest.(check (float 1e-15)) "1/3" (1.0 /. 3.0) (Q.to_float (q 1 3));
  Alcotest.(check (float 1e-15)) "-22/7" (-22.0 /. 7.0) (Q.to_float (q (-22) 7));
  Alcotest.(check (float 0.0)) "0" 0.0 (Q.to_float Q.zero)

let test_of_float () =
  check_q "0.5" Q.half (Q.of_float_exn 0.5);
  check_q "0.25" (q 1 4) (Q.of_float_exn 0.25);
  check_q "-1.5" (q (-3) 2) (Q.of_float_exn (-1.5));
  check_q "3" (q 3 1) (Q.of_float_exn 3.0);
  Alcotest.(check bool) "roundtrip 0.1" true
    (Q.to_float (Q.of_float_exn 0.1) = 0.1);
  Alcotest.check_raises "nan" (Invalid_argument "Rational.of_float_exn: not finite")
    (fun () -> ignore (Q.of_float_exn nan))

let test_probability () =
  Alcotest.(check bool) "1/2 prob" true (Q.is_probability Q.half);
  Alcotest.(check bool) "0 prob" true (Q.is_probability Q.zero);
  Alcotest.(check bool) "1 prob" true (Q.is_probability Q.one);
  Alcotest.(check bool) "3/2 not" false (Q.is_probability (q 3 2));
  Alcotest.(check bool) "-1/2 not" false (Q.is_probability (q (-1) 2))

(* The Basel-style probabilities used throughout the paper: partial sums of
   6/(pi^2 n^2) stay below 1 and are exactly representable without the pi
   factor; check exact partial sums of 1/n^2 against known values. *)
let test_basel_partial_sum () =
  let s n =
    let rec go acc k =
      if k > n then acc else go (Q.add acc (q 1 (k * k))) (k + 1)
    in
    go Q.zero 1
  in
  check_q "sum 1/n^2, n<=3" (q 49 36) (s 3);
  check_q "sum 1/n^2, n<=4" (q 205 144) (s 4);
  Alcotest.(check bool) "below pi^2/6" true
    Q.(s 50 < q 16449 10000 (* pi^2/6 ~ 1.64493 *))

(* ------------------------------------------------------------------ *)
(* Property tests *)
(* ------------------------------------------------------------------ *)

let arb_q =
  let gen =
    QCheck.Gen.(
      let* n = int_range (-10000) 10000 in
      let* d = int_range 1 10000 in
      let* neg = bool in
      return (q n (if neg then -d else d)))
  in
  QCheck.make ~print:Q.to_string gen

let arb_q_nonzero =
  QCheck.make
    ~print:Q.to_string
    (QCheck.Gen.map
       (fun x -> if Q.is_zero x then Q.one else x)
       (QCheck.get_gen arb_q))

let prop name count arb f = QCheck.Test.make ~name ~count arb f

let props =
  [
    prop "canonical: gcd(num,den)=1, den>0" 500 arb_q (fun x ->
        B.sign (Q.den x) > 0
        && B.is_one (B.gcd (Q.num x) (Q.den x))
           (* gcd with 0 num is den, which must then be 1 *)
        || (Q.is_zero x && B.is_one (Q.den x)));
    prop "add commutative" 300 QCheck.(pair arb_q arb_q) (fun (x, y) ->
        Q.equal (Q.add x y) (Q.add y x));
    prop "mul distributes" 300 QCheck.(triple arb_q arb_q arb_q)
      (fun (x, y, z) ->
        Q.equal (Q.mul x (Q.add y z)) (Q.add (Q.mul x y) (Q.mul x z)));
    prop "add/sub inverse" 300 QCheck.(pair arb_q arb_q) (fun (x, y) ->
        Q.equal x (Q.sub (Q.add x y) y));
    prop "mul/div inverse" 300 QCheck.(pair arb_q arb_q_nonzero)
      (fun (x, y) -> Q.equal x (Q.div (Q.mul x y) y));
    prop "inv involutive" 300 arb_q_nonzero (fun x ->
        Q.equal x (Q.inv (Q.inv x)));
    prop "compl involutive" 300 arb_q (fun x -> Q.equal x (Q.compl (Q.compl x)));
    prop "compare consistent with sub sign" 300 QCheck.(pair arb_q arb_q)
      (fun (x, y) -> Q.compare x y = Q.sign (Q.sub x y));
    prop "to_float monotone-ish" 300 QCheck.(pair arb_q arb_q) (fun (x, y) ->
        if Q.compare x y < 0 then Q.to_float x <= Q.to_float y else true);
    prop "to_float rounds to nearest at any magnitude" 500
      QCheck.(
        quad (int_range (-1_000_000) 1_000_000) (int_range 1 1_000_000)
          (int_range (-100) 200) bool)
      (fun (a, b, e, big_den) ->
        (* x = a / (b 2^e), with a many-limb denominator half the time;
           no float lies strictly closer to x than to_float x. *)
        let b = if big_den then Q.pow (Q.of_int b) 9 else Q.of_int b in
        let x = Q.div (Q.div (Q.of_int a) b) (Q.pow (Q.of_int 2) e) in
        let f = Q.to_float x in
        let dist g = Q.abs (Q.sub x (Q.of_float_exn g)) in
        Q.(dist f <= dist (Float.pred f)) && Q.(dist f <= dist (Float.succ f)));
    prop "of_string . to_string roundtrip" 300 arb_q (fun x ->
        Q.equal x (Q.of_string (Q.to_string x)));
    prop "of_float_exn exact roundtrip" 300
      (QCheck.make ~print:string_of_float
         QCheck.Gen.(map (fun (a, b) -> ldexp (float_of_int a) b)
             (pair (int_range (-10000) 10000) (int_range (-20) 20))))
      (fun f -> Q.to_float (Q.of_float_exn f) = f);
    prop "floor <= x < floor+1" 300 arb_q (fun x ->
        (* The integer part [to_decimal_string] prints is floor |x|. *)
        let s = Q.to_decimal_string (Q.abs x) in
        let f =
          Q.of_string
            (match String.index_opt s '.' with
            | Some i -> String.sub s 0 i
            | None -> s)
        in
        Q.(f <= abs x) && Q.(abs x < add f one));
  ]

let () =
  Alcotest.run "rational"
    [
      ( "unit",
        [
          Alcotest.test_case "canonical form" `Quick test_canonical_form;
          Alcotest.test_case "zero denominator" `Quick test_make_zero_den;
          Alcotest.test_case "field ops" `Quick test_field_ops;
          Alcotest.test_case "pow" `Quick test_pow;
          Alcotest.test_case "compl" `Quick test_compl;
          Alcotest.test_case "sum/product" `Quick test_sum_product;
          Alcotest.test_case "floor/ceil" `Quick test_floor_ceil;
          Alcotest.test_case "compare" `Quick test_compare;
          Alcotest.test_case "strings" `Quick test_strings;
          Alcotest.test_case "decimal string" `Quick test_decimal_string;
          Alcotest.test_case "to_float" `Quick test_to_float;
          Alcotest.test_case "of_float" `Quick test_of_float;
          Alcotest.test_case "probability" `Quick test_probability;
          Alcotest.test_case "basel partial sums" `Quick test_basel_partial_sum;
        ] );
      ("properties", List.map QCheck_alcotest.to_alcotest props);
    ]
