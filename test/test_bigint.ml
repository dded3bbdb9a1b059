(* Tests for the Bigint arbitrary-precision integer substrate. *)

module B = Bigint

let b = B.of_int
let check_b msg expected actual =
  Alcotest.(check string) msg (B.to_string expected) (B.to_string actual)

(* ------------------------------------------------------------------ *)
(* Unit tests *)
(* ------------------------------------------------------------------ *)

let test_constants () =
  Alcotest.(check int) "sign zero" 0 (B.sign B.zero);
  Alcotest.(check int) "sign one" 1 (B.sign B.one);
  Alcotest.(check int) "sign minus_one" (-1) (B.sign B.minus_one);
  Alcotest.(check bool) "is_zero" true (B.is_zero B.zero);
  Alcotest.(check bool) "is_one" true (B.is_one B.one);
  Alcotest.(check bool) "two = 1+1" true (B.equal B.two (B.add B.one B.one))

let test_of_to_int () =
  List.iter
    (fun n ->
      Alcotest.(check int)
        (Printf.sprintf "roundtrip %d" n)
        n
        (B.to_int (b n)))
    [ 0; 1; -1; 42; -42; 1 lsl 30; -(1 lsl 30); (1 lsl 30) - 1; 1 lsl 45;
      max_int; -max_int; 123456789012345 ]

let test_string_roundtrip () =
  List.iter
    (fun s -> Alcotest.(check string) ("roundtrip " ^ s) s B.(to_string (of_string s)))
    [ "0"; "1"; "-1"; "999999999999999999999999999999";
      "-123456789012345678901234567890123456789";
      "1000000000000000000000000000000000000000000000000" ]

let test_string_underscores () =
  check_b "underscores" (b 1234567) (B.of_string "1_234_567")

let test_string_invalid () =
  List.iter
    (fun s ->
      Alcotest.(check bool) ("invalid " ^ s) true (B.of_string_opt s = None))
    [ ""; "-"; "+"; "12a"; "_"; "1.5"; " 1" ]

let test_add_sub_small () =
  check_b "17+25" (b 42) (B.add (b 17) (b 25));
  check_b "17-25" (b (-8)) (B.sub (b 17) (b 25));
  check_b "-17-25" (b (-42)) (B.sub (b (-17)) (b 25));
  check_b "0+0" B.zero (B.add B.zero B.zero)

let test_add_carry_chain () =
  (* (2^300 - 1) + 1 = 2^300 exercises a long carry chain. *)
  let p300 = B.pow B.two 300 in
  check_b "carry chain" p300 (B.add (B.pred p300) B.one);
  check_b "borrow chain" (B.pred p300) (B.sub p300 B.one)

let test_mul_big () =
  let a = B.of_string "123456789123456789123456789" in
  let c = B.of_string "987654321987654321987654321" in
  check_b "known product"
    (B.of_string "121932631356500531591068431581771069347203169112635269")
    (B.mul a c);
  check_b "sq of 10^30"
    (B.of_string ("1" ^ String.make 60 '0'))
    (B.mul (B.of_string ("1" ^ String.make 30 '0'))
       (B.of_string ("1" ^ String.make 30 '0')))

let test_karatsuba_vs_school () =
  (* Numbers wide enough to trigger the Karatsuba path (>= 32 limbs,
     i.e. >= 960 bits); compare against a known algebraic identity
     (x+1)(x-1) = x^2 - 1. *)
  let x = B.pow (b 3) 700 in
  check_b "karatsuba identity"
    (B.pred (B.mul x x))
    (B.mul (B.succ x) (B.pred x))

let test_divmod_basic () =
  let q, r = B.divmod (b 17) (b 5) in
  check_b "17/5 q" (b 3) q;
  check_b "17%5 r" (b 2) r;
  let q, r = B.divmod (b (-17)) (b 5) in
  check_b "-17/5 q" (b (-3)) q;
  check_b "-17%5 r" (b (-2)) r;
  let q, r = B.divmod (b 17) (b (-5)) in
  check_b "17/-5 q" (b (-3)) q;
  check_b "17%-5 r" (b 2) r

let test_divmod_by_zero () =
  Alcotest.check_raises "div by zero" Division_by_zero (fun () ->
      ignore (B.divmod B.one B.zero))

let test_divmod_multi_limb () =
  let a = B.of_string "340282366920938463463374607431768211456" (* 2^128 *) in
  let d = B.of_string "18446744073709551617" (* 2^64 + 1 *) in
  let q, r = B.divmod a d in
  check_b "2^128 / (2^64+1) recompose" a (B.add (B.mul q d) r);
  Alcotest.(check bool) "r < d" true (B.compare (B.abs r) d < 0)

let test_ediv_rem () =
  let q, r = B.ediv_rem (b (-17)) (b 5) in
  check_b "ediv q" (b (-4)) q;
  check_b "ediv r" (b 3) r;
  let q, r = B.ediv_rem (b (-17)) (b (-5)) in
  check_b "ediv neg q" (b 4) q;
  check_b "ediv neg r" (b 3) r

let test_gcd () =
  check_b "gcd 12 18" (b 6) (B.gcd (b 12) (b 18));
  check_b "gcd 0 5" (b 5) (B.gcd B.zero (b 5));
  check_b "gcd -12 18" (b 6) (B.gcd (b (-12)) (b 18));
  check_b "gcd big" (b 1)
    (B.gcd (B.of_string "123456789123456789123456791") (b 1000003))

let test_pow () =
  check_b "2^10" (b 1024) (B.pow B.two 10);
  check_b "x^0" B.one (B.pow (b 7919) 0);
  check_b "0^0" B.one (B.pow B.zero 0);
  check_b "10^20" (B.of_string "100000000000000000000") (B.pow (b 10) 20);
  Alcotest.check_raises "neg exponent"
    (Invalid_argument "Bigint.pow: negative exponent") (fun () ->
      ignore (B.pow B.two (-1)))

let test_shifts () =
  check_b "1 << 100" (B.pow B.two 100) (B.shift_left B.one 100);
  check_b "2^100 >> 100" B.one (B.shift_right (B.pow B.two 100) 100);
  check_b "2^100 >> 200" B.zero (B.shift_right (B.pow B.two 100) 200);
  check_b "-8 >> 1" (b (-4)) (B.shift_right (b (-8)) 1)

let test_compare_order () =
  let xs = List.map b [ -100; -1; 0; 1; 2; 100 ] in
  List.iteri
    (fun i x ->
      List.iteri
        (fun j y ->
          Alcotest.(check int)
            (Printf.sprintf "compare %d %d" i j)
            (compare i j)
            (B.compare x y))
        xs)
    xs

let test_num_bits () =
  Alcotest.(check int) "bits 0" 0 (B.num_bits B.zero);
  Alcotest.(check int) "bits 1" 1 (B.num_bits B.one);
  Alcotest.(check int) "bits 255" 8 (B.num_bits (b 255));
  Alcotest.(check int) "bits 256" 9 (B.num_bits (b 256));
  Alcotest.(check int) "bits 2^100" 101 (B.num_bits (B.pow B.two 100))

let test_to_float () =
  Alcotest.(check (float 1e-9)) "float 42" 42.0 (B.to_float (b 42));
  Alcotest.(check (float 1e-9)) "float -42" (-42.0) (B.to_float (b (-42)));
  Alcotest.(check (float 1.0)) "float 2^62"
    (ldexp 1.0 62)
    (B.to_float (B.pow B.two 62))

let test_parity_minmax () =
  Alcotest.(check bool) "even 0" true (B.is_even B.zero);
  Alcotest.(check bool) "even 2" true (B.is_even B.two);
  Alcotest.(check bool) "odd 3" false (B.is_even (b 3));
  check_b "min" (b (-5)) (B.min (b (-5)) (b 3));
  check_b "max" (b 3) (B.max (b (-5)) (b 3))

(* The one-limb paths of [mul_int]/[add_int] against [mul]/[add] of
   [of_int]: both signs, the limb boundary 2^30, [max_int]/[min_int],
   and magnitudes whose limbs are all full (carry and borrow chains). *)
let edge_ints =
  [ 0; 1; -1; 7; -7; (1 lsl 30) - 1; 1 - (1 lsl 30); 1 lsl 30; -(1 lsl 30);
    max_int; min_int; max_int - 1; min_int + 1 ]

let edge_bigs =
  List.concat_map
    (fun x -> [ x; B.neg x ])
    [ B.zero; B.one; b 5; b ((1 lsl 30) - 1); b (1 lsl 30); b max_int;
      B.pred (B.shift_left B.one 60); B.shift_left B.one 60;
      B.pred (B.shift_left B.one 90); B.of_string "123456789012345678901234567890" ]

let test_mul_add_int () =
  List.iter
    (fun x ->
      List.iter
        (fun n ->
          let what op = Printf.sprintf "%s %s %d" (B.to_string x) op n in
          check_b (what "*") (B.mul x (B.of_int n)) (B.mul_int x n);
          check_b (what "+") (B.add x (B.of_int n)) (B.add_int x n))
        edge_ints)
    edge_bigs

(* ------------------------------------------------------------------ *)
(* Property tests *)
(* ------------------------------------------------------------------ *)

let arb_ints = QCheck.int_range (-1_000_000) 1_000_000

(* An arbitrary-width bigint generated as a decimal string. *)
let arb_big =
  let gen =
    QCheck.Gen.(
      let* neg = bool in
      let* ndig = int_range 1 60 in
      let* digits =
        list_repeat ndig (map (fun d -> Char.chr (d + Char.code '0')) (int_range 0 9))
      in
      let s = String.init ndig (List.nth digits) in
      return (B.of_string (if neg then "-" ^ s else s)))
  in
  QCheck.make ~print:B.to_string gen

let prop name count arb f = QCheck.Test.make ~name ~count arb f

let props =
  [
    prop "add agrees with int" 500
      QCheck.(pair arb_ints arb_ints)
      (fun (x, y) -> B.to_int (B.add (b x) (b y)) = x + y);
    prop "mul agrees with int" 500
      QCheck.(pair arb_ints arb_ints)
      (fun (x, y) -> B.to_int (B.mul (b x) (b y)) = x * y);
    prop "divmod agrees with int" 500
      QCheck.(pair arb_ints arb_ints)
      (fun (x, y) ->
        QCheck.assume (y <> 0);
        let q, r = B.divmod (b x) (b y) in
        B.to_int q = x / y && B.to_int r = x mod y);
    prop "string roundtrip" 300 arb_big (fun x ->
        B.equal x (B.of_string (B.to_string x)));
    prop "add commutative" 300
      QCheck.(pair arb_big arb_big)
      (fun (x, y) -> B.equal (B.add x y) (B.add y x));
    prop "add associative" 300
      QCheck.(triple arb_big arb_big arb_big)
      (fun (x, y, z) ->
        B.equal (B.add (B.add x y) z) (B.add x (B.add y z)));
    prop "mul commutative" 300
      QCheck.(pair arb_big arb_big)
      (fun (x, y) -> B.equal (B.mul x y) (B.mul y x));
    prop "mul associative" 100
      QCheck.(triple arb_big arb_big arb_big)
      (fun (x, y, z) ->
        B.equal (B.mul (B.mul x y) z) (B.mul x (B.mul y z)));
    prop "distributivity" 200
      QCheck.(triple arb_big arb_big arb_big)
      (fun (x, y, z) ->
        B.equal (B.mul x (B.add y z)) (B.add (B.mul x y) (B.mul x z)));
    prop "sub inverse of add" 300
      QCheck.(pair arb_big arb_big)
      (fun (x, y) -> B.equal x (B.sub (B.add x y) y));
    prop "divmod recomposition" 300
      QCheck.(pair arb_big arb_big)
      (fun (x, y) ->
        QCheck.assume (not (B.is_zero y));
        let q, r = B.divmod x y in
        B.equal x (B.add (B.mul q y) r)
        && B.compare (B.abs r) (B.abs y) < 0
        && (B.is_zero r || B.sign r = B.sign x));
    prop "ediv remainder nonneg" 300
      QCheck.(pair arb_big arb_big)
      (fun (x, y) ->
        QCheck.assume (not (B.is_zero y));
        let q, r = B.ediv_rem x y in
        B.equal x (B.add (B.mul q y) r)
        && B.sign r >= 0
        && B.compare r (B.abs y) < 0);
    prop "gcd divides both" 200
      QCheck.(pair arb_big arb_big)
      (fun (x, y) ->
        QCheck.assume (not (B.is_zero x) || not (B.is_zero y));
        let g = B.gcd x y in
        B.is_zero (B.rem x g) && B.is_zero (B.rem y g));
    prop "shift_left is mul by 2^k" 200
      QCheck.(pair arb_big (int_range 0 100))
      (fun (x, k) -> B.equal (B.shift_left x k) (B.mul x (B.pow B.two k)));
    prop "compare antisymmetric" 300
      QCheck.(pair arb_big arb_big)
      (fun (x, y) -> B.compare x y = -B.compare y x);
    prop "mul_int/add_int = mul/add" 500
      QCheck.(pair arb_big (oneof [ int; int_range (-(1 lsl 30)) (1 lsl 30) ]))
      (fun (x, n) ->
        B.equal (B.mul_int x n) (B.mul x (B.of_int n))
        && B.equal (B.add_int x n) (B.add x (B.of_int n)));
    prop "to_float sign" 200 arb_big (fun x ->
        compare (B.to_float x) 0.0 = B.sign x || B.is_zero x);
  ]

let () =
  Alcotest.run "bigint"
    [
      ( "unit",
        [
          Alcotest.test_case "constants" `Quick test_constants;
          Alcotest.test_case "of/to int" `Quick test_of_to_int;
          Alcotest.test_case "string roundtrip" `Quick test_string_roundtrip;
          Alcotest.test_case "string underscores" `Quick test_string_underscores;
          Alcotest.test_case "string invalid" `Quick test_string_invalid;
          Alcotest.test_case "add/sub small" `Quick test_add_sub_small;
          Alcotest.test_case "carry chains" `Quick test_add_carry_chain;
          Alcotest.test_case "mul big" `Quick test_mul_big;
          Alcotest.test_case "karatsuba identity" `Quick test_karatsuba_vs_school;
          Alcotest.test_case "divmod basic" `Quick test_divmod_basic;
          Alcotest.test_case "divmod by zero" `Quick test_divmod_by_zero;
          Alcotest.test_case "divmod multi-limb" `Quick test_divmod_multi_limb;
          Alcotest.test_case "ediv_rem" `Quick test_ediv_rem;
          Alcotest.test_case "gcd" `Quick test_gcd;
          Alcotest.test_case "pow" `Quick test_pow;
          Alcotest.test_case "shifts" `Quick test_shifts;
          Alcotest.test_case "compare order" `Quick test_compare_order;
          Alcotest.test_case "num_bits" `Quick test_num_bits;
          Alcotest.test_case "to_float" `Quick test_to_float;
          Alcotest.test_case "parity/minmax" `Quick test_parity_minmax;
          Alcotest.test_case "mul_int/add_int edges" `Quick test_mul_add_int;
        ] );
      ("properties", List.map QCheck_alcotest.to_alcotest props);
    ]
