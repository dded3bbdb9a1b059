(* Tests for the Bigint arbitrary-precision integer substrate. *)

module B = Bigint

let b = B.of_int
let big s = Option.get (B.of_string_opt s)

(* Truncated division as [div] computes it, with the remainder it
   implies. *)
let divmod x y =
  let q = B.div x y in
  (q, B.sub x (B.mul q y))

let check_b msg expected actual =
  Alcotest.(check string) msg (B.to_string expected) (B.to_string actual)

(* ------------------------------------------------------------------ *)
(* Unit tests *)
(* ------------------------------------------------------------------ *)

let test_constants () =
  Alcotest.(check int) "sign zero" 0 (B.sign B.zero);
  Alcotest.(check int) "sign one" 1 (B.sign B.one);
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
    (fun s -> Alcotest.(check string) ("roundtrip " ^ s) s (B.to_string (big s)))
    [ "0"; "1"; "-1"; "999999999999999999999999999999";
      "-123456789012345678901234567890123456789";
      "1000000000000000000000000000000000000000000000000" ]

let test_string_underscores () =
  check_b "underscores" (b 1234567) (big "1_234_567")

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
  let p300m1 =
    big
      ("203703597633448608626844568840937816105146839366593625063614044935"
     ^ "4381299763336706183397375")
  in
  check_b "carry chain" p300 (B.add p300m1 B.one);
  check_b "borrow chain" p300m1 (B.sub p300 B.one)

let test_mul_big () =
  let a = big "123456789123456789123456789" in
  let c = big "987654321987654321987654321" in
  check_b "known product"
    (big "121932631356500531591068431581771069347203169112635269")
    (B.mul a c);
  check_b "sq of 10^30"
    (big ("1" ^ String.make 60 '0'))
    (B.mul (big ("1" ^ String.make 30 '0'))
       (big ("1" ^ String.make 30 '0')))

let test_karatsuba_vs_school () =
  (* Numbers wide enough to trigger the Karatsuba path (>= 32 limbs,
     i.e. >= 960 bits); compare against a known algebraic identity
     (x+1)(x-1) = x^2 - 1. *)
  let x = B.pow (b 3) 700 in
  check_b "karatsuba identity"
    (B.sub (B.mul x x) B.one)
    (B.mul (B.succ x) (B.sub x B.one))

let test_divmod_basic () =
  let q, r = divmod (b 17) (b 5) in
  check_b "17/5 q" (b 3) q;
  check_b "17%5 r" (b 2) r;
  let q, r = divmod (b (-17)) (b 5) in
  check_b "-17/5 q" (b (-3)) q;
  check_b "-17%5 r" (b (-2)) r;
  let q, r = divmod (b 17) (b (-5)) in
  check_b "17/-5 q" (b (-3)) q;
  check_b "17%-5 r" (b 2) r

let test_divmod_by_zero () =
  Alcotest.check_raises "div by zero" Division_by_zero (fun () ->
      ignore (divmod B.one B.zero))

let test_divmod_multi_limb () =
  let a = big "340282366920938463463374607431768211456" (* 2^128 *) in
  let d = big "18446744073709551617" (* 2^64 + 1 *) in
  let q, r = divmod a d in
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
    (B.gcd (big "123456789123456789123456791") (b 1000003))

let test_pow () =
  check_b "2^10" (b 1024) (B.pow B.two 10);
  check_b "x^0" B.one (B.pow (b 7919) 0);
  check_b "0^0" B.one (B.pow B.zero 0);
  check_b "10^20" (big "100000000000000000000") (B.pow (b 10) 20);
  Alcotest.check_raises "neg exponent"
    (Invalid_argument "Bigint.pow: negative exponent") (fun () ->
      ignore (B.pow B.two (-1)))

let test_shifts () =
  check_b "1 << 100" (B.pow B.two 100) (B.shift_left B.one 100);
  check_b "-3 << 2" (b (-12)) (B.shift_left (b (-3)) 2)

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

(* The one-limb path of [mul_int] against [mul] of
   [of_int]: both signs, the limb boundary 2^30, [max_int]/[min_int],
   and magnitudes whose limbs are all full (carry and borrow chains). *)
let edge_ints =
  [ 0; 1; -1; 7; -7; (1 lsl 30) - 1; 1 - (1 lsl 30); 1 lsl 30; -(1 lsl 30);
    max_int; min_int; max_int - 1; min_int + 1 ]

let edge_bigs =
  List.concat_map
    (fun x -> [ x; B.neg x ])
    [ B.zero; B.one; b 5; b ((1 lsl 30) - 1); b (1 lsl 30); b max_int;
      B.sub (B.shift_left B.one 60) B.one; B.shift_left B.one 60;
      B.sub (B.shift_left B.one 90) B.one; big "123456789012345678901234567890" ]

let test_mul_add_int () =
  List.iter
    (fun x ->
      List.iter
        (fun n ->
          let what op = Printf.sprintf "%s %s %d" (B.to_string x) op n in
          check_b (what "*") (B.mul x (B.of_int n)) (B.mul_int x n))
        edge_ints)
    edge_bigs

(* The Euclidean remainder loop, on the public [ediv_rem]: the
   reference [gcd] must equal. *)
let rec gcd_euclid x y =
  let x = B.abs x and y = B.abs y in
  if B.is_zero y then x else gcd_euclid y (snd (B.ediv_rem x y))

let hundred_pow m = B.pow (b 100) m

(* A value below [100^m], as a served WMC root's numerator is: random
   decimal digits times a few factors of 2 and 5, so the gcd with
   [100^m] is usually nontrivial. *)
let gen_below_100_pow m =
  QCheck.Gen.(
    let* digits = string_size ~gen:(char_range '0' '9') (return (2 * m)) in
    let* i = int_range 0 8 and* j = int_range 0 8 in
    let x = B.mul (big digits) (B.mul (B.pow B.two i) (B.pow (b 5) j)) in
    return (snd (B.ediv_rem x (hundred_pow m))))

(* Each root of N / 100^m for m = 1..80, from a fixed seed. *)
let test_gcd_hundred_powers () =
  let rand = Random.State.make [| 100 |] in
  for m = 1 to 80 do
    let n = gen_below_100_pow m rand and d = hundred_pow m in
    check_b (Printf.sprintf "gcd N / 100^%d" m) (gcd_euclid n d) (B.gcd n d)
  done

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
      return (big (if neg then "-" ^ s else s)))
  in
  QCheck.make ~print:B.to_string gen

(* A bigint of up to [limbs] random 30-bit limbs. *)
let gen_limbs limbs =
  QCheck.Gen.(
    let* k = int_range 1 limbs in
    let* ls = list_repeat k (int_bound ((1 lsl 30) - 1)) in
    return
      (List.fold_left
         (fun acc l -> B.add (B.shift_left acc 30) (b l))
         B.zero ls))

let gen_odd_28 =
  QCheck.Gen.(map (fun x -> (2 * x) + 1) (int_bound ((1 lsl 27) - 1)))

let product = List.fold_left (fun acc x -> B.mul acc (b x)) B.one

(* Operand pairs for [gcd]: random widths, equal, zero and negative
   operands, one limb against many, a large common factor, powers of 2
   against powers of 5, N / 100^m, and products of odd 28-bit values
   sharing some factors. *)
let arb_gcd_pair =
  let open QCheck.Gen in
  let signed g = map2 (fun neg x -> if neg then B.neg x else x) bool g in
  let gen =
    frequency
      [ (3, pair (signed (gen_limbs 40)) (signed (gen_limbs 40)));
        (1, map (fun x -> (x, x)) (gen_limbs 20));
        (1, map (fun x -> (x, B.zero)) (signed (gen_limbs 20)));
        (1, map (fun x -> (B.zero, x)) (signed (gen_limbs 20)));
        (1, pair (signed (gen_limbs 20)) (signed (gen_limbs 1)));
        (2,
         let* g = gen_limbs 20 and* x = gen_limbs 20 and* y = gen_limbs 20 in
         return (B.mul g x, B.mul g y));
        (1,
         let* i = int_range 0 1200 and* j = int_range 0 500 in
         return (B.pow B.two i, B.pow (b 5) j));
        (2,
         let* m = int_range 1 80 in
         let* n = gen_below_100_pow m in
         return (n, hundred_pow m));
        (2,
         let* common = list_size (int_range 0 10) gen_odd_28
         and* xs = list_size (int_range 0 20) gen_odd_28
         and* ys = list_size (int_range 0 20) gen_odd_28 in
         return (product (common @ xs), product (common @ ys))) ]
  in
  QCheck.make
    ~print:(fun (x, y) -> B.to_string x ^ ", " ^ B.to_string y)
    gen

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
        let q, r = divmod (b x) (b y) in
        B.to_int q = x / y && B.to_int r = x mod y);
    prop "string roundtrip" 300 arb_big (fun x ->
        B.equal x (big (B.to_string x)));
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
        let q, r = divmod x y in
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
        B.is_zero (snd (B.ediv_rem x g)) && B.is_zero (snd (B.ediv_rem y g)));
    prop "shift_left is mul by 2^k" 200
      QCheck.(pair arb_big (int_range 0 100))
      (fun (x, k) -> B.equal (B.shift_left x k) (B.mul x (B.pow B.two k)));
    prop "compare antisymmetric" 300
      QCheck.(pair arb_big arb_big)
      (fun (x, y) -> B.compare x y = -B.compare y x);
    prop "mul_int/add_int = mul/add" 500
      QCheck.(pair arb_big (oneof [ int; int_range (-(1 lsl 30)) (1 lsl 30) ]))
      (fun (x, n) ->
        B.equal (B.mul_int x n) (B.mul x (B.of_int n)));
    prop "to_float sign" 200 arb_big (fun x ->
        compare (B.to_float x) 0.0 = B.sign x || B.is_zero x);
    prop "gcd = Euclidean reference" 2000 arb_gcd_pair (fun (x, y) ->
        B.equal (B.gcd x y) (gcd_euclid x y));
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
          Alcotest.test_case "gcd N / 100^m" `Quick test_gcd_hundred_powers;
        ] );
      ("properties", List.map QCheck_alcotest.to_alcotest props);
    ]
