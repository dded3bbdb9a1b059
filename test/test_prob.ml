(* Tests for the probability carriers: Interval and the two
   Prob.CARRIER implementations. *)

module I = Interval
module Q = Rational

(* ------------------------------------------------------------------ *)
(* Interval *)
(* ------------------------------------------------------------------ *)

let test_interval_basic () =
  let x = I.make 0.25 0.5 in
  Alcotest.(check (float 0.0)) "lo" 0.25 (I.lo x);
  Alcotest.(check (float 0.0)) "hi" 0.5 (I.hi x);
  Alcotest.(check (float 1e-15)) "mid" 0.375 (I.mid x);
  Alcotest.(check (float 1e-15)) "width" 0.25 (I.width x);
  Alcotest.check_raises "inverted" (Invalid_argument "Interval.make")
    (fun () -> ignore (I.make 1.0 0.0))

let test_interval_encloses_ops () =
  (* Exact real results of rational operations must always be inside the
     computed interval. *)
  let a = I.make 0.1 0.1 and b = I.make 0.2 0.2 in
  let s = I.add a b in
  Alcotest.(check bool) "0.1+0.2 enclosed" true
    (I.contains s (Q.to_float (Q.add (Q.of_float_exn 0.1) (Q.of_float_exn 0.2))));
  let p = I.mul a b in
  Alcotest.(check bool) "0.1*0.2 enclosed" true
    (I.contains p (Q.to_float (Q.mul (Q.of_float_exn 0.1) (Q.of_float_exn 0.2))))

let test_interval_mul_signs () =
  let m = I.mul (I.make (-2.0) 3.0) (I.make (-1.0) 4.0) in
  Alcotest.(check bool) "lo <= -8" true (I.lo m <= -8.0);
  Alcotest.(check bool) "hi >= 12" true (I.hi m >= 12.0);
  Alcotest.(check bool) "tight-ish lo" true (I.lo m > -8.1);
  Alcotest.(check bool) "tight-ish hi" true (I.hi m < 12.1)

let no_nan x = (not (Float.is_nan (I.lo x))) && not (Float.is_nan (I.hi x))

let test_interval_unbounded_mul () =
  (* The 0 * inf corners used to produce nan, which [make]'s guard never
     sees (the arithmetic bypasses it).  Set-based convention: the corner
     contributes 0. *)
  let z_inf = I.mul (I.make 0.0 1.0) (I.make 1.0 infinity) in
  Alcotest.(check bool) "0*[1,inf] no nan" true (no_nan z_inf);
  Alcotest.(check bool) "encloses 0" true (I.contains z_inf 0.0);
  Alcotest.(check bool) "encloses large" true (I.contains z_inf 1e300);
  let m = I.mul (I.make neg_infinity 0.0) (I.make 0.0 infinity) in
  Alcotest.(check bool) "[-inf,0]*[0,inf] no nan" true (no_nan m);
  Alcotest.(check bool) "lower unbounded" true (I.lo m = neg_infinity);
  Alcotest.(check bool) "hi is 0 corner" true (I.hi m >= 0.0)

let test_interval_set_ops () =
  let a = I.make 0.0 0.5 and b = I.make 0.25 1.0 in
  (match I.intersect a b with
   | Some i ->
     Alcotest.(check (float 0.0)) "inter lo" 0.25 (I.lo i);
     Alcotest.(check (float 0.0)) "inter hi" 0.5 (I.hi i)
   | None -> Alcotest.fail "expected overlap");
  Alcotest.(check bool) "disjoint" true
    (I.intersect (I.make 0.0 0.1) (I.make 0.2 0.3) = None)

let test_interval_clamp () =
  let c = I.clamp01 (I.make (-0.5) 0.5) in
  Alcotest.(check (float 0.0)) "clamp lo" 0.0 (I.lo c);
  Alcotest.(check (float 0.0)) "clamp hi" 0.5 (I.hi c);
  Alcotest.(check bool) "all below" true (I.equal (I.clamp01 (I.make (-3.) (-2.))) I.zero)

let test_interval_compl () =
  let c = I.compl (I.make 0.25 0.75) in
  Alcotest.(check bool) "compl encloses" true
    (I.contains c 0.25 && I.contains c 0.75)

(* ------------------------------------------------------------------ *)
(* Log domain *)
(* ------------------------------------------------------------------ *)

(* ------------------------------------------------------------------ *)
(* Carriers *)
(* ------------------------------------------------------------------ *)

(* Shared laws, checked for each carrier on float-exact dyadic inputs
   through a float view of the carrier's values. *)
module Carrier_laws
    (C : Prob.CARRIER) (V : sig
      val name : string
      val to_float : C.t -> float
    end) =
struct
  let dyadics = [ 0.0; 0.125; 0.25; 0.5; 0.75; 1.0 ]
  let of_float f = C.of_rational (Q.of_float_exn f)

  let run () =
    List.iter
      (fun p ->
        List.iter
          (fun q ->
            let cp = of_float p and cq = of_float q in
            Alcotest.(check (float 1e-12))
              (Printf.sprintf "%s add %g %g" V.name p q)
              (p +. q)
              (V.to_float (C.add cp cq));
            Alcotest.(check (float 1e-12))
              (Printf.sprintf "%s mul %g %g" V.name p q)
              (p *. q)
              (V.to_float (C.mul cp cq)))
          dyadics;
        Alcotest.(check (float 1e-12))
          (Printf.sprintf "%s compl %g" V.name p)
          (1.0 -. p)
          (V.to_float (C.compl (of_float p))))
      dyadics;
    Alcotest.(check (float 0.0)) (V.name ^ " zero") 0.0 (V.to_float C.zero);
    Alcotest.(check (float 0.0)) (V.name ^ " one") 1.0 (V.to_float C.one);
    Alcotest.(check (float 1e-12)) (V.name ^ " of_rational 1/4") 0.25
      (V.to_float (C.of_rational (Q.of_ints 1 4)))
end

let test_carrier_rational () =
  let module M =
    Carrier_laws
      (Prob.Rational_carrier)
      (struct
        let name = "rational"
        let to_float = Q.to_float
      end)
  in
  M.run ()

let test_carrier_interval () =
  let module M =
    Carrier_laws
      (Prob.Interval_carrier)
      (struct
        let name = "interval"
        let to_float = I.mid
      end)
  in
  M.run ()

let test_rational_carrier_exactness () =
  let module C = Prob.Rational_carrier in
  (* 10 additions of 1/10 equal exactly 1 in the rational carrier. *)
  let tenth = C.of_rational (Q.of_ints 1 10) in
  let sum = List.fold_left C.add C.zero (List.init 10 (fun _ -> tenth)) in
  Alcotest.(check bool) "exact decimal sum" true (Q.equal sum C.one)

let test_kahan () =
  (* Summing 10^5 copies of 0.1 naively drifts; Kahan keeps it to one ulp. *)
  let xs = Seq.init 100_000 (fun _ -> 0.1) in
  Alcotest.(check (float 1e-9)) "kahan 1e5 * 0.1" 10_000.0
    (Prob.kahan_sum_seq xs);
  Alcotest.(check (float 0.0)) "kahan empty" 0.0 (Prob.kahan_sum_seq Seq.empty)

let test_check_probability () =
  Alcotest.(check bool) "rational ok" true
    (Q.equal Q.half (Prob.check_probability_rational Q.half));
  Alcotest.check_raises "rational bad"
    (Invalid_argument "probability out of range: 3/2") (fun () ->
      ignore (Prob.check_probability_rational (Q.of_ints 3 2)))

(* ------------------------------------------------------------------ *)
(* Properties *)
(* ------------------------------------------------------------------ *)

let arb_unit = QCheck.float_range 0.0 1.0

(* Endpoints drawn from a set rich in the corner cases: zeros, infinities
   and magnitudes whose products overflow. *)
let arb_endpoint =
  QCheck.oneofl
    [ neg_infinity; -1e308; -2.5; -1.0; -0.0; 0.0; 0.5; 1.0; 1e308; infinity ]

let arb_interval =
  QCheck.map
    (fun (a, b) -> I.make (Float.min a b) (Float.max a b))
    QCheck.(pair arb_endpoint arb_endpoint)

let props =
  [
    QCheck.Test.make ~name:"interval mul never nan" ~count:1000
      QCheck.(pair arb_interval arb_interval)
      (fun (a, b) ->
        let m = I.mul a b in
        (not (Float.is_nan (I.lo m))) && not (Float.is_nan (I.hi m)));
    QCheck.Test.make ~name:"interval add encloses" ~count:300
      QCheck.(pair arb_unit arb_unit)
      (fun (a, b) -> I.contains (I.add (I.make a a) (I.make b b)) (a +. b));
    QCheck.Test.make ~name:"interval mul encloses" ~count:300
      QCheck.(pair arb_unit arb_unit)
      (fun (a, b) -> I.contains (I.mul (I.make a a) (I.make b b)) (a *. b));
    (* Subtraction is reached through [compl x = 1 - x]. *)
    QCheck.Test.make ~name:"interval sub encloses" ~count:300 arb_unit
      (fun a -> I.contains (I.compl (I.make a a)) (1.0 -. a));
    QCheck.Test.make ~name:"interval of_rational encloses" ~count:1000
      QCheck.(triple (int_range 1 1_000_000) (int_range 1 1_000_000)
                (int_range 0 200))
      (fun (a, b, e) ->
        (* x = a / (b 2^e), down to about 2^-220, checked exactly. *)
        let x = Q.div (Q.of_ints a b) (Q.pow (Q.of_int 2) e) in
        let iv = I.of_rational x in
        Q.compare (Q.of_float_exn (I.lo iv)) x <= 0
        && Q.compare x (Q.of_float_exn (I.hi iv)) <= 0);
    QCheck.Test.make ~name:"rational carrier assoc exactly" ~count:200
      QCheck.(triple (int_range 0 100) (int_range 0 100) (int_range 0 100))
      (fun (a, b, c) ->
        let module C = Prob.Rational_carrier in
        let r n = C.of_rational (Q.of_ints n 101) in
        Q.equal (C.add (C.add (r a) (r b)) (r c))
          (C.add (r a) (C.add (r b) (r c))));
  ]

let () =
  Alcotest.run "prob"
    [
      ( "interval",
        [
          Alcotest.test_case "basic" `Quick test_interval_basic;
          Alcotest.test_case "encloses ops" `Quick test_interval_encloses_ops;
          Alcotest.test_case "mul signs" `Quick test_interval_mul_signs;
          Alcotest.test_case "unbounded mul" `Quick test_interval_unbounded_mul;
          Alcotest.test_case "set ops" `Quick test_interval_set_ops;
          Alcotest.test_case "clamp01" `Quick test_interval_clamp;
          Alcotest.test_case "compl" `Quick test_interval_compl;
        ] );
      ( "carriers",
        [
          Alcotest.test_case "rational laws" `Quick test_carrier_rational;
          Alcotest.test_case "interval laws" `Quick test_carrier_interval;
          Alcotest.test_case "rational exactness" `Quick
            test_rational_carrier_exactness;
          Alcotest.test_case "kahan" `Quick test_kahan;
          Alcotest.test_case "check_probability" `Quick test_check_probability;
        ] );
      ("properties", List.map QCheck_alcotest.to_alcotest props);
    ]
