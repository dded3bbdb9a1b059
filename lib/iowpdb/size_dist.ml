(* Example 3.3 with exactly representable probabilities: the paper uses
   p_n = 6/(pi^2 n^2); we use the telescoping p_n = 1/(n(n+1)), which sums
   to exactly 1, is within a constant factor of 1/n^2, and keeps
   E(S) = sum 2^n/(n(n+1)) divergent. *)

let p_n n = Rational.of_ints 1 (n * (n + 1))

let d_n n =
  (* R(1), ..., R(2^n).  Sizes grow exponentially; keep n modest. *)
  Instance.of_list
    (List.init (1 lsl n) (fun i -> Fact.make "R" [ Value.Int (i + 1) ]))

let example_3_3 () =
  Seq.map (fun n -> (d_n n, p_n n)) (Seq.ints 1)

let example_3_3_expected_size_prefix nmax =
  let rec go acc n =
    if n > nmax then acc
    else
      go
        (Rational.add acc (Rational.mul (p_n n) (Rational.of_int (1 lsl n))))
        (n + 1)
  in
  go Rational.zero 1

let example_3_3_mass_prefix nmax =
  let rec go acc n =
    if n > nmax then acc else go (Rational.add acc (p_n n)) (n + 1)
  in
  go Rational.zero 1

let tail_size_probability worlds n =
  List.fold_left
    (fun acc (inst, p) ->
      if Instance.size inst >= n then Rational.add acc p else acc)
    Rational.zero worlds

let mean_size draw ~samples =
  let total = ref 0 in
  for i = 0 to samples - 1 do
    total := !total + Instance.size (draw i)
  done;
  float_of_int !total /. float_of_int samples
