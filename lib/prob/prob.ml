module type CARRIER = sig
  type t

  val zero : t
  val one : t
  val of_rational : Rational.t -> t
  val add : t -> t -> t
  val mul : t -> t -> t
  val compl : t -> t
end

module Rational_carrier = struct
  type t = Rational.t

  let zero = Rational.zero
  let one = Rational.one
  let of_rational x = x
  let add = Rational.add
  let mul = Rational.mul
  let compl = Rational.compl
end

module Interval_carrier = struct
  type t = Interval.t

  let zero = Interval.zero
  let one = Interval.one
  let of_rational = Interval.of_rational
  let add = Interval.add
  let mul = Interval.mul
  let compl = Interval.compl
end

let kahan_sum_seq xs =
  let sum = ref 0.0 and c = ref 0.0 in
  Seq.iter
    (fun x ->
      let y = x -. !c in
      let t = !sum +. y in
      c := t -. !sum -. y;
      sum := t)
    xs;
  !sum

let check_probability_rational p =
  if Rational.is_probability p then p
  else
    invalid_arg
      (Printf.sprintf "probability out of range: %s" (Rational.to_string p))
