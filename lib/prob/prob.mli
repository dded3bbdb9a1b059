(** Probability carriers.

    Proposition 6.1's closed-world count runs over exact rationals
    everywhere in this project except one engine: the delta sessions
    ({!Delta_eval.Make}) also run over outward-rounded intervals, so that
    anytime and served sessions get machine-checked two-sided bounds at
    float speed.  {!CARRIER} is the arithmetic those sessions use, and it
    has exactly two implementations:

    - {!Rational_carrier} — exact arithmetic, letting the theorems of the
      paper be checked as identities;
    - {!Interval_carrier} — outward-rounded enclosures. *)

module type CARRIER = sig
  type t

  val zero : t
  val one : t
  val of_rational : Rational.t -> t
  val add : t -> t -> t
  val mul : t -> t -> t

  val compl : t -> t
  (** [compl p = 1 - p]. *)
end

module Rational_carrier : CARRIER with type t = Rational.t
module Interval_carrier : CARRIER with type t = Interval.t

(** {1 Float utilities} *)

val kahan_sum_seq : float Seq.t -> float
(** Compensated summation. *)

(** {1 Probability validation} *)

val check_probability_rational : Rational.t -> Rational.t
(** Identity on [\[0,1\]]; @raise Invalid_argument otherwise. *)
