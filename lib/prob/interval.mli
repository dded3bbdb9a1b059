(** Closed floating-point intervals with outward rounding.

    Every arithmetic operation widens its result by one ulp in each
    direction, so a computed interval always encloses the exact real
    result.  Used as a rigorous probability carrier when exact rationals
    are too slow and bare floats too optimistic. *)

type t = private { lo : float; hi : float }

val make : float -> float -> t
(** @raise Invalid_argument if [lo > hi] or either bound is NaN. *)

val of_rational : Rational.t -> t
(** [[pred f, succ f]] around [f = Rational.to_float q]: contains [q]
    because that conversion is off by less than one ulp at any
    magnitude. *)

val zero : t
val one : t

val lo : t -> float
val hi : t -> float
val width : t -> float

val mid : t -> float
(** Midpoint; a best single-float estimate. *)

val add : t -> t -> t
val sub : t -> t -> t

val mul : t -> t -> t
(** Sound on unbounded operands: a [0 * ±inf] corner contributes [0]
    (the set-based convention), never nan. *)

val div : t -> t -> t
(** @raise Division_by_zero if the divisor contains 0.  Sound on
    unbounded operands: an [inf / inf] corner contributes its full
    limit range [\[0, +inf\]] (with the corner's sign), never nan. *)

val compl : t -> t
(** [compl x] encloses [1 - x]. *)

val hull : t -> t -> t
(** Smallest interval containing both. *)

val intersect : t -> t -> t option

val contains : t -> float -> bool
val subset : t -> t -> bool

val clamp01 : t -> t
(** Intersect with [[0, 1]]; useful after subtractive cancellation on
    quantities known to be probabilities. *)

val equal : t -> t -> bool
