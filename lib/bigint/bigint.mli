(** Arbitrary-precision signed integers.

    Numbers are immutable. The representation is a sign and a little-endian
    magnitude in base [2^30]; all operations are safe on 64-bit OCaml where
    a digit product fits in a native [int].

    This module exists because the sealed build environment provides no
    [zarith]; it supplies exactly what the probability layers need: ring
    operations, Euclidean division, gcd, powers and decimal I/O. *)

type t

(** {1 Constants and conversions} *)

val zero : t
val one : t
val two : t

val of_int : int -> t

val to_int : t -> int
(** [to_int x] converts back to a native integer.
    @raise Failure if [x] does not fit in an OCaml [int]. *)

val to_int_opt : t -> int option

val of_string_opt : string -> t option
(** Parses an optionally signed decimal literal. Underscores are allowed as
    digit separators. [None] on malformed input. *)

val to_string : t -> string

val to_bytes_le : t -> string
(** Little-endian magnitude bytes of a nonnegative value, with no
    trailing zero bytes (canonical: equal values encode identically;
    [to_bytes_le zero = ""]).  Used by the persistent fact store.
    @raise Invalid_argument on a negative value. *)

val of_bytes_le : string -> t
(** Inverse of {!to_bytes_le}; ignores trailing zero bytes. *)

(** {1 Queries} *)

val sign : t -> int
(** [-1], [0] or [1]. *)

val is_zero : t -> bool
val is_one : t -> bool
val is_negative : t -> bool
val equal : t -> t -> bool
val compare : t -> t -> int

val num_bits : t -> int
(** Number of bits of the magnitude; [num_bits zero = 0]. *)

(** {1 Arithmetic} *)

val neg : t -> t
val abs : t -> t
val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t

val div : t -> t -> t
(** Truncated division: the quotient rounds toward zero.
    @raise Division_by_zero if [b] is zero. *)

val ediv_rem : t -> t -> t * t
(** Euclidean division: remainder is always in [\[0, |b|)]. *)

val gcd : t -> t -> t
(** Greatest common divisor; always nonnegative, [gcd zero zero = zero].
    Lehmer's algorithm (Knuth, TAOCP vol. 2, 4.5.2, Algorithm L) on
    30-bit leading digits, finishing in native ints once the larger
    operand fits 60 bits.  Still quadratic in the operand length, at
    about a tenth of the cost of the Euclidean remainder loop: 11-16x
    faster on 67- to 6,644-bit operands, ~5x on one-limb ones. *)

val pow : t -> int -> t
(** [pow x k] for [k >= 0]. @raise Invalid_argument on negative exponent. *)

val shift_left : t -> int -> t

val mul_int : t -> int -> t
(** [mul_int a n = mul a (of_int n)].  When [|n| < 2^30] (one limb) it
    makes one pass over [a]'s magnitude and allocates only the result. *)

(** {1 Printing} *)

