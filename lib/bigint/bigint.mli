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
val minus_one : t

val of_int : int -> t

val to_int : t -> int
(** [to_int x] converts back to a native integer.
    @raise Failure if [x] does not fit in an OCaml [int]. *)

val to_int_opt : t -> int option
val fits_int : t -> bool

val to_float : t -> float
(** Nearest-float conversion; large values may round or overflow to
    infinity, mirroring [float_of_int] semantics. *)

val of_string : string -> t
(** Parses an optionally signed decimal literal. Underscores are allowed as
    digit separators. @raise Invalid_argument on malformed input. *)

val of_string_opt : string -> t option
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
val is_even : t -> bool
val equal : t -> t -> bool
val compare : t -> t -> int
val hash : t -> int

val num_bits : t -> int
(** Number of bits of the magnitude; [num_bits zero = 0]. *)

(** {1 Arithmetic} *)

val neg : t -> t
val abs : t -> t
val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t
val succ : t -> t
val pred : t -> t

val divmod : t -> t -> t * t
(** [divmod a b] is truncated division: [(q, r)] with [a = q*b + r],
    [|r| < |b|] and [r] carrying the sign of [a] (or zero).
    @raise Division_by_zero if [b] is zero. *)

val div : t -> t -> t
val rem : t -> t -> t

val ediv_rem : t -> t -> t * t
(** Euclidean division: remainder is always in [\[0, |b|)]. *)

val gcd : t -> t -> t
(** Greatest common divisor; always nonnegative, [gcd zero zero = zero]. *)

val pow : t -> int -> t
(** [pow x k] for [k >= 0]. @raise Invalid_argument on negative exponent. *)

val shift_left : t -> int -> t
val shift_right : t -> int -> t
(** Arithmetic shift towards zero on the magnitude. *)

val mul_int : t -> int -> t
val add_int : t -> int -> t
(** [mul_int a n = mul a (of_int n)] and [add_int a n = add a (of_int n)].
    When [|n| < 2^30] (one limb) they make one pass over [a]'s magnitude
    and allocate only the result. *)

val min : t -> t -> t
val max : t -> t -> t

(** {1 Printing} *)

val pp : Format.formatter -> t -> unit
