(** Exact rational arithmetic over {!Bigint}.

    Values are always kept in canonical form: the denominator is positive
    and coprime to the numerator; zero is [0/1].  Exactness is what lets the
    probabilistic-database layers test measure-theoretic identities (e.g.
    the partition sum of the tuple-independent construction equals [1]) as
    equalities rather than float tolerances. *)

type t

(** {1 Constants and construction} *)

val zero : t
val one : t
val half : t

val make : Bigint.t -> Bigint.t -> t
(** [make num den] is the canonical form of [num/den].
    @raise Division_by_zero if [den] is zero. *)

val of_int : int -> t

val of_ints : int -> int -> t
(** [of_ints a b] is [a/b]. @raise Division_by_zero if [b = 0]. *)

val of_string : string -> t
(** Accepts ["a"], ["a/b"] and decimal notation ["a.b"] (exact), each with
    an optional sign. @raise Invalid_argument on malformed input. *)

val of_string_opt : string -> t option

val of_float_exn : float -> t
(** Exact dyadic rational of a finite float.
    @raise Invalid_argument on NaN or infinities. *)

(** {1 Access} *)

val num : t -> Bigint.t
val den : t -> Bigint.t

val to_float : t -> float
(** The nearest double (one rounding over a 61-62 bit quotient with a
    sticky bit); subnormal results round twice but stay within one
    ulp.  Exact when representable. *)

val to_string : t -> string
(** ["a/b"], or just ["a"] when the denominator is [1]. *)

val to_decimal_string : ?digits:int -> t -> string
(** Decimal rendering truncated to [digits] (default 12) fractional
    digits. *)

(** {1 Predicates and comparison} *)

val sign : t -> int
val is_zero : t -> bool
val is_one : t -> bool
val equal : t -> t -> bool
val compare : t -> t -> int
val min : t -> t -> t
val max : t -> t -> t

(** {1 Field operations} *)

val abs : t -> t
val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t

val inv : t -> t
(** @raise Division_by_zero on zero. *)

val div : t -> t -> t
(** @raise Division_by_zero on zero divisor. *)

val pow : t -> int -> t
(** [pow x k]; negative [k] inverts ([x] must then be nonzero). *)

val compl : t -> t
(** [compl p] is [1 - p]: the probability complement. *)

val sum : t list -> t
val product : t list -> t

val floor : t -> Bigint.t
val ceil : t -> Bigint.t

(** {1 Probability helpers} *)

val is_probability : t -> bool
(** [0 <= x <= 1]. *)

(** {1 Operators and printing} *)

val ( + ) : t -> t -> t
val ( - ) : t -> t -> t
val ( * ) : t -> t -> t
val ( / ) : t -> t -> t
val ( = ) : t -> t -> bool
val ( < ) : t -> t -> bool
val ( <= ) : t -> t -> bool
val ( > ) : t -> t -> bool
val ( >= ) : t -> t -> bool

