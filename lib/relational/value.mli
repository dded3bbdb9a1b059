(** Values of the database universe.

    The paper's universe [U] is an arbitrary (possibly uncountable) set,
    typically [Sigma* ∪ R].  We realize it as the disjoint union of
    integers, strings, IEEE reals and booleans.  The integer and string
    sorts come with explicit countable enumerations, which is what the
    open-world completion of Section 5 enumerates new facts from. *)

type t =
  | Int of int
  | Str of string
  | Real of float
  | Bool of bool

type sort = S_int | S_str | S_real | S_bool

val sort_of : t -> sort

val compare : t -> t -> int
(** Total order: by sort first, then within the sort.  Reals compare by
    IEEE ordering with NaN rejected at construction sites. *)

val equal : t -> t -> bool
val hash : t -> int

val to_string : t -> string
(** Strings are quoted, e.g. ["abc"] prints as ["\"abc\""]. *)

val of_string : string -> t
(** Inverse of {!to_string}: quoted -> [Str], [true]/[false] -> [Bool],
    integer literal -> [Int], other numeric -> [Real].
    @raise Invalid_argument on empty or unparseable input. *)

(** {1 Countable enumerations} *)

val enum_ints : unit -> t Seq.t
(** [0, 1, -1, 2, -2, ...]: every integer appears exactly once. *)

val enum_naturals : unit -> t Seq.t
(** [1, 2, 3, ...]. *)

val enum_strings : ?alphabet:string -> unit -> t Seq.t
(** All strings over the alphabet (default ["ab"]) in length-lexicographic
    order, starting with the empty string; every string appears exactly
    once. *)

val interleave : t Seq.t -> t Seq.t -> t Seq.t
(** Fair interleaving; if both sequences are injective with disjoint
    ranges, so is the result. *)
