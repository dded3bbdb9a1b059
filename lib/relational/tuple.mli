(** Tuples of values, with the order and containers relational operators
    need. *)

type t = Value.t array

val compare : t -> t -> int
val hash : t -> int
val to_string : t -> string

module Set : Set.S with type elt = t
module Map : Map.S with type key = t
