(** Facts [R(a_1, ..., a_k)]: the atoms database instances are made of. *)

type t = private { rel : string; args : Value.t array }

val make : string -> Value.t list -> t
(** @raise Invalid_argument on an empty relation name. *)

val make_arr : string -> Value.t array -> t

val conforms : Schema.t -> t -> bool
(** Does this fact belong to [F(tau, U)] for the given schema (with sort
    restrictions)? *)

val rel : t -> string
val args : t -> Value.t list
val arity : t -> int
val arg : t -> int -> Value.t

val compare : t -> t -> int
val equal : t -> t -> bool
val hash : t -> int

val to_string : t -> string
(** [R(1, "x")]. *)

val of_string : string -> t
(** Inverse of {!to_string} for simple values.
    @raise Invalid_argument on malformed input. *)

module Set : Set.S with type elt = t
module Map : Map.S with type key = t
