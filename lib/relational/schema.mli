(** Database schemas: finite sets of relation symbols with arities.

    A schema [tau = {R_1, ..., R_m}] in the sense of Section 2.1 of the
    paper.  Optionally each attribute position can be constrained to a
    value sort, which the open-world completion uses to restrict the fact
    space [F(tau, U)] (as in Example 5.7, where [R] is a relation between
    names and natural numbers). *)

type relation = private {
  rel_name : string;
  arity : int;
  sorts : Value.sort array option;
      (** [Some a] constrains position [i] to sort [a.(i)]. *)
}

type t

val relation : ?sorts:Value.sort list -> string -> int -> relation
(** @raise Invalid_argument on empty name, negative arity, or a sorts list
    whose length differs from the arity. *)

val make : relation list -> t
(** @raise Invalid_argument on duplicate relation names. *)

val relations : t -> relation list
val find : t -> string -> relation option

val union : t -> t -> t
(** @raise Invalid_argument if a name occurs in both with different
    declarations. *)

