(** Finite database instances: finite sets of facts.

    In the paper's terms a [(tau, U)]-instance [D], identified with the set
    of facts it contains (Section 2.1).  Instances are the sample points of
    every probabilistic database in this repository — infinite PDBs have
    infinitely many instances, but each one is finite. *)

type t

val empty : t
val is_empty : t -> bool
val singleton : Fact.t -> t
val add : Fact.t -> t -> t
val mem : Fact.t -> t -> bool
val of_list : Fact.t list -> t
val to_set : t -> Fact.Set.t

val size : t -> int
(** [‖D‖]: the number of facts. *)

val subset : t -> t -> bool

val disjoint_union : t -> t -> t
(** @raise Invalid_argument if the operands share a fact — used by the
    completion construction of Theorem 5.5, whose instances decompose
    uniquely as [D ⊎ C]. *)

val intersects : t -> Fact.Set.t -> bool
(** Does the instance contain a fact from the given set?  This is the
    event [E_F] of Definition 3.1. *)

val active_domain : t -> Value.t list
(** [adom(D)], sorted, without duplicates. *)

val iter : (Fact.t -> unit) -> t -> unit
val for_all : (Fact.t -> bool) -> t -> bool

val compare : t -> t -> int
val equal : t -> t -> bool

val to_string : t -> string
(** ["{R(1), S(2)}"] in fact order. *)
