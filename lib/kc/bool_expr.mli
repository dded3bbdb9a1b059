(** Boolean expressions over integer-indexed variables.

    The lineage (Boolean provenance) of a first-order query over a
    probabilistic database is such an expression whose variables are the
    possible facts; the probability of the query is the weighted model
    count of its lineage.  Variable indices are assigned by the caller
    (see {!Lineage} in the [logic] library). *)

type t =
  | True
  | False
  | Var of int
  | Not of t
  | And of t list
  | Or of t list

(** {1 Smart constructors} — perform cheap simplifications (unit laws,
    flattening, double negation) so lineage construction never builds
    degenerate towers. *)

val tru : t
val fls : t
val var : int -> t
val neg : t -> t
val conj : t list -> t
val disj : t list -> t
val and2 : t -> t -> t
val or2 : t -> t -> t
val implies : t -> t -> t

(** {1 Queries} *)

val eval : (int -> bool) -> t -> bool
(** Reference: the truth-table semantics tests compare lineage,
    diagrams and DNFs against. *)

val vars : t -> int list
(** Sorted, duplicate-free.

    Reference: an observer for tests. *)

val size : t -> int
(** Number of AST nodes. *)

val is_constant : t -> bool option
(** [Some b] if syntactically the constant [b].

    Reference: an observer for tests. *)

val occurrence_order : t -> int list
(** Variables in depth-first first-occurrence order.  Using this as a BDD
    variable order keeps variables that interact (e.g. the [R(v)] and
    [S(v)] of one join value) adjacent, which avoids the classic
    exponential blowup of sorted-by-relation orders on join lineages. *)

val equal : t -> t -> bool
(** Reference: an observer for tests. *)

val to_string : t -> string
(** Reference: prints counterexamples in tests. *)

(** {1 Exhaustive model counting} *)

val model_count : t -> int
(** Number of satisfying assignments over [vars t].  Exponential; for
    cross-checking only. @raise Invalid_argument beyond 20 variables.

    Reference: the brute-force count tests compare Bdd.sat_count
    against. *)

val brute_force_probability : (int -> Rational.t) -> t -> Rational.t
(** Weighted model count by truth-table enumeration: the probability that
    the expression holds when variable [i] is independently true with
    probability [weight i].  Exponential; the reference implementation the
    BDD engine is tested against. @raise Invalid_argument beyond 20
    variables.

    Reference: the brute-force probability tests compare every count
    against. *)
