(** First-order logic over a relational vocabulary, expanded by constants
    from the universe — the query language [FO(tau, U)] of Section 2.1.

    Variables are named; constants are {!Value.t}.  Equality atoms and the
    full Boolean/quantifier structure are supported. *)

type term =
  | Var of string
  | Const of Value.t

type cmp_op = Lt | Le | Gt | Ge

type t =
  | True
  | False
  | Atom of string * term list  (** [R(t_1, ..., t_k)] *)
  | Eq of term * term
  | Cmp of cmp_op * term * term
      (** Built-in order comparison, by the total order on {!Value.t}
          (within a sort: the natural order; across sorts: the fixed sort
          order).  Deterministic like [Eq]; usable e.g. for "office 1 is
          warmer than office 2" in the paper's introduction scenario. *)
  | Not of t
  | And of t * t
  | Or of t * t
  | Implies of t * t
  | Exists of string * t
  | Forall of string * t

(** {1 Construction helpers} *)

val atom : string -> term list -> t
val v : string -> term
val c : Value.t -> term
val cint : int -> term

val conj : t list -> t
(** Right-nested conjunction; [True] on the empty list. *)

val disj : t list -> t
val exists_many : string list -> t -> t
val forall_many : string list -> t -> t

(** {1 Structure} *)

val free_vars : t -> string list
(** Sorted, duplicate-free. *)

val is_sentence : t -> bool
(** Reference: an observer for tests. *)

val quantifier_rank : t -> int
(** Maximum quantifier nesting depth — the parameter [r] of
    Proposition 6.1's r-equivalence argument. *)

val constants : t -> Value.t list
(** [adom(phi)]: all constants occurring in the formula, sorted. *)

val relations : t -> (string * int) list
(** Relation symbols used, with observed arities, sorted.
    @raise Invalid_argument if a symbol occurs with two arities. *)

val substitute : (string * Value.t) list -> t -> t
(** Capture-free substitution of constants for free variables (bound
    occurrences are untouched). *)

val rename_bound : (string -> string) -> t -> t
(** [rename_bound f phi]: rename every bound variable [x] (the binder
    and the occurrences it captures) to [f x], leaving free variables
    untouched — an α-renaming, so the result is logically equivalent to
    [phi].  Safety is checked, not assumed: the call raises
    [Invalid_argument] if some image [f x <> x] already occurs anywhere
    in [phi] (free or bound), or if two distinct bound names map to the
    same image — either could capture.  Shadowing in [phi] is preserved
    (equal bound names rename equally). *)

val equal : t -> t -> bool
(** Reference: tests check the parser's round trip with it. *)

val to_string : t -> string

(** {1 Shape tests (for the safe-plan engine)} *)

val is_positive : t -> bool
(** No negation or implication. *)

val is_quantifier_free : t -> bool

val has_cmp : t -> bool
(** Whether the built-in order [Cmp] occurs anywhere.  [Cmp] breaks the
    interchangeability of inert padding values, so engines that pad the
    evaluation domain (anytime intersection, Monte-Carlo plans, the
    robust supervisor's cross-engine enclosure intersection) consult
    this before combining certificates across truncation depths. *)
