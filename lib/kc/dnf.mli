(** Monotone DNF representations of negation-free Boolean expressions.

    The lineage of a positive (union-of-conjunctive-queries-shaped) query
    is monotone; its DNF is the input format of the Karp-Luby FPRAS for
    weighted DNF counting — the classical "anytime" alternative to exact
    compilation that the finite-PDB literature pairs with lineages. *)

type clause = int list
(** A conjunction of positive variables, sorted, duplicate-free. *)

type t = clause list
(** A disjunction of clauses; no clause subsumes another (absorption is
    applied). *)

val of_expr : ?max_clauses:int -> Bool_expr.t -> t option
(** Distribute a negation-free expression into minimal monotone DNF.
    [None] if the expression contains negation or the intermediate clause
    count exceeds [max_clauses] (default 4096).  [Some []] is the constant
    false; [Some [[]]] the constant true. *)

val eval : (int -> bool) -> t -> bool
(** Reference: tests check DNF semantics against Bool_expr.eval with
    it. *)

val vars : t -> int list
(** Reference: an observer for tests. *)

val num_clauses : t -> int
(** Reference: an observer for tests. *)

val to_expr : t -> Bool_expr.t
(** Reference: tests check the conversion round trip with it. *)

(** {1 Karp-Luby estimation} *)

type estimate = {
  value : float;
  std_error : float;
  samples : int;
  union_bound : float;  (** [sum_i w_i], an upper bound on the true value *)
}

val karp_luby :
  ?seed:int -> samples:int -> weight:(int -> float) -> t -> estimate
(** The Karp-Luby coverage estimator for [P(C_1 or ... or C_m)] with
    independent variables: draw a clause proportionally to its weight,
    complete the world conditioned on that clause, count how many clauses
    the world satisfies; [union_bound * E(1/count)] is unbiased.  Relative
    error shrinks with [sqrt samples] {e independently of how small the
    probability is} — exactly what plain Monte Carlo lacks.
    @raise Invalid_argument on an empty DNF (probability is exactly 0) or
    nonpositive sample count. *)
