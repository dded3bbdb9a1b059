(** Weighted model counting over BDDs.

    If the variables of a Boolean function are independent events with
    known marginal probabilities (exactly the situation for lineages of
    queries over tuple-independent PDBs), the probability that the
    function holds is computed in one linear pass over its BDD:
    [P(node) = p(var) * P(hi) + (1 - p(var)) * P(lo)].

    The count is exact: {!count} runs that step over scaled integer
    numerators and normalises once per root.  (The delta sessions apply
    the same step over their carrier through {!Bdd.fold_prob_many},
    whose persistent memo re-counts only the nodes a weight change
    reaches.) *)

val first_occurrence_order : Bool_expr.t list -> int -> int
(** The variable order every lineage compiler shares: depth-first first
    occurrence over the concatenated lineages (see
    {!Bool_expr.occurrence_order}), variables outside them last.  Pass it
    as [~order] to {!Bdd.manager}. *)

val count : weight:(int -> Rational.t) -> Bdd.t array -> Rational.t array
(** The exact count of a batch of roots of one manager: the probability
    that each holds when variable [v] is independently true with
    probability [weight v].  One {!Bdd.scaled_count} sweep over the
    union of the DAGs, then one normalisation per root.  [weight] is
    consulted only on the support, once per variable. *)

val probability :
  ?tick:(unit -> unit) ->
  weight:(int -> Rational.t) ->
  Bool_expr.t ->
  Rational.t
(** Compile the lineage into a fresh manager under
    {!first_occurrence_order}, then count: the probability that it holds
    when variable [v] is independently true with probability [weight v].
    [tick] goes to {!Bdd.manager}: it is called per fresh node and may
    raise to abort a blowing-up compilation.  The manager is used once
    and never collects garbage, so [tick] sees every node allocated. *)
