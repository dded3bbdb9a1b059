(** Weighted model counting over BDDs.

    If the variables of a Boolean function are independent events with
    known marginal probabilities (exactly the situation for lineages of
    queries over tuple-independent PDBs), the probability that the
    function holds is computed in one linear pass over its BDD:
    [P(node) = p(var) * P(hi) + (1 - p(var)) * P(lo)].

    Functorized over the probability carrier so the same code yields fast
    float answers, exact rational answers, or certified interval
    enclosures. *)

val first_occurrence_order : Bool_expr.t list -> int -> int
(** The variable order every lineage compiler shares: depth-first first
    occurrence over the concatenated lineages (see
    {!Bool_expr.occurrence_order}), variables outside them last.  Pass it
    as [~order] to {!Bdd.manager}. *)

val compile :
  ?tick:(unit -> unit) ->
  ?on_free:(int -> unit) ->
  ?cache_size:int ->
  ?gc_threshold:int ->
  Bool_expr.t ->
  Bdd.t
(** Compile one lineage into a fresh manager under
    {!first_occurrence_order}.  The optional arguments are forwarded to
    {!Bdd.manager}: [tick] is called per fresh node and may raise to
    abort a blowing-up compilation; [on_free] refunds nodes reclaimed by
    GC when [gc_threshold] enables it. *)

module Make (C : Prob.CARRIER) : sig
  val probability : weight:(int -> C.t) -> Bdd.t -> C.t
  (** [weight v] is the marginal probability of variable [v]; it is
      consulted only on the support. *)

  val probability_expr :
    ?tick:(unit -> unit) ->
    ?on_free:(int -> unit) ->
    ?cache_size:int ->
    ?gc_threshold:int ->
    weight:(int -> C.t) ->
    Bool_expr.t ->
    C.t
  (** Convenience: {!compile}, then count. *)
end

val float_probability : weight:(int -> float) -> Bool_expr.t -> float
val rational_probability :
  weight:(int -> Rational.t) -> Bool_expr.t -> Rational.t
val interval_probability :
  weight:(int -> Interval.t) -> Bool_expr.t -> Interval.t
