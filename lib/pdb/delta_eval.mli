(** Incremental query evaluation under streaming updates.

    A delta session holds a query's compiled lineage (a live BDD) over a
    finite TI table and keeps the probability current while the table
    mutates under {e set-the-marginal} deltas: [insert], [delete] and
    [reweight] all reduce to "set the marginal of fact [f] to [p]"
    (with [p = 0] for deletion), which makes every delta invertible and
    lets most of them patch the diagram in place instead of recompiling.

    {b Patching discipline.}  The fact alphabet is grow-only for
    comparison-free queries: a deleted fact keeps its BDD variable at
    weight zero, so delete / reweight / re-insert of a known fact is a
    pure weight patch — no lineage work at all.  The weighted model
    count is then re-derived through {!Bdd.fold_prob_many} under the
    session's persistent memo, which only re-runs the carrier arithmetic
    on the slice of the DAG that can see a changed variable.  A genuinely
    new atom extends the diagram: by a delta-join at the root when the
    query is a quantifier chain and the fact brings a fresh constant
    (batched by {!Make.extend}), and by a recompilation in the shared
    warm manager otherwise.

    {b Domain semantics.}  For comparison-free queries the evaluation
    domain is also grow-only — values of deleted facts stay as inert
    domain elements, padded with [quantifier_rank phi] fresh inert
    values.  By the r-equivalence argument of Proposition 6.1 this
    yields exactly the padded from-scratch answer
    [Query_eval.boolean ~extra_domain:(padding t) (table t) phi] after
    every delta, which is what the mutation-differential fuzzer checks
    by exact rational equality.  Queries using order comparisons get no
    padding and an exact active domain instead (recompiled whenever the
    support changes), matching unpadded [Query_eval.boolean].

    {b Tail certificate.}  A session created from a truncated countable
    source carries the truncation's certified tail mass, which deltas
    on the materialized prefix do not disturb; [Robust_eval] widens the
    session's count into an enclosure for the open-world answer. *)

type delta =
  | Insert of Fact.t * Rational.t
  | Delete of Fact.t
  | Reweight of Fact.t * Rational.t
      (** All three set the fact's marginal: [Insert] and [Reweight]
          are synonyms accepted for intent, [Delete] sets zero.
          Probability-zero facts do not exist ([Ti_table.create] drops
          them), so [Insert (f, 0)] is a deletion and reweighting an
          absent fact is an insertion. *)

val delta_fact : delta -> Fact.t

val delta_target : delta -> Rational.t
(** The marginal the delta sets (zero for [Delete]). *)

val delta_to_string : delta -> string
(** One line: [insert R(a, b) 1/2], [delete R(a, b)],
    [reweight R(a, b) 1/3].  Round-trips with {!delta_of_string}. *)

val delta_of_string : string -> delta
(** @raise Invalid_argument on malformed input. *)

val apply_table : Ti_table.t -> delta -> Ti_table.t
(** The pure table semantics of a delta — the from-scratch reference
    the incremental engine is fuzzed against.
    @raise Invalid_argument on a marginal outside [\[0,1\]]. *)

val inverse_of : Ti_table.t -> delta -> delta
(** The delta that restores [tbl]'s current state after applying [d];
    must be taken {e before} the application. *)

(** How a session absorbed a delta (diagnostics and test assertions). *)
type apply_kind =
  | Noop  (** the table already satisfied the delta *)
  | Patched  (** weight patch on an existing variable *)
  | Extended  (** delta-join of fresh lineage at the root *)
  | Recompiled  (** full recompilation in the shared manager *)

val apply_kind_to_string : apply_kind -> string

(** {1 TI delta sessions, generic over the probability carrier}

    The one engine with two carriers: {!Exact} counts with rationals (the
    fuzzer's from-scratch reference), {!Certified} with outward-rounded
    intervals (the anytime and served sessions). *)

module Make (C : Prob.CARRIER) : sig
  type t

  val create :
    ?tail:float ->
    ?tick:(unit -> unit) ->
    ?on_free:(int -> unit) ->
    Ti_table.t ->
    Fo.t ->
    t
  (** Compile the query's lineage over the table and root-protect it in
      a private manager (the table's atoms in first-occurrence order
      over that lineage, later inserts newest-first above them, so they
      extend the diagram at the top).  [tail] is the certified tail
      mass of the truncation this table came from (default [0.], the
      closed-world reading).  [tick] and [on_free] go to the session's
      {!Bdd.manager}: a budget's [Bdd_nodes] hooks, under which a
      [tick] that raises aborts the compilation in progress without
      publishing any of it.  The manager collects garbage at the next
      safe point once 2^16 nodes have been allocated since the last
      sweep, and [on_free] is told what each sweep freed.
      @raise Invalid_argument if [phi] has free variables or [tail] is
      outside [\[0,1)]. *)

  val table : t -> Ti_table.t
  val tail : t -> float

  val epoch : t -> int
  (** Number of non-no-op deltas absorbed. *)

  val padding : t -> Value.t list
  (** Current inert padding values (re-derived per delta; empty for
      comparison queries).  Passing these to
      [Query_eval.boolean ~extra_domain] reproduces the session's
      semantics from scratch. *)

  val apply : t -> delta -> apply_kind
  (** Mutate the table and patch the diagram.
      @raise Invalid_argument on a marginal outside [\[0,1\]]. *)

  val extend : t -> (Fact.t * Rational.t) list -> apply_kind
  (** Insert a batch of facts absent from the table as one delta — the
      prefix extension of an anytime session.  New atoms append to the
      alphabet and the whole batch costs one delta-join ([Extended])
      when the query is a quantifier chain and every new fact names a
      fresh value, one recompilation ([Recompiled]) otherwise; [Noop] on
      an empty batch.  Nothing is published if a [tick] raises.
      @raise Invalid_argument if a fact is already present or a
      marginal lies outside [\[0,1\]]. *)

  val inverse : t -> delta -> delta
  (** [inverse_of (table t) d]. *)

  val prob : t -> C.t
  (** The current [P(phi)] — cached between deltas; after a patch only
      the dirty WMC slice pays carrier arithmetic. *)

  val live_nodes : t -> int
  val diagram_size : t -> int
end

module Exact : module type of Make (Prob.Rational_carrier)
module Certified : module type of Make (Prob.Interval_carrier)
