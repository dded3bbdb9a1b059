(** Batched evaluation of many Boolean queries over one
    tuple-independent table and one shared knowledge-compilation store.

    A service evaluating a query {e set} over the same [(policy,
    truncation)] pair repeats three kinds of work when it loops over
    {!Query_eval.boolean}: the quantifier-rank padding of the evaluation
    domain is re-derived per call, structurally shared subformulas are
    re-compiled into fresh BDD managers that cannot remember each other's
    nodes, and each weighted model count re-walks DAG regions another
    member already priced.  This module amortises all three:

    - {b one padding}: the inert-value padding (Proposition 6.1's
      r-equivalence device) is computed once per batch at the {e maximum}
      quantifier rank over the padded members — sound because any
      [k >= quantifier_rank phi] inert values decide [phi] identically;
    - {b one store per shard}: all BDD-routed members of a shard compile
      into a single {!Bdd.manager}, so a shared subformula hits the same
      unique table and operation cache instead of being rebuilt;
    - {b one sweep}: the weighted model counts of a shard's members are
      taken by one {!Wmc.count} sweep — the cost is the size of the
      {e union} of the member DAGs, not the sum;
    - {b dichotomy first}: every member is offered to the lifted
      safe-plan engine before any compilation, so safe members never
      touch the BDD store (same routing, and same
      [query.safe_plan] / [query.bdd_fallback] counters, as
      {!Query_eval.boolean});
    - {b dedup}: syntactically identical members are evaluated once; the
      copies are answered from the representative.

    {b Determinism.}  Results are a pure function of [(table, queries,
    extra_domain)], and {e bit-identical} at any [domains] setting:
    sharding is decided by member index alone (never by runtime
    scheduling), each shard's ROBDDs are canonical for its manager, and
    the rational model count of a canonical function does not depend on
    which manager or variable order produced it.  Worker domains follow
    the same discipline as {!Mc_eval}: work is claimed through one
    atomic cursor, every result lands in a per-member slot, and
    instrumentation uses the [Atomic]-backed {!Stats} registry, so no
    increment is dropped.

    {b Member-wise semantics} (the metamorphic law the fuzzer checks):
    member [i] of [boolean ~extra_domain ti qs] equals
    [Query_eval.boolean ~extra_domain:d ti qs.(i)] where [d] is
    [extra_domain] alone when [qs.(i)] contains a [Cmp] atom (inert
    values are distinguishable by order, so those members stay
    unpadded, as everywhere else in this code base) and
    [padding ti qs @ extra_domain] otherwise. *)

type route =
  | Lifted  (** answered by the safe-plan engine; no BDD was built *)
  | Compiled of int  (** compiled into the shared store of shard [i] *)
  | Duplicate of int
      (** syntactically equal to member [j], answered from its slot *)

(** [prob] is always a [Rational.t]; the parameter lets callers keep
    writing [Rational.t member] and [Rational.t result]. *)
type 'p member = { query : Fo.t; prob : 'p; route : route }

type 'p result = {
  members : 'p member array;  (** positionally aligned with the input *)
  padding : Value.t list;
      (** the batch's inert padding values (max rank over padded members) *)
  shards : int;  (** shard managers actually used (0 if none compiled) *)
  lifted : int;  (** distinct members answered by the lifted engine *)
  compiled : int;  (** distinct members compiled to BDDs *)
  deduped : int;  (** members answered as duplicates *)
}

val padding : ?extra:Value.t list -> Ti_table.t -> Fo.t array -> Value.t list
(** The once-per-batch inert padding: [max quantifier_rank] fresh values
    over the non-[Cmp] members, distinct from every support value, every
    member's constants and [extra].  [[]] when no member needs padding.
    Exposed so a sequential loop can reproduce the batch semantics
    member by member. *)

val boolean :
  ?extra_domain:Value.t list ->
  ?domains:int ->
  Ti_table.t ->
  Fo.t array ->
  Rational.t result
(** Evaluate the whole batch exactly.  [domains] (default 1) caps the
    worker domains fanned over the compiled shards; with [domains = 1]
    the whole batch shares a single store (maximal sharing), larger
    values trade sharing for parallelism without changing the
    (bit-identical) results.
    @raise Invalid_argument if [domains < 1], or some member has free
    variables. *)
