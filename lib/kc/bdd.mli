(** Reduced ordered binary decision diagrams with hash-consing.

    The workhorse of exact probabilistic inference over lineage
    expressions: compiling a lineage to a BDD makes its weighted model
    count linear in the BDD size (see {!Wmc}).  Built from scratch — the
    sealed environment has no BDD package.

    The kernel is tuned for throughput: nodes live in struct-of-arrays
    storage addressed by integer index, the unique table is an
    open-addressing int table, and all operations ([conj]/[disj]/[xor]/
    [neg]/[ite]) share one direct-mapped lossy operation cache keyed by
    packed tagged ints — the hot lookup path allocates nothing.

    A {!manager} owns the node store; nodes from different managers must
    not be mixed (binary operations raise [Invalid_argument] if they
    are).  Managers optionally run a root-registered mark-and-sweep GC of
    the node store: see {!protect}, {!release} and {!gc}.  GC runs only
    at safe points inside {!of_expr} (between sub-compilations) or when
    {!gc}/{!maybe_gc} is called explicitly — never inside an [apply]
    recursion — so results of individual operations are stable until the
    next compilation or explicit collection. *)

type manager
type t

val manager :
  ?order:(int -> int) ->
  ?tick:(unit -> unit) ->
  ?on_free:(int -> unit) ->
  ?cache_size:int ->
  ?gc_threshold:int ->
  unit ->
  manager
(** [order] maps variable indices to levels: smaller level = closer to the
    root.  Default is the identity.  The order must be injective on the
    variables used.

    [tick] is called once per freshly allocated node, {e before} the node
    enters the unique table, and may raise to abort a compilation that is
    blowing up (the manager is left consistent: the aborted node was
    never added).  This is the hook a resource governor uses to cap BDD
    growth without the BDD layer depending on it.

    [on_free n] is the inverse hook: called after a garbage collection
    that freed [n] nodes, so the governor can refund their budget — the
    pair keeps {!Budget}-style accounting keyed to {e live} nodes.

    [cache_size] is the number of entries in the direct-mapped operation
    cache (rounded up to a power of two >= 64; default [2^11] =
    {!default_cache_size}).  The cache is lossy: a conflicting entry
    overwrites, never chains.  The rounding is observable: query the
    size actually in effect with {!cache_size} (on a manager) or
    {!effective_cache_size} (on a requested value), so configuration
    reports never echo a knob the kernel silently adjusted.

    [gc_threshold] triggers an automatic collection at the next safe
    point once that many nodes have been allocated since the previous
    one (default [max_int]: automatic GC off).
    @raise Invalid_argument if either size is not positive. *)

val tru : manager -> t
val fls : manager -> t
val var : manager -> int -> t

val neg : manager -> t -> t
val conj : manager -> t -> t -> t
val disj : manager -> t -> t -> t
val xor : manager -> t -> t -> t

val ite : manager -> t -> t -> t -> t
(** If-then-else as a cached primitive (not three binary applies):
    constant and repeated-argument triples are simplified away before the
    cofactor recursion, and general triples hit the shared operation
    cache directly. *)

val of_expr : manager -> Bool_expr.t -> t
(** Compile a Boolean expression.  [And]/[Or] lists are combined by a
    size-sorted balanced fold (small operands first, pairwise rounds)
    rather than a left fold — O(n log n) instead of O(n^2) applies on the
    long independent disjunctions typical of lineages.  Between
    sub-compilations the manager may run GC if [gc_threshold] is set;
    intermediate results are rooted internally. *)

(** {1 Garbage collection}

    The unique table only ever grows unless roots are registered and
    {!gc} (or the [gc_threshold] automatism) runs.  Sessions that keep a
    manager alive across many compilations — e.g. anytime evaluation —
    protect their current diagram and collect between steps, so
    {!node_count} and the [tick] budget account live nodes instead of
    every node ever built. *)

val protect : t -> unit
(** Register the BDD's root against collection.  Counted: [n] calls need
    [n] {!release}s. *)

val release : t -> unit
(** Undo one {!protect}.  Releasing a root that is not protected is a
    no-op. *)

val gc : manager -> int
(** Mark from the protected roots and sweep everything unreachable;
    returns the number of nodes freed.  The operation cache is
    invalidated (freed indices may be reused), the unique table rebuilt
    over live nodes, and [on_free] is told the freed count.  Results of
    earlier operations that were not protected (directly or as
    descendants of a root) are dangling after a sweep — hold only
    protected diagrams across a collection. *)

val maybe_gc : manager -> int
(** Run {!gc} iff the allocations since the last sweep reached the
    manager's [gc_threshold]; returns the number of nodes freed (0 when
    no collection ran).  This is the safe point [of_expr] calls between
    sub-compilations. *)

val is_tru : t -> bool
(** Reference: an observer for tests. *)

val is_fls : t -> bool
(** Reference: an observer for tests. *)

val equal : t -> t -> bool
(** Constant-time: ROBDDs are canonical per manager.  [false] for nodes
    of different managers. *)

val size : t -> int
(** Number of distinct internal nodes reachable from the root. *)

val node_count : manager -> int
(** {e Live} nodes in the manager: allocated and not yet swept.  Before
    any GC this equals the number of nodes ever created. *)

val allocated_count : manager -> int
(** Total nodes ever allocated, including swept ones — the monotone
    series [tick] sees. *)

val peak_count : manager -> int
(** High-water mark of {!node_count}. *)

val cache_size : manager -> int
(** The {e effective} number of operation-cache entries — the requested
    [cache_size] rounded up to a power of two >= 64, never the raw
    request.

    Reference: an observer for tests. *)

val effective_cache_size : int -> int
(** [effective_cache_size requested] is the operation-cache size
    {!manager} would actually use for [?cache_size:requested] — the same
    power-of-two rounding, exposed so front ends can report the true
    configuration without building a manager.
    @raise Invalid_argument if [requested] is not positive. *)

val default_cache_size : int
(** The [cache_size] used when the knob is omitted ([2^11]). *)

val eval : (int -> bool) -> t -> bool
(** Reference: tests check compiled diagrams against the expression's
    truth table with it. *)

val support : t -> int list
(** Variables the function actually depends on, sorted.

    Reference: an observer for tests. *)

val sat_count : t -> over:int list -> Bigint.t
(** Number of satisfying assignments over the given variable set, which
    must contain the support. @raise Invalid_argument otherwise.

    Reference: tests check it against Bool_expr.model_count. *)

val any_sat : t -> (int * bool) list option
(** A satisfying partial assignment (over the support), or [None] for the
    constant-false BDD.  Linear in the DAG size: UNSAT subtrees are
    memoized, so shared false-heavy nodes are abandoned once instead of
    once per path.

    Reference: tests check witnesses with it. *)

val restrict : manager -> t -> int -> bool -> t
(** Cofactor: fix one variable.

    Reference: tests check the Shannon expansion and the law of total
    probability with it. *)

(** {1 Weighted model counting}

    Two sweeps.  {!scaled_count} is the fresh exact count of a batch of
    roots, over integer numerators.  {!fold_prob_many} is generic in its
    values and serves the incremental re-count of a delta session: a
    {!prob_memo} keeps per-node fold results alive {e across} calls, so
    that re-counting after a small weight change only pays [node] calls
    on the slice of the DAG that can see a changed variable — clean
    subgraphs are served from the memo without touching the (possibly
    expensive) value arithmetic.  Node indices are only stable between
    sweeps: clear the memo after anything that may have run {!gc}, and
    after any structural recompilation that rebinds what a variable
    means. *)

type 'a prob_memo

val prob_memo : unit -> 'a prob_memo
val prob_memo_clear : 'a prob_memo -> unit

val prob_memo_size : 'a prob_memo -> int
(** Number of node entries currently held (diagnostics).

    Reference: an observer for tests. *)

val fold_prob_many :
  ?memo:'a prob_memo ->
  ?dirty:(int -> bool) ->
  zero:'a ->
  one:'a ->
  node:(int -> 'a -> 'a -> 'a) ->
  t array ->
  'a array
(** Memoized bottom-up fold over a batch of roots of {e one} manager:
    [node v lo hi] receives the results for the low and high children,
    and results are positionally aligned with the input ([[||]] on the
    empty batch).  Without [memo], one table shared across the whole
    sweep visits each distinct node once: a node reachable from several
    roots contributes one [node] call total, so the cost of counting a
    batch is the size of the {e union} of the DAGs, not the sum, and
    [dirty] is ignored.

    With a persistent [memo], [node v lo hi] runs only for nodes whose
    subtree mentions a variable with [dirty v = true] (default: none),
    or that have no memo entry yet (fresh nodes); every other node
    reuses its stored value.  The traversal itself still visits the
    whole DAG (cheap pointer walk) — what is skipped is the value
    arithmetic.  All freshly computed values replace their memo entries,
    so a call without [dirty] after a full pass is a pure replay.
    @raise Invalid_argument if the roots span different managers. *)

val scaled_count :
  weight:(int -> Bigint.t * Bigint.t) -> t array -> (Bigint.t * Bigint.t) array
(** The exact weighted model count of a batch of roots of {e one}
    manager, as unreduced fractions: [weight v = (a, d)] says variable
    [v] is independently true with probability [a/d] ([d <> 0]), and
    root [k]'s probability is [fst r.(k) / snd r.(k)].  One bottom-up
    sweep over the union of the DAGs visits each distinct node once and
    does only integer products and sums: a node stores its probability
    times the product of the denominators over its own span of levels,
    so the sweep needs no gcd and no common denominator ([[||]] on the
    empty batch).  [weight] is asked once per level that occurs.
    @raise Invalid_argument if the roots span different managers. *)

