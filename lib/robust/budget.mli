(** Composable evaluation budgets and cooperative cancellation.

    A budget bundles an optional deadline with per-kind work-unit caps
    (facts enumerated, tail probes, BDD nodes allocated, Monte-Carlo
    samples, anytime steps).  Engines charge work against the budget as
    they go and poll it at safe points; the first exhaustion observed is
    recorded stickily so every later poll reports the same cause.

    Budgets compose: a child created with [~parent] forwards every spend
    upward and is exhausted as soon as any ancestor is, which is how
    [Robust_eval] gives each rung of its degradation ladder a private
    slice of one overall allowance.

    All mutable state is atomic, so worker domains may spend against and
    poll the budget that the coordinating domain created.  Exhaustion is
    surfaced two ways: {!checkpoint} raises {!Exhausted} (for
    single-domain hot loops), {!ok}/{!exhausted} return it as data (for
    worker domains, where an exception must not cross the [Domain]
    boundary). *)

type kind = Facts | Probes | Bdd_nodes | Samples | Steps

type exhaustion =
  | Timeout  (** the deadline passed *)
  | Cap of kind  (** a work-unit cap was reached *)
  | Cancelled  (** {!cancel} was called *)

val exhaustion_to_string : exhaustion -> string

exception Exhausted of exhaustion

type clock =
  | Wall  (** real time via [Unix.gettimeofday] *)
  | Virtual of int
      (** deterministic time: [n] work units define one second, so a
          timeout is really a total-work cap and budget-bounded runs are
          bit-reproducible *)

type t

val create :
  ?clock:clock ->
  ?timeout:float ->
  ?max_facts:int ->
  ?max_probes:int ->
  ?max_bdd_nodes:int ->
  ?max_samples:int ->
  ?max_steps:int ->
  ?parent:t ->
  unit ->
  t
(** [create ()] is unlimited; each option adds one constraint.
    [timeout] is in seconds on the chosen clock and must be positive.
    @raise Invalid_argument on a non-positive timeout or virtual rate,
    or a negative cap. *)

val unlimited : unit -> t

val child :
  ?clock:clock ->
  ?timeout:float ->
  ?max_facts:int ->
  ?max_probes:int ->
  ?max_bdd_nodes:int ->
  ?max_samples:int ->
  ?max_steps:int ->
  t ->
  t
(** [child parent] is [create ~parent]: spends propagate to [parent] and
    exhaustion of [parent] exhausts the child. *)

val spend : t -> kind -> int -> unit
(** Record [n] units of work of the given kind (and the same [n] on the
    virtual clock), on this budget and every ancestor.  Never raises on
    exhaustion — pair with {!checkpoint} or {!ok}. *)

val charge : t -> kind -> int -> unit
(** [spend] then [checkpoint]. *)

val refund : t -> kind -> int -> unit
(** Give back [n] units of the given kind, on this budget and every
    ancestor — the inverse of {!spend} for resources that are actually
    reclaimed (e.g. BDD nodes freed by a garbage collection, reported
    through [Bdd.manager]'s [on_free] hook).  Only the per-kind spend is
    reduced: the virtual clock keeps counting every unit ever spent, and
    a budget that already tripped stays tripped — collect before the cap,
    not after. *)

val checkpoint : t -> unit
(** @raise Exhausted if the budget (or an ancestor) is exhausted. *)

val ok : t -> bool
(** [true] while not exhausted.  Never raises — safe in worker domains. *)

val exhausted : t -> exhaustion option
(** The sticky cause, once tripped. *)

val cancel : t -> unit
(** Trip the budget from outside (idempotent; loses to an earlier trip). *)

val elapsed : t -> float
(** Seconds on the budget's own clock.

    Reference: an observer for tests. *)

val spent : t -> kind -> int

val cap : t -> kind -> int option

val cap_remaining : t -> kind -> int option
(** [None] if uncapped, otherwise the units left before the cap trips. *)

val time_remaining : t -> float option
(** Seconds left before the tightest deadline across the ancestor chain
    expires, on each budget's own clock ([Wall] or [Virtual]); [None]
    when no deadline constrains this budget, [0.] once one has passed.
    This is what callers that are about to {e sleep} (retry backoff, the
    serving layer's admission queue) consult so a voluntary wait never
    overshoots a wall deadline. *)

val time_remaining_units : t -> int option
(** Work units left before a [Virtual] deadline (the tightest across the
    ancestor chain); [None] when no virtual deadline constrains this
    budget.  Lets an engine clamp a batch size up front instead of being
    interrupted mid-run — the key to deterministic partial results. *)

val describe : t -> string
(** One-line summary of limits, spends and trip cause.  Contains no
    wall-clock readings, so it is deterministic under a [Virtual]
    clock. *)
