(* Incremental anytime evaluation: deepen the truncation prefix of
   Proposition 6.1 step by step, reusing lineage/BDD work across steps
   instead of recompiling from scratch at each precision level.

   The compilation side is a certified delta session
   ({!Delta_eval.Certified}) over the growing prefix table: each step
   hands the newly enumerated facts to [Delta_eval.Certified.extend] as
   one batch.  The session owns one BDD manager for its whole lifetime,
   appends the new facts to its alphabet (variable [i] is the [i]-th
   enumerated fact at every step), orders variables newest-first so that
   joins only build nodes above the old root, delta-joins the fresh
   ground instances of a quantifier chain, and recompiles in the warm
   manager when it must.  Its memoized interval fold re-counts only the
   nodes a step added.  This module is the stepping policy on top:
   growth, certification, interval intersection and stop reasons.

   Per-step model counts use the certified interval carrier, not exact
   rationals: on slowly-decaying sources the prefix probabilities have
   pairwise-coprime denominators, so exact WMC costs a huge-integer gcd
   per BDD node and goes cubic in the prefix length — fatal for an engine
   whose whole point is cheap re-evaluation at every depth.  Outward
   rounding keeps every emitted enclosure sound.

   Certification across steps needs care: the classical engines evaluate
   over the active domain of the truncated table, and that semantics
   *moves* as the prefix deepens — over a 1-element domain
   [exists x. R(x) & !(forall y. R(y))] is identically false, so its
   step-1 enclosure says nothing about the limit and must not be
   intersected with later ones.  The session therefore evaluates every
   step over the prefix domain padded with [quantifier_rank phi] fresh
   inert values, realizing the r-equivalence argument behind
   Proposition 6.1: by an Ehrenfeucht-Fraissé argument, a world whose
   support lies inside the prefix evaluates identically over every larger
   domain (inert values satisfy no relation atom and are pairwise
   interchangeable, and r rounds can touch at most r of them).  Every
   per-step enclosure then bounds the same limit probability, so
   intersecting them — the monotone-narrowing interval we report — is
   sound.  The one query feature that breaks interchangeability is the
   built-in order [Cmp]: such queries are evaluated unpadded over the
   prefix's active domain (as in {!Approx_eval}), each step's enclosure
   certifies that step's truncated-semantics value only, and no
   intersection is performed. *)

module S = Delta_eval.Certified

let c_steps = Stats.counter "anytime.steps"
let c_delta = Stats.counter "anytime.delta_steps"
let c_recompile = Stats.counter "anytime.recompile_steps"
let step_timer = Stats.timer "anytime.step"

type stop_reason =
  | Converged
  | Exhausted
  | Prefix_budget
  | Interrupted of Budget.exhaustion

let stop_reason_to_string = function
  | Converged -> "converged"
  | Exhausted -> "exhausted"
  | Prefix_budget -> "prefix budget"
  | Interrupted e -> "interrupted (" ^ Budget.exhaustion_to_string e ^ ")"

type step = {
  index : int;
  n : int;
  tail : float option;
  estimate : Interval.t;
  bounds : Interval.t;
  width : float;
  bdd_size : int;
  incremental : bool;
  stats : Stats.snapshot;
}

type t = {
  src : Fact_source.t;
  budget : Budget.t option;
  intersectable : bool;  (* Cmp-free: padded enclosures share one limit *)
  eps : float;
  max_n : int;
  growth : int -> int;
  session : S.t option;  (* None only when the budget tripped in [create] *)
  mutable n : int;  (* current truncation depth *)
  mutable best_tail : float option;  (* min certified tail seen so far *)
  mutable bounds : Interval.t;  (* running enclosure *)
  mutable steps_rev : step list;
  mutable stopped : stop_reason option;
}

let create ?(eps = 0.01) ?(max_n = 1 lsl 20) ?growth ?budget src phi =
  if not (eps > 0.0 && eps < 0.5) then
    invalid_arg "Anytime: eps must lie in (0, 1/2)";
  if Fo.free_vars phi <> [] then
    invalid_arg "Anytime: query must be a sentence";
  let growth =
    match growth with
    | Some g -> fun n -> Stdlib.max (n + 1) (g n)
    | None -> fun n -> Stdlib.max (n + 1) (2 * n)
  in
  (* Under a budget, source accesses are charged (Facts/Probes) through
     the wrapper and every fresh BDD node charges one Bdd_nodes unit;
     either may raise [Budget.Exhausted] mid-step, which [step] converts
     into an [Interrupted] stop with the last completed step's bounds
     still standing.  Nodes the kernel's GC reclaims are refunded, so the
     Bdd_nodes cap governs the live diagram. *)
  let src =
    match budget with Some b -> Fact_source.with_budget b src | None -> src
  in
  let tick =
    Option.map (fun b () -> Budget.charge b Budget.Bdd_nodes 1) budget
  in
  let on_free =
    Option.map (fun b n -> Budget.refund b Budget.Bdd_nodes n) budget
  in
  (* Depth 0: empty table, domain = constants ∪ padding.  Every atom
     compiles to [False] there, so this settles e.g. a universal sentence
     to its padded (stable) value rather than the vacuous empty-domain
     [True].  A budget already exhausted at creation stops the session
     immediately instead of raising out of [create]. *)
  let session, stopped =
    match S.create ?tick ?on_free Ti_table.empty phi with
    | s -> (Some s, None)
    | exception Budget.Exhausted e -> (None, Some (Interrupted e))
  in
  {
    src;
    budget;
    intersectable = not (Fo.has_cmp phi);
    eps;
    max_n;
    growth;
    session;
    n = 0;
    best_tail = None;
    bounds = Interval.make 0.0 1.0;
    steps_rev = [];
    stopped;
  }

let current_n t = t.n
let history t = List.rev t.steps_rev
let last_step t = match t.steps_rev with [] -> None | s :: _ -> Some s
let node_count t = Option.fold ~none:0 ~some:S.live_nodes t.session
let bounds t = t.bounds

(* The body of one deepening step: the new facts go to the session as
   one batch, then the step is certified.  Only the final assignments
   publish, so a budget that trips anywhere before them leaves [t.n] and
   [t.bounds] at the last completed step. *)
let advance t s =
  let target = Stdlib.min t.max_n (t.growth t.n) in
  let prefix = Fact_source.prefix t.src target in
  let n' = List.length prefix in
  let kind = S.extend s (List.filteri (fun i _ -> i >= t.n) prefix) in
  (match kind with
  | Delta_eval.Extended -> Stats.incr c_delta
  | Delta_eval.Recompiled -> Stats.incr c_recompile
  | Delta_eval.Noop | Delta_eval.Patched -> ());
  let estimate = S.prob s in
  let tail_now = Fact_source.tail_mass t.src n' in
  let best =
    match (t.best_tail, tail_now) with
    | Some a, Some b -> Some (Float.min a b)
    | (Some _ as a), None -> a
    | None, b -> b
  in
  let fresh_bounds =
    match best with
    | Some tl ->
      Approx_eval.enclosure_interval estimate
        (Approx_eval.omega_bounds_of_tail tl)
    | None -> Interval.make 0.0 1.0
  in
  let bounds =
    if not t.intersectable then fresh_bounds
    else
      (* Padded enclosures all bound the same limit probability, so the
         intersection is sound.  (An empty intersection would witness an
         unsound tail certificate; keep the old interval then.) *)
      match Interval.intersect fresh_bounds t.bounds with
      | Some b -> b
      | None -> t.bounds
  in
  t.n <- n';
  t.best_tail <- best;
  t.bounds <- bounds;
  ( estimate,
    best,
    bounds,
    S.diagram_size s,
    kind <> Delta_eval.Recompiled,
    n' < target )

let step t =
  match (t.stopped, Option.bind t.budget Budget.exhausted) with
  | Some _, _ -> None
  | None, Some e ->
    (* The budget tripped between steps (deadline, step cap, or an
       ancestor): stop cleanly; the running bounds keep their last
       certified value. *)
    t.stopped <- Some (Interrupted e);
    None
  | None, None ->
    Stats.incr c_steps;
    let before = Stats.snapshot () in
    match Stats.time step_timer (fun () -> advance t (Option.get t.session)) with
    | exception Budget.Exhausted e ->
      (* Cooperative cancellation fired inside the step (a source pull,
         tail probe, or BDD allocation).  Nothing is published: [t.n]
         and [t.bounds] still hold the last completed step, so the
         session's enclosure remains certified. *)
      t.stopped <- Some (Interrupted e);
      None
    | estimate, tail, bounds, bdd_size, incremental, exhausted ->
    (* The step's unit is spent once it completes: the check above comes
       first, and a unit spent up front would trip the cap inside the
       step's own source and BDD checkpoints, so a cap of k admits
       exactly k steps. *)
    Option.iter (fun b -> Budget.spend b Budget.Steps 1) t.budget;
    let stats = Stats.diff (Stats.snapshot ()) before in
    let index = List.length t.steps_rev + 1 in
    let width = Interval.width bounds in
    let st =
      {
        index;
        n = t.n;
        tail;
        estimate;
        bounds;
        width;
        bdd_size;
        incremental;
        stats;
      }
    in
    t.steps_rev <- st :: t.steps_rev;
    t.stopped <-
      (if width <= 2.0 *. t.eps then Some Converged
       else if exhausted then Some Exhausted
       else if t.n >= t.max_n then Some Prefix_budget
       else None);
    Some st

let run t =
  let rec go () = match step t with Some _ -> go () | None -> () in
  go ();
  (Option.get t.stopped, history t)
