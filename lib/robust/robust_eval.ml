(* The resource-governed supervisor: degradation ladder
   lifted -> exact -> anytime -> Monte-Carlo under one shared budget.

   The lifted rung is the cheapest: for queries on the tractable side of
   the dichotomy it evaluates the safe plan on the truncated prefix in
   polynomial time (no BDD), certifying the same enclosure shape as the
   exact rung — which is then usually skipped as already converged.

   Soundness invariants, in one place:

   - only {e certified} enclosures enter the pool: a completed
     Approx_eval run, an anytime session's running bounds (valid even
     when [Interrupted]), or the partial enclosure a [Budget_exhausted]
     error carries.  Monte-Carlo intervals are statistical and only ever
     refine the point estimate.
   - pooled certificates are combined by intersection, which is sound
     because every pooled certificate bounds the same limit probability;
     for [Cmp] queries — where certificates at different truncation
     depths speak about different semantics — the anytime rung is
     skipped and only the exact rung (whose conditional-probability
     argument needs no padding) contributes.
   - an empty pool yields the trivial [0,1]: wide, never wrong.

   Determinism: rung seeds are [seed + rung index], the default [sleep]
   is a no-op, and Monte-Carlo results are domain-count independent by
   construction, so under a [Virtual]-clock budget the whole answer —
   provenance string included — is bit-identical across runs. *)

type engine = Lifted | Exact | Anytime | Monte_carlo | Delta

let engine_to_string = function
  | Lifted -> "lifted"
  | Exact -> "exact"
  | Anytime -> "anytime"
  | Monte_carlo -> "monte-carlo"
  | Delta -> "delta"

type outcome =
  | Certified of Interval.t
  | Partial of Interval.t * Errors.t
  | Estimated of Interval.t * float
  | Failed of Errors.t
  | Skipped of string

type attempt = { engine : engine; tries : int; outcome : outcome }

type provenance = {
  attempts : attempt list;
  stopped : string;
  budget : string;
}

type answer = {
  enclosure : Interval.t;
  estimate : float;
  provenance : provenance;
}

let c_queries = Stats.counter "robust.queries"
let c_degradations = Stats.counter "robust.degradations"
let c_budget_exhausted = Stats.counter "robust.budget_exhausted"

(* Same registry entry Retry.run bumps; read before/after a rung to
   attribute attempts to it. *)
let c_retry_attempts = Stats.counter "robust.retry.attempts"
let t_query = Stats.timer "robust.query"

let iv_to_string iv =
  Printf.sprintf "[%.9g, %.9g]" (Interval.lo iv) (Interval.hi iv)

let outcome_to_string = function
  | Certified iv -> "certified " ^ iv_to_string iv
  | Partial (iv, e) ->
    Printf.sprintf "partial %s after %s" (iv_to_string iv) (Errors.to_string e)
  | Estimated (iv, est) ->
    Printf.sprintf "estimate %.9g in %s" est (iv_to_string iv)
  | Failed e -> "failed: " ^ Errors.to_string e
  | Skipped why -> "skipped: " ^ why

let provenance_to_string p =
  String.concat "\n"
    (List.map
       (fun a ->
         Printf.sprintf "%-11s tries=%d %s" (engine_to_string a.engine)
           a.tries
           (outcome_to_string a.outcome))
       p.attempts
    @ [ "stopped: " ^ p.stopped; "budget: " ^ p.budget ])

let answer_to_string a =
  Printf.sprintf "P(Q) in %s (width %.9g), estimate %.9g\n%s"
    (iv_to_string a.enclosure)
    (Interval.width a.enclosure)
    a.estimate
    (provenance_to_string a.provenance)

let top = Interval.make 0.0 1.0

let all_rungs = [ Lifted; Exact; Anytime; Monte_carlo ]

let query ?budget ?(eps = 0.01) ?max_bdd_nodes ?max_facts
    ?(mc_samples = 20_000) ?(policy = Retry.default_policy)
    ?(sleep = fun (_ : float) -> ()) ?(domains = 1) ?(seed = 0)
    ?(rungs = all_rungs) src phi =
  if not (eps > 0.0 && eps < 0.5) then
    invalid_arg "Robust_eval.query: eps must lie in (0, 1/2)";
  if Fo.free_vars phi <> [] then
    invalid_arg "Robust_eval.query: query must be a sentence";
  let parent = match budget with Some b -> b | None -> Budget.unlimited () in
  Stats.incr c_queries;
  Stats.time t_query (fun () ->
      let cmp = Fo.has_cmp phi in
      let goal = 2.0 *. eps in
      let certified = ref [] in
      let pool iv = certified := iv :: !certified in
      let current () =
        match List.rev !certified with
        | [] -> top
        | iv :: rest ->
          List.fold_left
            (fun acc iv ->
              match Interval.intersect acc iv with
              | Some x -> x
              (* Disjoint certificates would mean an engine bug; keep the
                 narrower one rather than fabricating an empty set. *)
              | None ->
                if Interval.width iv < Interval.width acc then iv else acc)
            iv rest
      in
      let retryable = function
        | Errors.Engine_failure _ | Errors.Divergent_source _
        | Errors.Transport _ ->
          true
        | Errors.Parse _ | Errors.Model_invalid _ | Errors.Budget_exhausted _
        | Errors.Store _ ->
          false
      in
      let run_retried ~what ~rung f =
        let before = Stats.count c_retry_attempts in
        let r =
          Retry.run ~policy ~sleep ~budget:parent ~retryable ~what
            ~seed:(seed + rung) f
        in
        (Stdlib.max 1 (Stats.count c_retry_attempts - before), r)
      in
      let attempts = ref [] in
      let rung eng skip runner =
        (* Rungs excluded by the caller (the serving layer's load-shed
           ladder) are recorded as skipped, keeping the provenance shape
           stable under admission-control decisions. *)
        let skip () =
          if not (List.mem eng rungs) then Some "shed: rung disabled by caller"
          else skip ()
        in
        match skip () with
        | Some why ->
          attempts := { engine = eng; tries = 0; outcome = Skipped why } :: !attempts
        | None ->
          let tries, outcome = runner () in
          (match outcome with
          | Failed _ | Partial _ -> Stats.incr c_degradations
          | Certified _ | Estimated _ | Skipped _ -> ());
          attempts := { engine = eng; tries; outcome } :: !attempts
      in
      let common_skip () =
        if Interval.width (current ()) <= goal then Some "already converged"
        else if not (Budget.ok parent) then Some "budget exhausted"
        else None
      in
      rung Lifted
        (fun () ->
          if not (Safe_plan.is_safe phi) then
            Some
              "no lifted plan: hard side of the dichotomy (grounded rungs \
               take over)"
          else common_skip ())
        (fun () ->
          let tries, r =
            run_retried ~what:"robust.lifted" ~rung:0 (fun () ->
                let b = Budget.child ?max_facts parent in
                match Approx_eval.boolean_lifted_r ~budget:b src ~eps phi with
                | Ok res -> res.Approx_eval.bounds
                | Error e -> Errors.raise_error e)
          in
          match r with
          | Ok iv ->
            pool iv;
            (tries, Certified iv)
          | Error (Errors.Budget_exhausted { partial = Some iv; _ } as e) ->
            pool iv;
            (tries, Partial (iv, e))
          | Error e -> (tries, Failed e));
      rung Exact common_skip (fun () ->
          let tries, r =
            run_retried ~what:"robust.exact" ~rung:1 (fun () ->
                (* Kind caps are per-attempt child budgets: a blown node
                   cap fails this attempt, not the whole ladder. *)
                let b = Budget.child ?max_bdd_nodes ?max_facts parent in
                match Approx_eval.boolean_r ~budget:b src ~eps phi with
                | Ok res -> res.Approx_eval.bounds
                | Error e -> Errors.raise_error e)
          in
          match r with
          | Ok iv ->
            pool iv;
            (tries, Certified iv)
          | Error (Errors.Budget_exhausted { partial = Some iv; _ } as e) ->
            pool iv;
            (tries, Partial (iv, e))
          | Error e -> (tries, Failed e));
      rung Anytime
        (fun () ->
          if cmp then
            Some "Cmp query: anytime certificates target truncated semantics"
          else common_skip ())
        (fun () ->
          let tries, r =
            run_retried ~what:"robust.anytime" ~rung:2 (fun () ->
                let b = Budget.child ?max_bdd_nodes ?max_facts parent in
                let s = Anytime.create ~eps ~budget:b src phi in
                let reason, _ = Anytime.run s in
                (reason, Anytime.bounds s))
          in
          match r with
          | Ok (Anytime.Interrupted cause, iv) ->
            pool iv;
            ( tries,
              Partial
                ( iv,
                  Errors.Budget_exhausted
                    {
                      what = "Robust_eval: anytime session interrupted";
                      exhaustion = cause;
                      partial = Some iv;
                    } ) )
          | Ok (_, iv) ->
            pool iv;
            (tries, Certified iv)
          | Error e -> (tries, Failed e));
      rung Monte_carlo common_skip (fun () ->
          let tries, r =
            run_retried ~what:"robust.mc" ~rung:3 (fun () ->
                let cti =
                  match Countable_ti.create_r src with
                  | Ok t -> t
                  | Error e -> Errors.raise_error e
                in
                Mc_eval.boolean ~budget:parent ~domains ~seed
                  ~samples:mc_samples (Countable_ti.sampler cti) phi)
          in
          match r with
          | Ok res ->
            (tries, Estimated (res.Mc_eval.bounds, res.Mc_eval.estimate))
          | Error e -> (tries, Failed e));
      let enclosure = current () in
      let stopped =
        if Interval.width enclosure <= goal then "converged"
        else begin
          match Budget.exhausted parent with
          | Some cause ->
            Stats.incr c_budget_exhausted;
            Printf.sprintf "budget exhausted (%s)"
              (Budget.exhaustion_to_string cause)
          | None -> "ladder exhausted"
        end
      in
      let estimate =
        let mc =
          List.find_map
            (fun a ->
              match a.outcome with Estimated (_, e) -> Some e | _ -> None)
            !attempts
        in
        match mc with
        | Some e ->
          Float.max (Interval.lo enclosure)
            (Float.min (Interval.hi enclosure) e)
        | None -> Interval.mid enclosure
      in
      {
        enclosure;
        estimate;
        provenance =
          {
            attempts = List.rev !attempts;
            stopped;
            budget = Budget.describe parent;
          };
      })

let c_session_queries = Stats.counter "robust.delta.queries"

(* The incremental rung: a live delta session already holds the compiled
   lineage and a certified interval count, so "running the ladder" is
   one memoized WMC fold — no compilation, no truncation re-derivation.
   The session's interval (interval carrier: outward-rounded float
   arithmetic around the exact rational count) is widened by the
   session's tail certificate through the same conditional-probability
   argument the truncation rungs use, so the soundness contract is
   unchanged: the enclosure contains the true limit probability. *)
let query_session ?(eps = 0.01) s =
  if not (eps > 0.0 && eps < 0.5) then
    invalid_arg "Robust_eval.query_session: eps must lie in (0, 1/2)";
  Stats.incr c_session_queries;
  let epoch = Delta_eval.Certified.epoch s in
  let outcome, enclosure =
    match
      Errors.protect ~what:"Robust_eval.query_session" (fun () ->
          let iv = Interval.clamp01 (Delta_eval.Certified.prob s) in
          let om =
            Approx_eval.omega_bounds_of_tail (Delta_eval.Certified.tail s)
          in
          Approx_eval.enclosure_interval iv om)
    with
    | Ok iv -> (Certified iv, iv)
    | Error e -> (Failed e, top)
  in
  let stopped =
    match outcome with
    | Failed _ -> Printf.sprintf "delta session failed at epoch %d" epoch
    | _ when Interval.width enclosure <= 2.0 *. eps ->
      Printf.sprintf "delta session converged (epoch %d)" epoch
    | _ ->
      (* A wide answer here means the tail certificate dominates — the
         session's own count is exact up to float rounding. *)
      Printf.sprintf "delta session answered (epoch %d; tail-limited)" epoch
  in
  {
    enclosure;
    estimate = Interval.mid enclosure;
    provenance =
      {
        attempts = [ { engine = Delta; tries = 1; outcome } ];
        stopped;
        budget = "none (session-resident diagram)";
      };
  }
