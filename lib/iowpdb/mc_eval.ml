(* Domain-parallel Monte-Carlo estimation.

   Two-layer design:

   - a [Sampler.t] plan, built once by the caller in its own domain:
     all enumeration (and all Rational arithmetic) happens there, and
     the plan keeps only immutable arrays.  Worker domains touch
     nothing but immutable plan data, [Prng] states they own, and the
     pure evaluators ([Fo_eval], [Instance]).

   - [estimate_event] cuts the samples into batches of [batch_size] and
     hands batches to domains through an atomic work-stealing counter.
     Batch [b] draws from [Prng.substream root b] and writes its hit
     count into slot [b] of a shared int array (each slot written by
     exactly one domain, whichever claimed the batch), so the tally —
     and hence every statistical field of the result — is a function of
     [(seed, samples)] alone, bit-identical across domain counts and
     scheduling orders.

   Soundness of the reported interval: the plan samples the truncated
   law, which is within [tv] (the certified tail at the cut, plus any
   in-block alternatives dropped for BID) of the true law in total
   variation, so |P_plan(E) - P_true(E)| <= tv for every event.  The
   Clopper-Pearson interval covers P_plan(E) with at least the stated
   confidence, whatever the sample count and P_plan(E); widening it by
   [tv] covers P_true(E). *)

type result = {
  estimate : float;
  hits : int;
  samples : int;
  samples_requested : int;
  interrupted : bool;
  confidence : float;
  truncation_tv : float;
  binomial : Interval.t;
  bounds : Interval.t;
  domains_used : int;
  batches : int;
  batch_size : int;
  width_trajectory : (int * float) list;
}

let c_runs = Stats.counter "mc.runs"
let c_worlds = Stats.counter "mc.worlds"
let c_hits = Stats.counter "mc.hits"
let c_batches = Stats.counter "mc.batches"
let t_run = Stats.timer "mc.run"
let t_batch = Stats.timer "mc.batch"

(* ------------------------------------------------------------------ *)
(* Statistical primitives                                             *)
(* ------------------------------------------------------------------ *)

(* ln Gamma(x) for x >= 1: the Stirling series once x is shifted past
   10, absolute error below 1e-12. *)
let rec log_gamma x =
  if x < 10.0 then log_gamma (x +. 1.0) -. log x
  else
    let r = 1.0 /. x in
    let r2 = r *. r in
    ((x -. 0.5) *. log x) -. x
    +. (0.5 *. log (2.0 *. Float.pi))
    +. (r
        *. ((1.0 /. 12.0)
           -. (r2
              *. ((1.0 /. 360.0) -. (r2 *. ((1.0 /. 1260.0) -. (r2 /. 1680.0))))
              )))

(* P(X <= k) when [le], else P(X >= k), for X ~ Bin(n, p) with 0 < p < 1.
   A tail is summed outward from term k only when p lies on its far
   side, where term k is the tail's largest and the terms fall off
   geometrically; otherwise it is the complement of the opposite tail,
   which then is the small one. *)
let rec binomial_tail ~le ~n ~k p =
  if k < 0 then if le then 0.0 else 1.0
  else if k > n then if le then 1.0 else 0.0
  else if le && p < float_of_int k /. float_of_int n then
    1.0 -. binomial_tail ~le:false ~n ~k:(k + 1) p
  else if (not le) && p > float_of_int k /. float_of_int n then
    1.0 -. binomial_tail ~le:true ~n ~k:(k - 1) p
  else begin
    let fn = float_of_int n and q = 1.0 -. p in
    let log_choose =
      log_gamma (fn +. 1.0)
      -. log_gamma (float_of_int k +. 1.0)
      -. log_gamma (float_of_int (n - k) +. 1.0)
    in
    let term =
      ref
        (exp
           (log_choose
           +. (float_of_int k *. log p)
           +. (float_of_int (n - k) *. Float.log1p (-.p))))
    in
    let sum = ref !term and i = ref k in
    while !term > 1e-17 *. !sum && (if le then !i > 0 else !i < n) do
      let fi = float_of_int !i in
      if le then begin
        term := !term *. fi *. q /. ((fn -. fi +. 1.0) *. p);
        decr i
      end
      else begin
        term := !term *. (fn -. fi) *. p /. ((fi +. 1.0) *. q);
        incr i
      end;
      sum := !sum +. !term
    done;
    !sum
  end

(* Bisection on (0, 1) for the p where a tail that is [decreasing] (or
   increasing) in p crosses [target].  It returns the end of the final
   bracket on the outer side of the interval being built — the upper end
   for an upper bound, the lower end for a lower bound — so every
   rounding widens the interval. *)
let tail_root ~decreasing ~target tail =
  let a = ref 0.0 and b = ref 1.0 in
  let rec go steps =
    let m = 0.5 *. (!a +. !b) in
    if steps > 0 && m > !a && m < !b then begin
      let root_above =
        if decreasing then tail m > target else tail m <= target
      in
      if root_above then a := m else b := m;
      go (steps - 1)
    end
  in
  go 200;
  if decreasing then !b else !a

let check_confidence c =
  if not (c > 0.0 && c < 1.0) then
    invalid_arg "Mc_eval: confidence must lie in (0, 1)"

(* The Clopper-Pearson interval for [hits] of [samples >= 1] draws: its
   coverage is at least [confidence] for every [samples] and every true
   proportion, small counts near 0 and 1 included. *)
let binomial_interval ~confidence ~hits ~samples =
  let target = (1.0 -. confidence) /. 2.0 in
  let lo =
    if hits = 0 then 0.0
    else
      tail_root ~decreasing:false ~target
        (binomial_tail ~le:false ~n:samples ~k:hits)
  in
  let hi =
    if hits = samples then 1.0
    else
      tail_root ~decreasing:true ~target
        (binomial_tail ~le:true ~n:samples ~k:hits)
  in
  Interval.make lo hi

let widen_by_tv iv tv =
  if tv <= 0.0 then iv
  else
    Interval.clamp01
      (Interval.make (Interval.lo iv -. tv) (Interval.hi iv +. tv))

(* ------------------------------------------------------------------ *)
(* The generic batched, work-stealing estimator                       *)
(* ------------------------------------------------------------------ *)

let batch_size = 1024

let estimate_event ?budget ?domains ~confidence ~truncation_tv ~seed ~samples
    sampler pred =
  if samples <= 0 then invalid_arg "Mc_eval: samples must be positive";
  check_confidence confidence;
  if not (truncation_tv >= 0.0) then
    invalid_arg "Mc_eval: truncation_tv must be nonnegative";
  let requested = samples in
  (* Clamp up front to what the budget can still admit: under a [Samples]
     cap or a [Virtual] deadline the admissible count is known before any
     world is drawn, so a budget-truncated result is a function of the
     budget alone, not of domain scheduling. *)
  let samples =
    match budget with
    | None -> samples
    | Some b ->
      Budget.checkpoint b;
      let s =
        match Budget.cap_remaining b Budget.Samples with
        | Some r -> Stdlib.min samples r
        | None -> samples
      in
      (match Budget.time_remaining_units b with
       | Some u -> Stdlib.min s u
       | None -> s)
  in
  if samples <= 0 then begin
    let b = Option.get budget in
    let cause =
      match Budget.cap_remaining b Budget.Samples with
      | Some 0 -> Budget.Cap Budget.Samples
      | _ -> Budget.Timeout
    in
    raise (Budget.Exhausted cause)
  end;
  let nbatches = (samples + batch_size - 1) / batch_size in
  let domains =
    let d =
      match domains with
      | Some d ->
        if d < 1 then invalid_arg "Mc_eval: domains must be at least 1" else d
      | None -> Domain.recommended_domain_count ()
    in
    Stdlib.min d nbatches
  in
  let t0 = Unix.gettimeofday () in
  let root = Prng.create ~seed () in
  let hits_by_batch = Array.make nbatches 0 in
  let run_batch b =
    (* A pure function of (seed, b): its own substream, its own slot. *)
    let g = Prng.substream root b in
    let first = b * batch_size in
    let count = Stdlib.min batch_size (samples - first) in
    let h = ref 0 in
    for _ = 1 to count do
      if pred (sampler g) then incr h
    done;
    hits_by_batch.(b) <- !h;
    count
  in
  let next = Atomic.make 0 in
  let completed = Atomic.make 0 in
  (* Workers poll the budget between batches — [Budget.ok] is data, never
     an exception, so nothing crosses the [Domain] boundary.  Claims come
     from one fetch-and-add counter and every claimed batch runs to
     completion, so the set of finished batches is always the contiguous
     prefix [0 .. completed), and the partial tally is a well-defined
     sample of the first [completed * batch_size] worlds. *)
  let budget_ok () =
    match budget with None -> true | Some b -> Budget.ok b
  in
  let worker () =
    (* Instrumentation stays worker-local until after the join: the
       Stats registry is not thread-safe. *)
    let worlds = ref 0 and batches = ref 0 and secs = ref 0.0 in
    let rec loop () =
      if budget_ok () then begin
        let b = Atomic.fetch_and_add next 1 in
        if b < nbatches then begin
          let start = Unix.gettimeofday () in
          worlds := !worlds + run_batch b;
          secs := !secs +. (Unix.gettimeofday () -. start);
          incr batches;
          Atomic.incr completed;
          loop ()
        end
      end
    in
    loop ();
    (!worlds, !batches, !secs)
  in
  let per_domain =
    let spawned = List.init (domains - 1) (fun _ -> Domain.spawn worker) in
    let mine = worker () in
    mine :: List.map Domain.join spawned
  in
  let done_batches = Atomic.get completed in
  if done_batches = 0 then begin
    (* Only reachable with a budget: the deadline passed between the
       entry checkpoint and the first claim. *)
    match budget with
    | Some b ->
      raise
        (Budget.Exhausted
           (Option.value (Budget.exhausted b) ~default:Budget.Timeout))
    | None -> assert false
  end;
  let samples_done = Stdlib.min samples (done_batches * batch_size) in
  let interrupted = done_batches < nbatches || samples < requested in
  let hits =
    let acc = ref 0 in
    for b = 0 to done_batches - 1 do
      acc := !acc + hits_by_batch.(b)
    done;
    !acc
  in
  let width_trajectory =
    let points = Stdlib.min done_batches 24 in
    let checkpoints =
      List.sort_uniq compare
        (List.init points (fun k -> ((k + 1) * done_batches / points) - 1))
    in
    let prefix_hits = Array.make done_batches 0 in
    let acc = ref 0 in
    for i = 0 to done_batches - 1 do
      acc := !acc + hits_by_batch.(i);
      prefix_hits.(i) <- !acc
    done;
    List.map
      (fun b ->
        let s = Stdlib.min samples ((b + 1) * batch_size) in
        let iv =
          widen_by_tv
            (binomial_interval ~confidence ~hits:prefix_hits.(b) ~samples:s)
            truncation_tv
        in
        (s, Interval.width iv))
      checkpoints
  in
  Option.iter (fun b -> Budget.spend b Budget.Samples samples_done) budget;
  Stats.incr c_runs;
  Stats.add c_worlds samples_done;
  Stats.add c_hits hits;
  Stats.add c_batches done_batches;
  List.iteri
    (fun i (w, bt, s) ->
      Stats.add (Stats.counter (Printf.sprintf "mc.domain%d.worlds" i)) w;
      Stats.add (Stats.counter (Printf.sprintf "mc.domain%d.batches" i)) bt;
      Stats.add_elapsed t_batch (Float.max 0.0 s))
    per_domain;
  Stats.add_elapsed t_run (Float.max 0.0 (Unix.gettimeofday () -. t0));
  let binomial = binomial_interval ~confidence ~hits ~samples:samples_done in
  {
    estimate = float_of_int hits /. float_of_int samples_done;
    hits;
    samples = samples_done;
    samples_requested = requested;
    interrupted;
    confidence;
    truncation_tv;
    binomial;
    bounds = widen_by_tv binomial truncation_tv;
    domains_used = domains;
    batches = done_batches;
    batch_size;
    width_trajectory;
  }

(* ------------------------------------------------------------------ *)
(* Query entry points                                                 *)
(* ------------------------------------------------------------------ *)

(* The evaluation domain is fixed once per run: adom of the plan's full
   support plus the query's constants, padded by the shared chooser so
   every sampled world contributes its limit truth value (Proposition
   6.1's r-equivalence argument).  [Cmp] queries get no padding and are
   evaluated over the truncated-table semantics. *)
let eval_domain_for support phi =
  Fo_eval.evaluation_domain (Instance.of_list support) phi []
  @ Query_eval.choose_padding support [ phi ]

let boolean ?budget ?domains ?(confidence = 0.99) ~seed ~samples
    (plan : Sampler.t) phi =
  if Fo.free_vars phi <> [] then
    invalid_arg "Mc_eval.boolean: query must be a sentence";
  let extra_domain = eval_domain_for plan.support phi in
  estimate_event ?budget ?domains ~confidence ~truncation_tv:plan.tv ~seed
    ~samples plan.draw
    (fun w -> Fo_eval.models ~extra_domain w phi)
