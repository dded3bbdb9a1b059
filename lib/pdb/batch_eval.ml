type route =
  | Lifted
  | Compiled of int
  | Duplicate of int

type 'p member = { query : Fo.t; prob : 'p; route : route }

type 'p result = {
  members : 'p member array;
  padding : Value.t list;
  shards : int;
  lifted : int;
  compiled : int;
  deduped : int;
}

let require_sentence phi =
  match Fo.free_vars phi with
  | [] -> ()
  | fvs ->
    invalid_arg
      (Printf.sprintf "Batch_eval: query has free variables %s"
         (String.concat ", " (fvs : string list)))

(* Same counters as Query_eval's router — the registry hands back the
   identical counter objects, so routed members are counted in one place
   regardless of which entry point evaluated them. *)
let c_safe_plan = Stats.counter "query.safe_plan"
let c_bdd_fallback = Stats.counter "query.bdd_fallback"
let c_runs = Stats.counter "batch.runs"
let c_members = Stats.counter "batch.members"
let c_dedup = Stats.counter "batch.dedup.hit"

(* The weight cache is keyed on facts through [Fact.hash] — the batch
   hot path the allocation-free hash exists for: one probe per safe-plan
   grounding and per swept BDD node. *)
module FactH = Hashtbl.Make (struct
  type t = Fact.t

  let equal = Fact.equal
  let hash = Fact.hash
end)

(* Once-per-batch inert padding: the shared chooser at the maximum rank
   over the members, which serves every non-[Cmp] member (k >= rank inert
   values decide a sentence exactly as rank of them do).  It also dodges
   the caller-supplied extra values. *)
let padding ?(extra = []) table queries =
  Query_eval.choose_padding
    ~avoid:(fun v -> List.exists (Value.equal v) extra)
    (Ti_table.support table) (Array.to_list queries)

let boolean ?(extra_domain = []) ?(domains = 1) ti queries =
  if domains < 1 then
    invalid_arg "Batch_eval.boolean: domains must be positive";
  Array.iter require_sentence queries;
  let n = Array.length queries in
  Stats.incr c_runs;
  Stats.add c_members n;
  let pads = padding ~extra:extra_domain ti queries in
  (* Syntactic dedup: a repeated member is answered from the slot of
     its first occurrence. *)
  let rep = Array.make n (-1) in
  let seen : (Fo.t, int) Hashtbl.t = Hashtbl.create (2 * n) in
  for i = 0 to n - 1 do
    match Hashtbl.find_opt seen queries.(i) with
    | Some j ->
      rep.(i) <- j;
      Stats.incr c_dedup
    | None ->
      Hashtbl.add seen queries.(i) i;
      rep.(i) <- i
  done;
  (* Per-fact weights indexed once, then probed read-only from every
     domain (a Hashtbl is safe to share when nobody mutates it). *)
  let wtbl = FactH.create ((2 * Ti_table.size ti) + 1) in
  List.iter
    (fun (f, p) -> FactH.replace wtbl f p)
    (Ti_table.facts ti);
  let weight f =
    match FactH.find_opt wtbl f with Some w -> w | None -> Rational.zero
  in
  (* Dichotomy-aware routing, lifted engine first: safe members are
     answered here and never touch a BDD store. *)
  let support = Ti_table.support ti in
  let probs : Rational.t option array = Array.make n None in
  let routes = Array.make n Lifted in
  let to_compile = ref [] in
  for i = 0 to n - 1 do
    if rep.(i) = i then begin
      match Safe_plan.probability ~weight ~facts:support queries.(i) with
      | Some p ->
        Stats.incr c_safe_plan;
        probs.(i) <- Some p
      | None ->
        Stats.incr c_bdd_fallback;
        to_compile := i :: !to_compile
    end
  done;
  let comp = Array.of_list (List.rev !to_compile) in
  let nc = Array.length comp in
  let shards = if nc = 0 then 0 else Stdlib.min domains nc in
  if nc > 0 then begin
    let a = Lineage.alphabet support in
    (* Shard assignment is a function of member index alone (round
       robin over the compile list), never of runtime scheduling —
       the first half of the determinism argument.  The second half
       is that exact-carrier results do not depend on which manager
       compiled a member: ROBDDs are canonical and the rational model
       count is a property of the Boolean function. *)
    let buckets = Array.make shards [] in
    for j = nc - 1 downto 0 do
      buckets.(j mod shards) <- comp.(j) :: buckets.(j mod shards)
    done;
    let shard_members = Array.map Array.of_list buckets in
    let shard_err : exn option array = Array.make shards None in
    let run_shard s =
      let mine = shard_members.(s) in
      let exprs =
        Array.map
          (fun i ->
            let q = queries.(i) in
            let extra =
              if Fo.has_cmp q then extra_domain else pads @ extra_domain
            in
            Lineage.of_sentence ~extra a q)
          mine
      in
      let order = Wmc.first_occurrence_order (Array.to_list exprs) in
      let m = Bdd.manager ~order () in
      let roots = Array.map (Bdd.of_expr m) exprs in
      let res =
        Wmc.count ~weight:(fun v -> weight (Lineage.fact_of_var a v)) roots
      in
      Array.iteri
        (fun k i ->
          probs.(i) <- Some res.(k);
          routes.(i) <- Compiled s)
        mine
    in
    (* Mc_eval's worker discipline: one atomic cursor claims shards,
       results land in per-member slots (disjoint writes), failures
       are recorded per shard and re-raised deterministically (lowest
       shard first) after every domain joined. *)
    let next = Atomic.make 0 in
    let worker () =
      let rec loop () =
        let s = Atomic.fetch_and_add next 1 in
        if s < shards then begin
          (try run_shard s with e -> shard_err.(s) <- Some e);
          loop ()
        end
      in
      loop ()
    in
    let spawned = List.init (shards - 1) (fun _ -> Domain.spawn worker) in
    worker ();
    List.iter Domain.join spawned;
    for s = 0 to shards - 1 do
      match shard_err.(s) with Some e -> raise e | None -> ()
    done
  end;
  let lifted = ref 0 and compiled = ref 0 and deduped = ref 0 in
  let members =
    Array.init n (fun i ->
        let j = rep.(i) in
        let prob =
          match probs.(j) with Some p -> p | None -> assert false
        in
        if j <> i then begin
          incr deduped;
          { query = queries.(i); prob; route = Duplicate j }
        end
        else begin
          (match routes.(i) with
          | Lifted -> incr lifted
          | Compiled _ -> incr compiled
          | Duplicate _ -> assert false);
          { query = queries.(i); prob; route = routes.(i) }
        end)
  in
  {
    members;
    padding = pads;
    shards;
    lifted = !lifted;
    compiled = !compiled;
    deduped = !deduped;
  }
