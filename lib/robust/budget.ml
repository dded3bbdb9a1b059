(* Composable evaluation budgets: a wall-clock (or deterministic virtual)
   deadline plus per-kind work-unit caps behind one cooperative
   cancellation token.

   Hot loops call {!checkpoint} (engine entry points read {!exhausted}); both
   consult the same sticky trip state, so the first exhaustion observed —
   a cap or the deadline — is the one every later probe reports.  Work
   spends and the trip flag are atomics: Monte-Carlo worker domains spend
   and poll the same budget the coordinating domain created.

   The [Virtual] clock makes deadline-bounded runs reproducible: elapsed
   time is defined as total work units over a fixed rate, so a "100 ms"
   budget expires after exactly the same spend on every run — the device
   behind the bit-identical provenance guarantee of [Robust_eval]. *)

type kind = Facts | Probes | Bdd_nodes | Samples | Steps

let kind_to_string = function
  | Facts -> "facts"
  | Probes -> "probes"
  | Bdd_nodes -> "bdd_nodes"
  | Samples -> "samples"
  | Steps -> "steps"

let kinds = [ Facts; Probes; Bdd_nodes; Samples; Steps ]
let n_kinds = List.length kinds

let kind_index = function
  | Facts -> 0
  | Probes -> 1
  | Bdd_nodes -> 2
  | Samples -> 3
  | Steps -> 4

type exhaustion = Timeout | Cap of kind

let exhaustion_to_string = function
  | Timeout -> "timeout"
  | Cap k -> "cap:" ^ kind_to_string k

exception Exhausted of exhaustion

type clock = Wall | Virtual of int

type t = {
  clock : clock;
  timeout : float option; (* seconds, on whichever clock *)
  wall_start : float;
  caps : int array; (* max_int = uncapped *)
  spent : int Atomic.t array;
  work : int Atomic.t; (* total units ever spent; drives [Virtual] *)
  tripped : exhaustion option Atomic.t; (* sticky first exhaustion *)
  parent : t option;
}

let create ?(clock = Wall) ?timeout ?max_facts ?max_bdd_nodes ?max_samples
    ?max_steps ?parent () =
  (match timeout with
  | Some s when not (s > 0.0) ->
    invalid_arg "Budget.create: timeout must be positive"
  | _ -> ());
  (match clock with
  | Virtual u when u <= 0 ->
    invalid_arg "Budget.create: virtual clock rate must be positive"
  | _ -> ());
  let caps = Array.make n_kinds max_int in
  let set k v =
    match v with
    | None -> ()
    | Some c when c < 0 -> invalid_arg "Budget.create: negative cap"
    | Some c -> caps.(kind_index k) <- c
  in
  set Facts max_facts;
  set Bdd_nodes max_bdd_nodes;
  set Samples max_samples;
  set Steps max_steps;
  {
    clock;
    timeout;
    wall_start = Unix.gettimeofday ();
    caps;
    spent = Array.init n_kinds (fun _ -> Atomic.make 0);
    work = Atomic.make 0;
    tripped = Atomic.make None;
    parent;
  }

let unlimited () = create ()

let child ?clock ?timeout ?max_facts ?max_bdd_nodes ?max_samples ?max_steps
    parent =
  create ?clock ?timeout ?max_facts ?max_bdd_nodes ?max_samples ?max_steps
    ~parent ()

let elapsed t =
  match t.clock with
  | Wall -> Unix.gettimeofday () -. t.wall_start
  | Virtual ups -> float_of_int (Atomic.get t.work) /. float_of_int ups

let spent t kind = Atomic.get t.spent.(kind_index kind)

let cap t kind =
  let c = t.caps.(kind_index kind) in
  if c = max_int then None else Some c

let trip t e =
  if Atomic.get t.tripped = None then
    ignore (Atomic.compare_and_set t.tripped None (Some e));
  match Atomic.get t.tripped with Some e -> e | None -> assert false

let rec exhausted t =
  match Atomic.get t.tripped with
  | Some e -> Some e
  | None ->
    let cap_hit =
      List.find_map
        (fun k ->
          let i = kind_index k in
          if t.caps.(i) < max_int && Atomic.get t.spent.(i) >= t.caps.(i) then
            Some (Cap k)
          else None)
        kinds
    in
    let hit =
      match cap_hit with
      | Some _ as e -> e
      | None -> (
        match t.timeout with
        | Some s when elapsed t >= s -> Some Timeout
        | _ -> (
          match t.parent with
          | Some p -> exhausted p
          | None -> None))
    in
    Option.map (trip t) hit

let ok t = exhausted t = None

let checkpoint t =
  match exhausted t with None -> () | Some e -> raise (Exhausted e)

let spend t kind n =
  if n < 0 then invalid_arg "Budget.spend: negative amount";
  let i = kind_index kind in
  let rec add t =
    ignore (Atomic.fetch_and_add t.spent.(i) n);
    ignore (Atomic.fetch_and_add t.work n);
    match t.parent with Some p -> add p | None -> ()
  in
  add t

let charge t kind n =
  spend t kind n;
  checkpoint t

(* Refunds subtract from the per-kind spend only: [work] keeps counting
   every unit ever spent so the [Virtual] clock stays monotone, and a
   sticky trip stays tripped — governed evaluators are expected to
   collect garbage proactively (before the cap), not to resurrect an
   exhausted run. *)
let refund t kind n =
  if n < 0 then invalid_arg "Budget.refund: negative amount";
  let i = kind_index kind in
  let rec sub t =
    ignore (Atomic.fetch_and_add t.spent.(i) (-n));
    match t.parent with Some p -> sub p | None -> ()
  in
  sub t

let cap_remaining t kind =
  Option.map (fun c -> Stdlib.max 0 (c - spent t kind)) (cap t kind)

let time_remaining t =
  let own t =
    Option.map (fun s -> Float.max 0.0 (s -. elapsed t)) t.timeout
  in
  let rec go t =
    let mine = own t in
    match t.parent with
    | None -> mine
    | Some p -> (
      match (mine, go p) with
      | Some a, Some b -> Some (Float.min a b)
      | (Some _ as a), None -> a
      | None, b -> b)
  in
  go t

let time_remaining_units t =
  let own t =
    match (t.clock, t.timeout) with
    | Virtual ups, Some s ->
      let total = int_of_float (s *. float_of_int ups) in
      Some (Stdlib.max 0 (total - Atomic.get t.work))
    | _ -> None
  in
  let rec go t =
    let mine = own t in
    match t.parent with
    | None -> mine
    | Some p -> (
      match (mine, go p) with
      | Some a, Some b -> Some (Stdlib.min a b)
      | (Some _ as a), None -> a
      | None, b -> b)
  in
  go t

let describe t =
  (* Deterministic under a [Virtual] clock: no wall-clock reading.  Used
     verbatim in [Robust_eval] provenance records. *)
  let caps =
    List.filter_map
      (fun k ->
        Option.map
          (fun c -> Printf.sprintf "%s<=%d" (kind_to_string k) c)
          (cap t k))
      kinds
  in
  let caps =
    match (t.clock, t.timeout) with
    | Virtual ups, Some s ->
      Printf.sprintf "virtual %gs@%d/s" s ups :: caps
    | Virtual ups, None -> Printf.sprintf "virtual@%d/s" ups :: caps
    | Wall, Some s -> Printf.sprintf "wall %gs" s :: caps
    | Wall, None -> caps
  in
  let spends =
    List.filter_map
      (fun k ->
        let s = spent t k in
        if s = 0 then None
        else Some (Printf.sprintf "%s=%d" (kind_to_string k) s))
      kinds
  in
  Printf.sprintf "budget{%s; spent %s%s}"
    (if caps = [] then "unlimited" else String.concat ", " caps)
    (if spends = [] then "nothing" else String.concat ", " spends)
    (match Atomic.get t.tripped with
    | None -> ""
    | Some e -> "; " ^ exhaustion_to_string e)
