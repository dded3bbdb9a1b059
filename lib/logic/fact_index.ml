module VSet = Set.Make (Value)
module VMap = Map.Make (Value)

module KMap = Map.Make (struct
  type t = string * int  (* relation, arity *)

  let compare (r, k) (r', k') =
    let c = String.compare r r' in
    if c <> 0 then c else Int.compare k k'
end)

(* The per-position maps and the value set are built on demand: a
   position's first lookup scans the relation, its second builds the map
   (value -> facts) that every later one reads, so a lifted evaluation
   that looks a position up once pays no more than a scan.  They sit in
   Atomics because one index is read from several domains (batch shards
   ground over one alphabet); two domains racing to build a map only
   duplicate work. *)
type position = Cold | Scanned | Built of Fact.t list VMap.t

type rel = { facts : Fact.t list; by_pos : position Atomic.t array }

type t = { rels : rel KMap.t; values : VSet.t option Atomic.t }

let add_at i f m =
  VMap.update (Fact.arg f i) (fun l -> Some (f :: Option.value l ~default:[])) m

let add_values s f = Array.fold_left (fun s v -> VSet.add v s) s f.Fact.args

let add t f =
  let key = (Fact.rel f, Fact.arity f) in
  let r =
    match KMap.find_opt key t.rels with
    | Some r ->
      {
        facts = f :: r.facts;
        by_pos =
          Array.mapi
            (fun i p ->
              Atomic.make
                (match Atomic.get p with
                | Built m -> Built (add_at i f m)
                | Cold | Scanned -> Cold))
            r.by_pos;
      }
    | None ->
      { facts = [ f ]; by_pos = Array.init (Fact.arity f) (fun _ -> Atomic.make Cold) }
  in
  {
    rels = KMap.add key r t.rels;
    values = Atomic.make (Option.map (fun s -> add_values s f) (Atomic.get t.values));
  }

let of_list facts =
  let groups = Hashtbl.create 64 in
  List.iter
    (fun f ->
      let r = Fact.rel f in
      Hashtbl.replace groups r
        (f :: Option.value (Hashtbl.find_opt groups r) ~default:[]))
    facts;
  (* one entry per arity a relation name occurs at *)
  let rec split r acc = function
    | [] -> acc
    | f :: _ as fs ->
      let k = Fact.arity f in
      let same, rest = List.partition (fun g -> Fact.arity g = k) fs in
      split r
        (KMap.add (r, k)
           { facts = same; by_pos = Array.init k (fun _ -> Atomic.make Cold) }
           acc)
        rest
  in
  {
    rels = Hashtbl.fold (fun r fs acc -> split r acc fs) groups KMap.empty;
    values = Atomic.make None;
  }

let values t =
  match Atomic.get t.values with
  | Some s -> s
  | None ->
    let s =
      VSet.of_list
        (KMap.fold
           (fun _ r acc ->
             List.fold_left
               (fun acc f -> Array.fold_right List.cons f.Fact.args acc)
               acc r.facts)
           t.rels [])
    in
    Atomic.set t.values (Some s);
    s

(* The map at position [i], if this lookup is not the first there. *)
let by_pos r i =
  let cell = r.by_pos.(i) in
  match Atomic.get cell with
  | Built m -> Some m
  | Cold ->
    Atomic.set cell Scanned;
    None
  | Scanned ->
    let m = List.fold_left (fun m f -> add_at i f m) VMap.empty r.facts in
    Atomic.set cell (Built m);
    Some m

type slot = Bound of Value.t | Free | Target

(* The value at the [Target] positions if [f] fits the pattern. *)
let target_of slots f =
  let rec go i found =
    if i = Array.length slots then found
    else
      let v = Fact.arg f i in
      match (slots.(i), found) with
      | Free, _ -> go (i + 1) found
      | Bound b, _ -> if Value.equal b v then go (i + 1) found else None
      | Target, None -> go (i + 1) (Some v)
      | Target, Some w -> if Value.equal v w then go (i + 1) found else None
  in
  go 0 None

let fold_matching t rel slots f acc =
  match KMap.find_opt (rel, Array.length slots) t.rels with
  | None -> acc
  | Some r -> (
    let bound = ref None and targets = ref [] in
    Array.iteri
      (fun i s ->
        match s with
        | Bound v -> if !bound = None then bound := Some (i, v)
        | Target -> targets := i :: !targets
        | Free -> ())
      slots;
    let collect facts =
      List.fold_left
        (fun acc fact ->
          match target_of slots fact with Some v -> f v acc | None -> acc)
        acc facts
    in
    match (!bound, !targets) with
    | Some (i, v), _ -> (
      match by_pos r i with
      | Some m -> collect (Option.value (VMap.find_opt v m) ~default:[])
      | None -> collect r.facts)
    | None, [ i ] -> (
      match by_pos r i with
      | Some m -> VMap.fold (fun v _ acc -> f v acc) m acc
      | None -> collect r.facts)
    | None, _ -> collect r.facts)
