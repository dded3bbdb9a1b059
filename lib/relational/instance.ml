type t = Fact.Set.t

let empty = Fact.Set.empty
let is_empty = Fact.Set.is_empty
let singleton = Fact.Set.singleton
let add = Fact.Set.add
let mem = Fact.Set.mem
let of_list = Fact.Set.of_list
let to_list = Fact.Set.elements
let to_set s = s
let size = Fact.Set.cardinal
let union = Fact.Set.union
let inter = Fact.Set.inter
let diff = Fact.Set.diff
let subset = Fact.Set.subset

let disjoint_union a b =
  if Fact.Set.disjoint a b then Fact.Set.union a b
  else invalid_arg "Instance.disjoint_union: operands share a fact"

let intersects d f = not (Fact.Set.disjoint d f)

module VSet = Set.Make (Value)

let active_domain d =
  Fact.Set.fold
    (fun f acc -> List.fold_left (fun acc v -> VSet.add v acc) acc (Fact.args f))
    d VSet.empty
  |> VSet.elements

let iter = Fact.Set.iter
let for_all = Fact.Set.for_all
let compare = Fact.Set.compare
let equal = Fact.Set.equal

let to_string d =
  "{" ^ String.concat ", " (List.map Fact.to_string (to_list d)) ^ "}"

let subsets d =
  let facts = Array.of_list (to_list d) in
  let n = Array.length facts in
  if n > 30 then invalid_arg "Instance.subsets: instance too large";
  Seq.init (1 lsl n) (fun mask ->
      let s = ref Fact.Set.empty in
      for i = 0 to n - 1 do
        if mask land (1 lsl i) <> 0 then s := Fact.Set.add facts.(i) !s
      done;
      !s)
