module VSet = Set.Make (Value)
module SMap = Map.Make (String)

type alphabet = {
  to_var : int Fact.Map.t;
  of_var : Fact.t array;
  index : Fact_index.t option Atomic.t;
      (* built on the first quantifier grounded over this alphabet; an
         Atomic, not a Lazy, because batch shards on several domains
         ground over one alphabet (a racing build is only duplicate
         work) *)
}

let extend a fact_list =
  let rec go to_var rev_facts next = function
    | [] -> (to_var, rev_facts)
    | f :: rest ->
      if Fact.Map.mem f to_var then go to_var rev_facts next rest
      else go (Fact.Map.add f next to_var) (f :: rev_facts) (next + 1) rest
  in
  let to_var, rev_facts = go a.to_var [] (Array.length a.of_var) fact_list in
  let added = List.rev rev_facts in
  {
    to_var;
    of_var = Array.append a.of_var (Array.of_list added);
    index =
      Atomic.make
        (Option.map
           (fun idx -> List.fold_left Fact_index.add idx added)
           (Atomic.get a.index));
  }

let alphabet fact_list =
  extend
    { to_var = Fact.Map.empty; of_var = [||]; index = Atomic.make None }
    fact_list

let alphabet_size a = Array.length a.of_var
let facts a = Array.to_list a.of_var
let var_of_fact a f = Fact.Map.find_opt f a.to_var

let fact_of_var a i =
  if i < 0 || i >= Array.length a.of_var then
    invalid_arg "Lineage.fact_of_var: index out of range"
  else a.of_var.(i)

let index a =
  match Atomic.get a.index with
  | Some idx -> idx
  | None ->
    let idx = Fact_index.of_list (Array.to_list a.of_var) in
    Atomic.set a.index (Some idx);
    idx

let domain ?(extra = []) a phi =
  VSet.elements
    (List.fold_left
       (fun acc v -> VSet.add v acc)
       (Fact_index.values (index a))
       (Fo.constants phi @ extra))

let term_value env = function
  | Fo.Var x -> (
      match SMap.find_opt x env with
      | Some v -> v
      | None -> invalid_arg (Printf.sprintf "Lineage: unbound variable %s" x))
  | Fo.Const v -> v

module SSet = Set.Make (String)

exception Whole_domain

(* The values that can tell [x] apart in [body] under [env]: for each
   atom mentioning [x], the values at [x]'s positions in the facts that
   match its constants and outer-bound arguments (variables bound inside
   [x]'s scope match anything), plus the values of outer variables [x]
   is equated with.  Raises [Whole_domain] if [x] occurs in a [Cmp] or
   is equated with a variable bound inside its scope: there a value
   outside every atom can still be told apart. *)
let candidates a env x body acc =
  let is_x = function Fo.Var y -> String.equal y x | Fo.Const _ -> false in
  let rec go inner acc = function
    | Fo.True | Fo.False -> acc
    | Fo.Atom (r, ts) when List.exists is_x ts ->
      let slot = function
        | t when is_x t -> Fact_index.Target
        | Fo.Var y when SSet.mem y inner -> Fact_index.Free
        | t -> Fact_index.Bound (term_value env t)
      in
      Fact_index.fold_matching (index a) r
        (Array.of_list (List.map slot ts))
        List.cons acc
    | Fo.Atom _ -> acc
    | Fo.Eq (s, t) -> (
      match if is_x s then Some t else if is_x t then Some s else None with
      | None -> acc
      | Some t when is_x t -> acc
      | Some (Fo.Var y) when SSet.mem y inner -> raise Whole_domain
      | Some t -> term_value env t :: acc)
    | Fo.Cmp (_, s, t) -> if is_x s || is_x t then raise Whole_domain else acc
    | Fo.Not f -> go inner acc f
    | Fo.And (f, g) | Fo.Or (f, g) | Fo.Implies (f, g) ->
      go inner (go inner acc f) g
    | Fo.Exists (y, f) | Fo.Forall (y, f) ->
      if String.equal y x then acc else go (SSet.add y inner) acc f
  in
  go SSet.empty acc body

(* The values [x] ranges over, in domain order: its candidates (and the
   formula's constants [consts]), plus one representative of the other
   values, placed where the first of them sits in the domain.  Every
   non-candidate makes each [x]-atom false and each equality with [x]
   decide alike, so all of them ground [body] to the same lineage; under
   [Exists] one disjunct, under [Forall] one conjunct stands for them,
   and since the dropped copies come after it, the first-occurrence
   variable order is the one the whole domain would give.  [dom] is the
   domain with its size: candidates lie in the domain, so as many
   distinct candidates as the domain has values are the domain itself,
   returned as it is. *)
let range a consts dom env x body =
  let values, size = Lazy.force dom in
  match candidates a env x body consts with
  | exception Whole_domain -> values
  | cands ->
    let cands = List.sort_uniq Value.compare cands in
    let rec with_rep ds cs =
      match (ds, cs) with
      | d :: ds', c :: cs' when Value.equal d c -> d :: with_rep ds' cs'
      | d :: _, _ -> d :: cs
      | [], _ -> []
    in
    if List.compare_length_with cands size = 0 then values
    else with_rep values cands

let rec lin a consts dom env = function
  | Fo.True -> Bool_expr.tru
  | Fo.False -> Bool_expr.fls
  | Fo.Atom (r, ts) -> (
      let f = Fact.make r (List.map (term_value env) ts) in
      match Fact.Map.find_opt f a.to_var with
      | Some i -> Bool_expr.var i
      | None -> Bool_expr.fls)
  | Fo.Eq (s, t) ->
    if Value.equal (term_value env s) (term_value env t) then Bool_expr.tru
    else Bool_expr.fls
  | Fo.Cmp (op, s, t) ->
    let c = Value.compare (term_value env s) (term_value env t) in
    let holds =
      match op with
      | Fo.Lt -> c < 0
      | Fo.Le -> c <= 0
      | Fo.Gt -> c > 0
      | Fo.Ge -> c >= 0
    in
    if holds then Bool_expr.tru else Bool_expr.fls
  | Fo.Not f -> Bool_expr.neg (lin a consts dom env f)
  | Fo.And (f, g) ->
    Bool_expr.and2 (lin a consts dom env f) (lin a consts dom env g)
  | Fo.Or (f, g) ->
    Bool_expr.or2 (lin a consts dom env f) (lin a consts dom env g)
  | Fo.Implies (f, g) ->
    Bool_expr.implies (lin a consts dom env f) (lin a consts dom env g)
  | Fo.Exists (x, f) -> Bool_expr.disj (ground a consts dom env x f)
  | Fo.Forall (x, f) -> Bool_expr.conj (ground a consts dom env x f)

and ground a consts dom env x f =
  List.map
    (fun v -> lin a consts dom (SMap.add x v env) f)
    (range a consts dom env x f)

let of_formula ?extra a bindings phi =
  let env =
    List.fold_left (fun acc (x, v) -> SMap.add x v acc) SMap.empty bindings
  in
  let missing =
    List.filter (fun x -> not (SMap.mem x env)) (Fo.free_vars phi)
  in
  if missing <> [] then
    invalid_arg
      (Printf.sprintf "Lineage.of_formula: unbound free variables %s"
         (String.concat ", " missing))
  else begin
    let extra =
      Option.value extra ~default:[] @ List.map snd bindings
    in
    let consts = Fo.constants phi in
    let dom =
      lazy
        (let values = domain ~extra a phi in
         (values, List.length values))
    in
    lin a consts dom env phi
  end

let of_sentence ?extra a phi =
  match Fo.free_vars phi with
  | [] -> of_formula ?extra a [] phi
  | fvs ->
    invalid_arg
      (Printf.sprintf "Lineage.of_sentence: formula has free variables %s"
         (String.concat ", " fvs))
