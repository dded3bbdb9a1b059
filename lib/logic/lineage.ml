module VSet = Set.Make (Value)
module SMap = Map.Make (String)

type alphabet = {
  to_var : int Fact.Map.t;
  of_var : Fact.t array;
}

let extend a fact_list =
  let rec go to_var rev_facts next = function
    | [] -> (to_var, rev_facts)
    | f :: rest ->
      if Fact.Map.mem f to_var then go to_var rev_facts next rest
      else go (Fact.Map.add f next to_var) (f :: rev_facts) (next + 1) rest
  in
  let to_var, rev_facts = go a.to_var [] (Array.length a.of_var) fact_list in
  let added = Array.of_list (List.rev rev_facts) in
  { to_var; of_var = Array.append a.of_var added }

let alphabet fact_list =
  extend { to_var = Fact.Map.empty; of_var = [||] } fact_list

let alphabet_size a = Array.length a.of_var
let facts a = Array.to_list a.of_var
let var_of_fact a f = Fact.Map.find_opt f a.to_var

let fact_of_var a i =
  if i < 0 || i >= Array.length a.of_var then
    invalid_arg "Lineage.fact_of_var: index out of range"
  else a.of_var.(i)

let domain ?(extra = []) a phi =
  let s =
    Array.fold_left
      (fun acc f ->
        List.fold_left (fun acc v -> VSet.add v acc) acc (Fact.args f))
      VSet.empty a.of_var
  in
  let s =
    List.fold_left (fun acc v -> VSet.add v acc) s (Fo.constants phi @ extra)
  in
  VSet.elements s

let term_value env = function
  | Fo.Var x -> (
      match SMap.find_opt x env with
      | Some v -> v
      | None -> invalid_arg (Printf.sprintf "Lineage: unbound variable %s" x))
  | Fo.Const v -> v

let rec lin a dom env = function
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
  | Fo.Not f -> Bool_expr.neg (lin a dom env f)
  | Fo.And (f, g) -> Bool_expr.and2 (lin a dom env f) (lin a dom env g)
  | Fo.Or (f, g) -> Bool_expr.or2 (lin a dom env f) (lin a dom env g)
  | Fo.Implies (f, g) ->
    Bool_expr.implies (lin a dom env f) (lin a dom env g)
  | Fo.Exists (x, f) ->
    Bool_expr.disj (List.map (fun v -> lin a dom (SMap.add x v env) f) dom)
  | Fo.Forall (x, f) ->
    Bool_expr.conj (List.map (fun v -> lin a dom (SMap.add x v env) f) dom)

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
    lin a (domain ~extra a phi) env phi
  end

let of_sentence ?extra a phi =
  match Fo.free_vars phi with
  | [] -> of_formula ?extra a [] phi
  | fvs ->
    invalid_arg
      (Printf.sprintf "Lineage.of_sentence: formula has free variables %s"
         (String.concat ", " fvs))
