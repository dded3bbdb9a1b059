module SMap = Map.Make (String)
module VSet = Set.Make (Value)

let evaluation_domain inst phi extra =
  let s =
    List.fold_left
      (fun acc v -> VSet.add v acc)
      VSet.empty
      (Instance.active_domain inst @ Fo.constants phi @ extra)
  in
  VSet.elements s

let term_value env = function
  | Fo.Var x -> (
      match SMap.find_opt x env with
      | Some v -> v
      | None -> invalid_arg (Printf.sprintf "Fo_eval: unbound variable %s" x))
  | Fo.Const v -> v

let rec eval inst domain env = function
  | Fo.True -> true
  | Fo.False -> false
  | Fo.Atom (r, ts) ->
    let args = List.map (term_value env) ts in
    Instance.mem (Fact.make r args) inst
  | Fo.Eq (a, b) -> Value.equal (term_value env a) (term_value env b)
  | Fo.Cmp (op, a, b) ->
    let c = Value.compare (term_value env a) (term_value env b) in
    (match op with
     | Fo.Lt -> c < 0
     | Fo.Le -> c <= 0
     | Fo.Gt -> c > 0
     | Fo.Ge -> c >= 0)
  | Fo.Not f -> not (eval inst domain env f)
  | Fo.And (f, g) -> eval inst domain env f && eval inst domain env g
  | Fo.Or (f, g) -> eval inst domain env f || eval inst domain env g
  | Fo.Implies (f, g) -> (not (eval inst domain env f)) || eval inst domain env g
  | Fo.Exists (x, f) ->
    List.exists (fun v -> eval inst domain (SMap.add x v env) f) domain
  | Fo.Forall (x, f) ->
    List.for_all (fun v -> eval inst domain (SMap.add x v env) f) domain

let models ?(extra_domain = []) inst phi =
  match Fo.free_vars phi with
  | [] ->
    eval inst (evaluation_domain inst phi extra_domain) SMap.empty phi
  | fvs ->
    invalid_arg
      (Printf.sprintf "Fo_eval.models: formula has free variables %s"
         (String.concat ", " fvs))

let answers ?(extra_domain = []) inst phi =
  let xs = Fo.free_vars phi in
  let domain = evaluation_domain inst phi extra_domain in
  let rec assign env = function
    | [] ->
      if eval inst domain env phi then
        Tuple.Set.singleton
          (Array.of_list (List.map (fun x -> SMap.find x env) xs))
      else Tuple.Set.empty
    | x :: rest ->
      List.fold_left
        (fun acc v -> Tuple.Set.union acc (assign (SMap.add x v env) rest))
        Tuple.Set.empty domain
  in
  (xs, assign SMap.empty xs)

