type term =
  | Var of string
  | Const of Value.t

type cmp_op = Lt | Le | Gt | Ge

type t =
  | True
  | False
  | Atom of string * term list
  | Eq of term * term
  | Cmp of cmp_op * term * term
  | Not of t
  | And of t * t
  | Or of t * t
  | Implies of t * t
  | Exists of string * t
  | Forall of string * t

let atom r ts = Atom (r, ts)
let v x = Var x
let c value = Const value
let cint n = Const (Value.Int n)

let conj = function
  | [] -> True
  | f :: fs -> List.fold_left (fun acc g -> And (acc, g)) f fs

let disj = function
  | [] -> False
  | f :: fs -> List.fold_left (fun acc g -> Or (acc, g)) f fs

let exists_many xs f = List.fold_right (fun x acc -> Exists (x, acc)) xs f
let forall_many xs f = List.fold_right (fun x acc -> Forall (x, acc)) xs f

module SSet = Set.Make (String)
module VSet = Set.Make (Value)

let term_vars = function Var x -> SSet.singleton x | Const _ -> SSet.empty

let rec fv = function
  | True | False -> SSet.empty
  | Atom (_, ts) ->
    List.fold_left (fun acc t -> SSet.union acc (term_vars t)) SSet.empty ts
  | Eq (a, b) | Cmp (_, a, b) -> SSet.union (term_vars a) (term_vars b)
  | Not f -> fv f
  | And (f, g) | Or (f, g) | Implies (f, g) -> SSet.union (fv f) (fv g)
  | Exists (x, f) | Forall (x, f) -> SSet.remove x (fv f)

let free_vars f = SSet.elements (fv f)
let is_sentence f = SSet.is_empty (fv f)

let rec quantifier_rank = function
  | True | False | Atom _ | Eq _ | Cmp _ -> 0
  | Not f -> quantifier_rank f
  | And (f, g) | Or (f, g) | Implies (f, g) ->
    Stdlib.max (quantifier_rank f) (quantifier_rank g)
  | Exists (_, f) | Forall (_, f) -> 1 + quantifier_rank f

let term_consts = function Var _ -> VSet.empty | Const v -> VSet.singleton v

let rec consts = function
  | True | False -> VSet.empty
  | Atom (_, ts) ->
    List.fold_left (fun acc t -> VSet.union acc (term_consts t)) VSet.empty ts
  | Eq (a, b) | Cmp (_, a, b) -> VSet.union (term_consts a) (term_consts b)
  | Not f -> consts f
  | And (f, g) | Or (f, g) | Implies (f, g) -> VSet.union (consts f) (consts g)
  | Exists (_, f) | Forall (_, f) -> consts f

let constants f = VSet.elements (consts f)

module SMap = Map.Make (String)

let relations f =
  let rec go acc = function
    | True | False | Eq _ | Cmp _ -> acc
    | Atom (r, ts) ->
      let a = List.length ts in
      (match SMap.find_opt r acc with
       | Some a' when a' <> a ->
         invalid_arg
           (Printf.sprintf "Fo.relations: %s used with arities %d and %d" r a' a)
       | _ -> SMap.add r a acc)
    | Not f -> go acc f
    | And (f, g) | Or (f, g) | Implies (f, g) -> go (go acc f) g
    | Exists (_, f) | Forall (_, f) -> go acc f
  in
  SMap.bindings (go SMap.empty f)

let substitute bindings f =
  let subst_term env = function
    | Var x as t -> (
        match List.assoc_opt x env with Some v -> Const v | None -> t)
    | Const _ as t -> t
  in
  let rec go env = function
    | (True | False) as f -> f
    | Atom (r, ts) -> Atom (r, List.map (subst_term env) ts)
    | Eq (a, b) -> Eq (subst_term env a, subst_term env b)
    | Cmp (op, a, b) -> Cmp (op, subst_term env a, subst_term env b)
    | Not f -> Not (go env f)
    | And (f, g) -> And (go env f, go env g)
    | Or (f, g) -> Or (go env f, go env g)
    | Implies (f, g) -> Implies (go env f, go env g)
    | Exists (x, f) -> Exists (x, go (List.remove_assoc x env) f)
    | Forall (x, f) -> Forall (x, go (List.remove_assoc x env) f)
  in
  go bindings f

let all_vars f =
  let rec go acc = function
    | True | False -> acc
    | Atom (_, ts) ->
      List.fold_left (fun acc t -> SSet.union acc (term_vars t)) acc ts
    | Eq (a, b) | Cmp (_, a, b) ->
      SSet.union acc (SSet.union (term_vars a) (term_vars b))
    | Not f -> go acc f
    | And (f, g) | Or (f, g) | Implies (f, g) -> go (go acc f) g
    | Exists (x, f) | Forall (x, f) -> go (SSet.add x acc) f
  in
  go SSet.empty f

let rename_bound rename f =
  let names = all_vars f in
  (* [taken] records bound-name images already committed; a second
     distinct source mapping to the same image could capture across
     nested scopes, so it is rejected along with images that collide
     with any name already occurring in the formula. *)
  let taken = Hashtbl.create 8 in
  let fresh x =
    let x' = rename x in
    if x' <> x then begin
      if SSet.mem x' names then
        invalid_arg
          (Printf.sprintf
             "Fo.rename_bound: image %s of %s already occurs in the formula"
             x' x);
      match Hashtbl.find_opt taken x' with
      | Some y when y <> x ->
        invalid_arg
          (Printf.sprintf "Fo.rename_bound: %s and %s both map to %s" y x x')
      | _ -> Hashtbl.replace taken x' x
    end;
    x'
  in
  let rename_term env = function
    | Var x as t -> (
        match SMap.find_opt x env with Some x' -> Var x' | None -> t)
    | Const _ as t -> t
  in
  let rec go env = function
    | (True | False) as f -> f
    | Atom (r, ts) -> Atom (r, List.map (rename_term env) ts)
    | Eq (a, b) -> Eq (rename_term env a, rename_term env b)
    | Cmp (op, a, b) -> Cmp (op, rename_term env a, rename_term env b)
    | Not f -> Not (go env f)
    | And (f, g) -> And (go env f, go env g)
    | Or (f, g) -> Or (go env f, go env g)
    | Implies (f, g) -> Implies (go env f, go env g)
    | Exists (x, f) ->
      let x' = fresh x in
      Exists (x', go (SMap.add x x' env) f)
    | Forall (x, f) ->
      let x' = fresh x in
      Forall (x', go (SMap.add x x' env) f)
  in
  go SMap.empty f

let compare = Stdlib.compare
let equal a b = compare a b = 0

let term_to_string = function
  | Var x -> x
  (* Boolean constants must not collide with the formula keywords
     true/false, so they print in the parser's #t/#f syntax. *)
  | Const (Value.Bool b) -> if b then "#t" else "#f"
  | Const v -> Value.to_string v

let rec to_string = function
  | True -> "true"
  | False -> "false"
  | Atom (r, ts) ->
    Printf.sprintf "%s(%s)" r (String.concat ", " (List.map term_to_string ts))
  | Eq (a, b) -> Printf.sprintf "%s = %s" (term_to_string a) (term_to_string b)
  | Cmp (op, a, b) ->
    let sym = match op with Lt -> "<" | Le -> "<=" | Gt -> ">" | Ge -> ">=" in
    Printf.sprintf "%s %s %s" (term_to_string a) sym (term_to_string b)
  | Not f -> "!" ^ atomic f
  | And (f, g) -> Printf.sprintf "%s & %s" (atomic f) (atomic g)
  | Or (f, g) -> Printf.sprintf "%s | %s" (atomic f) (atomic g)
  | Implies (f, g) -> Printf.sprintf "%s -> %s" (atomic f) (atomic g)
  | Exists (x, f) -> Printf.sprintf "exists %s. %s" x (to_string f)
  | Forall (x, f) -> Printf.sprintf "forall %s. %s" x (to_string f)

and atomic f =
  match f with
  | True | False | Atom _ | Eq _ | Cmp _ | Not _ -> to_string f
  | _ -> "(" ^ to_string f ^ ")"

let rec is_positive = function
  | True | False | Atom _ | Eq _ | Cmp _ -> true
  | Not _ | Implies _ -> false
  | And (f, g) | Or (f, g) -> is_positive f && is_positive g
  | Exists (_, f) | Forall (_, f) -> is_positive f

let rec is_quantifier_free = function
  | True | False | Atom _ | Eq _ | Cmp _ -> true
  | Not f -> is_quantifier_free f
  | And (f, g) | Or (f, g) | Implies (f, g) ->
    is_quantifier_free f && is_quantifier_free g
  | Exists _ | Forall _ -> false

let rec has_cmp = function
  | Cmp _ -> true
  | True | False | Atom _ | Eq _ -> false
  | Not f | Exists (_, f) | Forall (_, f) -> has_cmp f
  | And (f, g) | Or (f, g) | Implies (f, g) -> has_cmp f || has_cmp g
