type t =
  | True
  | False
  | Var of int
  | Not of t
  | And of t list
  | Or of t list

let tru = True
let fls = False
let var i = Var i

let neg = function
  | True -> False
  | False -> True
  | Not e -> e
  | e -> Not e

let conj es =
  let rec gather acc = function
    | [] -> Some (List.rev acc)
    | True :: rest -> gather acc rest
    | False :: _ -> None
    | And inner :: rest -> gather acc (inner @ rest)
    | e :: rest -> gather (e :: acc) rest
  in
  match gather [] es with
  | None -> False
  | Some [] -> True
  | Some [ e ] -> e
  | Some es -> And es

let disj es =
  let rec gather acc = function
    | [] -> Some (List.rev acc)
    | False :: rest -> gather acc rest
    | True :: _ -> None
    | Or inner :: rest -> gather acc (inner @ rest)
    | e :: rest -> gather (e :: acc) rest
  in
  match gather [] es with
  | None -> True
  | Some [] -> False
  | Some [ e ] -> e
  | Some es -> Or es

let and2 a b = conj [ a; b ]
let or2 a b = disj [ a; b ]
let implies a b = or2 (neg a) b

let rec eval env = function
  | True -> true
  | False -> false
  | Var i -> env i
  | Not e -> not (eval env e)
  | And es -> List.for_all (eval env) es
  | Or es -> List.exists (eval env) es

module ISet = Set.Make (Int)

let vars e =
  let rec go acc = function
    | True | False -> acc
    | Var i -> ISet.add i acc
    | Not e -> go acc e
    | And es | Or es -> List.fold_left go acc es
  in
  ISet.elements (go ISet.empty e)

let occurrence_order e =
  let seen = Hashtbl.create 64 in
  let acc = ref [] in
  let rec go = function
    | True | False -> ()
    | Var i ->
      if not (Hashtbl.mem seen i) then begin
        Hashtbl.add seen i ();
        acc := i :: !acc
      end
    | Not e -> go e
    | And es | Or es -> List.iter go es
  in
  go e;
  List.rev !acc

let rec size = function
  | True | False | Var _ -> 1
  | Not e -> 1 + size e
  | And es | Or es -> List.fold_left (fun acc e -> acc + size e) 1 es

let is_constant = function
  | True -> Some true
  | False -> Some false
  | _ -> None

let compare = Stdlib.compare
let equal a b = compare a b = 0

let rec to_string = function
  | True -> "true"
  | False -> "false"
  | Var i -> Printf.sprintf "x%d" i
  | Not e -> "!" ^ to_string_atomic e
  | And es -> String.concat " & " (List.map to_string_atomic es)
  | Or es -> String.concat " | " (List.map to_string_atomic es)

and to_string_atomic e =
  match e with
  | True | False | Var _ | Not _ -> to_string e
  | And _ | Or _ -> "(" ^ to_string e ^ ")"

let enumeration_guard e =
  let vs = vars e in
  if List.length vs > 20 then
    invalid_arg "Bool_expr: too many variables for exhaustive counting";
  vs

let model_count e =
  let vs = Array.of_list (enumeration_guard e) in
  let n = Array.length vs in
  let count = ref 0 in
  for mask = 0 to (1 lsl n) - 1 do
    let env i =
      let rec idx k = if vs.(k) = i then k else idx (k + 1) in
      mask land (1 lsl idx 0) <> 0
    in
    if eval env e then incr count
  done;
  !count

let brute_force_probability weight e =
  let vs = Array.of_list (enumeration_guard e) in
  let n = Array.length vs in
  let total = ref Rational.zero in
  for mask = 0 to (1 lsl n) - 1 do
    let env i =
      let rec idx k = if vs.(k) = i then k else idx (k + 1) in
      mask land (1 lsl idx 0) <> 0
    in
    if eval env e then begin
      let w = ref Rational.one in
      for k = 0 to n - 1 do
        let p = weight vs.(k) in
        w :=
          Rational.mul !w
            (if mask land (1 lsl k) <> 0 then p else Rational.compl p)
      done;
      total := Rational.add !total !w
    end
  done;
  !total
