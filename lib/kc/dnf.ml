type clause = int list

type t = clause list

module ISet = Set.Make (Int)

let clause_of_set s = ISet.elements s

(* Absorption: keep only clauses no proper subset of which is present. *)
let absorb clauses =
  let sets = List.map ISet.of_list clauses in
  let minimal s =
    not
      (List.exists (fun s' -> (not (ISet.equal s' s)) && ISet.subset s' s) sets)
  in
  List.sort_uniq compare
    (List.filter_map
       (fun s -> if minimal s then Some (clause_of_set s) else None)
       sets)

exception Too_large
exception Not_monotone

let of_expr ?(max_clauses = 4096) e =
  let check l = if List.length l > max_clauses then raise Too_large else l in
  (* Clauses as sets during construction. *)
  let rec go = function
    | Bool_expr.True -> [ ISet.empty ]
    | Bool_expr.False -> []
    | Bool_expr.Var v -> [ ISet.singleton v ]
    | Bool_expr.Not _ -> raise Not_monotone
    | Bool_expr.Or es -> check (List.concat_map go es)
    | Bool_expr.And es ->
      List.fold_left
        (fun acc e ->
          let d = go e in
          check
            (List.concat_map
               (fun c -> List.map (fun c' -> ISet.union c c') d)
               acc))
        [ ISet.empty ] es
  in
  match go e with
  | clauses -> Some (absorb (List.map clause_of_set clauses))
  | exception Too_large -> None
  | exception Not_monotone -> None

let eval env t =
  List.exists (fun clause -> List.for_all env clause) t

let vars t =
  ISet.elements
    (List.fold_left
       (fun acc c -> List.fold_left (fun acc v -> ISet.add v acc) acc c)
       ISet.empty t)

let num_clauses = List.length

let to_expr t =
  Bool_expr.disj (List.map (fun c -> Bool_expr.conj (List.map Bool_expr.var c)) t)

let clause_weight weight clause =
  List.fold_left (fun acc v -> acc *. weight v) 1.0 clause

type estimate = {
  value : float;
  std_error : float;
  samples : int;
  union_bound : float;
}

let karp_luby ?(seed = 0xBADA55) ~samples ~weight t =
  if samples <= 0 then invalid_arg "Dnf.karp_luby: samples <= 0";
  if t = [] then invalid_arg "Dnf.karp_luby: empty DNF (probability is 0)";
  let clauses = Array.of_list t in
  let m = Array.length clauses in
  let weights = Array.map (clause_weight weight) clauses in
  let union_bound = Array.fold_left ( +. ) 0.0 weights in
  if union_bound <= 0.0 then
    { value = 0.0; std_error = 0.0; samples; union_bound }
  else begin
    let g = Prng.create ~seed () in
    let all_vars = Array.of_list (vars t) in
    (* One coverage sample: clause i ~ w_i / W; world drawn conditioned on
       clause i true; contribute 1 / #satisfied-clauses. *)
    let sum = ref 0.0 and sumsq = ref 0.0 in
    for _ = 1 to samples do
      let i = Prng.categorical g weights in
      let forced = ISet.of_list clauses.(i) in
      let assignment = Hashtbl.create 16 in
      Array.iter
        (fun v ->
          Hashtbl.replace assignment v
            (ISet.mem v forced || Prng.bernoulli g (weight v)))
        all_vars;
      let env v = Option.value (Hashtbl.find_opt assignment v) ~default:false in
      let satisfied = ref 0 in
      for j = 0 to m - 1 do
        if List.for_all env clauses.(j) then incr satisfied
      done;
      (* The drawn world satisfies clause i, so satisfied >= 1. *)
      let x = 1.0 /. float_of_int !satisfied in
      sum := !sum +. x;
      sumsq := !sumsq +. (x *. x)
    done;
    let n = float_of_int samples in
    let mean = !sum /. n in
    let var = Float.max 0.0 ((!sumsq /. n) -. (mean *. mean)) in
    {
      value = union_bound *. mean;
      std_error = union_bound *. sqrt (var /. n);
      samples;
      union_bound;
    }
  end
