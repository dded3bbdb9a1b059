(* Lifted ("extensional") inference for unions of conjunctive queries.

   The planner applies the classical Dalvi-Suciu rules recursively:

     - independent union: disjuncts partitioned into groups that can
       touch no common fact are independent events,
       P = 1 - prod_g (1 - P(g));
     - independent project: a separator variable — occurring in every
       atom of every disjunct, at the same position set per relation
       symbol — makes its values independent alternatives,
       P = 1 - prod_v (1 - P(Q[x := v]));
     - inclusion-exclusion over the disjuncts of a union,
       P(Q1 v ... v Qk) = sum over nonempty S of (-1)^(#S + 1) P(and of Qi, i in S);
     - independent join: connected components of a conjunct that can
       touch no common fact multiply;
     - ground atoms are probability lookups.

   Safety is certified syntactically by running the same recursion on a
   placeholder constant ([plan_of]); evaluation re-runs the rules on the
   concrete groundings, so a rule precondition that fails on an actual
   value (e.g. a grounding colliding with a query constant) degrades to
   [None] — the lineage engine keeps completeness, this engine only ever
   answers when its independence arguments hold on the instance at hand.

   Normalization: rename bound variables apart, strip the (positive,
   existential) quantifier structure, distribute to DNF with blow-up
   caps, then solve each disjunct's equality atoms by union-find —
   conflicting constant bindings make the disjunct unsatisfiable and it
   is dropped (the empty union has probability zero). *)

type atom = { rel : string; args : Fo.term list }

type disjunct = { datoms : atom list }
type ucq = disjunct list

module SSet = Set.Make (String)
module SMap = Map.Make (String)
module ISet = Set.Make (Int)
module VSet = Set.Make (Value)

(* ------------------------------------------------------------------ *)
(* Atom utilities *)
(* ------------------------------------------------------------------ *)

let term_compare t u =
  match (t, u) with
  | Fo.Var x, Fo.Var y -> String.compare x y
  | Fo.Const v, Fo.Const w -> Value.compare v w
  | Fo.Var _, Fo.Const _ -> -1
  | Fo.Const _, Fo.Var _ -> 1

let atom_compare a b =
  match String.compare a.rel b.rel with
  | 0 -> List.compare term_compare a.args b.args
  | c -> c

let atoms_compare = List.compare atom_compare

let dedup_atoms atoms = List.sort_uniq atom_compare atoms

let atom_vars a =
  List.fold_left
    (fun acc t -> match t with Fo.Var x -> SSet.add x acc | Fo.Const _ -> acc)
    SSet.empty a.args

let is_ground a =
  List.for_all (function Fo.Const _ -> true | Fo.Var _ -> false) a.args

let subst_atom x v a =
  {
    a with
    args =
      List.map
        (function Fo.Var y when y = x -> Fo.Const v | t -> t)
        a.args;
  }

let subst_atoms x v atoms = List.map (subst_atom x v) atoms

(* Can two atom patterns denote a common fact?  Conservative: variables
   match anything; only a position where both sides carry distinct
   constants separates them.  This is what lets ground self-"joins" like
   [R(1) & R(2)] keep the fast path. *)
let atoms_may_overlap a b =
  String.equal a.rel b.rel
  && List.length a.args = List.length b.args
  && List.for_all2
       (fun t u ->
         match (t, u) with
         | Fo.Const v, Fo.Const w -> Value.equal v w
         | _ -> true)
       a.args b.args

let atom_lists_overlap xs ys =
  List.exists (fun a -> List.exists (fun b -> atoms_may_overlap a b) ys) xs

(* ------------------------------------------------------------------ *)
(* Grouping (union-find) *)
(* ------------------------------------------------------------------ *)

(* Partition [xs] into connected groups under [related]; group order
   follows the first member's position. *)
let group_by related xs =
  let arr = Array.of_list xs in
  let n = Array.length arr in
  let parent = Array.init n Fun.id in
  let rec find i = if parent.(i) = i then i else find parent.(i) in
  let union i j =
    let ri = find i and rj = find j in
    if ri <> rj then parent.(Stdlib.max ri rj) <- Stdlib.min ri rj
  in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      if related arr.(i) arr.(j) then union i j
    done
  done;
  let order = ref [] and buckets = Hashtbl.create 8 in
  for i = 0 to n - 1 do
    let r = find i in
    if not (Hashtbl.mem buckets r) then begin
      Hashtbl.add buckets r (ref []);
      order := r :: !order
    end;
    let cell = Hashtbl.find buckets r in
    cell := arr.(i) :: !cell
  done;
  List.rev_map (fun r -> List.rev !(Hashtbl.find buckets r)) !order

(* Connected components of a conjunct under shared variables. *)
let components atoms =
  group_by
    (fun a b -> not (SSet.is_empty (SSet.inter (atom_vars a) (atom_vars b))))
    atoms

let cross_independent groups =
  let rec go = function
    | [] -> true
    | g :: rest ->
      List.for_all (fun h -> not (atom_lists_overlap g h)) rest && go rest
  in
  go groups

(* ------------------------------------------------------------------ *)
(* Normalization: sentence -> UCQ *)
(* ------------------------------------------------------------------ *)

(* Rename bound variables apart so quantifier stripping and DNF
   distribution cannot conflate distinct binders (e.g. shadowing in
   [exists x. R(x) & exists x. S(x)]).  Every remaining variable name is
   ours afterwards. *)
let rectify phi =
  let ctr = ref 0 in
  let fresh () =
    incr ctr;
    Printf.sprintf "u%d" !ctr
  in
  let subst_t env = function
    | Fo.Var x -> (
      match List.assoc_opt x env with Some y -> Fo.Var y | None -> Fo.Var x)
    | t -> t
  in
  let rec go env = function
    | (Fo.True | Fo.False) as f -> f
    | Fo.Atom (r, ts) -> Fo.Atom (r, List.map (subst_t env) ts)
    | Fo.Eq (t, u) -> Fo.Eq (subst_t env t, subst_t env u)
    | Fo.Cmp (op, t, u) -> Fo.Cmp (op, subst_t env t, subst_t env u)
    | Fo.Not f -> Fo.Not (go env f)
    | Fo.And (f, g) -> Fo.And (go env f, go env g)
    | Fo.Or (f, g) -> Fo.Or (go env f, go env g)
    | Fo.Implies (f, g) -> Fo.Implies (go env f, go env g)
    | Fo.Exists (x, f) ->
      let x' = fresh () in
      Fo.Exists (x', go ((x, x') :: env) f)
    | Fo.Forall (x, f) ->
      let x' = fresh () in
      Fo.Forall (x', go ((x, x') :: env) f)
  in
  go [] phi

type lit = L_atom of atom | L_eq of Fo.term * Fo.term

(* Positive existential fragment only; caps keep the distribution from
   blowing up on adversarial nestings (reject rather than stall — the
   lineage engine takes over). *)
let max_disjuncts = 64
let max_atoms_per_disjunct = 32

let dnf phi =
  let rec go = function
    | Fo.True -> Some [ [] ]
    | Fo.False -> Some []
    | Fo.Atom (r, ts) -> Some [ [ L_atom { rel = r; args = ts } ] ]
    | Fo.Eq (t, u) -> Some [ [ L_eq (t, u) ] ]
    | Fo.Exists (_, f) -> go f (* rectified: the binder name is unique *)
    | Fo.Or (f, g) -> (
      match (go f, go g) with
      | Some a, Some b when List.length a + List.length b <= max_disjuncts ->
        Some (a @ b)
      | _ -> None)
    | Fo.And (f, g) -> (
      match (go f, go g) with
      | Some a, Some b when List.length a * List.length b <= max_disjuncts ->
        let prod =
          List.concat_map (fun ca -> List.map (fun cb -> ca @ cb) b) a
        in
        if
          List.exists
            (fun c -> List.length c > max_atoms_per_disjunct)
            prod
        then None
        else Some prod
      | _ -> None)
    | Fo.Cmp _ | Fo.Not _ | Fo.Implies _ | Fo.Forall _ -> None
  in
  go phi

(* Solve a disjunct's equality atoms by union-find with constant
   bindings.  [None] = unsatisfiable (conflicting constants). *)
let solve_eqs lits =
  let parent = Hashtbl.create 8 in
  let bound = Hashtbl.create 8 in
  let rec find x =
    match Hashtbl.find_opt parent x with
    | Some y when y <> x ->
      let r = find y in
      Hashtbl.replace parent x r;
      r
    | _ -> x
  in
  let bind x v =
    let r = find x in
    match Hashtbl.find_opt bound r with
    | Some w when not (Value.equal v w) -> raise Exit
    | _ -> Hashtbl.replace bound r v
  in
  let union x y =
    let rx = find x and ry = find y in
    if rx <> ry then begin
      (match (Hashtbl.find_opt bound rx, Hashtbl.find_opt bound ry) with
      | Some a, Some b when not (Value.equal a b) -> raise Exit
      | Some a, None -> Hashtbl.replace bound ry a
      | _ -> ());
      Hashtbl.replace parent rx ry
    end
  in
  match
    List.iter
      (function
        | L_eq (Fo.Const a, Fo.Const b) ->
          if not (Value.equal a b) then raise Exit
        | L_eq (Fo.Var x, Fo.Const v) | L_eq (Fo.Const v, Fo.Var x) ->
          bind x v
        | L_eq (Fo.Var x, Fo.Var y) -> union x y
        | L_atom _ -> ())
      lits
  with
  | () ->
    let resolve = function
      | Fo.Var x -> (
        let r = find x in
        match Hashtbl.find_opt bound r with
        | Some v -> Fo.Const v
        | None -> Fo.Var r)
      | t -> t
    in
    Some
      (List.filter_map
         (function
           | L_atom a -> Some { a with args = List.map resolve a.args }
           | L_eq _ -> None)
         lits)
  | exception Exit -> None

(* Deterministic per-disjunct variable names (first occurrence over the
   sorted atom list) — a cheap canonical form that dedups identical
   disjuncts; missing a dedup is harmless (inclusion-exclusion absorbs
   duplicates), finding one saves exponential work. *)
let canon_atoms atoms =
  let atoms = List.sort atom_compare atoms in
  let map = Hashtbl.create 8 in
  let ctr = ref 0 in
  let rn = function
    | Fo.Var x ->
      let y =
        match Hashtbl.find_opt map x with
        | Some y -> y
        | None ->
          incr ctr;
          let y = Printf.sprintf "c%d" !ctr in
          Hashtbl.replace map x y;
          y
      in
      Fo.Var y
    | t -> t
  in
  List.sort atom_compare
    (List.map (fun a -> { a with args = List.map rn a.args }) atoms)

(* Variables only matter within a disjunct; prefixing by disjunct index
   renames them apart so inclusion-exclusion can conjoin disjuncts by
   plain atom-list union. *)
let prefix_vars d atoms =
  List.map
    (fun a ->
      {
        a with
        args =
          List.map
            (function
              | Fo.Var x -> Fo.Var (Printf.sprintf "q%d_%s" d x)
              | t -> t)
            a.args;
      })
    atoms

let ucq_of_sentence phi =
  if Fo.free_vars phi <> [] then None
  else
    match dnf (rectify phi) with
    | None -> None
    | Some disjuncts ->
      let sat = List.filter_map solve_eqs disjuncts in
      let canon = List.map (fun atoms -> canon_atoms (dedup_atoms atoms)) sat in
      let deduped = List.sort_uniq atoms_compare canon in
      Some (List.mapi (fun d atoms -> { datoms = prefix_vars d atoms }) deduped)

(* ------------------------------------------------------------------ *)
(* Separators *)
(* ------------------------------------------------------------------ *)

let positions_of x args =
  let ps = ref ISet.empty in
  List.iteri
    (fun i t -> match t with Fo.Var y when y = x -> ps := ISet.add i !ps | _ -> ())
    args;
  !ps

(* Variables occurring in every atom of the disjunct. *)
let common_vars atoms =
  match atoms with
  | [] -> SSet.empty
  | a :: rest -> List.fold_left (fun acc b -> SSet.inter acc (atom_vars b)) (atom_vars a) rest

(* rel -> positions of [x], consistent across the disjunct's atoms of
   each relation — the condition under which distinct values of [x]
   touch distinct facts even in the presence of self-joins. *)
let rel_positions x atoms =
  match
    List.fold_left
      (fun m a ->
        let ps = positions_of x a.args in
        match SMap.find_opt a.rel m with
        | None -> SMap.add a.rel ps m
        | Some ps' -> if ISet.equal ps ps' then m else raise Exit)
      SMap.empty atoms
  with
  | m -> Some m
  | exception Exit -> None

let merge_positions m1 m2 =
  match
    SMap.union (fun _ p q -> if ISet.equal p q then Some p else raise Exit) m1 m2
  with
  | m -> Some m
  | exception Exit -> None

let max_separator_choices = 16

(* Choices of one root variable per disjunct whose position maps are
   globally compatible — the UCQ-level separators.  Each choice is a
   list aligned with the UCQ's disjuncts. *)
let separators (ucq : ucq) : string list list =
  let per_disjunct =
    List.map
      (fun c ->
        SSet.elements (common_vars c.datoms)
        |> List.filter_map (fun x ->
               Option.map (fun m -> (x, m)) (rel_positions x c.datoms)))
      ucq
  in
  if List.exists (fun l -> l = []) per_disjunct then []
  else begin
    let take n l = List.filteri (fun i _ -> i < n) l in
    let combos =
      List.fold_left
        (fun acc options ->
          take max_separator_choices
            (List.concat_map
               (fun (chosen, m) ->
                 List.filter_map
                   (fun (x, mx) ->
                     Option.map (fun m' -> (x :: chosen, m')) (merge_positions m mx))
                   options)
               acc))
        [ ([], SMap.empty) ]
        per_disjunct
    in
    List.map (fun (chosen, _) -> List.rev chosen) combos
  end

(* ------------------------------------------------------------------ *)
(* The plan certificate *)
(* ------------------------------------------------------------------ *)

type plan =
  | P_true
  | P_zero
  | P_weight of atom  (** ground-atom probability lookup *)
  | P_join of plan list  (** independent conjunction *)
  | P_union of plan list  (** independent disjunction *)
  | P_project of string * plan  (** independent project on a separator *)
  | P_incl_excl of (int * plan) list  (** signed inclusion-exclusion *)

let max_incl_excl = 6
let max_depth = 64

(* Certification placeholder: a fresh constant standing for "any value of
   the projected variable"; depth-indexed so nested projects stay
   distinct (their disjointness checks must not conflate two holes). *)
let hole depth = Value.Str (Printf.sprintf "\x01sp.hole.%d" depth)

let rec plan_ucq depth (ucq : ucq) : plan option =
  if depth > max_depth then None
  else
    match ucq with
    | [] -> Some P_zero
    | _ when List.exists (fun c -> c.datoms = []) ucq -> Some P_true
    | [ c ] -> plan_cq depth c.datoms
    | _ -> (
      match group_by (fun a b -> atom_lists_overlap a.datoms b.datoms) ucq with
      | ([] | [ _ ]) -> plan_entangled depth ucq
      | groups ->
        let subs = List.map (plan_ucq (depth + 1)) groups in
        if List.for_all Option.is_some subs then
          Some (P_union (List.map Option.get subs))
        else None)

(* A union whose disjuncts may share facts: separator project first (it
   commutes with the union), inclusion-exclusion as the fallback. *)
and plan_entangled depth ucq =
  let projected =
    List.find_map
      (fun choice ->
        let grounded =
          List.map2
            (fun c x -> { datoms = dedup_atoms (subst_atoms x (hole depth) c.datoms) })
            ucq choice
        in
        Option.map
          (fun sub -> P_project (String.concat "=" (List.sort_uniq compare choice), sub))
          (plan_ucq (depth + 1) grounded))
      (separators ucq)
  in
  match projected with
  | Some p -> Some p
  | None -> plan_incl_excl depth ucq

and plan_incl_excl depth ucq =
  let k = List.length ucq in
  if k > max_incl_excl then None
  else begin
    let arr = Array.of_list ucq in
    let rec terms s acc =
      if s >= 1 lsl k then Some (List.rev acc)
      else begin
        let atoms = ref [] and bits = ref 0 in
        for i = 0 to k - 1 do
          if s land (1 lsl i) <> 0 then begin
            incr bits;
            atoms := arr.(i).datoms @ !atoms
          end
        done;
        match plan_cq (depth + 1) (dedup_atoms !atoms) with
        | None -> None
        | Some p ->
          let sign = if !bits mod 2 = 1 then 1 else -1 in
          terms (s + 1) ((sign, p) :: acc)
      end
    in
    Option.map (fun ts -> P_incl_excl ts) (terms 1 [])
  end

and plan_cq depth atoms =
  match atoms with
  | [] -> Some P_true
  | _ -> (
    match components atoms with
    | [ comp ] -> plan_component depth comp
    | comps ->
      if not (cross_independent comps) then None
      else begin
        let subs = List.map (plan_component (depth + 1)) comps in
        if List.for_all Option.is_some subs then
          Some (P_join (List.map Option.get subs))
        else None
      end)

and plan_component depth comp =
  match comp with
  | [ a ] when is_ground a -> Some (P_weight a)
  | _ ->
    List.find_map
      (function
        | [ x ] ->
          let g = dedup_atoms (subst_atoms x (hole depth) comp) in
          Option.map (fun sub -> P_project (x, sub)) (plan_cq (depth + 1) g)
        | _ -> None)
      (separators [ { datoms = comp } ])

let plan_of phi =
  match ucq_of_sentence phi with
  | None -> None
  | Some ucq -> plan_ucq 0 ucq

let is_safe phi = plan_of phi <> None

(* Certification holes render as [#d]: "the value bound by the project at
   depth d", not a real constant of the query. *)
let term_to_display = function
  | Fo.Var x -> x
  | Fo.Const (Value.Str s)
    when String.length s > 9 && String.sub s 0 9 = "\x01sp.hole." ->
    "#" ^ String.sub s 9 (String.length s - 9)
  | Fo.Const v -> Value.to_string v

let atom_to_string a =
  Printf.sprintf "%s(%s)" a.rel
    (String.concat ", " (List.map term_to_display a.args))

let rec plan_to_string = function
  | P_true -> "1"
  | P_zero -> "0"
  | P_weight a -> Printf.sprintf "P[%s]" (atom_to_string a)
  | P_join ps ->
    "join(" ^ String.concat ", " (List.map plan_to_string ps) ^ ")"
  | P_union ps ->
    "union(" ^ String.concat ", " (List.map plan_to_string ps) ^ ")"
  | P_project (x, p) -> Printf.sprintf "project %s (%s)" x (plan_to_string p)
  | P_incl_excl ts ->
    "incl-excl("
    ^ String.concat ", "
        (List.map
           (fun (sign, p) ->
             (if sign > 0 then "+ " else "- ") ^ plan_to_string p)
           ts)
    ^ ")"

(* ------------------------------------------------------------------ *)
(* Evaluation *)
(* ------------------------------------------------------------------ *)

exception Unsafe

let candidate_values idx atoms x =
  (* Values v such that substituting x := v keeps at least one atom
     matchable; union over atoms containing x of the values at x's
     positions in matching facts.  (A superset of the useful values is
     sound: a value with no full match contributes a factor 1.) *)
  List.fold_left
    (fun acc a ->
      if not (SSet.mem x (atom_vars a)) then acc
      else
        Fact_index.fold_matching idx a.rel
          (Array.of_list
             (List.map
                (function
                  | Fo.Const c -> Fact_index.Bound c
                  | Fo.Var y when y = x -> Fact_index.Target
                  | Fo.Var _ -> Fact_index.Free)
                a.args))
          VSet.add acc)
    VSet.empty atoms

(* [1 - (1 - p_1) ... (1 - p_k)] over the probabilities [iter] yields:
   the chance that one of independent events happens.  The product is
   kept as one unreduced fraction [prod (d_i - a_i) / prod d_i] for
   [p_i = a_i / d_i] and normalised once. *)
let any_of iter =
  let n = ref Bigint.one and d = ref Bigint.one in
  iter (fun p ->
      n := Bigint.mul !n (Bigint.sub (Rational.den p) (Rational.num p));
      d := Bigint.mul !d (Rational.den p));
  Rational.make (Bigint.sub !d !n) !d

(* The evaluator mirrors [plan_ucq] rule for rule, but recurses on the
   concrete groundings instead of a placeholder; [Unsafe] aborts to the
   [None] of [probability] (a precondition failed on this instance). *)
let rec eval_ucq step idx weight depth (ucq : ucq) : Rational.t =
  step ();
  if depth > max_depth then raise Unsafe;
  match ucq with
  | [] -> Rational.zero
  | _ when List.exists (fun c -> c.datoms = []) ucq -> Rational.one
  | [ c ] -> eval_cq step idx weight depth c.datoms
  | _ -> (
    match group_by (fun a b -> atom_lists_overlap a.datoms b.datoms) ucq with
    | ([] | [ _ ]) -> eval_entangled step idx weight depth ucq
    | groups ->
      (* Independent union. *)
      any_of (fun f ->
          List.iter (fun g -> f (eval_ucq step idx weight (depth + 1) g)) groups))

and eval_entangled step idx weight depth ucq =
  let try_separator choice =
    let cands =
      List.fold_left2
        (fun acc c x -> VSet.union acc (candidate_values idx c.datoms x))
        VSet.empty ucq choice
    in
    match
      any_of (fun f ->
          VSet.iter
            (fun v ->
              let grounded =
                List.map2
                  (fun c x -> { datoms = dedup_atoms (subst_atoms x v c.datoms) })
                  ucq choice
              in
              f (eval_ucq step idx weight (depth + 1) grounded))
            cands)
    with
    | p -> Some p
    | exception Unsafe -> None
  in
  match List.find_map try_separator (separators ucq) with
  | Some p -> p
  | None -> eval_incl_excl step idx weight depth ucq

and eval_incl_excl step idx weight depth ucq =
  let k = List.length ucq in
  if k > max_incl_excl then raise Unsafe;
  let arr = Array.of_list ucq in
  let total = ref Rational.zero in
  for s = 1 to (1 lsl k) - 1 do
    let atoms = ref [] and bits = ref 0 in
    for i = 0 to k - 1 do
      if s land (1 lsl i) <> 0 then begin
        incr bits;
        atoms := arr.(i).datoms @ !atoms
      end
    done;
    let p = eval_cq step idx weight (depth + 1) (dedup_atoms !atoms) in
    total :=
      if !bits mod 2 = 1 then Rational.add !total p else Rational.sub !total p
  done;
  !total

and eval_cq step idx weight depth atoms =
  step ();
  match atoms with
  | [] -> Rational.one
  | _ -> (
    match components atoms with
    | [ comp ] -> eval_component step idx weight depth comp
    | comps ->
      if not (cross_independent comps) then raise Unsafe;
      (* Independent join. *)
      List.fold_left
        (fun acc comp ->
          Rational.mul acc (eval_component step idx weight (depth + 1) comp))
        Rational.one comps)

and eval_component step idx weight depth comp =
  match comp with
  | [ a ] when is_ground a ->
    weight
      (Fact.make a.rel
         (List.map
            (function Fo.Const v -> v | Fo.Var _ -> assert false)
            a.args))
  | _ ->
    let try_root = function
      | [ x ] -> (
        let values = candidate_values idx comp x in
        match
          any_of (fun f ->
              VSet.iter
                (fun v ->
                  f (eval_cq step idx weight (depth + 1)
                       (dedup_atoms (subst_atoms x v comp))))
                values)
        with
        | p -> Some p
        | exception Unsafe -> None)
      | _ -> None
    in
    (match List.find_map try_root (separators [ { datoms = comp } ]) with
    | Some p -> p
    | None -> raise Unsafe)

let probability ?(step = fun () -> ()) ~weight ~facts phi =
  match ucq_of_sentence phi with
  | None -> None
  | Some ucq ->
    (* Degenerate-domain guard: with no values in any fact and no
       constants in the query, the shared evaluation domain is empty,
       where a quantified tautology (e.g. [exists x y. x = y]) is
       false under active-domain semantics while the UCQ view says
       true.  Punt to the grounded engines for that corner. *)
    if
      ucq <> []
      && Fo.quantifier_rank phi > 0
      && Fo.constants phi = []
      && List.for_all (fun f -> Fact.args f = []) facts
    then None
    else begin
      let idx = Fact_index.of_list facts in
      match eval_ucq step idx weight 0 ucq with
      | p -> Some p
      | exception Unsafe -> None
    end
