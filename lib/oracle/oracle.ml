(* Exhaustive possible-worlds oracle.  See oracle.mli for the contract.

   Everything here is deliberately naive: worlds are materialized lists,
   the FO checker is direct recursion with quantifiers enumerated over an
   explicit domain, probabilities are exact rationals throughout.  The
   value of this module is independence from the engines, not speed —
   the bench (E20) measures exactly how far the naivety carries. *)

module VSet = Set.Make (Value)

let max_worlds = 1 lsl 16

(* ------------------------------------------------------------------ *)
(* Universes *)
(* ------------------------------------------------------------------ *)

type universe = {
  worlds : (Instance.t * Rational.t) list;
  support : Fact.t list; (* sorted, distinct *)
  tail : Rational.t; (* upper bound on P(some truncated-away fact) *)
}

let check_tail tail =
  if Rational.sign tail < 0 then
    invalid_arg "Oracle: negative tail bound";
  Rational.min tail Rational.one

let check_partition worlds =
  let total = Rational.sum (List.map snd worlds) in
  if not (Rational.is_one total) then
    invalid_arg
      (Printf.sprintf "Oracle: world masses sum to %s, not 1"
         (Rational.to_string total))

let support_of_worlds worlds =
  let s =
    List.fold_left
      (fun acc (inst, _) -> Fact.Set.union acc (Instance.to_set inst))
      Fact.Set.empty worlds
  in
  Fact.Set.elements s

let make_universe ?(tail = Rational.zero) worlds =
  if List.length worlds > max_worlds then
    invalid_arg
      (Printf.sprintf "Oracle: %d worlds exceed the %d cap"
         (List.length worlds) max_worlds);
  check_partition worlds;
  { worlds; support = support_of_worlds worlds; tail = check_tail tail }

let of_ti_facts ?(tail = Rational.zero) facts =
  let n = List.length facts in
  if n > 16 then
    invalid_arg (Printf.sprintf "Oracle.of_ti_facts: %d facts (max 16)" n);
  let seen = Hashtbl.create 16 in
  List.iter
    (fun (f, p) ->
      if Hashtbl.mem seen f then
        invalid_arg
          ("Oracle.of_ti_facts: duplicate fact " ^ Fact.to_string f);
      Hashtbl.add seen f ();
      if not (Rational.is_probability p) then
        invalid_arg
          (Printf.sprintf "Oracle.of_ti_facts: %s has probability %s"
             (Fact.to_string f) (Rational.to_string p)))
    facts;
  let worlds =
    List.fold_left
      (fun acc (f, p) ->
        let q = Rational.compl p in
        List.concat_map
          (fun (inst, m) ->
            let stay =
              if Rational.is_zero q then []
              else [ (inst, Rational.mul m q) ]
            in
            let take =
              if Rational.is_zero p then []
              else [ (Instance.add f inst, Rational.mul m p) ]
            in
            stay @ take)
          acc)
      [ (Instance.empty, Rational.one) ]
      facts
  in
  make_universe ~tail worlds

let of_ti_table ti = of_ti_facts (Ti_table.facts ti)

let rational_of_tail_float what = function
  | None ->
    invalid_arg (Printf.sprintf "Oracle: %s tail certificate is silent" what)
  | Some t ->
    if Float.is_nan t || t = infinity then
      invalid_arg
        (Printf.sprintf "Oracle: %s tail certificate is not finite" what)
    else Rational.of_float_exn t

let of_fact_source src ~n =
  let prefix = Fact_source.prefix src n in
  (* A finite source may end before [n]; the certificate there is exact 0. *)
  let tail =
    rational_of_tail_float (Fact_source.name src)
      (Fact_source.tail_mass src (List.length prefix))
  in
  of_ti_facts ~tail prefix

let of_bid_blocks ?(tail = Rational.zero) blocks =
  let seen = Hashtbl.create 16 in
  List.iter
    (fun (bid, alts) ->
      let mass = Rational.sum (List.map snd alts) in
      if Rational.(mass > one) then
        invalid_arg
          (Printf.sprintf "Oracle.of_bid_blocks: block %s has mass %s" bid
             (Rational.to_string mass));
      List.iter
        (fun (f, p) ->
          if Hashtbl.mem seen f then
            invalid_arg
              ("Oracle.of_bid_blocks: repeated fact " ^ Fact.to_string f);
          Hashtbl.add seen f ();
          if not (Rational.is_probability p) then
            invalid_arg
              (Printf.sprintf "Oracle.of_bid_blocks: %s has probability %s"
                 (Fact.to_string f) (Rational.to_string p)))
        alts)
    blocks;
  let worlds =
    List.fold_left
      (fun acc (_bid, alts) ->
        let slack =
          Rational.compl (Rational.sum (List.map snd alts))
        in
        if List.length acc * (List.length alts + 1) > max_worlds then
          invalid_arg "Oracle.of_bid_blocks: world blow-up";
        List.concat_map
          (fun (inst, m) ->
            let none =
              if Rational.is_zero slack then []
              else [ (inst, Rational.mul m slack) ]
            in
            let takes =
              List.filter_map
                (fun (f, p) ->
                  if Rational.is_zero p then None
                  else Some (Instance.add f inst, Rational.mul m p))
                alts
            in
            none @ takes)
          acc)
      [ (Instance.empty, Rational.one) ]
      blocks
  in
  make_universe ~tail worlds

let of_bid_table bid =
  of_bid_blocks
    (List.map
       (fun (b : Bid_table.block) -> (b.Bid_table.block_id, b.alternatives))
       (Bid_table.blocks bid))

let of_completion c ~n =
  let orig = (of_ti_table (Completion.original c)).worlds in
  let news = of_fact_source (Completion.new_facts c) ~n in
  let worlds =
    List.concat_map
      (fun (d, p) ->
        List.map
          (fun (cw, q) -> (Instance.disjoint_union d cw, Rational.mul p q))
          news.worlds)
      orig
  in
  make_universe ~tail:news.tail worlds

(* ------------------------------------------------------------------ *)
(* Inspection *)
(* ------------------------------------------------------------------ *)

let worlds u = u.worlds
let num_worlds u = List.length u.worlds
let mass u = Rational.sum (List.map snd u.worlds)

let condition u event =
  if not (Rational.is_zero u.tail) then
    invalid_arg "Oracle.condition: universe has a nonzero tail";
  let kept = List.filter (fun (inst, _) -> event inst) u.worlds in
  let total = Rational.sum (List.map snd kept) in
  if Rational.is_zero total then
    invalid_arg "Oracle.condition: event has probability zero";
  make_universe
    (List.map (fun (inst, m) -> (inst, Rational.div m total)) kept)

(* ------------------------------------------------------------------ *)
(* The independent FO model checker *)
(* ------------------------------------------------------------------ *)

type semantics = Truncated | Limit

let term_value env = function
  | Fo.Const v -> v
  | Fo.Var x -> (
    match List.assoc_opt x env with
    | Some v -> v
    | None -> invalid_arg ("Oracle.holds: unbound variable " ^ x))

let rec holds_env domain inst env (phi : Fo.t) =
  match phi with
  | Fo.True -> true
  | Fo.False -> false
  | Fo.Atom (r, ts) ->
    Instance.mem (Fact.make r (List.map (term_value env) ts)) inst
  | Fo.Eq (a, b) -> Value.equal (term_value env a) (term_value env b)
  | Fo.Cmp (op, a, b) ->
    let c = Value.compare (term_value env a) (term_value env b) in
    (match op with
    | Fo.Lt -> c < 0
    | Fo.Le -> c <= 0
    | Fo.Gt -> c > 0
    | Fo.Ge -> c >= 0)
  | Fo.Not f -> not (holds_env domain inst env f)
  | Fo.And (f, g) -> holds_env domain inst env f && holds_env domain inst env g
  | Fo.Or (f, g) -> holds_env domain inst env f || holds_env domain inst env g
  | Fo.Implies (f, g) ->
    (not (holds_env domain inst env f)) || holds_env domain inst env g
  | Fo.Exists (x, f) ->
    List.exists (fun v -> holds_env domain inst ((x, v) :: env) f) domain
  | Fo.Forall (x, f) ->
    List.for_all (fun v -> holds_env domain inst ((x, v) :: env) f) domain

let holds ~domain inst phi =
  (match Fo.free_vars phi with
  | [] -> ()
  | fvs ->
    invalid_arg
      ("Oracle.holds: free variables " ^ String.concat ", " fvs));
  holds_env domain inst [] phi

(* Fresh inert padding values: a sort/prefix no generated table or query
   uses; bump the attempt counter on the (theoretical) collision. *)
let rec fresh_pads ~avoid ~attempt k =
  let pads =
    List.init k (fun i ->
        Value.Str (Printf.sprintf "\x01oracle.pad.%d.%d" attempt i))
  in
  if List.exists (fun v -> VSet.mem v avoid) pads then
    fresh_pads ~avoid ~attempt:(attempt + 1) k
  else pads

let eval_domain u sem phi =
  let base =
    List.fold_left
      (fun acc f -> List.fold_left (fun a v -> VSet.add v a) acc (Fact.args f))
      VSet.empty u.support
  in
  let base =
    List.fold_left (fun a v -> VSet.add v a) base (Fo.constants phi)
  in
  match sem with
  | Truncated -> VSet.elements base
  | Limit ->
    VSet.elements base
    @ fresh_pads ~avoid:base ~attempt:0 (Fo.quantifier_rank phi)

let query_prob ?(semantics = Truncated) u phi =
  let domain = eval_domain u semantics phi in
  List.fold_left
    (fun acc (inst, m) ->
      if holds ~domain inst phi then Rational.add acc m else acc)
    Rational.zero u.worlds

let marginal u f =
  List.fold_left
    (fun acc (inst, m) ->
      if Instance.mem f inst then Rational.add acc m else acc)
    Rational.zero u.worlds

let expected_size u =
  List.fold_left
    (fun acc (inst, m) ->
      Rational.add acc (Rational.mul m (Rational.of_int (Instance.size inst))))
    Rational.zero u.worlds

let size_distribution u =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (inst, m) ->
      let k = Instance.size inst in
      match Hashtbl.find_opt tbl k with
      | Some r -> r := Rational.add !r m
      | None -> Hashtbl.add tbl k (ref m))
    u.worlds;
  Hashtbl.fold (fun k r acc -> (k, !r) :: acc) tbl []
  |> List.filter (fun (_, m) -> not (Rational.is_zero m))
  |> List.sort (fun (a, _) (b, _) -> compare a b)

(* ------------------------------------------------------------------ *)
(* Tail enclosures *)
(* ------------------------------------------------------------------ *)

type enclosure = {
  cond : Rational.t;
  omega_lo : Rational.t;
  lo : Rational.t;
  hi : Rational.t;
}

let enclosure ?(semantics = Limit) u phi =
  let cond = query_prob ~semantics u phi in
  let omega_lo = Rational.max Rational.zero (Rational.compl u.tail) in
  let lo = Rational.mul cond omega_lo in
  let hi = Rational.min Rational.one (Rational.add lo (Rational.compl omega_lo)) in
  { cond; omega_lo; lo; hi }

let width e = Rational.sub e.hi e.lo
let exact e = if Rational.equal e.lo e.hi then Some e.cond else None

(* ------------------------------------------------------------------ *)
(* Float comparisons *)
(* ------------------------------------------------------------------ *)

let float_le_rational f x =
  if Float.is_nan f then false
  else if f = neg_infinity then true
  else if f = infinity then false
  else Rational.(of_float_exn f <= x)

let rational_le_float x f =
  if Float.is_nan f then false
  else if f = infinity then true
  else if f = neg_infinity then false
  else Rational.(x <= of_float_exn f)

let interval_contains ~lo ~hi x = float_le_rational lo x && rational_le_float x hi

let interval_overlaps ~lo ~hi e =
  float_le_rational lo e.hi && rational_le_float e.lo hi
