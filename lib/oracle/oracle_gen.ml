(* Random instances for the fuzzer; see oracle_gen.mli. *)

type config = {
  max_relations : int;
  max_arity : int;
  max_facts : int;
  max_blocks : int;
  max_alts : int;
  max_rank : int;
  max_connectives : int;
  allow_negation : bool;
  denominator : int;
}

let default =
  {
    max_relations = 3;
    max_arity = 2;
    max_facts = 6;
    max_blocks = 3;
    max_alts = 3;
    max_rank = 3;
    max_connectives = 7;
    allow_negation = true;
    denominator = 16;
  }

let value_pool =
  [ Value.Int 0; Value.Int 1; Value.Int 2; Value.Int 3; Value.Str "a" ]

let rel_names = [| "R"; "S"; "T"; "U"; "V" |]
let policy_relation = "N"

let schema cfg g =
  let n = 1 + Prng.int g (max 1 cfg.max_relations) in
  let n = min n (Array.length rel_names) in
  Schema.make
    (List.init n (fun i ->
         Schema.relation rel_names.(i) (1 + Prng.int g cfg.max_arity)))

let random_value g = Prng.pick g (Array.of_list value_pool)

let random_fact g sch =
  let rels = Schema.relations sch in
  let r = List.nth rels (Prng.int g (List.length rels)) in
  Fact.make r.Schema.rel_name
    (List.init r.Schema.arity (fun _ -> random_value g))

(* k/den with k in [1, den]: probability 1 shows up occasionally, which
   exercises the p = 1 corners of the engines. *)
let random_prob cfg g = Rational.of_ints (1 + Prng.int g cfg.denominator) cfg.denominator

let ti_facts cfg g sch =
  let n = 1 + Prng.int g (max 1 cfg.max_facts) in
  let seen = Hashtbl.create 16 in
  let rec draw budget acc =
    if budget = 0 then List.rev acc
    else begin
      let f = random_fact g sch in
      if Hashtbl.mem seen f then draw (budget - 1) acc
      else begin
        Hashtbl.add seen f ();
        draw (budget - 1) ((f, random_prob cfg g) :: acc)
      end
    end
  in
  let facts = draw (2 * n) [] in
  let facts = if List.length facts > n then List.filteri (fun i _ -> i < n) facts else facts in
  match facts with
  | [] -> [ (random_fact g sch, random_prob cfg g) ]
  | fs -> fs

let ti_table cfg g sch = Ti_table.create (ti_facts cfg g sch)

let bid_blocks cfg g sch =
  let nb = 1 + Prng.int g (max 1 cfg.max_blocks) in
  let seen = Hashtbl.create 16 in
  List.init nb (fun bi ->
      let na = 1 + Prng.int g (max 1 cfg.max_alts) in
      (* Sequential mass budget: each alternative takes k/den of what is
         left, so the block mass never exceeds 1 and usually leaves
         slack. *)
      let rec alts i remaining acc =
        if i = 0 || remaining <= 0 then List.rev acc
        else begin
          let k = 1 + Prng.int g remaining in
          let f = random_fact g sch in
          if Hashtbl.mem seen f then alts (i - 1) remaining acc
          else begin
            Hashtbl.add seen f ();
            alts (i - 1) (remaining - k)
              ((f, Rational.of_ints k cfg.denominator) :: acc)
          end
        end
      in
      let alts = alts na cfg.denominator [] in
      (Printf.sprintf "b%d" bi, alts))
  |> List.filter (fun (_, alts) -> alts <> [])

let bid_table cfg g sch =
  let blocks = bid_blocks cfg g sch in
  let blocks =
    if blocks = [] then
      [ ("b0", [ (random_fact g sch, Rational.of_ints 1 cfg.denominator) ]) ]
    else blocks
  in
  Bid_table.create
    (List.map
       (fun (id, alts) -> { Bid_table.block_id = id; alternatives = alts })
       blocks)

(* ------------------------------------------------------------------ *)
(* Mutation sequences *)
(* ------------------------------------------------------------------ *)

(* A fact whose arguments lean toward values outside [value_pool], so
   the sequence exercises the fresh-constant (delta-join) path of the
   incremental engine, not only weight patches and recompiles. *)
let fresh_leaning_fact g sch =
  let rels = Schema.relations sch in
  let r = List.nth rels (Prng.int g (List.length rels)) in
  Fact.make r.Schema.rel_name
    (List.init r.Schema.arity (fun _ ->
         if Prng.int g 3 = 0 then Value.Int (100 + Prng.int g 50)
         else random_value g))

let mutations cfg g sch ~table ~len =
  let tbl = ref table in
  let push acc d =
    tbl := Delta_eval.apply_table !tbl d;
    d :: acc
  in
  let random_existing () =
    match Ti_table.support !tbl with
    | [] -> random_fact g sch
    | sup -> List.nth sup (Prng.int g (List.length sup))
  in
  let basic () =
    match Prng.int g 7 with
    | 0 -> Delta_eval.Insert (random_fact g sch, random_prob cfg g)
    | 1 -> Delta_eval.Insert (fresh_leaning_fact g sch, random_prob cfg g)
    | 2 -> Delta_eval.Delete (random_existing ())
    | 3 -> Delta_eval.Delete (random_fact g sch)
    | 4 -> Delta_eval.Reweight (random_existing (), random_prob cfg g)
    | 5 -> Delta_eval.Reweight (random_fact g sch, random_prob cfg g)
    | _ -> Delta_eval.Reweight (random_existing (), Rational.zero)
  in
  let rec go k acc =
    if k <= 0 then List.rev acc
    else
      match Prng.int g 8 with
      | 6 ->
        (* A recognized no-op: reweight a present fact to its current
           marginal (or delete an arbitrary fact twice over). *)
        let d =
          match Ti_table.facts !tbl with
          | [] -> Delta_eval.Delete (random_fact g sch)
          | fs ->
            let f, p = List.nth fs (Prng.int g (List.length fs)) in
            Delta_eval.Reweight (f, p)
        in
        go (k - 1) (push acc d)
      | 7 when k >= 2 ->
        (* An inverse pair: a delta immediately undone. *)
        let d = basic () in
        let inv = Delta_eval.inverse_of !tbl d in
        go (k - 2) (push (push acc d) inv)
      | _ -> go (k - 1) (push acc (basic ()))
  in
  go len []

(* ------------------------------------------------------------------ *)
(* Open-world policies *)
(* ------------------------------------------------------------------ *)

let policy cfg g =
  if Prng.bool g then
    Completion.Lambda
      ( Rational.of_ints (1 + Prng.int g (cfg.denominator - 1)) cfg.denominator,
        1 + Prng.int g 3 )
  else
    Completion.Geometric
      ( Rational.of_ints (1 + Prng.int g (cfg.denominator / 2)) cfg.denominator,
        Rational.of_ints (1 + Prng.int g 2) 4 )

(* ------------------------------------------------------------------ *)
(* Random sentences *)
(* ------------------------------------------------------------------ *)

let var_names = [| "x"; "y"; "z" |]

let random_term g vars =
  if vars <> [] && Prng.int g 3 < 2 then
    Fo.Var (List.nth vars (Prng.int g (List.length vars)))
  else Fo.Const (random_value g)

let random_atom g sch vars =
  let rels = Schema.relations sch in
  let r = List.nth rels (Prng.int g (List.length rels)) in
  Fo.Atom
    ( r.Schema.rel_name,
      List.init r.Schema.arity (fun _ -> random_term g vars) )

(* [rank] quantifiers may still be opened below this point; [budget]
   counts connectives.  Every leaf only uses variables in scope, so the
   result is always a sentence. *)
let rec gen_formula cfg g sch vars ~rank ~budget ~positive =
  let leaf () =
    match Prng.int g 10 with
    | 0 ->
      let a = random_term g vars and b = random_term g vars in
      if Prng.bool g then
        let op =
          match Prng.int g 4 with
          | 0 -> Fo.Lt
          | 1 -> Fo.Le
          | 2 -> Fo.Gt
          | _ -> Fo.Ge
        in
        Fo.Cmp (op, a, b)
      else Fo.Eq (a, b)
    | _ -> random_atom g sch vars
  in
  if budget <= 0 then leaf ()
  else begin
    let quantifier_ok = rank > 0 && List.length vars < Array.length var_names in
    match Prng.int g 12 with
    | 0 | 1 | 2 when quantifier_ok ->
      let x = var_names.(List.length vars) in
      let body =
        gen_formula cfg g sch (x :: vars) ~rank:(rank - 1)
          ~budget:(budget - 1) ~positive
      in
      if positive then
        if Prng.int g 4 = 0 then Fo.Forall (x, body) else Fo.Exists (x, body)
      else if Prng.bool g then Fo.Exists (x, body)
      else Fo.Forall (x, body)
    | 3 | 4 | 5 ->
      let l = gen_formula cfg g sch vars ~rank ~budget:(budget / 2) ~positive
      and r =
        gen_formula cfg g sch vars ~rank ~budget:((budget - 1) / 2) ~positive
      in
      if Prng.bool g then Fo.And (l, r) else Fo.Or (l, r)
    | 6 when (not positive) && cfg.allow_negation ->
      Fo.Not (gen_formula cfg g sch vars ~rank ~budget:(budget - 1) ~positive)
    | 7 when (not positive) && cfg.allow_negation ->
      let l = gen_formula cfg g sch vars ~rank ~budget:(budget / 2) ~positive
      and r =
        gen_formula cfg g sch vars ~rank ~budget:((budget - 1) / 2) ~positive
      in
      Fo.Implies (l, r)
    | _ -> leaf ()
  end

let sentence cfg g sch =
  (* Usually open with a quantifier: purely ground sentences are a less
     interesting corner and still show up via the leaf path. *)
  let phi =
    gen_formula cfg g sch [] ~rank:cfg.max_rank ~budget:cfg.max_connectives
      ~positive:false
  in
  if Fo.quantifier_rank phi = 0 && Prng.int g 4 < 3 then
    let x = var_names.(0) in
    Fo.Exists
      ( x,
        gen_formula cfg g sch [ x ] ~rank:(cfg.max_rank - 1)
          ~budget:(cfg.max_connectives - 1) ~positive:false )
  else phi

let positive_sentence cfg g sch =
  gen_formula cfg g sch [] ~rank:cfg.max_rank ~budget:cfg.max_connectives
    ~positive:true
