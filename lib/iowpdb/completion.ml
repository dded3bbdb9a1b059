type t = {
  original : Ti_table.t;
  news : Fact_source.t;
}

(* The new-fact source of both constructions, built once: convergence
   certified by the truncation search (Theorems 4.8 / 5.5), and each
   entry checked as consumers enumerate it — a probability-1 new fact
   makes P'(Omega) = 0, and a fact of [orig] already belongs to the
   completed PDB. *)
let guarded ~what ~orig news =
  if not (Fact_source.converges news) then
    invalid_arg (what ^ ": new-fact source diverges (Theorem 4.8 / 5.5)");
  Fact_source.make
    ~name:(Fact_source.name news)
    ~enum:
      (Seq.unfold
         (fun i ->
           match Fact_source.nth news i with
           | None -> None
           | Some (f, p) ->
             if Rational.is_one p then
               invalid_arg
                 (Printf.sprintf
                    "Completion: new fact %s has probability 1, so P'(Omega) \
                     = 0 (forbidden by Definition 5.1)"
                    (Fact.to_string f))
             else if Fact.Set.mem f orig then
               invalid_arg
                 (Printf.sprintf
                    "Completion: %s already occurs in the original PDB"
                    (Fact.to_string f))
             else Some ((f, p), i + 1))
         0)
    ~tail:(Fact_source.tail_mass news)
    ()

let complete_ti original news =
  let orig = Fact.Set.of_list (Ti_table.support original) in
  let news = guarded ~what:"Completion.complete_ti" ~orig news in
  (* Reject probability-1 new facts and overlaps with F(D) eagerly on a
     bounded prefix; deeper entries are validated as they are enumerated
     by consumers. *)
  ignore (Fact_source.prefix news 64);
  { original; news }

(* Theorem 5.5's product of two TI PDBs over disjoint facts is the TI
   PDB over their union: the table's facts, then the new ones. *)
let source t = Fact_source.append_finite (Ti_table.facts t.original) t.news

let original t = t.original
let new_facts t = t.news

let marginal t f =
  (* Independence of the two factors: the original marginal is preserved
     exactly; new facts keep their source probability. *)
  if Ti_table.mem t.original f then Some (Ti_table.prob t.original f)
  else Fact_source.prob t.news f

let truncated t ~n =
  Finite_pdb.product
    (Finite_pdb.of_ti t.original)
    (Finite_pdb.of_ti (Fact_source.truncate t.news n))

let completion_condition_gap t ~n =
  let trunc = truncated t ~n in
  let orig = Finite_pdb.of_ti t.original in
  (* Omega = instances containing no new fact. *)
  let in_omega inst = Instance.for_all (Ti_table.mem t.original) inst in
  let conditioned = Finite_pdb.condition trunc in_omega in
  List.fold_left
    (fun acc (inst, p) ->
      let gap = Rational.abs (Rational.sub p (Finite_pdb.prob_of orig inst)) in
      Rational.max acc gap)
    Rational.zero
    (Finite_pdb.worlds conditioned)

let omega_prob_bounds t ~n =
  (* P'(Omega) = prod over all new facts of (1 - p_f): exact rational
     over the first n, claim (∗) on the rest.  A certificate silent at
     [n] leaves the rest's factor anywhere in [0, 1]. *)
  let tail = Option.value ~default:infinity (Fact_source.tail_mass t.news n) in
  let prefix =
    List.fold_left
      (fun acc (_, p) -> Rational.mul acc (Rational.compl p))
      Rational.one (Fact_source.prefix t.news n)
  in
  let pre = Interval.of_rational prefix in
  Interval.clamp01 (Interval.mul pre (Approx_eval.omega_bounds_of_tail tail))

let complete_countable_ti cti news =
  let news =
    guarded ~what:"Completion.complete_countable_ti" ~orig:Fact.Set.empty news
  in
  (* The interleaved source keeps both tails certified; Fact_source's lazy
     duplicate detection enforces disjointness as facts are enumerated. *)
  Countable_ti.create (Fact_source.interleave (Countable_ti.source cti) news)

(* ------------------------------------------------------------------ *)
(* Open-world policies *)
(* ------------------------------------------------------------------ *)

type policy =
  | Lambda of Rational.t * int
  | Geometric of Rational.t * Rational.t

let policy_to_string = function
  | Lambda (p, k) -> Printf.sprintf "lambda:%s:%d" (Rational.to_string p) k
  | Geometric (f, r) ->
    Printf.sprintf "geometric:%s:%s" (Rational.to_string f)
      (Rational.to_string r)

(* Definition 5.1 is checked here, before any fact is built: a
   probability-1 new fact would leave P'(Omega) = 0. *)
let policy_of_string spec =
  let bad why = invalid_arg (Printf.sprintf "bad policy %S: %s" spec why) in
  let rat s =
    match Rational.of_string_opt s with
    | Some q -> q
    | None -> bad (Printf.sprintf "%S is not a rational" s)
  in
  let open_unit q =
    Rational.sign q > 0 && Rational.compare q Rational.one < 0
  in
  match String.split_on_char ':' spec with
  | [ "lambda"; p; k ] ->
    let lambda = rat p in
    let k =
      match int_of_string_opt k with
      | Some k when k >= 0 -> k
      | _ -> bad (Printf.sprintf "%S is not a fact count" k)
    in
    if not (Rational.is_zero lambda || open_unit lambda) then
      bad "lambda must lie in [0, 1) (Definition 5.1)";
    Lambda (lambda, k)
  | [ "geometric"; first; ratio ] ->
    let first = rat first and ratio = rat ratio in
    if not (open_unit first && open_unit ratio) then
      bad "first and ratio must lie in (0, 1) (Definition 5.1)";
    Geometric (first, ratio)
  | _ -> bad "want lambda:<p>:<k> or geometric:<first>:<ratio>"

let policy_fact j = Fact.make "N" [ Value.Int j ]

let policy_source = function
  | Lambda (lambda, k) ->
    if Rational.is_zero lambda then Fact_source.of_list []
    else Fact_source.of_list (List.init k (fun j -> (policy_fact j, lambda)))
  | Geometric (first, ratio) ->
    Fact_source.geometric ~first ~ratio ~facts:policy_fact ()

let openpdb_lambda ~lambda ~new_facts ti =
  if not (Rational.sign lambda >= 0 && Rational.compare lambda Rational.one < 0)
  then invalid_arg "Completion.openpdb_lambda: lambda must be in [0,1)";
  let entries =
    if Rational.is_zero lambda then []
    else List.map (fun f -> (f, lambda)) new_facts
  in
  complete_ti ti (Fact_source.of_list ~name:"openpdb-lambda" entries)

let geometric_policy ~first ~ratio ~new_facts ti =
  complete_ti ti
    (Fact_source.geometric ~name:"geometric-policy" ~first ~ratio
       ~facts:new_facts ())
