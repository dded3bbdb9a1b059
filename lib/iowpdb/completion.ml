type t = {
  original : Finite_pdb.t;
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

let complete original news =
  let orig = Fact.Set.of_list (Finite_pdb.fact_universe original) in
  let news = guarded ~what:"Completion.complete" ~orig news in
  (* Reject probability-1 new facts and overlaps with F(D) eagerly on a
     bounded prefix; deeper entries are validated as they are enumerated
     by consumers. *)
  ignore (Fact_source.prefix news 64);
  { original; news }

let complete_ti ti news = complete (Finite_pdb.of_ti ti) news

let complete_r original news =
  Errors.protect ~what:"Completion.complete" (fun () -> complete original news)

let original t = t.original
let new_facts t = t.news

let marginal t f =
  (* Independence of the two factors: the original marginal is preserved
     exactly; new facts keep their source probability. *)
  let p_orig = Finite_pdb.prob_ef t.original f in
  if not (Rational.is_zero p_orig) then Some p_orig
  else if
    List.exists (Fact.equal f) (Finite_pdb.fact_universe t.original)
  then Some Rational.zero
  else Fact_source.prob t.news f

let truncated t ~n =
  Finite_pdb.product t.original (Finite_pdb.of_ti (Fact_source.truncate t.news n))

let completion_condition_gap t ~n =
  let trunc = truncated t ~n in
  let orig_facts = Fact.Set.of_list (Finite_pdb.fact_universe t.original) in
  (* Omega = instances containing no new fact. *)
  let in_omega inst =
    Instance.for_all (fun f -> Fact.Set.mem f orig_facts) inst
  in
  let conditioned = Finite_pdb.condition trunc in_omega in
  List.fold_left
    (fun acc (inst, p) ->
      let gap = Rational.abs (Rational.sub p (Finite_pdb.prob_of t.original inst)) in
      Rational.max acc gap)
    Rational.zero
    (Finite_pdb.worlds conditioned)

let omega_prob_bounds t ~n =
  match Fact_source.tail_mass t.news n with
  | None -> assert false
  | Some tail ->
    (* P'(Omega) = prod over all new facts of (1 - p_f): exact rational
       over the first n, claim (∗) on the rest. *)
    let prefix =
      List.fold_left
        (fun acc (_, p) -> Rational.mul acc (Rational.compl p))
        Rational.one (Fact_source.prefix t.news n)
    in
    let pre = Interval.of_rational prefix in
    Interval.clamp01 (Interval.mul pre (Approx_eval.omega_bounds_of_tail tail))

(* Exact probability of a sentence on the truncated completion: one BDD
   over the combined alphabet, weighted-model-counted under each original
   world (original facts pinned to 0/1, new facts at their marginals).
   The truncated completion stands in for the limit space, so the
   quantifier domain gets the inert padding of Proposition 6.1. *)
let sentence_prob_truncated ?tick t news phi =
  let new_prob =
    List.fold_left (fun m (f, p) -> Fact.Map.add f p m) Fact.Map.empty news
  in
  let all_facts = Finite_pdb.fact_universe t.original @ List.map fst news in
  let alpha = Lineage.alphabet all_facts in
  let lin =
    Lineage.of_sentence
      ~extra:(Query_eval.choose_padding all_facts [ phi ])
      alpha phi
  in
  let bdd = Wmc.compile ?tick lin in
  List.fold_left
    (fun acc (w, pw) ->
      if Rational.is_zero pw then acc
      else begin
        let weight v =
          let f = Lineage.fact_of_var alpha v in
          match Fact.Map.find_opt f new_prob with
          | Some pf -> pf
          | None -> if Instance.mem f w then Rational.one else Rational.zero
        in
        let p =
          Bdd.fold_prob_many ~zero:Rational.zero ~one:Rational.one
            ~node:(Wmc.shannon weight) [| bdd |]
        in
        Rational.add acc (Rational.mul pw p.(0))
      end)
    Rational.zero
    (Finite_pdb.worlds t.original)

let evaluation_domain_truncated t ~n phi =
  let facts =
    Finite_pdb.fact_universe t.original
    @ List.map fst (Fact_source.prefix t.news n)
  in
  Fo_eval.evaluation_domain (Instance.of_list facts) phi []

let marginals t ~eps phi =
  let n, _ = Approx_eval.or_invalid_arg (Approx_eval.truncation_r t.news ~eps) in
  let fvs = Fo.free_vars phi in
  let k = List.length fvs in
  if k = 0 then invalid_arg "Completion.marginals: sentence has no free variables"
  else if k > 3 then invalid_arg "Completion.marginals: more than 3 free variables"
  else begin
    let domain = evaluation_domain_truncated t ~n phi in
    let rec valuations k =
      if k = 0 then Seq.return []
      else
        Seq.concat_map
          (fun rest -> Seq.map (fun v -> v :: rest) (List.to_seq domain))
          (valuations (k - 1))
    in
    valuations k
    |> Seq.filter_map (fun vals ->
           let vals = List.rev vals in
           let grounded = Fo.substitute (List.combine fvs vals) phi in
           let p =
             sentence_prob_truncated t (Fact_source.prefix t.news n) grounded
           in
           if Rational.is_zero p then None
           else Some (Array.of_list vals, p))
    |> List.of_seq
    |> List.sort (fun (a, _) (b, _) -> Tuple.compare a b)
  end

let expected_answer_count t ~eps phi =
  Rational.sum (List.map snd (marginals t ~eps phi))

(* The completed PDB is the independent product of the original worlds
   with the TI PDB on the new facts.  Evaluate by truncating the new facts
   to tail mass certifying [eps] (the certify step of [Approx_eval]),
   compiling the query's lineage ONCE over the combined alphabet, and
   weighted-model-counting the same BDD under each original world:

     P(Q) = sum_w P(w) * WMC_w(lineage)

   This keeps the cost at (#original worlds) x |BDD| instead of the 2^n
   explicit product.  Under [budget], tail probes and prefix pulls of the
   new-fact source are charged as Probes/Facts, fresh BDD nodes as
   Bdd_nodes; the original [t] is untouched, so its caches keep serving
   unbudgeted callers. *)
let query_prob_r ?budget t ~eps phi =
  let tick =
    Option.map (fun b () -> Budget.charge b Budget.Bdd_nodes 1) budget
  in
  Approx_eval.certify ?budget ~what:"Completion" t.news ~eps (fun table ->
      sentence_prob_truncated ?tick t (Ti_table.facts table) phi)
  |> Result.map (fun (p, result) -> result p)

let query_prob t ~eps phi = Approx_eval.or_invalid_arg (query_prob_r t ~eps phi)

let complete_countable_ti cti news =
  let news =
    guarded ~what:"Completion.complete_countable_ti" ~orig:Fact.Set.empty news
  in
  (* The interleaved source keeps both tails certified; Fact_source's lazy
     duplicate detection enforces disjointness as facts are enumerated. *)
  Countable_ti.create (Fact_source.interleave (Countable_ti.source cti) news)

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
