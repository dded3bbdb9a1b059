type mc_result = {
  estimate : float;
  std_error : float;
  samples : int;
}

let require_sentence phi =
  match Fo.free_vars phi with
  | [] -> ()
  | fvs ->
    invalid_arg
      (Printf.sprintf "Query_eval: query has free variables %s"
         (String.concat ", " (fvs : string list)))

(* The shared evaluation domain: active domain of the table's support plus
   the query's constants. *)
let eval_domain_ti ti phi =
  Fo_eval.evaluation_domain
    (Instance.of_list (Ti_table.support ti))
    phi []

let alphabet_of_ti ti = Lineage.alphabet (Ti_table.support ti)

let c_safe_plan = Stats.counter "query.safe_plan"
let c_bdd_fallback = Stats.counter "query.bdd_fallback"

let boolean_bdd ?(extra_domain = []) ?tick ?on_free ?cache_size ?gc_threshold
    ti phi =
  require_sentence phi;
  let a = alphabet_of_ti ti in
  let lin = Lineage.of_sentence ~extra:extra_domain a phi in
  Wmc.probability ?tick ?on_free ?cache_size ?gc_threshold
    ~weight:(fun v -> Ti_table.prob ti (Lineage.fact_of_var a v))
    lin

let boolean_safe ?step ti phi =
  require_sentence phi;
  Safe_plan.probability ?step
    ~weight:(Ti_table.prob ti)
    ~facts:(Ti_table.support ti)
    phi

let boolean ?(extra_domain = []) ?tick ?on_free ?cache_size ?gc_threshold ti
    phi =
  (* Dichotomy-aware routing: the lifted UCQ engine first, lineage +
     BDD for everything it rejects.  A safe plan quantifies over the
     values occurring in facts; an extension by inert values (occurring
     in no fact and not among the query's constants) cannot change the
     truth of a positive existential UCQ on any world, so the plan's
     answer is the padded answer and the fast path stays valid. *)
  match boolean_safe ti phi with
  | Some p ->
    Stats.incr c_safe_plan;
    p
  | None ->
    Stats.incr c_bdd_fallback;
    boolean_bdd ~extra_domain ?tick ?on_free ?cache_size ?gc_threshold ti phi

(* The reference world sum every enumeration engine shares: P(phi) is
   the mass of the worlds that model phi, each world evaluated over the
   same fixed [domain] (not over its own active domain), so all engines
   share one semantics. *)
let world_sum ~domain worlds phi =
  Seq.fold_left
    (fun acc (inst, p) ->
      let adom = Instance.active_domain inst in
      let extra =
        List.filter (fun v -> not (List.exists (Value.equal v) adom)) domain
      in
      if Fo_eval.models ~extra_domain:extra inst phi then Rational.add acc p
      else acc)
    Rational.zero worlds

let boolean_enum ti phi =
  require_sentence phi;
  world_sum ~domain:(eval_domain_ti ti phi) (Ti_table.worlds ti) phi

(* Proposition 6.1's r-equivalence device, shared by every engine that
   evaluates a truncation as a stand-in for the countable limit space:
   pad the quantifier domain with [quantifier_rank] values that occur in
   no fact and differ from every query constant.  Quantifiers must not be
   decided on the accidentally small truncated domain (a universal
   sentence that holds on the prefix's active domain can be false on
   every deeper truncation); with the padding, a world supported in the
   truncation has the truth value it keeps on every deeper truncation,
   and k >= rank inert values decide a sentence exactly as
   rank of them do, so one padding at the maximum rank serves a whole
   batch.  [Cmp] atoms can tell inert values apart, so [Cmp] queries
   demand no padding.  A candidate set that meets a fact argument, a
   query constant or [avoid] is re-chosen under the next attempt
   number; sessions whose domain grows re-choose the same way. *)
let choose_padding ?(avoid = fun _ -> false) facts queries =
  let rank =
    List.fold_left
      (fun acc phi ->
        if Fo.has_cmp phi then acc
        else Stdlib.max acc (Fo.quantifier_rank phi))
      0 queries
  in
  let constants = List.concat_map Fo.constants queries in
  let taken v =
    avoid v
    || List.exists (Value.equal v) constants
    || List.exists (fun f -> Array.exists (Value.equal v) f.Fact.args) facts
  in
  let rec choose attempt =
    let cand =
      List.init rank (fun i ->
          Value.Str (Printf.sprintf "\x00pad.%d.%d" attempt i))
    in
    if List.exists taken cand then choose (attempt + 1) else cand
  in
  if rank = 0 then [] else choose 0

let safe phi = Safe_plan.is_safe phi

let boolean_karp_luby ?seed ~samples ti phi =
  require_sentence phi;
  let a = alphabet_of_ti ti in
  let lin = Lineage.of_sentence a phi in
  match Dnf.of_expr lin with
  | None -> None
  | Some [] -> Some { estimate = 0.0; std_error = 0.0; samples }
  | Some dnf ->
    let weight v =
      Rational.to_float (Ti_table.prob ti (Lineage.fact_of_var a v))
    in
    let e = Dnf.karp_luby ?seed ~samples ~weight dnf in
    Some
      {
        estimate = e.Dnf.value;
        std_error = e.Dnf.std_error;
        samples = e.Dnf.samples;
      }

let boolean_finite pdb phi =
  require_sentence phi;
  let universe = Instance.of_list (Finite_pdb.fact_universe pdb) in
  world_sum
    ~domain:(Fo_eval.evaluation_domain universe phi [])
    (List.to_seq (Finite_pdb.worlds pdb))
    phi

(* Enumerate candidate valuations of the free variables over the domain. *)
let valuations domain k =
  let rec go k =
    if k = 0 then Seq.return []
    else
      Seq.concat_map
        (fun rest -> Seq.map (fun v -> v :: rest) (List.to_seq domain))
        (go (k - 1))
  in
  Seq.map List.rev (go k)

let marginals_generic ~prob_sentence ~domain phi =
  let fvs = Fo.free_vars phi in
  let k = List.length fvs in
  if k = 0 then begin
    let p = prob_sentence phi in
    if Rational.is_zero p then [] else [ ([||], p) ]
  end
  else if k > 3 then
    invalid_arg "Query_eval.marginals: more than 3 free variables"
  else
    valuations domain k
    |> Seq.filter_map (fun vals ->
           let bindings = List.combine fvs vals in
           let grounded = Fo.substitute bindings phi in
           let p = prob_sentence grounded in
           if Rational.is_zero p then None
           else Some (Array.of_list vals, p))
    |> List.of_seq
    |> List.sort (fun (a, _) (b, _) -> Tuple.compare a b)

let marginals ?extra_domain ?cache_size ?gc_threshold ti phi =
  marginals_generic
    ~prob_sentence:(fun s ->
      boolean ?extra_domain ?cache_size ?gc_threshold ti s)
    ~domain:(eval_domain_ti ti phi)
    phi

