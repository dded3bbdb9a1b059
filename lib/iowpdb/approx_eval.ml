type result = {
  estimate : Rational.t;
  eps : float;
  n_used : int;
  tail_mass : float;
  omega_n_bounds : Interval.t;
  bounds : Interval.t;
}

(* The truncation point needs alpha_n = (3/2) * tail(n) to satisfy both
   e^{alpha_n} <= 1 + eps and e^{-alpha_n} >= 1 - eps; the binding
   constraint is alpha_n <= ln(1 + eps) (smaller than -ln(1 - eps)).
   Claim (∗) additionally needs every truncated probability below 1/2,
   which tail(n) <= ln(1+eps)*2/3 < 1/2 already implies for eps < 1/2. *)
let required_tail eps = 2.0 /. 3.0 *. log1p eps

let check_eps eps =
  if not (eps > 0.0 && eps < 0.5) then
    invalid_arg "Approx_eval: eps must lie in (0, 1/2)"

(* P(Omega_n) = prod_{i>=n} (1 - p_i): none of the truncated facts
   occurs.  Lower bound from claim (∗), upper bound trivially 1 minus
   nothing (each factor <= 1). *)
let omega_bounds_of_tail t =
  if t < 0.5 then Interval.make (exp (-1.5 *. t)) 1.0
  else Interval.make 0.0 1.0

let enclosure_interval pf om =
  let lower = Interval.mul pf om in
  Interval.clamp01
    (Interval.make (Interval.lo lower)
       (Interval.hi (Interval.add lower (Interval.compl om))))

let enclosure p om = enclosure_interval (Interval.of_rational p) om

(* The enclosure a certified tail implies before anything is counted:
   the degraded answer of a run whose budget ran out past the
   truncation search. *)
let partial_at tail =
  Some (enclosure_interval (Interval.make 0.0 1.0) (omega_bounds_of_tail tail))

(* ------------------------------------------------------------------ *)
(* The certify step: truncate, re-ask the tail, evaluate, enclose *)
(* ------------------------------------------------------------------ *)

let default_what src = "Approx_eval(" ^ Fact_source.name src ^ ")"

(* One truncation search classifies the source: the least n(eps) with
   the certified tail observed there (threading that value through,
   instead of re-asking the certificate afterwards, keeps
   [result.tail_mass] meaningful even for certificates whose answers
   depend on mutable scan state), a certificate too weak for [eps], or
   none at all. *)
let search ?max_n ~what src ~eps =
  match
    Errors.protect ~what (fun () ->
        check_eps eps;
        Fact_source.search ?max_n (Fact_source.tail_mass src) (required_tail eps))
  with
  | Error e -> Error e
  | Ok (Fact_source.Found (n, t)) -> Ok (n, t)
  | Ok (Fact_source.Silent probed_to) ->
    Error (Errors.Divergent_source { source = Fact_source.name src; probed_to })
  | Ok (Fact_source.Too_slow (_, t)) ->
    (* The certificate exists but never drops below the bound within
       the probe budget: the "series may converge arbitrarily slowly"
       caveat of Section 6.  Recoverable: report the enclosure the
       deepest certified tail still implies. *)
    Error
      (Errors.Budget_exhausted
         {
           what =
             what
             ^ ": tail does not certify eps below max_n (source converges \
                too slowly; cf. the closing remark of Section 6)";
           exhaustion = Budget.Cap Budget.Probes;
           partial = partial_at t;
         })

let truncation_r ?max_n src ~eps =
  search ?max_n ~what:(default_what src) src ~eps

(* Proposition 6.1 once: find n(eps), materialize the prefix, re-ask the
   certificate at n, evaluate on the prefix, and hand back the result
   builder for any estimate counted there.  The re-ask threads the
   searched value as the fallback: a certificate that can still answer
   may sharpen the bound (exactly 0 once the enumeration is exhausted at
   n), one that cannot keeps the searched value instead of nan.  A budget
   that trips after the search degrades to the enclosure the certified
   tail implies. *)
let certify ?max_n ?budget ?what src ~eps eval =
  let src =
    match budget with Some b -> Fact_source.with_budget b src | None -> src
  in
  let what = Option.value what ~default:(default_what src) in
  match search ?max_n ~what src ~eps with
  | Error e -> Error e
  | Ok (n, searched) -> (
    match
      Errors.protect ~what (fun () ->
          let table = Fact_source.truncate src n in
          let tail =
            match Fact_source.tail_mass src n with
            | Some t -> Float.min t searched
            | None | (exception Budget.Exhausted _) -> searched
          in
          let om = omega_bounds_of_tail tail in
          let result p =
            {
              estimate = p;
              eps;
              n_used = n;
              tail_mass = tail;
              omega_n_bounds = om;
              bounds = enclosure p om;
            }
          in
          (eval table, result))
    with
    | Error (Errors.Budget_exhausted { what; exhaustion; partial = _ }) ->
      Error
        (Errors.Budget_exhausted
           { what; exhaustion; partial = partial_at searched })
    | r -> r)

(* The raising entry points report a failed certify step as the
   [Invalid_argument] they always raised. *)
let or_invalid_arg = function
  | Ok v -> v
  | Error (Errors.Model_invalid { msg; _ }) -> invalid_arg msg
  | Error (Errors.Divergent_source { source; _ }) ->
    invalid_arg
      (Printf.sprintf
         "Approx_eval: source %s diverges; no tuple-independent PDB exists \
          (Theorem 4.8), nothing to approximate"
         source)
  | Error (Errors.Budget_exhausted { what; _ }) -> invalid_arg what
  | Error e -> failwith (Errors.to_string e)

let boolean_r ?max_n ?budget src ~eps phi =
  (* The classical engine's manager is used once and never collects
     garbage, so the [Bdd_nodes] cap governs every node it allocates. *)
  let tick =
    Option.map (fun b () -> Budget.charge b Budget.Bdd_nodes 1) budget
  in
  certify ?max_n ?budget src ~eps (fun table ->
      let extra_domain =
        Query_eval.choose_padding (Ti_table.support table) [ phi ]
      in
      Query_eval.boolean ~extra_domain ?tick table phi)
  |> Result.map (fun (p, result) -> result p)

let boolean ?max_n src ~eps phi = or_invalid_arg (boolean_r ?max_n src ~eps phi)

(* The lifted fast path: same certify step, but the classical engine is
   the safe-plan UCQ evaluator instead of lineage + BDD.  No inert
   padding is needed — the lifted engine only answers for positive
   existential UCQs, which cannot distinguish the truncated domain from
   any inert extension, so its answer already is the limit-semantics
   conditional probability.  Plan-rule applications are charged as
   [Steps], the cancellation hook of the robust ladder: checked before
   spent, so a cap of k admits exactly k applications. *)
let boolean_lifted_r ?max_n ?budget src ~eps phi =
  let step =
    Option.map
      (fun b () ->
        Budget.checkpoint b;
        Budget.spend b Budget.Steps 1)
      budget
  in
  let what = "Approx_eval.lifted(" ^ Fact_source.name src ^ ")" in
  match
    certify ?max_n ?budget ~what src ~eps (fun table ->
        Query_eval.boolean_safe ?step table phi)
  with
  | Ok (Some p, result) -> Ok (result p)
  | Ok (None, _) ->
    (* A query property, not a transient fault: the dichotomy routed
       this query to the grounded engines. *)
    Error
      (Errors.Model_invalid
         {
           what;
           msg =
             "query has no polynomial-time lifted plan (hard side of the \
              dichotomy); use a grounded engine";
         })
  | Error e -> Error e

(* The free variables range over the truncation's active domain; the
   quantifiers inside each grounded sentence get the same inert padding
   as [boolean_r], so every tuple's probability has the limit
   semantics. *)
let marginals ?max_n src ~eps phi =
  certify ?max_n src ~eps (fun table ->
      let extra_domain =
        Query_eval.choose_padding (Ti_table.support table) [ phi ]
      in
      Query_eval.marginals ~extra_domain table phi)
  |> Result.map fst |> or_invalid_arg

(* ------------------------------------------------------------------ *)
(* Proposition 6.2 witness *)
(* ------------------------------------------------------------------ *)

let prop62_witness ~first_acceptance ~horizon =
  if first_acceptance < 1 || horizon < first_acceptance then
    invalid_arg "Approx_eval.prop62_witness";
  let fact k =
    let rel = if k = first_acceptance then "R" else "S" in
    (Fact.make rel [ Value.Int k ], Rational.pow Rational.half k)
  in
  let entries = List.init horizon (fun i -> fact (i + 1)) in
  Fact_source.of_list
    ~name:(Printf.sprintf "prop62(t0=%d)" first_acceptance)
    entries
