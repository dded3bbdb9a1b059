type t = {
  src : Fact_source.t;
  (* Cached sampling plan: facts of the sampled prefix with float
     marginals, keyed by the prefix length it was built for. *)
  mutable plan : (int * (Fact.t * float) array) option;
}

let create_r src =
  match Fact_source.search (Fact_source.tail_mass src) infinity with
  | Fact_source.Found _ | Too_slow _ -> Ok { src; plan = None }
  | Silent probed_to ->
    Error
      (Errors.Divergent_source { source = Fact_source.name src; probed_to })

let create src =
  match create_r src with
  | Ok t -> t
  | Error _ ->
    invalid_arg
      (Printf.sprintf
         "Countable_ti.create: source %s has no convergence certificate; by \
          Theorem 4.8 no tuple-independent PDB realizes divergent marginals"
         (Fact_source.name src))

let source t = t.src

let marginal t f = Fact_source.prob t.src f

let expected_size_bounds t ~n =
  let prefix = Rational.to_float (Fact_source.prefix_sum t.src n) in
  match Fact_source.tail_mass t.src n with
  | Some tail -> (prefix, prefix +. tail)
  | None -> assert false (* create guarantees convergence *)

(* The exact finite factor over the first n facts. *)
let instance_prob_prefix t ~n inst =
  let entries = Fact_source.prefix t.src n in
  List.fold_left
    (fun acc (f, p) ->
      Rational.mul acc (if Instance.mem f inst then p else Rational.compl p))
    Rational.one entries

(* Claim (∗)-based enclosure of the tail product prod_{i>=n} (1-p_i). *)
let tail_product_bounds t ~n =
  match Fact_source.tail_mass t.src n with
  | None -> assert false
  | Some tail ->
    if tail < 0.5 then Interval.make (exp (-1.5 *. tail)) 1.0
    else Interval.make 0.0 1.0

let instance_prob_bounds t ~n inst =
  let entries = Fact_source.prefix t.src n in
  let known = Instance.of_list (List.map fst entries) in
  if not (Instance.subset inst known) then
    invalid_arg
      "Countable_ti.instance_prob_bounds: instance has facts beyond the first n";
  let prefix =
    Interval.of_rational (instance_prob_prefix t ~n inst)
  in
  Interval.clamp01 (Interval.mul prefix (tail_product_bounds t ~n))

let empty_world_prob_bounds t ~n =
  instance_prob_bounds t ~n Instance.empty

let truncate t ~n = Fact_source.truncate t.src n

let sample ?(tail_cut = ldexp 1.0 (-20)) ?(max_facts = 4096) t g =
  (* Draw each prefix fact independently; the prefix length is the least
     n with tail(n) <= tail_cut, capped at max_facts (slowly converging
     sources would otherwise need astronomically many Bernoulli draws).
     The sampled law is within the achieved tail mass of the true one in
     total variation.  The per-index plan is cached across draws. *)
  let n =
    match
      Fact_source.search ~max_n:max_facts (Fact_source.tail_mass t.src) tail_cut
    with
    | Found (n, _) | Too_slow (n, _) -> n
    | Silent _ -> max_facts
  in
  let plan =
    match t.plan with
    | Some (n', plan) when n' = n -> plan
    | _ ->
      let plan =
        Array.of_list
          (List.map
             (fun (f, p) -> (f, Rational.to_float p))
             (Fact_source.prefix t.src n))
      in
      t.plan <- Some (n, plan);
      plan
  in
  Array.fold_left
    (fun acc (f, p) -> if Prng.bernoulli g p then Instance.add f acc else acc)
    Instance.empty plan

let partition_prefix_sum t ~n =
  if n > 20 then
    invalid_arg "Countable_ti.partition_prefix_sum: 2^n sum too large"
  else begin
    let entries = Array.of_list (Fact_source.prefix t.src n) in
    let k = Array.length entries in
    let total = ref Rational.zero in
    for mask = 0 to (1 lsl k) - 1 do
      let p = ref Rational.one in
      for i = 0 to k - 1 do
        let _, pi = entries.(i) in
        p :=
          Rational.mul !p
            (if mask land (1 lsl i) <> 0 then pi else Rational.compl pi)
      done;
      total := Rational.add !total !p
    done;
    !total
  end
