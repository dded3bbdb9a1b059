type t = {
  src : Fact_source.t;
  (* Cached sampling plan: facts of the sampled prefix with float
     marginals, keyed by the prefix length it was built for. *)
  mutable plan : (int * (Fact.t * float) array) option;
  (* Last truncation-for-mass answer: (eps, least n, table).  Repeating
     the same eps is free; a tighter eps resumes the tail-mass search at
     the cached n instead of re-galloping from 0 (the anytime loop's
     access pattern is a monotonically tightening eps). *)
  mutable trunc : (float * int * Ti_table.t) option;
}

let create src =
  if not (Fact_source.converges src) then
    invalid_arg
      (Printf.sprintf
         "Countable_ti.create: source %s has no convergence certificate; by \
          Theorem 4.8 no tuple-independent PDB realizes divergent marginals"
         (Fact_source.name src))
  else { src; plan = None; trunc = None }

let create_r src =
  if Fact_source.converges src then Ok { src; plan = None; trunc = None }
  else
    Error
      (Errors.Divergent_source
         { source = Fact_source.name src; probed_to = 1 lsl 20 })

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

let truncate_for_mass t ~eps =
  match t.trunc with
  | Some (eps0, n, tbl) when eps0 = eps -> Some (n, tbl)
  | cached ->
    (* The least satisfying n is antitone in eps: a previous answer at a
       looser bound is a valid search floor for any tighter one. *)
    let lo =
      match cached with
      | Some (eps0, n0, _) when eps <= eps0 -> n0
      | _ -> 0
    in
    Option.map
      (fun n ->
        let tbl = truncate t ~n in
        t.trunc <- Some (eps, n, tbl);
        (n, tbl))
      (Fact_source.prefix_for_tail ~lo t.src eps)

let sample ?(tail_cut = ldexp 1.0 (-20)) ?(max_facts = 4096) t g =
  (* Draw each prefix fact independently; the prefix length is the least
     n with tail(n) <= tail_cut, capped at max_facts (slowly converging
     sources would otherwise need astronomically many Bernoulli draws).
     The sampled law is within the achieved tail mass of the true one in
     total variation.  The per-index plan is cached across draws. *)
  let n =
    match Fact_source.prefix_for_tail ~max_n:max_facts t.src tail_cut with
    | Some n -> n
    | None -> max_facts
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
