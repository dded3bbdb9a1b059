type t = { src : Fact_source.t }

let create_r src =
  match Fact_source.uncertified (Fact_source.tail_mass src) with
  | None -> Ok { src }
  | Some probed_to ->
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

let instance_prob_bounds t ~n inst =
  let entries = Fact_source.prefix t.src n in
  let known = Instance.of_list (List.map fst entries) in
  if not (Instance.subset inst known) then
    invalid_arg
      "Countable_ti.instance_prob_bounds: instance has facts beyond the first n";
  let prefix =
    Interval.of_rational (instance_prob_prefix t ~n inst)
  in
  match Fact_source.tail_mass t.src n with
  | None -> assert false
  | Some tail ->
    Interval.clamp01
      (Interval.mul prefix (Approx_eval.omega_bounds_of_tail tail))

let empty_world_prob_bounds t ~n =
  instance_prob_bounds t ~n Instance.empty

let truncate t ~n = Fact_source.truncate t.src n

(* Each prefix fact is an independent Bernoulli with its float marginal;
   the prefix ends at the sampling cut. *)
let sampler t =
  let n, tv =
    Sampler.cut ~what:(Fact_source.name t.src) (Fact_source.tail_mass t.src)
  in
  let entries =
    Array.of_list
      (List.map
         (fun (f, p) -> (f, Rational.to_float p))
         (Fact_source.prefix t.src n))
  in
  let draw g =
    Array.fold_left
      (fun acc (f, p) -> if Prng.bernoulli g p then Instance.add f acc else acc)
      Instance.empty entries
  in
  { Sampler.draw; tv; support = Array.to_list (Array.map fst entries) }

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
