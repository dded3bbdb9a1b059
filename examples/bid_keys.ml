(* Key constraints via block-independent-disjoint PDBs (Section 4.4).

   The usual application of BID PDBs is to enforce key constraints: if
   LivesIn(person, city) has key "person", all facts about one person form
   a block — mutually exclusive alternatives — while different persons are
   independent.  A tuple-independent table cannot express this: it happily
   assigns positive probability to a person living in two cities at once.

   The countable twist of the paper: infinitely many persons (blocks) with
   decaying block masses satisfy Theorem 4.15's convergence criterion, so
   the infinite BID PDB exists and is sampleable.

   Run with:  dune exec examples/bid_keys.exe *)

let i n = Value.Int n
let s x = Value.Str x
let q = Rational.of_ints

let cities = [| "aachen"; "berlin"; "cologne" |]

(* Block for person k: lives in one of three cities with probabilities
   proportional to 3:2:1, total mass 2^-(k) * 6/6 scaled so that block
   masses sum geometrically. *)
let person_block k =
  let scale = Rational.pow Rational.half (k + 1) in
  Countable_bid.block_finite
    ~id:(Printf.sprintf "person-%d" k)
    (List.mapi
       (fun ci w ->
         ( Fact.make "LivesIn" [ i k; s cities.(ci) ],
           Rational.mul scale (q w 6) ))
       [ 3; 2; 1 ])

let bid () =
  Countable_bid.create ~name:"residents"
    ~blocks:(Seq.map person_block (Seq.ints 0))
    ~tail:(fun n -> Some (Float.succ (0.5 ** float_of_int n)))
    ()

let () =
  let b = bid () in
  print_endline "A countable BID PDB: LivesIn(person, city) with key 'person'.";
  Printf.printf "Block masses decay geometrically; total expected size:\n";
  let lo, hi = Countable_bid.expected_size_bounds b ~n:40 in
  Printf.printf "  E(S) in [%.6f, %.6f]\n\n" lo hi;

  print_endline "Exact marginals (blocks are exclusive, so these sum to the";
  print_endline "block mass, not to 1):";
  List.iter
    (fun city ->
      match Countable_bid.marginal b (Fact.make "LivesIn" [ i 0; s city ]) with
      | Some p ->
        Printf.printf "  P[ LivesIn(0, %-8s) ] = %s\n" city (Rational.to_string p)
      | None -> ())
    (Array.to_list cities);
  print_newline ();

  (* Sampling respects the key exactly. *)
  let samples = 20_000 in
  let draw = (Countable_bid.sampler b).Sampler.draw in
  let violations =
    Sampler.exclusivity_violations ~seed:1 ~samples draw
      (fun f ->
        match Fact.args f with
        | Value.Int k :: _ -> Some (string_of_int k)
        | _ -> None)
  in
  Printf.printf "Key violations in %d sampled worlds: %d (exclusivity is exact)\n"
    samples violations;

  (* Contrast: a TI table with the same marginals violates the key. *)
  let ti_same_marginals =
    Ti_table.create
      (List.map
         (fun city ->
           ( Fact.make "LivesIn" [ i 0; s city ],
             Option.get (Countable_bid.marginal b (Fact.make "LivesIn" [ i 0; s city ])) ))
         (Array.to_list cities))
  in
  let g = Prng.create ~seed:2 () in
  let ti_violations = ref 0 in
  for _ = 1 to samples do
    if Instance.size (Ti_table.sample ti_same_marginals g) > 1 then
      incr ti_violations
  done;
  Printf.printf
    "The TI table with identical marginals: %d violations (%.2f%%) - keys\n\
     need BID, not TI (Definition 4.11).\n\n"
    !ti_violations
    (100.0 *. float_of_int !ti_violations /. float_of_int samples);

  (* Cross-block independence, sampled. *)
  let gap =
    Sampler.independence_gap ~seed:3 ~samples draw
      (Fact.make "LivesIn" [ i 0; s "aachen" ])
      (Fact.make "LivesIn" [ i 1; s "berlin" ])
  in
  Printf.printf "Cross-person independence gap (sampled): %.5f (noise ~ %.5f)\n"
    gap
    (1.0 /. sqrt (float_of_int samples));

  (* Truncate to a finite BID table and query it exactly. *)
  let table = Countable_bid.truncate b ~n_blocks:4 ~alts_per_block:3 in
  let pdb = Finite_pdb.of_bid table in
  let phi =
    Fo_parse.parse_exn "exists x. LivesIn(x, \"aachen\") & !LivesIn(x, \"berlin\")"
  in
  Printf.printf
    "\nOn the 4-block truncation: P[ someone is in aachen (and per the key\n\
     not in berlin) ] = %s\n"
    (Rational.to_decimal_string ~digits:6 (Query_eval.boolean_finite pdb phi));
  Printf.printf "Worlds in the truncation: %d; partition sum = %s (exact)\n"
    (Finite_pdb.num_worlds pdb)
    (Rational.to_string
       (List.fold_left
          (fun acc (_, p) -> Rational.add acc p)
          Rational.zero (Finite_pdb.worlds pdb)))
