(* A sampling plan: [draw] reads nothing but immutable arrays built
   when the plan was, so one plan serves every domain at once. *)
type t = {
  draw : Prng.t -> Instance.t;
  tv : float;
  support : Fact.t list;
}

let tail_cut = ldexp 1.0 (-20)
let max_depth = 4096

(* The least n whose certified tail is at most [tail_cut]; a certificate
   too weak to get there within [max_depth] terms is cut at the deepest
   answer, whose tail becomes the TV bound. *)
let cut ~what tail =
  match Fact_source.search ~max_n:max_depth tail tail_cut with
  | Found (n, t) | Too_slow (n, t) -> (n, t)
  | Silent _ ->
    invalid_arg
      (Printf.sprintf "Sampler: %s certifies no tail within %d terms" what
         max_depth)

(* Each draw runs on its own substream of the seed generator, so draw [i]
   is a function of [(seed, i)] alone: re-traversing the sequence (Seq is
   not memoized) or consuming it out of order replays identical worlds.
   The previous version threaded ONE mutable generator through Seq.init,
   so a second traversal silently continued the stream. *)
let draws ~seed ~samples sampler =
  let base = Prng.create ~seed () in
  Seq.init samples (fun i -> sampler (Prng.substream base i))

let estimate_event ~seed ~samples sampler event =
  let hits =
    Seq.fold_left
      (fun acc inst -> if event inst then acc + 1 else acc)
      0
      (draws ~seed ~samples sampler)
  in
  float_of_int hits /. float_of_int samples

let estimate_marginal ~seed ~samples sampler f =
  estimate_event ~seed ~samples sampler (fun inst -> Instance.mem f inst)

let independence_gap ~seed ~samples sampler f g =
  let both = ref 0 and cf = ref 0 and cg = ref 0 in
  Seq.iter
    (fun inst ->
      let hf = Instance.mem f inst and hg = Instance.mem g inst in
      if hf then incr cf;
      if hg then incr cg;
      if hf && hg then incr both)
    (draws ~seed ~samples sampler);
  let n = float_of_int samples in
  Float.abs
    ((float_of_int !both /. n)
     -. (float_of_int !cf /. n *. (float_of_int !cg /. n)))

let exclusivity_violations ~seed ~samples sampler block_of =
  let violations = ref 0 in
  Seq.iter
    (fun inst ->
      let seen = Hashtbl.create 8 in
      let bad = ref false in
      Instance.iter
        (fun f ->
          match block_of f with
          | None -> ()
          | Some b ->
            if Hashtbl.mem seen b then bad := true else Hashtbl.add seen b ())
        inst;
      if !bad then incr violations)
    (draws ~seed ~samples sampler);
  !violations
