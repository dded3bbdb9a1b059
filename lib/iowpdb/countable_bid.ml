(* Countable BID PDBs: a lazy enumeration of blocks with a tail
   certificate on block masses. *)

type block = {
  id : string;
  mass : Rational.t;
  mutable cache : (Fact.t * Rational.t) list; (* reversed prefix *)
  mutable rest : (Fact.t * Rational.t) Seq.t;
  mutable exhausted : bool;
}

let block ~id ?mass alts =
  match mass with
  | Some m ->
    if not (Rational.is_probability m) then
      invalid_arg "Countable_bid.block: mass out of range";
    { id; mass = m; cache = []; rest = alts; exhausted = false }
  | None ->
    (* Force the sequence; it must be finite when mass is omitted. *)
    let l = List.of_seq alts in
    let m =
      List.fold_left (fun acc (_, p) -> Rational.add acc p) Rational.zero l
    in
    if not (Rational.is_probability m) then
      invalid_arg
        (Printf.sprintf "Countable_bid.block %s: alternatives sum to %s" id
           (Rational.to_string m));
    { id; mass = m; cache = List.rev l; rest = Seq.empty; exhausted = true }

let block_finite ~id alts = block ~id (List.to_seq alts)

let block_mass b = b.mass
let block_slack b = Rational.compl b.mass

let pull_alt b =
  if b.exhausted then false
  else begin
    match b.rest () with
    | Seq.Nil ->
      b.exhausted <- true;
      false
    | Seq.Cons ((f, p), rest) ->
      if Rational.sign p <= 0 || Rational.compare p Rational.one > 0 then
        invalid_arg
          (Printf.sprintf "Countable_bid.block %s: bad probability for %s" b.id
             (Fact.to_string f));
      b.rest <- rest;
      b.cache <- (f, p) :: b.cache;
      true
  end

let alternatives ?(limit = 1 lsl 12) b =
  let continue = ref true in
  while List.length b.cache < limit && !continue do
    continue := pull_alt b
  done;
  let l = List.rev b.cache in
  if List.length l > limit then List.filteri (fun i _ -> i < limit) l else l

type t = {
  name : string;
  tail : int -> float option;
  mutable bcache : block array;
  mutable blen : int;
  mutable brest : block Seq.t;
  mutable bexhausted : bool;
}

let push t b =
  if t.blen = Array.length t.bcache then begin
    let cap = Stdlib.max 8 (2 * Array.length t.bcache) in
    let data = Array.make cap b in
    Array.blit t.bcache 0 data 0 t.blen;
    t.bcache <- data
  end;
  t.bcache.(t.blen) <- b;
  t.blen <- t.blen + 1

let pull_block t =
  if t.bexhausted then false
  else begin
    match t.brest () with
    | Seq.Nil ->
      t.bexhausted <- true;
      false
    | Seq.Cons (b, rest) ->
      t.brest <- rest;
      if Array.exists (fun b' -> b'.id = b.id) (Array.sub t.bcache 0 t.blen)
      then
        invalid_arg
          (Printf.sprintf "Countable_bid: duplicate block id %s" b.id);
      push t b;
      true
  end

let nth_block t i =
  let continue = ref true in
  while t.blen <= i && !continue do
    continue := pull_block t
  done;
  if i < t.blen then Some t.bcache.(i) else None

let tail_mass t n =
  ignore (nth_block t n);
  if t.bexhausted && t.blen <= n then Some 0.0 else t.tail n

(* Theorem 4.15's test, the one [Fact_source.converges] runs.  The raw
   certificate is searched first, up to 2^20: that never forces the
   block enumeration, so a certificate answering only at depth is found
   without materializing thousands of blocks.  Only if it certifies
   nothing is a shallow search run through [tail_mass], which forces
   blocks and so detects a finite enumeration whose tail is exactly 0. *)
let certified t =
  Fact_source.uncertified t.tail = None
  || Fact_source.uncertified ~max_n:1024 (tail_mass t) = None

let make name blocks tail =
  { name; tail; bcache = [||]; blen = 0; brest = blocks; bexhausted = false }

let create ?(name = "bid") ~blocks ~tail () =
  let t = make name blocks tail in
  if certified t then t
  else
    invalid_arg
      (Printf.sprintf
         "Countable_bid.create: %s has no convergence certificate (Theorem \
          4.15)"
         name)

let of_finite_blocks ?(name = "bid-finite") bs =
  let arr = Array.of_list bs in
  let n = Array.length arr in
  let suffix = Fact_source.suffix_bounds n (fun i -> arr.(i).mass) in
  create ~name
    ~blocks:(Array.to_seq arr)
    ~tail:(fun k -> Some suffix.(Stdlib.min k n))
    ()

let marginal t f =
  let block_scan = 512 and alt_scan = 512 in
  let rec go i =
    if i >= block_scan then None
    else begin
      match nth_block t i with
      | None -> None
      | Some b -> (
          match
            List.find_opt (fun (f', _) -> Fact.equal f f') (alternatives ~limit:alt_scan b)
          with
          | Some (_, p) -> Some p
          | None -> go (i + 1))
    end
  in
  go 0

let expected_size_bounds t ~n =
  let prefix = ref 0.0 in
  for i = 0 to n - 1 do
    match nth_block t i with
    | Some b -> prefix := !prefix +. Rational.to_float b.mass
    | None -> ()
  done;
  match tail_mass t n with
  | Some tail -> (!prefix, !prefix +. tail)
  | None -> assert false

let truncate t ~n_blocks ~alts_per_block =
  let rec collect i acc =
    if i >= n_blocks then List.rev acc
    else begin
      match nth_block t i with
      | None -> List.rev acc
      | Some b ->
        let alts = alternatives ~limit:alts_per_block b in
        collect (i + 1)
          ({ Bid_table.block_id = b.id; alternatives = alts } :: acc)
    end
  in
  Bid_table.create (collect 0 [])

(* Blocks before the sampling cut of the block-mass tail; in each, the
   alternatives until the remaining in-block mass is at most
   [Sampler.tail_cut].  A drawn world differs from a true draw only if a
   dropped block fires or a kept block's true draw lands in its dropped
   alternatives, so tv <= block tail + sum of dropped in-block masses. *)
let sampler t =
  let n, tail = Sampler.cut ~what:t.name (tail_mass t) in
  let keep_alts mass alts =
    let rec take acc m = function
      | [] -> (acc, m)
      | (f, p) :: rest ->
        let pf = Rational.to_float p in
        let acc = (f, pf) :: acc and m = m +. pf in
        if mass -. m <= Sampler.tail_cut then (acc, m) else take acc m rest
    in
    take [] 0.0 alts
  in
  let rec scan i blocks_rev dropped =
    match if i < n then nth_block t i else None with
    | None -> (List.rev blocks_rev, dropped +. tail)
    | Some b ->
      let mass = Rational.to_float b.mass in
      let alts = alternatives ~limit:Sampler.max_depth b in
      let kept_rev, kept_mass = keep_alts mass alts in
      let kept = List.rev kept_rev in
      let block =
        (Array.of_list (List.map fst kept), Array.of_list (List.map snd kept))
      in
      scan (i + 1) (block :: blocks_rev)
        (dropped +. Float.max 0.0 (mass -. kept_mass))
  in
  let blocks, tv = scan 0 [] 0.0 in
  let blocks = Array.of_list blocks in
  let draw g =
    Array.fold_left
      (fun acc (facts, probs) ->
        (* Sequential inversion over the kept alternatives; the dropped
           mass collapses into "no fact from this block". *)
        let u = ref (Prng.float g) in
        let rec go j =
          if j >= Array.length probs then acc
          else if !u < probs.(j) then Instance.add facts.(j) acc
          else begin
            u := !u -. probs.(j);
            go (j + 1)
          end
        in
        go 0)
      Instance.empty blocks
  in
  let support =
    List.concat_map (fun (facts, _) -> Array.to_list facts) (Array.to_list blocks)
  in
  { Sampler.draw; tv; support }
