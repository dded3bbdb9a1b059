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

(* The depth probed to when no certificate answers, [None] once one
   does.  The raw certificate is searched first, up to 2^20: that never
   forces the block enumeration, so a certificate answering only at depth
   is found without materializing thousands of blocks.  Only if it stays
   silent is a shallow search run through [tail_mass], which forces
   blocks and so detects a finite enumeration whose tail is exactly 0. *)
let uncertified t =
  match Fact_source.search t.tail infinity with
  | Fact_source.Found _ | Too_slow _ -> None
  | Silent probed_to -> (
    match Fact_source.search ~max_n:1024 (tail_mass t) infinity with
    | Found _ | Too_slow _ -> None
    | Silent _ -> Some probed_to)

let make name blocks tail =
  { name; tail; bcache = [||]; blen = 0; brest = blocks; bexhausted = false }

let create ?(name = "bid") ~blocks ~tail () =
  let t = make name blocks tail in
  match uncertified t with
  | None -> t
  | Some _ ->
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

let name t = t.name

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

let nth_alt b i =
  let continue = ref true in
  while List.length b.cache <= i && !continue do
    continue := pull_alt b
  done;
  List.nth_opt (List.rev b.cache) i

let sample ?(tail_cut = ldexp 1.0 (-20)) ?(max_blocks = 4096) t g =
  let sample_block b =
    (* Sequential inversion, pulling alternatives on demand: stop once
       the chosen point falls in a fact's interval or the remaining
       in-block mass is below the cut (so infinite blocks terminate after
       O(log 1/tail_cut) pulls for geometric-type alternatives). *)
    let u = ref (Prng.float g) in
    let remaining = ref (Rational.to_float b.mass) in
    let rec go idx =
      match nth_alt b idx with
      | None -> None
      | Some (f, p) ->
        let pf = Rational.to_float p in
        if !u < pf then Some f
        else begin
          u := !u -. pf;
          remaining := !remaining -. pf;
          if !remaining <= tail_cut then None else go (idx + 1)
        end
    in
    go 0
  in
  (* Blocks before the least certified block tail below the cut, capped
     at max_blocks. *)
  let n =
    match Fact_source.search ~max_n:max_blocks (tail_mass t) tail_cut with
    | Found (n, _) | Too_slow (n, _) -> n
    | Silent _ -> max_blocks
  in
  let rec go i acc =
    if i >= n then acc
    else
      match nth_block t i with
      | None -> acc
      | Some b ->
        let acc =
          match sample_block b with Some f -> Instance.add f acc | None -> acc
        in
        go (i + 1) acc
  in
  go 0 Instance.empty
