(* Memoized countable enumerations of weighted facts.  The enumeration is
   pulled lazily; every pulled entry is validated (distinct fact,
   probability in (0,1]) and cached for random access. *)

(* Minimal growable array (the stdlib gains Dynarray only in 5.2). *)
module Dyn = struct
  type 'a t = { mutable data : 'a array; mutable len : int }

  let create () = { data = [||]; len = 0 }
  let length d = d.len

  let get d i =
    if i < 0 || i >= d.len then invalid_arg "Dyn.get" else d.data.(i)

  let add_last d x =
    if d.len = Array.length d.data then begin
      let cap = Stdlib.max 8 (2 * Array.length d.data) in
      let data = Array.make cap x in
      Array.blit d.data 0 data 0 d.len;
      d.data <- data
    end;
    d.data.(d.len) <- x;
    d.len <- d.len + 1
end

type t = {
  name : string;
  tail : int -> float option;
  cache : (Fact.t * Rational.t) Dyn.t;
  index : (Fact.t, int) Hashtbl.t;
  mutable rest : (Fact.t * Rational.t) Seq.t;
  mutable exhausted : bool;
}

let scan_bound = 2048

let c_pull = Stats.counter "source.pull"
let c_tail_probe = Stats.counter "source.tail_probe"

let make ?(name = "source") ~enum ~tail () =
  {
    name;
    tail;
    cache = Dyn.create ();
    index = Hashtbl.create 64;
    rest = enum;
    exhausted = false;
  }

let name s = s.name

(* Pull one more entry into the cache; false at end of enumeration. *)
let pull s =
  if s.exhausted then false
  else begin
    Stats.incr c_pull;
    match s.rest () with
    | Seq.Nil ->
      s.exhausted <- true;
      false
    | Seq.Cons ((f, p), rest) ->
      s.rest <- rest;
      if Rational.sign p <= 0 || Rational.compare p Rational.one > 0 then
        invalid_arg
          (Printf.sprintf "Fact_source %s: probability %s for %s not in (0,1]"
             s.name (Rational.to_string p) (Fact.to_string f));
      if Hashtbl.mem s.index f then
        invalid_arg
          (Printf.sprintf "Fact_source %s: duplicate fact %s" s.name
             (Fact.to_string f));
      Hashtbl.add s.index f (Dyn.length s.cache);
      Dyn.add_last s.cache (f, p);
      true
  end

let ensure s n =
  let continue = ref true in
  while Dyn.length s.cache < n && !continue do
    continue := pull s
  done

let nth s i =
  if i < 0 then invalid_arg "Fact_source.nth";
  ensure s (i + 1);
  if i < Dyn.length s.cache then Some (Dyn.get s.cache i) else None

let prob s f =
  match Hashtbl.find_opt s.index f with
  | Some i -> Some (snd (Dyn.get s.cache i))
  | None ->
    let rec go () =
      match Hashtbl.find_opt s.index f with
      | Some i -> Some (snd (Dyn.get s.cache i))
      | None ->
        if Dyn.length s.cache >= scan_bound || not (pull s) then None
        else go ()
    in
    go ()

let prefix s n =
  ensure s n;
  let len = Stdlib.min n (Dyn.length s.cache) in
  List.init len (Dyn.get s.cache)

let tail_mass s n =
  (* If the enumeration is already known to be exhausted at or before n,
     the tail is exactly 0 regardless of the certificate.  We deliberately
     do NOT force the enumeration here: callers probe tails at very deep n
     (truncation search), and the certificate alone must answer. *)
  Stats.incr c_tail_probe;
  if s.exhausted && Dyn.length s.cache <= n then Some 0.0 else s.tail n

let default_max_n = 1 lsl 20

type search = Found of int * float | Too_slow of int * float | Silent of int

let search ?(max_n = default_max_n) tail bound =
  if not (bound >= 0.0 && max_n >= 0) then invalid_arg "Fact_source.search";
  (* Gallop 0, 1, 3, 7, ... (capped at max_n) until the certificate
     answers within [bound], then bisect the gap above the last failing
     probe.  Every index is probed at most once and the value observed at
     the answer is returned, so callers never re-ask the certificate
     (whose answers may depend on mutable scan state or a probe budget).
     The gallop stops at or below 2n+1 for an answer n, and [max_n] is
     asked only if the gallop gets there. *)
  let rec bisect lo hi best =
    (* least answer in [lo, hi], whose value at [hi] is [best] *)
    if lo >= hi then Found (hi, best)
    else begin
      let mid = (lo + hi) / 2 in
      match tail mid with
      | Some t when t <= bound -> bisect lo mid t
      | _ -> bisect (mid + 1) hi best
    end
  in
  let rec gallop lo n deepest =
    match tail n with
    | Some t when t <= bound -> bisect lo n t
    | r ->
      let deepest = match r with Some t -> Some (n, t) | None -> deepest in
      if n < max_n then gallop (n + 1) (Stdlib.min max_n ((2 * n) + 1)) deepest
      else begin
        match deepest with
        | Some (n, t) -> Too_slow (n, t)
        | None -> Silent max_n
      end
  in
  gallop 0 0 None

let converges ?max_n s =
  match search ?max_n (tail_mass s) infinity with
  | Found _ -> true
  | Too_slow _ | Silent _ -> false

let prefix_sum s n =
  List.fold_left (fun acc (_, p) -> Rational.add acc p) Rational.zero (prefix s n)

let truncate s n = Ti_table.create (prefix s n)

(* ------------------------------------------------------------------ *)
(* Constructors *)
(* ------------------------------------------------------------------ *)

(* [to_float] and [+.] both round to nearest, at most half an ulp below
   the exact value, so one [Float.succ] after each keeps every partial
   sum at or above the exact rational suffix however many terms are
   summed.  A fixed relative headroom would not: the rounding error grows
   with the number of terms. *)
let suffix_bounds n prob =
  let suffix = Array.make (n + 1) 0.0 in
  for i = n - 1 downto 0 do
    suffix.(i) <-
      Float.succ (suffix.(i + 1) +. Float.succ (Rational.to_float (prob i)))
  done;
  suffix

let of_list ?(name = "finite") entries =
  let arr = Array.of_list entries in
  let n = Array.length arr in
  let suffix = suffix_bounds n (fun i -> snd arr.(i)) in
  let src =
    make ~name
      ~enum:(Seq.init n (Array.get arr))
      ~tail:(fun k -> Some suffix.(Stdlib.min k n))
      ()
  in
  ensure src n;
  src

let of_ti_table ti = of_list ~name:"ti-table" (Ti_table.facts ti)

let geometric ?name ~first ~ratio ~facts () =
  let module Q = Rational in
  if not (Q.sign first > 0 && Q.compare first Q.one <= 0) then
    invalid_arg "Fact_source.geometric: first not in (0,1]";
  if not (Q.sign ratio > 0 && Q.compare ratio Q.one < 0) then
    invalid_arg "Fact_source.geometric: ratio not in (0,1)";
  let name =
    Option.value name
      ~default:
        (Printf.sprintf "geometric(%s,%s)" (Q.to_string first)
           (Q.to_string ratio))
  in
  let term i = Q.mul first (Q.pow ratio i) in
  (* Enumerate incrementally (one multiplication per step) rather than
     recomputing ratio^i: the exact numerators/denominators grow linearly
     in bits, so per-index pow would make deep scans quadratic. *)
  let enum =
    Seq.unfold
      (fun (i, p) -> Some ((facts i, p), (i + 1, Q.mul p ratio)))
      (0, first)
  in
  (* Exact tail: first * ratio^n / (1 - ratio), nudged one float ulp up. *)
  let tail n = Some (Float.succ (Q.to_float (Q.div (term n) (Q.compl ratio)))) in
  make ~name ~enum ~tail ()

let telescoping ?name ~mass ~facts () =
  let module Q = Rational in
  if Q.sign mass <= 0 then invalid_arg "Fact_source.telescoping: mass <= 0";
  let term i = Q.div mass (Q.of_int ((i + 1) * (i + 2))) in
  if Q.compare (term 0) Q.one > 0 then
    invalid_arg "Fact_source.telescoping: first term above 1";
  let name =
    Option.value name
      ~default:(Printf.sprintf "telescoping(%s)" (Q.to_string mass))
  in
  let enum = Seq.map (fun i -> (facts i, term i)) (Seq.ints 0) in
  (* sum_{i>=n} mass/((i+1)(i+2)) = mass/(n+1), exactly. *)
  let tail n = Some (Float.succ (Q.to_float (Q.div mass (Q.of_int (n + 1))))) in
  make ~name ~enum ~tail ()

let divergent_harmonic ?name ~scale ~facts () =
  let module Q = Rational in
  if Q.sign scale <= 0 then invalid_arg "Fact_source.divergent_harmonic";
  let name =
    Option.value name
      ~default:(Printf.sprintf "harmonic(%s)" (Q.to_string scale))
  in
  let term i = Q.min Q.one (Q.div scale (Q.of_int (i + 1))) in
  let enum = Seq.map (fun i -> (facts i, term i)) (Seq.ints 0) in
  make ~name ~enum ~tail:(fun _ -> None) ()

let seq_of s =
  Seq.unfold (fun i -> Option.map (fun e -> (e, i + 1)) (nth s i)) 0

let with_budget b s =
  (* Charge one Facts unit per entry pulled through the wrapper and one
     Probes unit per tail-certificate consultation; the checkpoint comes
     first, so a budget capped at [n] units admits exactly [n] accesses
     and raises [Budget.Exhausted] on access [n+1].  Entries already
     cached in the wrapper are free (its [make] memoizes as usual). *)
  let enum =
    Seq.unfold
      (fun i ->
        Budget.checkpoint b;
        Budget.spend b Budget.Facts 1;
        Option.map (fun e -> (e, i + 1)) (nth s i))
      0
  in
  make
    ~name:("budget:" ^ s.name)
    ~enum
    ~tail:(fun n ->
      Budget.checkpoint b;
      Budget.spend b Budget.Probes 1;
      tail_mass s n)
    ()

let append_finite entries s =
  let arr = Array.of_list entries in
  let k = Array.length arr in
  let suffix = suffix_bounds k (fun i -> snd arr.(i)) in
  make
    ~name:(Printf.sprintf "%d+%s" k s.name)
    ~enum:(Seq.append (Array.to_seq arr) (seq_of s))
    ~tail:(fun n ->
      if n >= k then tail_mass s (n - k)
      else
        Option.map
          (fun t -> Float.succ (suffix.(n) +. t))
          (tail_mass s 0))
    ()

let interleave a b =
  let enum =
    let rec go ia ib turn_a () =
      if turn_a then begin
        match nth a ia with
        | Some e -> Seq.Cons (e, go (ia + 1) ib false)
        | None -> (
            match nth b ib with
            | Some e -> Seq.Cons (e, go ia (ib + 1) false)
            | None -> Seq.Nil)
      end
      else begin
        match nth b ib with
        | Some e -> Seq.Cons (e, go ia (ib + 1) true)
        | None -> (
            match nth a ia with
            | Some e -> Seq.Cons (e, go (ia + 1) ib true)
            | None -> Seq.Nil)
      end
    in
    go 0 0 true
  in
  make
    ~name:(Printf.sprintf "(%s||%s)" a.name b.name)
    ~enum
    ~tail:(fun n ->
      (* After n interleaved entries at least floor(n/2) came from each
         side (unless a side ran dry, in which case its tail is 0 and the
         bound below is still sound). *)
      match (tail_mass a (n / 2), tail_mass b (n / 2)) with
      | Some ta, Some tb -> Some (ta +. tb)
      | _ -> None)
    ()
