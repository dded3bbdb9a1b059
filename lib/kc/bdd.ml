(* Reduced ordered BDDs, struct-of-arrays edition.

   Canonicity invariant: no node has lo == hi, and no two distinct live
   nodes have equal (var, lo, hi); hence semantic equality of functions
   is equality of root indices within one manager.

   Layout: a node is an index into four parallel int arrays (var, level,
   lo, hi).  Indices 0 and 1 are the false/true leaves.  The unique
   table is an open-addressing array of node indices; the operation
   cache is direct-mapped and lossy (BuDDy-style), keyed by a single
   tagged int [(a lsl 3) lor op] plus the raw operand ints — a lookup
   touches a handful of int cells and allocates nothing.

   Garbage collection is mark-and-sweep from registered roots (plus an
   internal scratch stack that pins intermediates during [of_expr]).
   Freed indices are threaded into a freelist through [lo_a]; a sweep
   rebuilds the unique table over live nodes and invalidates the
   operation cache, since cached entries may name recycled indices.  GC
   runs only at compilation safe points, never inside an apply recursion
   whose operands live on the OCaml stack unrooted. *)

(* Hot-path instrumentation: single-int bumps, read via Stats.snapshot. *)
let c_unique_hit = Stats.counter "bdd.unique.hit"
let c_nodes = Stats.counter "bdd.nodes_allocated"
let c_apply_hit = Stats.counter "bdd.apply.hit"
let c_apply_miss = Stats.counter "bdd.apply.miss"
let c_gc_runs = Stats.counter "bdd.gc.runs"
let c_gc_swept = Stats.counter "bdd.gc.swept"

type manager = {
  order : int -> int;
  tick : unit -> unit; (* called once per fresh node; may raise to abort *)
  on_free : int -> unit; (* called with the freed count after a sweep *)
  (* Node store.  var_a.(i) >= 0: live internal node; -1: free slot
     (freelist threaded through lo_a); -2: leaf.  Leaves sit at indices
     0 (false) and 1 (true) with level max_int. *)
  mutable var_a : int array;
  mutable level_a : int array;
  mutable lo_a : int array;
  mutable hi_a : int array;
  mutable mark_a : Bytes.t;
  mutable n_top : int; (* bump allocator frontier *)
  mutable free_head : int; (* head of the freelist, -1 if empty *)
  mutable live : int;
  mutable peak : int;
  mutable allocated : int; (* monotone: every alloc_node ever *)
  mutable alloc_since_gc : int;
  (* Unique table: open addressing over node indices, -1 = empty.  No
     tombstones — deletion happens only via wholesale rebuild in [gc]. *)
  mutable u_idx : int array;
  mutable u_mask : int;
  mutable u_fill : int;
  (* Direct-mapped operation cache.  c_k holds the packed tag
     [(a lsl 3) lor op] (-1 = empty), c_b/c_c the remaining operands
     (0 when unused), c_r the result index. *)
  c_k : int array;
  c_b : int array;
  c_c : int array;
  c_r : int array;
  c_mask : int;
  gc_threshold : int;
  roots : (int, int) Hashtbl.t; (* root index -> protect count *)
  mutable tmp_a : int array; (* scratch roots pinned during of_expr *)
  mutable tmp_len : int;
}

type t = { mgr : manager; idx : int }

let op_and = 0
let op_or = 1
let op_xor = 2
let op_not = 3
let op_ite = 4

let rec round_pow2 acc n = if acc >= n then acc else round_pow2 (acc * 2) n

let default_cache_size = 1 lsl 11

let effective_cache_size requested =
  if requested <= 0 then
    invalid_arg "Bdd.effective_cache_size: cache_size must be positive";
  round_pow2 64 requested

let manager ?(order = Fun.id) ?(tick = Fun.id) ?(on_free = fun _ -> ())
    ?(cache_size = default_cache_size) ?(gc_threshold = max_int) () =
  if cache_size <= 0 then
    invalid_arg "Bdd.manager: cache_size must be positive";
  if gc_threshold <= 0 then
    invalid_arg "Bdd.manager: gc_threshold must be positive";
  let cap = 1024 in
  let csz = round_pow2 64 cache_size in
  let m =
    {
      order;
      tick;
      on_free;
      var_a = Array.make cap (-1);
      level_a = Array.make cap 0;
      lo_a = Array.make cap 0;
      hi_a = Array.make cap 0;
      mark_a = Bytes.make cap '\000';
      n_top = 2;
      free_head = -1;
      live = 0;
      peak = 0;
      allocated = 0;
      alloc_since_gc = 0;
      u_idx = Array.make 2048 (-1);
      u_mask = 2047;
      u_fill = 0;
      c_k = Array.make csz (-1);
      c_b = Array.make csz 0;
      c_c = Array.make csz 0;
      c_r = Array.make csz 0;
      c_mask = csz - 1;
      gc_threshold;
      roots = Hashtbl.create 16;
      tmp_a = Array.make 64 0;
      tmp_len = 0;
    }
  in
  m.var_a.(0) <- -2;
  m.var_a.(1) <- -2;
  m.level_a.(0) <- max_int;
  m.level_a.(1) <- max_int;
  m

let tru m = { mgr = m; idx = 1 }
let fls m = { mgr = m; idx = 0 }

(* Multiplicative mixing of three ints; masked by the caller. *)
let hash3 a b c =
  let h = (a * 0x9e3779b1) lxor (b * 0x85ebca6b) lxor (c * 0xc2b2ae35) in
  h lxor (h lsr 15)

(* -------------------- unique table -------------------- *)

let u_lookup m var lo hi =
  let mask = m.u_mask in
  let rec go i =
    let n = m.u_idx.(i) in
    if n < 0 then -1
    else if m.var_a.(n) = var && m.lo_a.(n) = lo && m.hi_a.(n) = hi then n
    else go ((i + 1) land mask)
  in
  go (hash3 var lo hi land mask)

(* Insert without a load-factor check: used by [u_grow] and the GC
   rebuild, where capacity is known sufficient. *)
let u_put m n =
  let mask = m.u_mask in
  let rec go i =
    if m.u_idx.(i) < 0 then begin
      m.u_idx.(i) <- n;
      m.u_fill <- m.u_fill + 1
    end
    else go ((i + 1) land mask)
  in
  go (hash3 m.var_a.(n) m.lo_a.(n) m.hi_a.(n) land mask)

let u_grow m =
  let old = m.u_idx in
  let size = (m.u_mask + 1) * 2 in
  m.u_idx <- Array.make size (-1);
  m.u_mask <- size - 1;
  m.u_fill <- 0;
  Array.iter (fun n -> if n >= 0 then u_put m n) old

(* -------------------- node allocation -------------------- *)

let grow_nodes m =
  let cap = Array.length m.var_a in
  let ncap = 2 * cap in
  let g a = Array.append a (Array.make cap (-1)) in
  m.var_a <- g m.var_a;
  m.level_a <- g m.level_a;
  m.lo_a <- g m.lo_a;
  m.hi_a <- g m.hi_a;
  let nb = Bytes.make ncap '\000' in
  Bytes.blit m.mark_a 0 nb 0 cap;
  m.mark_a <- nb

let alloc_node m var lo hi =
  m.tick ();
  let i =
    if m.free_head >= 0 then begin
      let i = m.free_head in
      m.free_head <- m.lo_a.(i);
      i
    end
    else begin
      if m.n_top = Array.length m.var_a then grow_nodes m;
      let i = m.n_top in
      m.n_top <- m.n_top + 1;
      i
    end
  in
  m.var_a.(i) <- var;
  m.level_a.(i) <- m.order var;
  m.lo_a.(i) <- lo;
  m.hi_a.(i) <- hi;
  m.live <- m.live + 1;
  if m.live > m.peak then m.peak <- m.live;
  m.allocated <- m.allocated + 1;
  m.alloc_since_gc <- m.alloc_since_gc + 1;
  Stats.incr c_nodes;
  i

let mk m var lo hi =
  if lo = hi then lo
  else begin
    let found = u_lookup m var lo hi in
    if found >= 0 then begin
      Stats.incr c_unique_hit;
      found
    end
    else begin
      let n = alloc_node m var lo hi in
      if (m.u_fill + 1) * 4 > (m.u_mask + 1) * 3 then u_grow m;
      u_put m n;
      n
    end
  end

let var m v = { mgr = m; idx = mk m v 0 1 }

(* -------------------- shared apply core -------------------- *)

(* All connectives go through the one direct-mapped cache.  Entries are
   written after the recursion; a colliding write simply overwrites. *)

let rec neg_i m a =
  if a < 2 then a lxor 1
  else begin
    let k = (a lsl 3) lor op_not in
    let i = hash3 k 0 0 land m.c_mask in
    if m.c_k.(i) = k && m.c_b.(i) = 0 && m.c_c.(i) = 0 then begin
      Stats.incr c_apply_hit;
      m.c_r.(i)
    end
    else begin
      Stats.incr c_apply_miss;
      let v = m.var_a.(a) and lo = m.lo_a.(a) and hi = m.hi_a.(a) in
      let r = mk m v (neg_i m lo) (neg_i m hi) in
      m.c_k.(i) <- k;
      m.c_b.(i) <- 0;
      m.c_c.(i) <- 0;
      m.c_r.(i) <- r;
      r
    end
  end

let rec apply2 m op a b =
  (* Terminal shortcuts per connective. *)
  if op = op_and then
    if a = 0 || b = 0 then 0
    else if a = 1 then b
    else if b = 1 then a
    else if a = b then a
    else apply_node m op a b
  else if op = op_or then
    if a = 1 || b = 1 then 1
    else if a = 0 then b
    else if b = 0 then a
    else if a = b then a
    else apply_node m op a b
  else if a = 0 then b
  else if b = 0 then a
  else if a = b then 0
  else if a = 1 then neg_i m b
  else if b = 1 then neg_i m a
  else apply_node m op a b

and apply_node m op a b =
  (* All three binary connectives are commutative: canonicalize the key. *)
  let a, b = if a <= b then (a, b) else (b, a) in
  let k = (a lsl 3) lor op in
  let i = hash3 k b 0 land m.c_mask in
  if m.c_k.(i) = k && m.c_b.(i) = b && m.c_c.(i) = 0 then begin
    Stats.incr c_apply_hit;
    m.c_r.(i)
  end
  else begin
    Stats.incr c_apply_miss;
    let la = m.level_a.(a) and lb = m.level_a.(b) in
    let r =
      if la < lb then begin
        let v = m.var_a.(a) and lo = m.lo_a.(a) and hi = m.hi_a.(a) in
        mk m v (apply2 m op lo b) (apply2 m op hi b)
      end
      else if lb < la then begin
        let v = m.var_a.(b) and lo = m.lo_a.(b) and hi = m.hi_a.(b) in
        mk m v (apply2 m op a lo) (apply2 m op a hi)
      end
      else begin
        let v = m.var_a.(a) in
        let alo = m.lo_a.(a) and ahi = m.hi_a.(a) in
        let blo = m.lo_a.(b) and bhi = m.hi_a.(b) in
        mk m v (apply2 m op alo blo) (apply2 m op ahi bhi)
      end
    in
    (* The recursion may have evicted this slot; recompute nothing, just
       (re)write — the cache is allowed to lose entries, not to lie. *)
    m.c_k.(i) <- k;
    m.c_b.(i) <- b;
    m.c_c.(i) <- 0;
    m.c_r.(i) <- r;
    r
  end

(* ite as a cached primitive.  Standard-triple prefiltering: constant and
   repeated arguments reduce to a leaf, a copy, a negation or one binary
   apply; only irreducible triples reach the cofactor recursion and the
   cache. *)
let rec ite_i m f g h =
  if f = 1 then g
  else if f = 0 then h
  else if g = h then g
  else if g = 1 && h = 0 then f
  else if g = 0 && h = 1 then neg_i m f
  else if g = 1 then apply2 m op_or f h
  else if g = 0 then apply2 m op_and (neg_i m f) h
  else if h = 0 then apply2 m op_and f g
  else if h = 1 then apply2 m op_or (neg_i m f) g
  else if f = g then apply2 m op_or f h
  else if f = h then apply2 m op_and f g
  else begin
    let k = (f lsl 3) lor op_ite in
    let i = hash3 k g h land m.c_mask in
    if m.c_k.(i) = k && m.c_b.(i) = g && m.c_c.(i) = h then begin
      Stats.incr c_apply_hit;
      m.c_r.(i)
    end
    else begin
      Stats.incr c_apply_miss;
      let lf = m.level_a.(f) and lg = m.level_a.(g) and lh = m.level_a.(h) in
      let l = Stdlib.min lf (Stdlib.min lg lh) in
      let v =
        if lf = l then m.var_a.(f)
        else if lg = l then m.var_a.(g)
        else m.var_a.(h)
      in
      let f0 = if lf = l then m.lo_a.(f) else f in
      let f1 = if lf = l then m.hi_a.(f) else f in
      let g0 = if lg = l then m.lo_a.(g) else g in
      let g1 = if lg = l then m.hi_a.(g) else g in
      let h0 = if lh = l then m.lo_a.(h) else h in
      let h1 = if lh = l then m.hi_a.(h) else h in
      let r = mk m v (ite_i m f0 g0 h0) (ite_i m f1 g1 h1) in
      m.c_k.(i) <- k;
      m.c_b.(i) <- g;
      m.c_c.(i) <- h;
      m.c_r.(i) <- r;
      r
    end
  end

(* -------------------- garbage collection -------------------- *)

let mark_from m start =
  if start >= 2 && Bytes.get m.mark_a start = '\000' then begin
    let stack = ref [ start ] in
    while !stack <> [] do
      match !stack with
      | [] -> ()
      | i :: rest ->
        stack := rest;
        if i >= 2 && Bytes.get m.mark_a i = '\000' then begin
          Bytes.set m.mark_a i '\001';
          stack := m.lo_a.(i) :: m.hi_a.(i) :: !stack
        end
    done
  end

let gc m =
  Stats.incr c_gc_runs;
  Bytes.fill m.mark_a 0 (Bytes.length m.mark_a) '\000';
  Hashtbl.iter (fun i _ -> mark_from m i) m.roots;
  for j = 0 to m.tmp_len - 1 do
    mark_from m m.tmp_a.(j)
  done;
  let swept = ref 0 in
  for i = 2 to m.n_top - 1 do
    if m.var_a.(i) >= 0 && Bytes.get m.mark_a i = '\000' then begin
      m.var_a.(i) <- -1;
      m.lo_a.(i) <- m.free_head;
      m.free_head <- i;
      m.live <- m.live - 1;
      incr swept
    end
  done;
  (* Rebuild the unique table over live nodes and drop the operation
     cache: either may name indices the freelist is about to recycle. *)
  Array.fill m.u_idx 0 (Array.length m.u_idx) (-1);
  m.u_fill <- 0;
  for i = 2 to m.n_top - 1 do
    if m.var_a.(i) >= 0 then u_put m i
  done;
  Array.fill m.c_k 0 (Array.length m.c_k) (-1);
  m.alloc_since_gc <- 0;
  Stats.add c_gc_swept !swept;
  if !swept > 0 then m.on_free !swept;
  !swept

let maybe_gc m = if m.alloc_since_gc >= m.gc_threshold then gc m else 0

let protect t =
  if t.idx >= 2 then begin
    let m = t.mgr in
    let c = Option.value (Hashtbl.find_opt m.roots t.idx) ~default:0 in
    Hashtbl.replace m.roots t.idx (c + 1)
  end

let release t =
  if t.idx >= 2 then begin
    let m = t.mgr in
    match Hashtbl.find_opt m.roots t.idx with
    | None -> ()
    | Some 1 -> Hashtbl.remove m.roots t.idx
    | Some c -> Hashtbl.replace m.roots t.idx (c - 1)
  end

(* -------------------- compilation -------------------- *)

let tmp_push m i =
  if m.tmp_len = Array.length m.tmp_a then
    m.tmp_a <- Array.append m.tmp_a (Array.make m.tmp_len 0);
  m.tmp_a.(m.tmp_len) <- i;
  m.tmp_len <- m.tmp_len + 1

(* Reachable internal-node count of an index; only used to order operands
   of a balanced fold, so a plain visited set is fine. *)
let isize m root =
  let seen = Hashtbl.create 64 in
  let rec go i =
    if i >= 2 && not (Hashtbl.mem seen i) then begin
      Hashtbl.add seen i ();
      go m.lo_a.(i);
      go m.hi_a.(i)
    end
  in
  go root;
  Hashtbl.length seen

let rec build m e =
  match e with
  | Bool_expr.True -> 1
  | Bool_expr.False -> 0
  | Bool_expr.Var v -> mk m v 0 1
  | Bool_expr.Not e -> neg_i m (build m e)
  | Bool_expr.And es -> combine m op_and 1 es
  | Bool_expr.Or es -> combine m op_or 0 es

(* Compile the operands (pinning each on the scratch stack so the GC safe
   points in between see them), then combine small-to-large in balanced
   pairwise rounds: O(n log n) applies where a left fold does O(n^2) work
   on the independent disjunctions lineages are made of. *)
and combine m op unit_ es =
  let base = m.tmp_len in
  List.iter
    (fun e ->
      ignore (maybe_gc m);
      tmp_push m (build m e))
    es;
  let n = ref (m.tmp_len - base) in
  if !n = 0 then begin
    m.tmp_len <- base;
    unit_
  end
  else begin
    let slice = Array.sub m.tmp_a base !n in
    let sizes = Array.map (isize m) slice in
    let order = Array.init !n Fun.id in
    Array.sort (fun i j -> compare sizes.(i) sizes.(j)) order;
    for j = 0 to !n - 1 do
      m.tmp_a.(base + j) <- slice.(order.(j))
    done;
    while !n > 1 do
      m.tmp_len <- base + !n;
      let w = ref 0 and j = ref 0 in
      while !j + 1 < !n do
        ignore (maybe_gc m);
        let r = apply2 m op m.tmp_a.(base + !j) m.tmp_a.(base + !j + 1) in
        m.tmp_a.(base + !w) <- r;
        incr w;
        j := !j + 2
      done;
      if !j < !n then begin
        m.tmp_a.(base + !w) <- m.tmp_a.(base + !j);
        incr w
      end;
      n := !w
    done;
    let r = m.tmp_a.(base) in
    m.tmp_len <- base;
    r
  end

(* -------------------- public wrappers -------------------- *)

let same m t name =
  if t.mgr != m then
    invalid_arg ("Bdd." ^ name ^ ": node from a different manager");
  t.idx

let neg m t = { mgr = m; idx = neg_i m (same m t "neg") }

let conj m a b =
  { mgr = m; idx = apply2 m op_and (same m a "conj") (same m b "conj") }

let disj m a b =
  { mgr = m; idx = apply2 m op_or (same m a "disj") (same m b "disj") }

let xor m a b =
  { mgr = m; idx = apply2 m op_xor (same m a "xor") (same m b "xor") }

let ite m f g h =
  { mgr = m;
    idx = ite_i m (same m f "ite") (same m g "ite") (same m h "ite") }

let of_expr m e = { mgr = m; idx = build m e }
let is_tru t = t.idx = 1
let is_fls t = t.idx = 0
let equal a b = a.mgr == b.mgr && a.idx = b.idx
let node_count m = m.live
let allocated_count m = m.allocated
let peak_count m = m.peak
let cache_size m = m.c_mask + 1

(* -------------------- traversals -------------------- *)

(* The one memoized bottom-up DAG pass every reachability walk in this
   file reduces to: [node] sees each distinct internal node exactly once
   with its children's results. *)
(* [fold_dag_shared] threads an external memo so a batch of roots over
   one manager can share a single bottom-up sweep: a node reachable from
   several roots is folded exactly once across the whole batch. *)
let fold_dag_shared m memo root ~leaf ~node =
  let rec go i =
    if i < 2 then leaf (i = 1)
    else
      match Hashtbl.find_opt memo i with
      | Some r -> r
      | None ->
        let r = node m.var_a.(i) m.level_a.(i) (go m.lo_a.(i)) (go m.hi_a.(i)) in
        Hashtbl.add memo i r;
        r
  in
  go root

let fold_dag m root ~leaf ~node =
  fold_dag_shared m (Hashtbl.create 64) root ~leaf ~node

let size t =
  let n = ref 0 in
  fold_dag t.mgr t.idx
    ~leaf:(fun _ -> ())
    ~node:(fun _ _ () () -> incr n);
  !n

let eval env t =
  let m = t.mgr in
  let rec go i =
    if i < 2 then i = 1
    else go (if env m.var_a.(i) then m.hi_a.(i) else m.lo_a.(i))
  in
  go t.idx

module ISet = Set.Make (Int)

let support t =
  let acc = ref ISet.empty in
  fold_dag t.mgr t.idx
    ~leaf:(fun _ -> ())
    ~node:(fun v _ () () -> acc := ISet.add v !acc);
  ISet.elements !acc

(* Per-node model counts, folded bottom-up over the occurring levels:
   [Count (l, c)] says the sub-BDD rooted at a node of level [l] has [c]
   satisfying assignments over the support variables strictly below its
   own rank. *)
type count = CLeaf of bool | Count of int * Bigint.t

let sat_count t ~over =
  let sup = support t in
  let over_set = ISet.of_list over in
  if not (List.for_all (fun v -> ISet.mem v over_set) sup) then
    invalid_arg "Bdd.sat_count: over must contain the support";
  let levels =
    let acc = ref [] in
    fold_dag t.mgr t.idx
      ~leaf:(fun _ -> ())
      ~node:(fun _ l () () -> acc := l :: !acc);
    List.sort_uniq compare !acc
  in
  let rank = Hashtbl.create 16 in
  List.iteri (fun i l -> Hashtbl.add rank l i) levels;
  let k = List.length levels in
  let pow2 e = Bigint.shift_left Bigint.one e in
  let top =
    fold_dag t.mgr t.idx
      ~leaf:(fun b -> CLeaf b)
      ~node:(fun _ l lo hi ->
        let r = Hashtbl.find rank l in
        let child = function
          | CLeaf false -> Bigint.zero
          | CLeaf true -> pow2 (k - (r + 1))
          | Count (lc, c) ->
            let rc = Hashtbl.find rank lc in
            Bigint.mul (pow2 (rc - (r + 1))) c
        in
        Count (l, Bigint.add (child lo) (child hi)))
  in
  let base =
    match top with
    | CLeaf false -> Bigint.zero
    | CLeaf true -> pow2 k
    | Count (l, c) -> Bigint.mul (pow2 (Hashtbl.find rank l)) c
  in
  let free = List.length over - List.length sup in
  Bigint.mul base (pow2 free)

let any_sat t =
  let m = t.mgr in
  (* Memoize refuted subtrees: a shared false-heavy node is abandoned
     once, not once per path through the diagram above it. *)
  let unsat = Hashtbl.create 16 in
  let rec go acc i =
    if i = 1 then Some (List.rev acc)
    else if i = 0 || Hashtbl.mem unsat i then None
    else begin
      let v = m.var_a.(i) in
      match go ((v, true) :: acc) m.hi_a.(i) with
      | Some _ as r -> r
      | None -> (
        match go ((v, false) :: acc) m.lo_a.(i) with
        | Some _ as r -> r
        | None ->
          Hashtbl.add unsat i ();
          None)
    end
  in
  go [] t.idx

let restrict m t v b =
  let i0 = same m t "restrict" in
  let memo = Hashtbl.create 64 in
  let rec go i =
    if i < 2 then i
    else if m.var_a.(i) = v then go (if b then m.hi_a.(i) else m.lo_a.(i))
    else
      match Hashtbl.find_opt memo i with
      | Some r -> r
      | None ->
        let var = m.var_a.(i) and lo = m.lo_a.(i) and hi = m.hi_a.(i) in
        let r = mk m var (go lo) (go hi) in
        Hashtbl.add memo i r;
        r
  in
  { mgr = m; idx = go i0 }

(* Persistent WMC memo: values survive across calls so a later fold can
   skip every subgraph whose variables kept their weights.  Keyed by node
   index, which is only stable between sweeps — the freelist reuses
   indices — so holders must [prob_memo_clear] after any event that may
   have run [gc] (or that rebinds what a variable means). *)
type 'a prob_memo = { pm_vals : (int, 'a) Hashtbl.t }

let prob_memo () = { pm_vals = Hashtbl.create 256 }
let prob_memo_clear pm = Hashtbl.reset pm.pm_vals
let prob_memo_size pm = Hashtbl.length pm.pm_vals

let fold_prob_many ?memo ?(dirty = fun _ -> false) ~zero ~one ~node roots =
  if Array.length roots = 0 then [||]
  else begin
    let m = roots.(0).mgr in
    let idxs = Array.map (fun t -> same m t "fold_prob_many") roots in
    match memo with
    | None ->
      let shared = Hashtbl.create 64 in
      Array.map
        (fun i ->
          fold_dag_shared m shared i
            ~leaf:(fun b -> if b then one else zero)
            ~node:(fun v _ lo hi -> node v lo hi))
        idxs
    | Some memo ->
      (* Per-call state: node index -> (value, subtree-touches-a-dirty-var).
         The dirty bit must be recomputed per call even for memoized
         nodes, because dirtiness is a property of this delta, not of the
         node. *)
      let state : (int, 'a * bool) Hashtbl.t = Hashtbl.create 64 in
      let rec go i =
        if i < 2 then ((if i = 1 then one else zero), false)
        else
          match Hashtbl.find_opt state i with
          | Some r -> r
          | None ->
            let v = m.var_a.(i) in
            let lo, lo_d = go m.lo_a.(i) in
            let hi, hi_d = go m.hi_a.(i) in
            let d = lo_d || hi_d || dirty v in
            let value =
              if d then node v lo hi
              else
                match Hashtbl.find_opt memo.pm_vals i with
                | Some x -> x
                | None -> node v lo hi
            in
            Hashtbl.replace memo.pm_vals i value;
            let r = (value, d) in
            Hashtbl.add state i r;
            r
      in
      Array.map (fun i -> fst (go i)) idxs
  end

(* The exact count over scaled integer numerators.  The levels of the
   union DAG are ranked densely from the top; [den r] is the denominator
   of the variable at rank [r], and [D (i, j) = den i * ... * den j] (1
   when [i > j]).  A node at rank [r] whose deepest internal descendant
   sits at rank [b] ([r] itself if it has none) stores the integer
   [N = P * D (r, b)], [P] its probability.  With [p = a/d] at its
   variable,

     N = a * T hi + (d - a) * T lo,   T c = P(c) * D (r + 1, b),

   where a child at rank [rc] with deepest rank [bc] gives
   [T c = N c * D (r + 1, rc - 1) * D (bc + 1, b)] (the gaps above and
   below its own span), the true leaf [D (r + 1, b)] and the false leaf
   0.  The scale depends on the node's sub-DAG alone, so a node shared
   by several roots is counted once for all of them, and only integer
   products and sums occur: a root's probability is [N / D (r, b)],
   normalised by the caller. *)
let scaled_count ~weight roots =
  if Array.length roots = 0 then [||]
  else begin
    let m = roots.(0).mgr in
    let idxs = Array.map (fun t -> same m t "scaled_count") roots in
    (* The union's internal nodes, children before parents; [slot] maps
       a node index to its position. *)
    let slot = Array.make m.n_top (-1) in
    let post = ref [] and n = ref 0 in
    let rec visit i =
      if i >= 2 && slot.(i) < 0 then begin
        visit m.lo_a.(i);
        visit m.hi_a.(i);
        slot.(i) <- !n;
        incr n;
        post := i :: !post
      end
    in
    Array.iter visit idxs;
    let nodes = Array.of_list (List.rev !post) in
    let n = !n in
    let ranks = Hashtbl.create 64 in
    let levels = Array.map (fun i -> m.level_a.(i)) nodes in
    Array.sort Int.compare levels;
    Array.iter
      (fun l -> if not (Hashtbl.mem ranks l) then Hashtbl.add ranks l (Hashtbl.length ranks))
      levels;
    let nr = Hashtbl.length ranks in
    let rank = Array.map (fun i -> Hashtbl.find ranks m.level_a.(i)) nodes in
    (* Per rank: the denominator, and multiplication by it and by the
       two coefficients, through [Bigint.mul_int] when they fit. *)
    let times_by c =
      match Bigint.to_int_opt c with
      | Some 1 -> Fun.id
      | Some k -> fun x -> Bigint.mul_int x k
      | None -> fun x -> Bigint.mul x c
    in
    let den = Array.make nr Bigint.one and by_den = Array.make nr Fun.id in
    let by_hi = Array.make nr Fun.id and by_lo = Array.make nr Fun.id in
    let known = Array.make nr false in
    Array.iteri
      (fun s i ->
        let r = rank.(s) in
        if not known.(r) then begin
          known.(r) <- true;
          let a, d = weight m.var_a.(i) in
          den.(r) <- d;
          by_den.(r) <- times_by d;
          by_hi.(r) <- times_by a;
          by_lo.(r) <- times_by (Bigint.sub d a)
        end)
      nodes;
    let times x g = if Bigint.is_one g then x else Bigint.mul x g in
    (* D over the aligned block of 2^t ranks from [k * 2^t], from its two
       halves: any span is a product of O(log nr) blocks, whatever the
       shape of the DAG. *)
    let blocks = Hashtbl.create 64 in
    let rec block t k =
      if t = 0 then den.(k)
      else
        let key = (k lsl 6) lor t in
        match Hashtbl.find_opt blocks key with
        | Some g -> g
        | None ->
          let g = times (block (t - 1) (2 * k)) (block (t - 1) ((2 * k) + 1)) in
          Hashtbl.add blocks key g;
          g
    in
    let rec span i j =
      if i > j then Bigint.one
      else begin
        let t = ref 0 in
        while
          i land ((1 lsl (!t + 1)) - 1) = 0 && i + (1 lsl (!t + 1)) - 1 <= j
        do
          incr t
        done;
        times (block !t (i lsr !t)) (span (i + (1 lsl !t)) j)
      end
    in
    (* Spans asked for, cached per (i, j).  Children are counted before
       their parents, so a span one rank longer than a cached one is
       common (a chain asks D (r + 1, b) right after D (r + 2, b)); it
       costs one multiplication by a denominator, the others go through
       the blocks. *)
    let gaps = Hashtbl.create 64 in
    let gap i j =
      if i > j then Bigint.one
      else
        let key = (i * nr) + j in
        match Hashtbl.find_opt gaps key with
        | Some g -> g
        | None ->
          let g =
            match Hashtbl.find_opt gaps (key + nr) with
            | Some g -> by_den.(i) g
            | None -> (
              match Hashtbl.find_opt gaps (key - 1) with
              | Some g when i < j -> by_den.(j) g
              | _ -> span i j)
          in
          Hashtbl.add gaps key g;
          g
    in
    let num = Array.make n Bigint.zero and deep = Array.make n 0 in
    Array.iteri
      (fun s i ->
        let r = rank.(s) in
        let lo = m.lo_a.(i) and hi = m.hi_a.(i) in
        let deep_of c = if c < 2 then r else deep.(slot.(c)) in
        let b = Int.max (deep_of lo) (deep_of hi) in
        deep.(s) <- b;
        let term c =
          if c = 0 then Bigint.zero
          else if c = 1 then gap (r + 1) b
          else
            let sc = slot.(c) in
            times
              (times num.(sc) (gap (r + 1) (rank.(sc) - 1)))
              (gap (deep.(sc) + 1) b)
        in
        num.(s) <- Bigint.add (by_hi.(r) (term hi)) (by_lo.(r) (term lo)))
      nodes;
    Array.map
      (fun i ->
        if i < 2 then ((if i = 1 then Bigint.one else Bigint.zero), Bigint.one)
        else
          let s = slot.(i) in
          (num.(s), gap rank.(s) deep.(s)))
      idxs
  end

