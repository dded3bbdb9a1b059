(* Persistent mmap'd fact store (.iow).  See store.mli for the layout.

   Design constraints, in order:
   - a damaged pack must never decode into a wrong answer: magic,
     version, stored length and a whole-file checksum are verified on
     every load, and every byte access afterwards is bounds-checked
     against the mapped length;
   - boot must be O(file bytes) for the checksum and nothing else: no
     fact, value or probability is decoded until asked for;
   - [tail_mass] must be O(1): it reads the precomputed sidecar, never
     the probability column, so the one truncation search
     ([Fact_source.search] over [fact_source]) costs O(log n) lookups. *)

let magic = "IOWPACK1"
let version = 1
let header_size = 144

(* Header field offsets (bytes). *)
let off_version = 8
let off_kind = 16 (* always 0: the TI kind *)
let off_checksum = 24
let off_length = 32
let off_n_facts = 40
let off_n_values = 48
let off_n_rels = 56
let off_n_strings = 64
let off_n_blocks = 72 (* always 0: the blocks section is reserved *)
let off_sec_strings = 80
let off_sec_values = 88
let off_sec_rels = 96
let off_sec_facts = 104
let off_sec_probs = 112
let off_sec_sidecar = 120
let off_sec_blocks = 128

(* ------------------------------------------------------------------ *)
(* Checksum: FNV-1a-style folding into 62 bits so the hot loop runs on
   native ints.  The file is consumed in aligned 4-byte little-endian
   chunks (any trailing 1-3 bytes individually); each step is
   [h -> ((h lxor chunk) * prime) mod 2^62].  Every chunk is below
   2^32 <= 2^62, so the xor is a bijection in [h] and injective in the
   chunk, and the odd prime is invertible mod 2^62 — flipping any
   single byte of the file changes exactly one chunk and therefore
   provably changes the final hash, which is what makes "every
   single-byte corruption is rejected" a theorem rather than a
   probability.  Chunked folding quarters the serial multiply chain:
   the checksum is the whole of the O(file bytes) work at load time,
   so this is the boot hot loop.  The 8 checksum-field bytes (aligned,
   chunks at 24 and 28) fold as zero. *)
(* ------------------------------------------------------------------ *)

let mask62 = (1 lsl 62) - 1
let fnv_init = 0x0BF29CE484222325 (* FNV-1a 64 offset basis mod 2^62 *)
let fnv_prime = 0x100000001B3

let checksum_bytes (b : Bytes.t) =
  let len = Bytes.length b in
  let h = ref fnv_init in
  let quads = len lsr 2 in
  for qi = 0 to quads - 1 do
    let i = qi lsl 2 in
    let c =
      if i = off_checksum || i = off_checksum + 4 then 0
      else
        Char.code (Bytes.unsafe_get b i)
        lor (Char.code (Bytes.unsafe_get b (i + 1)) lsl 8)
        lor (Char.code (Bytes.unsafe_get b (i + 2)) lsl 16)
        lor (Char.code (Bytes.unsafe_get b (i + 3)) lsl 24)
    in
    h := ((!h lxor c) * fnv_prime) land mask62
  done;
  for i = quads lsl 2 to len - 1 do
    h := ((!h lxor Char.code (Bytes.unsafe_get b i)) * fnv_prime) land mask62
  done;
  !h

type map = (int, Bigarray.int8_unsigned_elt, Bigarray.c_layout) Bigarray.Array1.t

let checksum_map (m : map) len =
  let h = ref fnv_init in
  let quads = len lsr 2 in
  for qi = 0 to quads - 1 do
    let i = qi lsl 2 in
    let c =
      if i = off_checksum || i = off_checksum + 4 then 0
      else
        Bigarray.Array1.unsafe_get m i
        lor (Bigarray.Array1.unsafe_get m (i + 1) lsl 8)
        lor (Bigarray.Array1.unsafe_get m (i + 2) lsl 16)
        lor (Bigarray.Array1.unsafe_get m (i + 3) lsl 24)
    in
    h := ((!h lxor c) * fnv_prime) land mask62
  done;
  for i = quads lsl 2 to len - 1 do
    h := ((!h lxor Bigarray.Array1.unsafe_get m i) * fnv_prime) land mask62
  done;
  !h

(* ------------------------------------------------------------------ *)
(* Observability *)
(* ------------------------------------------------------------------ *)

let c_load = Stats.counter "store.load"
let t_load = Stats.timer "store.load.seconds"
let c_bytes = Stats.counter "store.mmap.bytes"
let c_reject = Stats.counter "store.reject"
let c_slice = Stats.counter "store.slice"
let c_probe = Stats.counter "store.sidecar.probe"
let c_decode = Stats.counter "store.fact.decode"

let reject path region msg =
  Stats.incr c_reject;
  Errors.raise_error (Errors.Store { path; region; msg })

(* ------------------------------------------------------------------ *)
(* Writer *)
(* ------------------------------------------------------------------ *)

module VMap = Map.Make (Value)
module SMap = Map.Make (String)

module RMap = Map.Make (struct
  type t = string * int

  let compare (n1, a1) (n2, a2) =
    let c = String.compare n1 n2 in
    if c <> 0 then c else Stdlib.compare a1 a2
end)

type pools = {
  mutable strings : int SMap.t;
  mutable str_list : string list; (* reversed *)
  mutable n_strings : int;
  mutable values : int VMap.t;
  mutable val_list : Value.t list; (* reversed *)
  mutable n_values : int;
  mutable rels : int RMap.t;
  mutable rel_list : (string * int) list; (* reversed *)
  mutable n_rels : int;
}

let new_pools () =
  {
    strings = SMap.empty;
    str_list = [];
    n_strings = 0;
    values = VMap.empty;
    val_list = [];
    n_values = 0;
    rels = RMap.empty;
    rel_list = [];
    n_rels = 0;
  }

let string_id p s =
  match SMap.find_opt s p.strings with
  | Some i -> i
  | None ->
    let i = p.n_strings in
    p.strings <- SMap.add s i p.strings;
    p.str_list <- s :: p.str_list;
    p.n_strings <- i + 1;
    i

let value_id p v =
  match VMap.find_opt v p.values with
  | Some i -> i
  | None ->
    (* Intern the payload string first so ids are assigned in a single
       deterministic pass. *)
    (match v with Value.Str s -> ignore (string_id p s) | _ -> ());
    let i = p.n_values in
    p.values <- VMap.add v i p.values;
    p.val_list <- v :: p.val_list;
    p.n_values <- i + 1;
    i

let rel_id p name arity =
  match RMap.find_opt (name, arity) p.rels with
  | Some i -> i
  | None ->
    ignore (string_id p name);
    let i = p.n_rels in
    p.rels <- RMap.add (name, arity) i p.rels;
    p.rel_list <- (name, arity) :: p.rel_list;
    p.n_rels <- i + 1;
    i

let add_u64 buf v = Buffer.add_int64_le buf (Int64.of_int v)

(* Exact suffix sums turned into sound float upper bounds: [to_float]
   rounds to nearest (at most half an ulp below the true value), so one
   [Float.succ] is strictly above it; a positive rational that rounds to
   0.0 is still covered because [Float.succ 0.0] is the smallest
   positive subnormal.  The empty suffix is exactly 0. *)
let sidecar_of entries =
  let n = Array.length entries in
  let tail = Array.make (n + 1) 0.0 in
  let suffix = ref Rational.zero in
  for i = n - 1 downto 0 do
    suffix := Rational.add !suffix (snd entries.(i));
    tail.(i) <- Float.succ (Rational.to_float !suffix)
  done;
  tail

let desc_prob_order (f1, p1) (f2, p2) =
  let c = Rational.compare p2 p1 in
  if c <> 0 then c else Fact.compare f1 f2

let write_ti ~path ti =
  let entries =
    Array.of_list (List.sort desc_prob_order (Ti_table.facts ti))
  in
  let pools = new_pools () in
  let n = Array.length entries in
  (* Encode the fact and probability blobs with section-relative record
     offsets; the dictionaries fill as a side effect, in fact order. *)
  let fact_blob = Buffer.create (16 * n) and fact_offs = Array.make n 0 in
  Array.iteri
    (fun i (f, _) ->
      fact_offs.(i) <- Buffer.length fact_blob;
      let args = Fact.args f in
      add_u64 fact_blob (rel_id pools (Fact.rel f) (List.length args));
      List.iter (fun v -> add_u64 fact_blob (value_id pools v)) args)
    entries;
  let prob_blob = Buffer.create (24 * n) and prob_offs = Array.make n 0 in
  Array.iteri
    (fun i (_, p) ->
      prob_offs.(i) <- Buffer.length prob_blob;
      let num = Bigint.to_bytes_le (Rational.num p)
      and den = Bigint.to_bytes_le (Rational.den p) in
      add_u64 prob_blob (String.length num);
      add_u64 prob_blob (String.length den);
      Buffer.add_string prob_blob num;
      Buffer.add_string prob_blob den)
    entries;
  let tail = sidecar_of entries in
  (* String blob with section-relative offsets. *)
  let str_blob = Buffer.create 256 in
  let str_entries =
    List.rev_map
      (fun s ->
        let off = Buffer.length str_blob in
        Buffer.add_string str_blob s;
        (off, String.length s))
      (List.rev pools.str_list)
    |> List.rev
  in
  (* Section layout. *)
  let sec_strings = header_size in
  let strings_table = 16 * pools.n_strings in
  let sec_values = sec_strings + strings_table + Buffer.length str_blob in
  let sec_rels = sec_values + (16 * pools.n_values) in
  let sec_facts = sec_rels + (16 * pools.n_rels) in
  let sec_probs = sec_facts + (8 * n) + Buffer.length fact_blob in
  let sec_sidecar = sec_probs + (8 * n) + Buffer.length prob_blob in
  let sec_blocks = sec_sidecar + (8 * (n + 1)) in
  let total = sec_blocks (* the blocks section is empty *) in
  let buf = Buffer.create total in
  (* Header (checksum written as 0, patched below). *)
  Buffer.add_string buf magic;
  add_u64 buf version;
  add_u64 buf 0 (* kind: TI *);
  add_u64 buf 0;
  add_u64 buf total;
  add_u64 buf n;
  add_u64 buf pools.n_values;
  add_u64 buf pools.n_rels;
  add_u64 buf pools.n_strings;
  add_u64 buf 0 (* n_blocks *);
  add_u64 buf sec_strings;
  add_u64 buf sec_values;
  add_u64 buf sec_rels;
  add_u64 buf sec_facts;
  add_u64 buf sec_probs;
  add_u64 buf sec_sidecar;
  add_u64 buf sec_blocks;
  add_u64 buf 0 (* reserved *);
  (* strings: table (absolute blob offsets) + blob *)
  let blob_base = sec_strings + strings_table in
  List.iter
    (fun (off, len) ->
      add_u64 buf (blob_base + off);
      add_u64 buf len)
    str_entries;
  Buffer.add_buffer buf str_blob;
  (* values *)
  List.iter
    (fun v ->
      match v with
      | Value.Int i ->
        add_u64 buf 0;
        Buffer.add_int64_le buf (Int64.of_int i)
      | Value.Str s ->
        add_u64 buf 1;
        add_u64 buf (SMap.find s pools.strings)
      | Value.Real r ->
        add_u64 buf 2;
        Buffer.add_int64_le buf (Int64.bits_of_float r)
      | Value.Bool b ->
        add_u64 buf 3;
        add_u64 buf (if b then 1 else 0))
    (List.rev pools.val_list);
  (* rels *)
  List.iter
    (fun (name, arity) ->
      add_u64 buf (SMap.find name pools.strings);
      add_u64 buf arity)
    (List.rev pools.rel_list);
  (* facts: absolute offset table + blob *)
  let fact_base = sec_facts + (8 * n) in
  Array.iter (fun off -> add_u64 buf (fact_base + off)) fact_offs;
  Buffer.add_buffer buf fact_blob;
  (* probs: absolute offset table + blob *)
  let prob_base = sec_probs + (8 * n) in
  Array.iter (fun off -> add_u64 buf (prob_base + off)) prob_offs;
  Buffer.add_buffer buf prob_blob;
  (* sidecar *)
  Array.iter (fun t -> Buffer.add_int64_le buf (Int64.bits_of_float t)) tail;
  assert (Buffer.length buf = total);
  let bytes = Buffer.to_bytes buf in
  Bytes.set_int64_le bytes off_checksum (Int64.of_int (checksum_bytes bytes));
  Durable.write path (fun oc -> output_bytes oc bytes)

(* ------------------------------------------------------------------ *)
(* Reader *)
(* ------------------------------------------------------------------ *)

module Int_map = Map.Make (Int)

(* What a loaded pack has decoded so far, published as one immutable
   value.  [entries] is allocated once and shared by every later state:
   its slots below [decoded] are written before the state that covers
   them is published and never again.  [frontier] is the table on those
   [decoded] entries (against which the next one's duplicate check
   runs), and [tables] holds every prefix table handed out, by length. *)
type prefix = {
  entries : (Fact.t * Rational.t) array;
  decoded : int;
  frontier : Ti_table.t;
  tables : Ti_table.t Int_map.t;
}

let no_prefix =
  {
    entries = [||];
    decoded = 0;
    frontier = Ti_table.empty;
    tables = Int_map.empty;
  }

type t = {
  path : string;
  map : map;
  length : int;
  checksum : int;
  n_facts : int;
  n_values : int;
  n_rels : int;
  n_strings : int;
  sec_strings : int;
  sec_values : int;
  sec_rels : int;
  sec_facts : int;
  sec_probs : int;
  sec_sidecar : int;
  lock : Mutex.t; (* serialises extensions of [prefix] *)
  prefix : prefix Atomic.t; (* read without the lock *)
}

(* All multi-byte reads are bounds-checked: a forged offset can raise a
   structured rejection but can never read outside the map. *)
let read_i64 t region off =
  if off < 0 || off + 8 > t.length then
    reject t.path region (Printf.sprintf "offset %d outside pack" off);
  let m = t.map in
  let b i = Int64.of_int (Bigarray.Array1.unsafe_get m (off + i)) in
  let ( ||| ) = Int64.logor and ( <<< ) = Int64.shift_left in
  b 0 ||| (b 1 <<< 8) ||| (b 2 <<< 16) ||| (b 3 <<< 24) ||| (b 4 <<< 32)
  ||| (b 5 <<< 40)
  ||| (b 6 <<< 48)
  ||| (b 7 <<< 56)

let read_u62 t region off =
  let v = read_i64 t region off in
  if Int64.logand v 0xC000000000000000L <> 0L then
    reject t.path region
      (Printf.sprintf "field at %d does not fit 62 bits" off);
  Int64.to_int v

let read_string t region off len =
  if off < 0 || len < 0 || off + len > t.length then
    reject t.path region "string bytes outside pack";
  String.init len (fun i -> Char.chr (Bigarray.Array1.get t.map (off + i)))

let load_map path =
  match
    let fd = Unix.openfile path [ Unix.O_RDONLY ] 0 in
    Fun.protect
      ~finally:(fun () -> Unix.close fd)
      (fun () ->
        let len = (Unix.fstat fd).Unix.st_size in
        if len < header_size then (len, None)
        else begin
          let ga =
            Unix.map_file fd Bigarray.int8_unsigned Bigarray.c_layout false
              [| -1 |]
          in
          (len, Some (Bigarray.array1_of_genarray ga))
        end)
  with
  | len, Some m -> (len, m)
  | len, None ->
    reject path "header"
      (Printf.sprintf "file is %d bytes, smaller than the %d-byte header"
         len header_size)
  | exception Unix.Unix_error (e, _, _) ->
    reject path "open" (Unix.error_message e)
  | exception Sys_error msg -> reject path "open" msg

let load path =
  Stats.time t_load @@ fun () ->
  Stats.incr c_load;
  let length, map = load_map path in
  (* Validation order: magic/version identify the format, the stored
     length and checksum establish integrity, and only then are the
     structural fields interpreted. *)
  let tmp =
    {
      path;
      map;
      length;
      checksum = 0;
      n_facts = 0;
      n_values = 0;
      n_rels = 0;
      n_strings = 0;
      sec_strings = 0;
      sec_values = 0;
      sec_rels = 0;
      sec_facts = 0;
      sec_probs = 0;
      sec_sidecar = 0;
      lock = Mutex.create ();
      prefix = Atomic.make no_prefix;
    }
  in
  let got_magic = read_string tmp "header" 0 8 in
  if got_magic <> magic then
    reject path "header"
      (Printf.sprintf "bad magic %S (expected %S)" got_magic magic);
  let v = read_u62 tmp "header" off_version in
  if v <> version then
    reject path "header" (Printf.sprintf "unsupported version %d" v);
  (* Kind 1 marked the block-independent-disjoint packs older writers
     produced; nothing reads their blocks, so they are rejected here
     rather than misread as a TI enumeration. *)
  (match read_u62 tmp "header" off_kind with
  | 0 -> ()
  | k -> reject path "header" (Printf.sprintf "unknown kind %d" k));
  let stored_len = read_u62 tmp "header" off_length in
  if stored_len <> length then
    reject path "header"
      (Printf.sprintf "stored length %d but file is %d bytes (truncated?)"
         stored_len length);
  let stored_sum = read_u62 tmp "checksum" off_checksum in
  let actual = checksum_map map length in
  if stored_sum <> actual then
    reject path "checksum"
      (Printf.sprintf "checksum mismatch: stored %016x, computed %016x"
         stored_sum actual);
  let n_facts = read_u62 tmp "header" off_n_facts
  and n_values = read_u62 tmp "header" off_n_values
  and n_rels = read_u62 tmp "header" off_n_rels
  and n_strings = read_u62 tmp "header" off_n_strings
  and sec_strings = read_u62 tmp "header" off_sec_strings
  and sec_values = read_u62 tmp "header" off_sec_values
  and sec_rels = read_u62 tmp "header" off_sec_rels
  and sec_facts = read_u62 tmp "header" off_sec_facts
  and sec_probs = read_u62 tmp "header" off_sec_probs
  and sec_sidecar = read_u62 tmp "header" off_sec_sidecar
  and sec_blocks = read_u62 tmp "header" off_sec_blocks in
  if read_u62 tmp "header" off_n_blocks <> 0 then
    reject path "header" "n_blocks must be 0: the blocks section is reserved";
  (* Structural sanity: the canonical section order with fixed-size
     parts accounted for, everything inside the file. *)
  let check cond msg = if not cond then reject path "structure" msg in
  check (sec_strings = header_size) "strings section must follow header";
  check
    (sec_values >= sec_strings + (16 * n_strings))
    "values section overlaps string table";
  check (sec_rels = sec_values + (16 * n_values)) "rels section misplaced";
  check (sec_facts = sec_rels + (16 * n_rels)) "facts section misplaced";
  check (sec_probs >= sec_facts + (8 * n_facts)) "probs section overlaps facts";
  check
    (sec_sidecar >= sec_probs + (8 * n_facts))
    "sidecar section overlaps probs";
  check
    (sec_blocks = sec_sidecar + (8 * (n_facts + 1)))
    "blocks section misplaced";
  check (length = sec_blocks) "blocks section must be empty";
  Stats.add c_bytes length;
  {
    path;
    map;
    length;
    checksum = actual;
    n_facts;
    n_values;
    n_rels;
    n_strings;
    sec_strings;
    sec_values;
    sec_rels;
    sec_facts;
    sec_probs;
    sec_sidecar;
    lock = Mutex.create ();
    prefix = Atomic.make no_prefix;
  }

let size t = t.n_facts
let byte_size t = t.length
let checksum_hex t = Printf.sprintf "%016x" t.checksum

(* ------------------------------------------------------------------ *)
(* Lazy decode *)
(* ------------------------------------------------------------------ *)

let read_interned_string t region id =
  if id < 0 || id >= t.n_strings then
    reject t.path region (Printf.sprintf "string id %d out of range" id);
  let ent = t.sec_strings + (16 * id) in
  let off = read_u62 t "strings" ent
  and len = read_u62 t "strings" (ent + 8) in
  read_string t "strings" off len

let value t id =
  if id < 0 || id >= t.n_values then
    reject t.path "values" (Printf.sprintf "value id %d out of range" id);
  let ent = t.sec_values + (16 * id) in
  match read_u62 t "values" ent with
  | 0 ->
    let v = read_i64 t "values" (ent + 8) in
    if Int64.of_int (Int64.to_int v) <> v then
      reject t.path "values" "integer payload does not fit a native int";
    Value.Int (Int64.to_int v)
  | 1 -> Value.Str (read_interned_string t "values" (read_u62 t "values" (ent + 8)))
  | 2 -> Value.Real (Int64.float_of_bits (read_i64 t "values" (ent + 8)))
  | 3 -> Value.Bool (read_u62 t "values" (ent + 8) <> 0)
  | tag -> reject t.path "values" (Printf.sprintf "unknown value tag %d" tag)

let rel t id =
  if id < 0 || id >= t.n_rels then
    reject t.path "rels" (Printf.sprintf "rel id %d out of range" id);
  let ent = t.sec_rels + (16 * id) in
  ( read_interned_string t "rels" (read_u62 t "rels" ent),
    read_u62 t "rels" (ent + 8) )

let check_index t i =
  if i < 0 || i >= t.n_facts then
    invalid_arg (Printf.sprintf "Store: fact index %d outside [0, %d)" i t.n_facts)

let fact t i =
  check_index t i;
  Stats.incr c_decode;
  let off = read_u62 t "facts" (t.sec_facts + (8 * i)) in
  let name, arity = rel t (read_u62 t "facts" off) in
  Fact.make_arr name
    (Array.init arity (fun k ->
         value t (read_u62 t "facts" (off + 8 + (8 * k)))))

let prob t i =
  check_index t i;
  let off = read_u62 t "probs" (t.sec_probs + (8 * i)) in
  let num_len = read_u62 t "probs" off
  and den_len = read_u62 t "probs" (off + 8) in
  let num = read_string t "probs" (off + 16) num_len in
  let den = read_string t "probs" (off + 16 + num_len) den_len in
  if den_len = 0 then reject t.path "probs" "zero denominator";
  Rational.make (Bigint.of_bytes_le num) (Bigint.of_bytes_le den)

let entry t i = (fact t i, prob t i)

let tail_mass t n =
  Stats.incr c_probe;
  let n = Stdlib.max 0 (Stdlib.min n t.n_facts) in
  Int64.float_of_bits (read_i64 t "sidecar" (t.sec_sidecar + (8 * n)))

(* ------------------------------------------------------------------ *)
(* The shared prefix *)
(* ------------------------------------------------------------------ *)

(* Caller holds [t.lock].  The state on the first [n] entries: those not
   yet decoded are decoded and checked in order, as a pull would check
   them, and the first failing check raises with nothing published. *)
let extend t ~name st n =
  if n <= st.decoded then st
  else begin
    let entries = ref st.entries and frontier = ref st.frontier in
    for i = st.decoded to n - 1 do
      let ((f, p) as e) = entry t i in
      Fact_source.check_entry name ~seen:(Ti_table.mem !frontier) e;
      if Array.length !entries = 0 then entries := Array.make t.n_facts e;
      !entries.(i) <- e;
      frontier := Ti_table.add !frontier f p
    done;
    { st with entries = !entries; decoded = n; frontier = !frontier }
  end

let decoded_entry t ~name i =
  let st = Atomic.get t.prefix in
  if i < st.decoded then st.entries.(i)
  else
    Mutex.protect t.lock (fun () ->
        let st = extend t ~name (Atomic.get t.prefix) (i + 1) in
        Atomic.set t.prefix st;
        st.entries.(i))

(* The table on the first [n <= size] entries.  A length asked before is
   a lock-free lookup.  A new one is built under the lock from the
   nearest table held (the empty one, the frontier, or one handed out
   before) by adding or removing the entries between, so all tables
   share every node off the changed paths. *)
let table_at t ~name n =
  Stats.incr c_slice;
  match Int_map.find_opt n (Atomic.get t.prefix).tables with
  | Some tbl -> tbl
  | None ->
    Mutex.protect t.lock @@ fun () ->
    let st = Atomic.get t.prefix in
    match Int_map.find_opt n st.tables with
    | Some tbl -> tbl
    | None ->
      let st = extend t ~name st n in
      let nearest (k, tbl) (k', tbl') =
        if abs (k' - n) < abs (k - n) then (k', tbl') else (k, tbl)
      in
      let k, base =
        List.fold_left nearest
          (0, Ti_table.empty)
          (List.filter_map Fun.id
             [
               Some (st.decoded, st.frontier);
               Int_map.find_last_opt (fun k -> k < n) st.tables;
               Int_map.find_first_opt (fun k -> k > n) st.tables;
             ])
      in
      let tbl = ref base in
      for i = k to n - 1 do
        let f, p = st.entries.(i) in
        tbl := Ti_table.add !tbl f p
      done;
      for i = n to k - 1 do
        tbl := Ti_table.remove !tbl (fst st.entries.(i))
      done;
      Atomic.set t.prefix { st with tables = Int_map.add n !tbl st.tables };
      !tbl

let source_name t = Printf.sprintf "store:%s" (Filename.basename t.path)
let to_ti_table t = table_at t ~name:(source_name t) t.n_facts

(* ------------------------------------------------------------------ *)
(* Fact source *)
(* ------------------------------------------------------------------ *)

let fact_source ?rest t =
  let name =
    match rest with
    | None -> source_name t
    | Some rest ->
      Printf.sprintf "%s+%s" (source_name t) (Fact_source.name rest)
  in
  let packed = Seq.init t.n_facts (decoded_entry t ~name) in
  let table n =
    if n >= 0 && (n <= t.n_facts || Option.is_none rest) then
      Some (table_at t ~name (Stdlib.min n t.n_facts))
    else None
  in
  match rest with
  | None ->
    Fact_source.make ~name ~table ~enum:packed
      ~tail:(fun n -> Some (tail_mass t n))
      ()
  | Some rest ->
    Fact_source.make ~name ~table
      ~enum:(Seq.append packed (Fact_source.seq_of rest))
      ~tail:(fun n ->
        (* Sound split: packed facts from n on, plus the whole rest tail
           once n passes the packed prefix. *)
        let k = Stdlib.max 0 (n - t.n_facts) in
        Option.map
          (fun tr -> tail_mass t n +. tr)
          (Fact_source.tail_mass rest k))
      ()

(* ------------------------------------------------------------------ *)
(* Verification *)
(* ------------------------------------------------------------------ *)

let verify_against_ti t ti =
  match
    if t.n_facts <> Ti_table.size ti then
      Error
        (Printf.sprintf "pack has %d facts, table has %d" t.n_facts
           (Ti_table.size ti))
    else begin
      let bad = ref None in
      for i = 0 to t.n_facts - 1 do
        if !bad = None then begin
          let f, p = entry t i in
          let q = Ti_table.prob ti f in
          if not (Rational.equal p q) then
            bad :=
              Some
                (Printf.sprintf "fact %s: pack says %s, table says %s"
                   (Fact.to_string f) (Rational.to_string p)
                   (Rational.to_string q))
        end
      done;
      match !bad with None -> Ok () | Some msg -> Error msg
    end
  with
  | r -> r
  | exception Errors.Error e -> Error (Errors.to_string e)
