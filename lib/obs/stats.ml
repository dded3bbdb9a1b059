(* Process-global registry of named monotone counters and wall-clock
   timers.  Counters are [Atomic.t] ints created once (at module
   initialisation of the instrumented code), so the hot-path cost of an
   event is one atomic increment and instrumented code may run in any
   domain; all string handling happens at registration and reporting
   time only.  The registry itself is guarded by a mutex, but that lock
   is only ever taken on the cold paths (create-or-lookup, snapshot,
   reset), never per event. *)

type counter = { c_name : string; c : int Atomic.t }
type timer = { t_name : string; seconds : float Atomic.t }

(* A fixed-bucket histogram: [bounds] are strictly increasing upper
   bounds, [counts] has one extra overflow cell.  Recording is one
   binary search plus one atomic increment, so worker domains may
   observe concurrently without ever dropping a sample. *)
type histogram = {
  h_name : string;
  bounds : float array;
  counts : int Atomic.t array;
}

type entry = Counter of counter | Timer of timer | Hist of histogram

let registry : (string, entry) Hashtbl.t = Hashtbl.create 64
let registry_lock = Mutex.create ()

let with_registry f =
  Mutex.lock registry_lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock registry_lock) f

let counter name =
  with_registry (fun () ->
      match Hashtbl.find_opt registry name with
      | Some (Counter c) -> c
      | Some (Timer _ | Hist _) ->
        invalid_arg (Printf.sprintf "Stats.counter: %s is not a counter" name)
      | None ->
        let c = { c_name = name; c = Atomic.make 0 } in
        Hashtbl.add registry name (Counter c);
        c)

let incr c = Atomic.incr c.c
let add c k = ignore (Atomic.fetch_and_add c.c k)
let count c = Atomic.get c.c

let timer name =
  with_registry (fun () ->
      match Hashtbl.find_opt registry name with
      | Some (Timer t) -> t
      | Some (Counter _ | Hist _) ->
        invalid_arg (Printf.sprintf "Stats.timer: %s is not a timer" name)
      | None ->
        let t = { t_name = name; seconds = Atomic.make 0.0 } in
        Hashtbl.add registry name (Timer t);
        t)

(* Log-spaced latency buckets: 5 per decade from 10 us to 100 s.  Wide
   enough for any request the serving layer answers; the overflow cell
   catches the rest. *)
let default_bounds =
  Array.init 36 (fun idx -> 1e-5 *. (10.0 ** (float_of_int idx /. 5.0)))

let histogram ?(bounds = default_bounds) name =
  if Array.length bounds = 0 then
    invalid_arg "Stats.histogram: no buckets";
  Array.iteri
    (fun idx b ->
      if Float.is_nan b || (idx > 0 && b <= bounds.(idx - 1)) then
        invalid_arg "Stats.histogram: bounds must be strictly increasing")
    bounds;
  with_registry (fun () ->
      match Hashtbl.find_opt registry name with
      | Some (Hist h) -> h
      | Some (Counter _ | Timer _) ->
        invalid_arg (Printf.sprintf "Stats.histogram: %s is not a histogram" name)
      | None ->
        let h =
          {
            h_name = name;
            bounds = Array.copy bounds;
            counts =
              Array.init (Array.length bounds + 1) (fun _ -> Atomic.make 0);
          }
        in
        Hashtbl.add registry name (Hist h);
        h)

(* Index of the first bound >= v, or the overflow cell. *)
let bucket_index h v =
  let n = Array.length h.bounds in
  if Float.is_nan v then n
  else begin
    let lo = ref 0 and hi = ref n in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if h.bounds.(mid) >= v then hi := mid else lo := mid + 1
    done;
    !lo
  end

let observe h v = Atomic.incr h.counts.(bucket_index h v)

let observations h =
  Array.fold_left (fun acc c -> acc + Atomic.get c) 0 h.counts

let bucket_counts h =
  Array.mapi
    (fun idx c ->
      let ub =
        if idx < Array.length h.bounds then h.bounds.(idx) else infinity
      in
      (ub, Atomic.get c))
    h.counts

let quantile h q =
  if not (q >= 0.0 && q <= 1.0) then
    invalid_arg "Stats.quantile: q must lie in [0, 1]";
  let counts = Array.map Atomic.get h.counts in
  let total = Array.fold_left ( + ) 0 counts in
  if total = 0 then 0.0
  else begin
    let rank =
      Stdlib.max 1 (int_of_float (Float.ceil (q *. float_of_int total)))
    in
    let idx = ref 0 and seen = ref 0 in
    while !seen < rank && !idx < Array.length counts do
      seen := !seen + counts.(!idx);
      if !seen < rank then Stdlib.incr idx
    done;
    (* Report the bucket's upper bound: a conservative (over-)estimate,
       clamped to the last finite bound for the overflow cell. *)
    if !idx < Array.length h.bounds then h.bounds.(!idx)
    else h.bounds.(Array.length h.bounds - 1)
  end

(* Lock-free accumulate: retry the compare-and-set until no concurrent
   writer slipped in between the read and the update.  [compare_and_set]
   compares the boxed float physically, which is exactly the freshness
   test needed here. *)
let rec accumulate cell s =
  let cur = Atomic.get cell in
  if not (Atomic.compare_and_set cell cur (cur +. s)) then accumulate cell s

let time t f =
  let start = Unix.gettimeofday () in
  Fun.protect
    ~finally:(fun () -> accumulate t.seconds (Unix.gettimeofday () -. start))
    f

let add_elapsed t s =
  if s < 0.0 || Float.is_nan s then invalid_arg "Stats.add_elapsed"
  else accumulate t.seconds s

let elapsed t = Atomic.get t.seconds

type snapshot = (string * float) list

let snapshot () =
  with_registry (fun () ->
      Hashtbl.fold
        (fun _ e acc ->
          match e with
          | Counter c -> (c.c_name, float_of_int (Atomic.get c.c)) :: acc
          | Timer t -> (t.t_name ^ ".seconds", Atomic.get t.seconds) :: acc
          | Hist h ->
            (h.h_name ^ ".count", float_of_int (observations h))
            :: (h.h_name ^ ".p50", quantile h 0.5)
            :: (h.h_name ^ ".p99", quantile h 0.99)
            :: acc)
        registry [])
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let find snap name =
  match List.assoc_opt name snap with Some v -> v | None -> 0.0

let by_prefix snap prefix =
  List.filter (fun (n, _) -> String.starts_with ~prefix n) snap

let diff later earlier =
  let names =
    List.sort_uniq String.compare (List.map fst later @ List.map fst earlier)
  in
  List.map (fun n -> (n, find later n -. find earlier n)) names

let report fmt snap =
  List.iter
    (fun (name, v) ->
      if v <> 0.0 then
        if Float.is_integer v && Float.abs v < 1e15 then
          Format.fprintf fmt "  %-32s %12.0f@." name v
        else Format.fprintf fmt "  %-32s %12.6f@." name v)
    snap
