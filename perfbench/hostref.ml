(* Host-speed reference.

   The benchmark shares its two cores with other machines' work, and
   their speed drifts by 15–20% over seconds to minutes.  CPU time
   drifts with wall time, so the slowdown is contention for the cores,
   not preemption, and no clock removes it.  So the timed phase
   interleaves a fixed piece of work, the unit, made only of the standard
   library and independent of the program, and the benchmark scales each
   measured time by how much slower than nominal the unit ran around it.
   Across 2-second windows of one run the unit's time and the program's
   latency correlate at 0.8–0.97; scaling cut their windows' variation
   from 14–20% to 4–7%.

   The unit mixes what the engines spend their time on: hashing and
   probing a table, integer multiply-with-carry over limbs, and a
   comparison sort.  It allocates nothing, so its time does not depend
   on the state of the caller's heap, and its data fit in the L2 cache,
   so it reads the cores' speed rather than what other machines left in
   the shared cache. *)

let slots = 8192
let table_keys = Array.make slots (-1)
let table_vals = Array.make slots 0
let limbs = Array.init 48 (fun i -> (i * 2654435761) land 0xFFFFFF)
let product = Array.make 96 0
let keys = Array.make 2048 0

(* The slot of [k] in the open-addressing table, probing from [i]. *)
let rec probe k i =
  let j = i land (slots - 1) in
  let kj = Array.unsafe_get table_keys j in
  if kj = k || kj = -1 then j else probe k (j + 1)

let unit_ () =
  Array.fill table_keys 0 slots (-1);
  let acc = ref 0 in
  for i = 0 to 3999 do
    let k = (i * 7919) land 0xFFFFF in
    let j = probe k (Hashtbl.hash k) in
    table_keys.(j) <- k;
    table_vals.(j) <- table_vals.(j) + i
  done;
  for i = 0 to 3999 do
    let k = (i * 7919) land 0xFFFFF in
    acc := !acc + table_vals.(probe k (Hashtbl.hash k))
  done;
  for _ = 1 to 20 do
    Array.fill product 0 96 0;
    for i = 0 to 47 do
      let c = ref 0 in
      for j = 0 to 47 do
        let t = product.(i + j) + (limbs.(i) * limbs.(j)) + !c in
        product.(i + j) <- t land 0xFFFFFF;
        c := t lsr 24
      done;
      product.(i + 48) <- !c
    done;
    acc := !acc + product.(50)
  done;
  let x = ref 12345 in
  for i = 0 to Array.length keys - 1 do
    x := ((!x * 1103515245) + 12345) land 0x3FFFFFFF;
    keys.(i) <- !x
  done;
  Array.sort Int.compare keys;
  ignore (Sys.opaque_identity (!acc + keys.(0)))

(* One reading of the unit's time.  Two units run back to back and the
   second is timed, so the reading sees the cores' speed rather than the
   caller's cold caches. *)
let read ~now =
  unit_ ();
  let t0 = now () in
  unit_ ();
  now () -. t0

(* Scaled times are seconds at the host speed where the unit takes
   [nominal_s]; on a 2-core Intel Xeon at 2.1 GHz it took 0.64–1.03 ms
   as the host's load changed.  A reading every [every] seconds, or
   after every request that takes longer: 2–3% of the timed phase. *)
let nominal_s = 1e-3
let every = 0.05

(* The readings of one run: (seconds into the timed phase, unit time),
   newest first. *)
type t = { mutable readings : (float * float) list; mutable last : float }

let create () = { readings = []; last = neg_infinity }

(* Take a reading if [every] seconds passed since the last one. *)
let sample t ~now ~t_start =
  if now () -. t.last >= every then begin
    let d = read ~now in
    t.last <- now ();
    t.readings <- (t.last -. t_start, d) :: t.readings
  end

let median l =
  let a = Array.of_list l in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* The factor that brings a time measured between [lo] and [hi] seconds
   into the timed phase to nominal speed: nominal over the median reading
   there, or over all readings if none fall there. *)
let scale t ~lo ~hi =
  let inside = List.filter_map (fun (at, d) -> if at >= lo && at < hi then Some d else None) t.readings in
  match (inside, t.readings) with
  | [], [] -> 1.0
  | [], all -> nominal_s /. median (List.map snd all)
  | ds, _ -> nominal_s /. median ds

(* [to_nominal ~now dt] is a time [dt] just measured outside the
   timed phase, at nominal speed, from a reading taken right after it. *)
let to_nominal ~now dt = dt *. nominal_s /. read ~now

(* The median reading over the run, in seconds. *)
let unit_s t = match t.readings with [] -> 0.0 | l -> median (List.map snd l)
