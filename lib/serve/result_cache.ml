(* Bounded FIFO cache of certified answers, keyed by (query, epoch),
   reused epsilon-aware: an entry serves any
   request whose error target its enclosure already meets.

   The epoch component is the serving layer's table-content identity for
   the relations the query touches ("" at boot, "R=3;S=1" after
   updates): without it two textually equal queries before and after a
   streaming update would collide on one key and a stale certified
   enclosure could be served against a table that no longer certifies
   it.  Entries for relations an update did not touch keep their epoch
   component and so survive the update untouched.

   The warm-restart path serialises the whole cache to a small text file
   tagged with a caller-supplied validator string (the store checksum
   plus the completion-policy spec).  [load] is all-or-nothing: a
   validator mismatch, version skew, or any malformed entry rejects the
   entire file — a stale or torn cache must never leak an enclosure that
   the current table does not certify.  The policy is not part of the
   key: one server serves one policy for its whole life, and the
   validator carries it across restarts.  Only base-epoch ("") entries are
   restored: epoch counters restart at zero on reboot, so a saved
   post-update epoch string would collide with a different table
   state. *)

let c_hit = Stats.counter "serve.cache.hit"
let c_miss = Stats.counter "serve.cache.miss"
let c_evict = Stats.counter "serve.cache.evict"
let c_warm_saved = Stats.counter "serve.cache.warm.saved"
let c_warm_loaded = Stats.counter "serve.cache.warm.loaded"
let c_warm_reused = Stats.counter "serve.cache.warm.reused"
let c_warm_rejected = Stats.counter "serve.cache.warm.rejected"

type key = string * string
type entry = { answer : Robust_eval.answer; warm : bool }

type t = {
  capacity : int;
  lock : Mutex.t;
  entries : (key, entry) Hashtbl.t;
  order : key Queue.t;  (* insertion order; evict from the front *)
}

let create ~capacity =
  if capacity < 0 then invalid_arg "Result_cache.create: negative capacity";
  {
    capacity;
    lock = Mutex.create ();
    entries = Hashtbl.create (max 16 capacity);
    order = Queue.create ();
  }

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let find t ~query ~epoch ~eps =
  locked t (fun () ->
      match Hashtbl.find_opt t.entries (query, epoch) with
      | Some e when Interval.width e.answer.Robust_eval.enclosure <= 2.0 *. eps
        ->
        Stats.incr c_hit;
        if e.warm then Stats.incr c_warm_reused;
        Some e.answer
      | _ ->
        Stats.incr c_miss;
        None)

let width (a : Robust_eval.answer) = Interval.width a.Robust_eval.enclosure

(* Caller holds the lock. *)
let insert_unlocked t key entry =
  match Hashtbl.find_opt t.entries key with
  | Some old ->
    if width entry.answer < width old.answer then
      Hashtbl.replace t.entries key entry
  | None ->
    if Hashtbl.length t.entries >= t.capacity then begin
      let oldest = Queue.pop t.order in
      Hashtbl.remove t.entries oldest;
      Stats.incr c_evict
    end;
    Hashtbl.replace t.entries key entry;
    Queue.push key t.order

let store t ~query ~epoch answer =
  if t.capacity > 0 then
    locked t (fun () ->
        insert_unlocked t (query, epoch) { answer; warm = false })

let length t = locked t (fun () -> Hashtbl.length t.entries)

(* ------------------------------------------------------------------ *)
(* Warm-restart persistence *)
(* ------------------------------------------------------------------ *)

let file_header = "iowpdb-cache 3"

let save t ~path ~validator =
  let entries =
    locked t (fun () ->
        (* Queue order so a re-load reconstructs the same FIFO order. *)
        Queue.fold
          (fun acc key ->
            match Hashtbl.find_opt t.entries key with
            | Some e -> (key, e.answer) :: acc
            | None -> acc)
          [] t.order
        |> List.rev)
  in
  Durable.write path (fun oc ->
      Printf.fprintf oc "%s\n" file_header;
      Printf.fprintf oc "validator %S\n" validator;
      List.iter
        (fun ((query, epoch), (a : Robust_eval.answer)) ->
          Printf.fprintf oc "entry %S %S %h %h %h\n" query epoch
            (Interval.lo a.enclosure) (Interval.hi a.enclosure) a.estimate)
        entries);
  let n = List.length entries in
  Stats.add c_warm_saved n;
  n

let restored_answer ~lo ~hi ~estimate : Robust_eval.answer =
  {
    enclosure = Interval.make lo hi;
    estimate;
    provenance =
      {
        attempts = [];
        stopped = "restored from warm cache (validated against store checksum)";
        budget = "";
      };
  }

let parse_entry line =
  Scanf.sscanf line "entry %S %S %h %h %h"
    (fun query epoch lo hi estimate ->
      if
        not
          (Float.is_finite lo && Float.is_finite hi && Float.is_finite estimate
         && 0.0 <= lo && lo <= hi && hi <= 1.0)
      then failwith "entry out of range";
      ((query, epoch), restored_answer ~lo ~hi ~estimate))

let load t ~path ~validator =
  if not (Sys.file_exists path) then 0
  else
    match
      let ic = open_in path in
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          if input_line ic <> file_header then failwith "bad header";
          let v = Scanf.sscanf (input_line ic) "validator %S" Fun.id in
          if not (String.equal v validator) then
            failwith "validator mismatch";
          let entries = ref [] in
          (try
             while true do
               let line = input_line ic in
               if line <> "" then entries := parse_entry line :: !entries
             done
           with End_of_file -> ());
          List.rev !entries)
    with
    | exception _ ->
      Stats.incr c_warm_rejected;
      0
    | entries ->
      if t.capacity = 0 then 0
      else begin
        (* Epoch counters restart at zero on reboot, so only base-epoch
           entries — answers certified against the table as loaded —
           may be revived; post-update epochs would alias fresh
           counters over a different table state. *)
        let entries =
          List.filter (fun ((_, epoch), _) -> epoch = "") entries
        in
        locked t (fun () ->
            List.iter
              (fun (key, answer) ->
                insert_unlocked t key { answer; warm = true })
              entries);
        let n = List.length entries in
        Stats.add c_warm_loaded n;
        n
      end
