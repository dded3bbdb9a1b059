(* In-memory span recorder for the traced replay.  A span is one timed
   call into a layer: name, start, end, parent span and request id.
   Spans stay in memory while the run measures and are written out once
   at the end, so recording costs one allocation per call. *)

type span = {
  id : int;
  parent : int;  (** 0 for a root *)
  req : int;
  name : string;
  t0 : float;
  t1 : float;
}

type t = { mutable spans : span list; mutable next : int }

(* Seconds on the monotonic clock, with nanosecond resolution. *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let create () = { spans = []; next = 1 }
let count t = t.next - 1

let fresh t =
  let id = t.next in
  t.next <- id + 1;
  id

(* Record a span measured elsewhere; [id] comes from {!fresh}. *)
let record t ~id ~parent ~req name t0 t1 =
  t.spans <- { id; parent; req; name; t0; t1 } :: t.spans

(* [with_span t ~parent ~req name f] runs [f id] inside a new span. *)
let with_span t ~parent ~req name f =
  let id = fresh t in
  let t0 = now () in
  let finish () = record t ~id ~parent ~req name t0 (now ()) in
  match f id with
  | r ->
    finish ();
    r
  | exception e ->
    finish ();
    raise e

let duration s = s.t1 -. s.t0

(* Self time: duration minus the time its direct children cover. *)
let self_times t =
  let child = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.parent <> 0 then
        Hashtbl.replace child s.parent
          (duration s +. Option.value ~default:0.0 (Hashtbl.find_opt child s.parent)))
    t.spans;
  fun s -> duration s -. Option.value ~default:0.0 (Hashtbl.find_opt child s.id)

(* Total duration of the spans called [name]. *)
let total t name =
  List.fold_left
    (fun acc s -> if s.name = name then acc +. duration s else acc)
    0.0 t.spans

let write t path =
  let self = self_times t in
  let oc = open_out path in
  output_string oc "id\tparent\treq\tname\tstart_s\tend_s\tself_s\n";
  let base =
    List.fold_left (fun m s -> Float.min m s.t0) infinity t.spans
  in
  List.iter
    (fun s ->
      Printf.fprintf oc "%d\t%d\t%d\t%s\t%.6f\t%.6f\t%.6f\n" s.id s.parent
        s.req s.name (s.t0 -. base) (s.t1 -. base) (self s))
    (List.rev t.spans);
  close_out oc
