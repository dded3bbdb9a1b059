(* Structured error taxonomy for the evaluation stack.

   Result-returning engine entry points ([Approx_eval.boolean_r],
   [Countable_ti.create_r], [Robust_eval.query], ...) produce
   these instead of the historical bare [invalid_arg] walls, so a
   supervisor can tell "your input is malformed" (give up, exit 2) from
   "the model is fine but resources ran out" (degrade, keep the partial
   enclosure) from "this engine broke" (fall through the ladder). *)

type t =
  | Parse of { what : string; file : string option; line : int option;
               msg : string }
  | Model_invalid of { what : string; msg : string }
  | Divergent_source of { source : string; probed_to : int }
  | Budget_exhausted of { what : string; exhaustion : Budget.exhaustion;
                          partial : Interval.t option }
  | Engine_failure of { engine : string; msg : string }
  | Transport of { endpoint : string; msg : string }
  | Store of { path : string; region : string; msg : string }

exception Error of t

let to_string = function
  | Parse { what; file; line; msg } ->
    let where =
      match (file, line) with
      | Some f, Some l -> Printf.sprintf "%s:%d: " f l
      | Some f, None -> f ^ ": "
      | None, Some l -> Printf.sprintf "line %d: " l
      | None, None -> ""
    in
    Printf.sprintf "parse error (%s): %s%s" what where msg
  | Model_invalid { what; msg } ->
    Printf.sprintf "invalid model (%s): %s" what msg
  | Divergent_source { source; probed_to } ->
    Printf.sprintf
      "divergent source (%s): certificate still above 1 after probing %d \
       facts; no tuple-independent PDB exists"
      source probed_to
  | Budget_exhausted { what; exhaustion; partial } ->
    Printf.sprintf "budget exhausted (%s): %s%s" what
      (Budget.exhaustion_to_string exhaustion)
      (match partial with
      | None -> ""
      | Some iv ->
        Printf.sprintf "; best enclosure [%.8f, %.8f]" (Interval.lo iv)
          (Interval.hi iv))
  | Engine_failure { engine; msg } ->
    Printf.sprintf "engine failure (%s): %s" engine msg
  | Transport { endpoint; msg } ->
    Printf.sprintf "transport failure (%s): %s" endpoint msg
  | Store { path; region; msg } ->
    Printf.sprintf "store error (%s): %s: %s" path region msg

let raise_error e = raise (Error e)

let exit_code = function
  | Parse _ | Model_invalid _ | Divergent_source _ | Store _ -> 2
  | Budget_exhausted _ -> 3
  | Engine_failure _ | Transport _ -> 1

let contains_substring hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

(* Classify a legacy exception from the pre-result entry points.  The
   substring match pins down the divergence messages of the raising
   [Fact_source.converges] users ([Completion], [Approx_eval]). *)
let of_exn ~what = function
  | Error e -> e
  | Budget.Exhausted ex ->
    Budget_exhausted { what; exhaustion = ex; partial = None }
  | Invalid_argument msg when contains_substring msg "diverges" ->
    Divergent_source { source = what; probed_to = 0 }
  | Invalid_argument msg -> Model_invalid { what; msg }
  | Sys_error msg -> Parse { what; file = None; line = None; msg }
  | Failure msg -> Engine_failure { engine = what; msg }
  | Stack_overflow ->
    Engine_failure { engine = what; msg = "stack overflow" }
  | exn -> Engine_failure { engine = what; msg = Printexc.to_string exn }

let protect ~what f =
  match f () with
  | v -> Ok v
  | exception ((Out_of_memory | Sys.Break) as e) -> raise e
  | exception exn -> Stdlib.Error (of_exn ~what exn)
