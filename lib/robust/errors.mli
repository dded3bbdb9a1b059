(** Structured error taxonomy for the evaluation stack.

    Buckets chosen so a supervisor can pick a different reaction
    for each: [Parse] and [Model_invalid] are the user's problem (report
    and exit); [Divergent_source] means no tuple-independent PDB exists
    for the enumeration, so no engine can ever succeed;
    [Budget_exhausted] is the normal "anytime" stop and carries the best
    certified enclosure found so far; [Engine_failure] means this engine
    broke but another might not.  [Transport] is the serving layer's
    class: a frame, connection or service fault between a client and a
    resident server — transient by nature, so retry wrappers treat it
    like [Engine_failure] (back off and try again).  [Store] is the
    persistence layer's class: a packed on-disk table failed its
    magic/version/checksum/structure validation, so it must be
    re-packed — treated like a user input problem (exit 2). *)

type t =
  | Parse of {
      what : string;  (** which parser: "ti_table", "query", ... *)
      file : string option;
      line : int option;  (** 1-based *)
      msg : string;
    }
  | Model_invalid of { what : string; msg : string }
  | Divergent_source of {
      source : string;
      probed_to : int;  (** how deep the certificate was probed *)
    }
  | Budget_exhausted of {
      what : string;
      exhaustion : Budget.exhaustion;
      partial : Interval.t option;
          (** narrowest certified enclosure obtained before stopping *)
    }
  | Engine_failure of { engine : string; msg : string }
  | Transport of {
      endpoint : string;  (** socket path / peer the fault was seen on *)
      msg : string;
    }
  | Store of {
      path : string;  (** the pack file that failed validation *)
      region : string;
          (** which part was rejected: "header", "checksum", "facts", ... *)
      msg : string;
    }
      (** A persistent pack failed to load: torn write, truncation, bit
          rot, version skew.  Like [Parse] it is an input problem (exit
          2), but it locates the damage inside the binary file rather
          than at a text line. *)

exception Error of t

val to_string : t -> string
(** One line, no backtrace; suitable for stderr. *)

val raise_error : t -> 'a

val exit_code : t -> int
(** CLI convention: user errors 2, budget exhaustion 3, engine or
    transport failure 1. *)

val of_exn : what:string -> exn -> t
(** Classify a legacy exception ([Invalid_argument], [Sys_error],
    [Budget.Exhausted], ...) from a pre-result entry point. *)

val protect : what:string -> (unit -> 'a) -> ('a, t) result
(** Run [f], classifying any exception via {!of_exn}.  [Out_of_memory]
    and [Sys.Break] are re-raised ([Stack_overflow] is caught: a BDD
    blow-up should degrade, not crash). *)
