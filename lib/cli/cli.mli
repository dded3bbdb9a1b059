(** The command-line interface, as a library so tests can drive it
    through Cmdliner's evaluation API without spawning processes.

    Every subcommand evaluates to an {e exit code}: [0] on success, and
    on failure a one-line message on stderr plus [2] for malformed input
    (parse errors, invalid models, divergent sources, bad arguments,
    unreadable files), [3] for budget exhaustion surfaced as a hard
    error, [1] for internal engine failures — the mapping of
    {!Errors.exit_code}. *)

val main : ?argv:string array -> unit -> int
(** Evaluate [root] (against [Sys.argv] by default) and return the exit
    code.  [argv.(0)] is the program name, as with [Cmd.eval']. *)
