(** Crash-safe file replacement.

    [write path emit] runs [emit] on a channel to [path ^ ".tmp"],
    flushes it (a failed flush, e.g. a full disk, raises), fsyncs the
    file, renames it over [path] and fsyncs the directory, so after a
    crash [path] holds either its old bytes or all of the new ones.  If
    any step raises, the temporary file is removed, [path] is left as it
    was and the exception is re-raised. *)

val write : string -> (out_channel -> unit) -> unit
