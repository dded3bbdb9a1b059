(** The resident query server: load a table and an open-world policy
    once, then answer framed {!Protocol} requests over a Unix-domain (or
    TCP) socket, multiplexed across OCaml 5 worker domains behind a
    bounded queue with admission control.

    Life of a query request:
    + a connection thread reads and decodes the frame (syntax errors
      answer [Error_resp] immediately);
    + the result cache is consulted — an epsilon-satisfying certified
      answer returns at once with [cached = true];
    + {!Admission.admit} consults queue occupancy and the rolling epoch
      budget: the request is admitted at full service, admitted degraded
      (lifted + reduced Monte-Carlo only), or answered [Overloaded] with
      a retry-after hint — the queue is bounded, so the server {e never}
      builds unbounded backlog;
    + admitted requests carry a {!Budget.child} of the epoch whose wall
      timeout is the client deadline, created at admission, so time
      spent queued burns the deadline too;
    + a worker domain runs the {!Robust_eval} ladder under that budget
      and mails back a sound enclosure — on deadline expiry a
      best-so-far enclosure with [budget_exhausted = true], never a
      hang.

    Graceful drain (SIGTERM via {!run}, or a [Drain] request): stop
    admitting queries, finish in-flight work, answer [Overloaded
    {draining = true}] to new ones, then exit once idle.  [Health] and
    [Stats_req] are answered at every stage. *)

type endpoint = [ `Unix of string | `Tcp of string * int ]

val endpoint_to_string : endpoint -> string

type config = {
  endpoint : endpoint;
  make_source : unit -> Fact_source.t;
      (** fresh fact source per request — sources memoize internally, so
          one instance must never be shared across worker domains *)
  domains : int;  (** worker domains evaluating queries *)
  admission : Admission.config;
  default_eps : float;  (** error target when the request has none *)
  default_samples : int;
      (** Monte-Carlo worlds at full service; a tenth of them (at least
          one) when degraded *)
  default_deadline_s : float option;
      (** deadline applied when the request has none; [None] = no
          deadline for such requests *)
  cache_capacity : int;  (** 0 disables the result cache *)
  warm_cache : (string * string) option;
      (** [(path, validator)]: restore the result cache from [path] at
          {!start} (rejected wholesale unless the file's validator
          string matches — see {!Result_cache.load}) and persist it back
          after drain in {!wait}.  The validator conventionally combines
          the packed store's checksum with the completion-policy spec,
          so warm answers never outlive the data they certify.  Only
          base-epoch entries are restored (see {!Result_cache.load}), so
          a cache saved after streaming updates never leaks stale
          enclosures into a fresh boot. *)
  updatable : Ti_table.t option;
      (** a finite materialized table the server owns and mutates under
          [Update] frames; when set it overrides [make_source] as the
          evaluation source.  Each accepted non-no-op update bumps the
          mutated relation's {e epoch} counter; cached answers are keyed
          by the epochs of the relations they read, so an update
          invalidates exactly the cache slice that touched the mutated
          relation while warm entries for untouched relations keep
          serving.  [None] (static or open-world source) answers
          [Update] with an error.  Updates are rejected while
          draining. *)
}

type t

val start : config -> t
(** Bind, listen, spawn the worker domains and the accept thread, and
    return immediately (the in-process form the tests and the bench
    load generator drive).  Calls [make_source] once to validate it.
    @raise Invalid_argument on a bad configuration;
    @raise Unix.Unix_error if the socket cannot be bound. *)

val request_drain : t -> unit
(** Begin graceful drain.  Async-signal-safe (one atomic store), so
    {!run} installs it directly as the SIGTERM action.  Idempotent. *)

val wait : t -> unit
(** Block until the server has fully drained: accept loop exited, every
    connection closed, worker domains joined, socket file removed. *)

val run : config -> unit
(** [start], install SIGTERM/SIGINT handlers that {!request_drain}, then
    {!wait}; on return the drain has completed and final [serve.*]
    counters have been flushed to stderr.  The CLI [serve] subcommand is
    a thin wrapper over this. *)
