(** Finite tuple-independent probabilistic databases.

    A TI table assigns an exact rational marginal probability to each of
    finitely many possible facts; all fact events are independent
    (Section 2 of the paper; the standard model of Suciu et al.).  The
    induced distribution over the [2^n] subsets of the support is the
    finite instance of the construction of Section 4.1:
    [P({D}) = prod_{f in D} p_f * prod_{f notin D} (1 - p_f)]. *)

type t

val create : ?schema:Schema.t -> (Fact.t * Rational.t) list -> t
(** @raise Invalid_argument on duplicate facts, probabilities outside
    [\[0,1\]], or (when a schema is given) non-conforming facts.
    Facts with probability zero are dropped. *)

val empty : t

val facts : t -> (Fact.t * Rational.t) list
(** In fact order. *)

val support : t -> Fact.t list
val prob : t -> Fact.t -> Rational.t
(** Zero for facts outside the support. *)

val mem : t -> Fact.t -> bool
val size : t -> int

val add : t -> Fact.t -> Rational.t -> t
(** Replaces any previous marginal. *)

val remove : t -> Fact.t -> t

val expected_instance_size : t -> Rational.t
(** [E(S_D) = sum_f p_f] (equation (5) of the paper). *)

val world_probability : t -> Instance.t -> Rational.t
(** [P({D})]; zero if [D] contains facts outside the support. *)

val worlds : t -> (Instance.t * Rational.t) Seq.t
(** All [2^n] worlds with their probabilities.
    @raise Invalid_argument when the support exceeds 20 facts. *)

val sample : t -> Prng.t -> Instance.t
(** Draw a world: each fact included independently (exact rational
    Bernoulli draws). *)

val marginal_check : t -> Fact.t -> Rational.t
(** Recomputes [P(E_f)] by summing world probabilities — exponential;
    for tests.

    Reference: the world-sum value tests compare marginals against. *)

val active_domain : t -> Value.t list

val to_string : t -> string

(** {1 Text format} *)

val to_channel : out_channel -> t -> unit
(** One fact per line: [R(args...) p] with [p] rational or decimal. *)

val of_lines : ?file:string -> string list -> t
(** Parses the same format; blank lines and [#] comments ignored.
    Malformed lines are reported with [file] (when given) and a 1-based
    line number.  A fact repeated with the same probability collapses to
    one entry; repeated with a different probability it is rejected,
    citing both lines.
    @raise Invalid_argument on parse errors. *)

val of_file : string -> t
(** Parses a file streaming line by line: peak memory beyond the table
    itself is O(longest line), never the whole file.  Errors cite
    [path:line] with 1-based line numbers.  The file descriptor is
    released even when parsing raises. *)
