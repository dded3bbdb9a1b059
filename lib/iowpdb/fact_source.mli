(** Countable enumerations of weighted facts — the input data of the
    countable tuple-independent construction (Section 4.1).

    A fact source is a (finite or countably infinite) enumeration of
    distinct facts with exact rational probabilities, together with a
    certified upper bound on the tail mass [sum_{i>=n} p_i].  Theorem 4.8
    says a tuple-independent PDB with these marginals exists iff the total
    mass is finite; a source {e converges} exactly when it carries a
    finite tail certificate.

    This is also precisely the access model of Section 6's approximation
    algorithm: assumption (i) is [tail_mass], assumption (ii) is
    [nth]/[prob].  The module owns the one search over a tail
    certificate ({!search}): Proposition 6.1's [n(eps)], Theorem 4.8's
    convergence test ({!converges}) and every sampler's prefix all come
    from it. *)

type t

val make :
  ?name:string ->
  ?table:(int -> Ti_table.t option) ->
  enum:(Fact.t * Rational.t) Seq.t ->
  tail:(int -> float option) ->
  unit ->
  t
(** [enum] must list distinct facts with probabilities in [(0, 1]];
    [tail n] must soundly bound [sum_{i>=n} p_i] (antitone, [None] if
    divergent/unknown).  Validation of fact distinctness and probability
    range happens lazily as the enumeration is consumed.

    [table n], when it answers, is the TI table on the first [min n len]
    entries of [enum], every one already validated as a pull would:
    {!truncate} hands it back instead of pulling.  A source that holds
    such a prefix (a pack's shared memo, a finite table) answers where
    it can and says [None] elsewhere; the default never answers. *)

val check_entry :
  string -> seen:(Fact.t -> bool) -> Fact.t * Rational.t -> unit
(** The checks every pulled entry passes, for a source of the given
    name: probability in [(0, 1]], and a fact not [seen] earlier in the
    enumeration.  Shared with {!make}'s [table] providers so a prefix
    validated outside a pull fails exactly as the pull would.
    @raise Invalid_argument naming the source and the entry. *)

val of_list : ?name:string -> (Fact.t * Rational.t) list -> t
(** Finite source with exact tails.
    @raise Invalid_argument on duplicates or out-of-range
    probabilities. *)

val of_ti_table : Ti_table.t -> t
(** The table as a finite source, in fact order, with exact tails.  Its
    entries are valid by the table's own invariant, so nothing is pulled
    up front; {!truncate} at or past its size returns the table itself. *)

val suffix_bounds : int -> (int -> Rational.t) -> float array
(** [suffix_bounds n prob] has [n + 1] entries: entry [k] is a float at
    or above the exact [sum_{k <= i < n} prob i], rounded up at every
    step, so it stays sound for any [n]; entry [n] is exactly [0.]. *)

val geometric :
  ?name:string ->
  first:Rational.t ->
  ratio:Rational.t ->
  facts:(int -> Fact.t) ->
  unit ->
  t
(** [p_i = first * ratio^i] with [0 < ratio < 1]; exact rational
    probabilities and exact geometric tails.
    @raise Invalid_argument if [first] is not in [(0,1]] or [ratio] not in
    [(0,1)]. *)

val telescoping :
  ?name:string -> mass:Rational.t -> facts:(int -> Fact.t) -> unit -> t
(** [p_i = mass / ((i+1)(i+2))]: quadratic (zeta-like) decay with the
    exact tail [mass / (n+1)] — the rational stand-in for the paper's
    [6/(pi^2 n^2)] example. @raise Invalid_argument unless
    [0 < mass <= 1]... mass may exceed 1 only if no single term does. *)

val divergent_harmonic :
  ?name:string -> scale:Rational.t -> facts:(int -> Fact.t) -> unit -> t
(** [p_i = scale / (i+1)], capped at 1: a divergent source for negative
    tests of Theorem 4.8. *)

val name : t -> string

val nth : t -> int -> (Fact.t * Rational.t) option
(** Memoized random access into the enumeration. *)

val prob : t -> Fact.t -> Rational.t option
(** Marginal of a fact if it appears within the enumerated-so-far prefix
    or is found by scanning ahead up to an internal bound; [None] means
    "not found within the scan bound" (treat as probability unknown, not
    zero). *)

val prefix : t -> int -> (Fact.t * Rational.t) list
(** The first [min n length] entries. *)

val tail_mass : t -> int -> float option

(** {1 The truncation search} *)

type search =
  | Found of int * float
      (** the least [n <= max_n] with [tail n <= bound], and the
          certified [tail n] observed there *)
  | Too_slow of int * float
      (** the certificate answers, but never within [bound] up to
          [max_n]: the deepest answered probe and its value — the
          "series may converge arbitrarily slowly" case of Section 6 *)
  | Silent of int
      (** no probe up to the given depth ([max_n]) answered at all *)

val search : ?max_n:int -> (int -> float option) -> float -> search
(** [search tail bound] over an antitone certificate such as
    [tail_mass s] (default [max_n = 2^20]).  It gallops
    [0, 1, 3, 7, ...] and bisects the gap above the last failing probe:
    each index is probed at most once, nothing above [2n + 1] is probed
    for an answer [n], and [max_n] only if the gallop reaches it — so a
    silent or too-weak certificate is classified after at most
    [ceil(log2(max_n + 1)) + 1] probes.
    @raise Invalid_argument if [bound < 0] or [max_n < 0]. *)

val uncertified : ?max_n:int -> (int -> float option) -> int option
(** The search at an unbounded target: [None] once some probe up to
    [max_n] (default [2^20]) answers with a finite tail, else
    [Some max_n], the depth probed to.  A certificate answering only
    NaN certifies nothing.  A certificate may legitimately first answer
    at depth — e.g. only past the already-scanned prefix — so [Some _]
    means "no certificate below [max_n]", not a proof of divergence. *)

val converges : ?max_n:int -> t -> bool
(** [uncertified ?max_n (tail_mass s) = None]: Theorem 4.8's test. *)

val seq_of : t -> (Fact.t * Rational.t) Seq.t
(** The memoized enumeration as a sequence: entry [i] is [nth s i], so
    re-traversal is free and pulls are shared with every other
    consumer.  Used to concatenate sources (e.g. a packed store prefix
    followed by a completion tail). *)

val prefix_sum : t -> int -> Rational.t
(** Exact sum of the first [n] probabilities. *)

val truncate : t -> int -> Ti_table.t
(** The finite TI table on the first [n] facts — the [Omega_n] of
    Proposition 6.1: the source's [table n] when it answers, otherwise
    built from the first [n] pulled entries. *)

val append_finite : (Fact.t * Rational.t) list -> t -> t
(** Prepend finitely many entries (e.g. the original facts of a
    completion) ahead of a countable tail.  Facts in the list must not
    reappear in the tail — validated lazily. *)

val interleave : t -> t -> t
(** Fair interleaving; tails add.  Fact sets must be disjoint (validated
    lazily). *)

val with_budget : Budget.t -> t -> t
(** A view of the source whose accesses are charged against the budget:
    one [Facts] unit per entry first pulled through the wrapper, one
    [Probes] unit per tail-certificate consultation.  Each access
    checkpoints first, so once the budget is exhausted the next access
    raises [Budget.Exhausted] — the cooperative cancellation point of
    every enumeration-driven engine.  Entries the wrapper has already
    paid for are served free of charge.  A prefix table the wrapped
    source hands over (its [table] hook) is paid as the pulls that
    would have built it, at the same checkpoints, once fetched. *)
