(** Cross-engine differential fuzzing against the enumeration oracle.

    Each case draws a random instance and query ({!Oracle_gen}), builds
    the exact {!Oracle} universe, and runs the enabled engines against
    it:

    - the exact closed-world path ({!Query_eval} BDD and enumeration)
      must agree with the oracle {e exactly} — rational equality, no
      tolerance;
    - the lifted safe-plan engine, on every query it accepts, must agree
      with both the oracle and the compiled BDD by rational equality
      (checks [lifted.oracle] / [lifted.bdd]);
    - every reported interval ({!Approx_eval} bounds, on a completion
      through [Completion.source],
      {!Anytime} bounds, {!Robust_eval} enclosures) must intersect the
      oracle's exact tail enclosure of the same limit probability — two
      sound intervals around one value cannot be disjoint;
    - Monte-Carlo intervals ({!Mc_eval}) are checked the same way at a
      Bonferroni-corrected confidence, so the whole run has a bounded
      false-alarm rate and a fixed seed makes it deterministic;
    - the batch engine ({!Batch_eval}), on an adversarial batch built
      from the case's query — the query twice, an alpha-renamed copy
      and the negation: member 0 must match the oracle exactly, the
      repeat must route as a duplicate, the renamed copy must agree by
      rational equality, every member must equal the one-at-a-time
      {!Query_eval} loop under the batch's padding (check [batch.map]),
      and the whole answer vector must be bit-identical at every
      [domains] count (check [batch.domains]);
    - metamorphic laws that need no oracle at all: complement
      [P(not Q) = 1 - P(Q)], monotonicity of positive queries under
      fact-probability increase, the completion condition (CC) of
      Definition 5.1, Theorem 5.5's product equal to the completed TI
      source world by world ([law.completion_ti]), BID within-block
      exclusivity, Corollary 4.7
      expected size, and truncation-monotone narrowing of the oracle
      enclosure (limit semantics, so [Cmp]-free queries only).

    A failing case is shrunk (fewer facts, structurally smaller query)
    while the same check keeps failing, and can be serialized to a
    corpus file that {!of_lines} reads back — the regression-replay
    format under [test/corpus/]. *)

type engine = Exact | Lifted | Approx | Anytime | Mc | Robust | Batch | Delta

val all_engines : engine list
val engine_to_string : engine -> string

val engines_of_string : string -> (engine list, string) result
(** Comma-separated list, e.g. ["exact,mc"]; ["all"] means every
    engine. *)

type kind =
  | K_ti  (** finite tuple-independent table *)
  | K_open  (** finite prefix + infinite geometric tail (countable TI) *)
  | K_bid  (** finite block-independent-disjoint table *)
  | K_completion  (** finite original completed by a policy (Section 5) *)

val kind_to_string : kind -> string

type case = {
  id : int;
  kind : kind;
  table : Ti_table.t;
      (** the TI facts: the whole instance ([K_ti]), the enumerated
          prefix ([K_open]), or the original PDB ([K_completion]);
          empty for [K_bid] *)
  bid : Bid_table.t option;  (** [K_bid] only *)
  policy : Completion.policy option;
      (** the completing policy ([K_completion]) or the geometric tail
          ([K_open], always [Geometric]) *)
  query : Fo.t;
  deltas : Delta_eval.delta list;
      (** a random mutation sequence (checks [mutation.*]); nonempty on
          [K_ti] cases, replayed from [delta] corpus lines *)
}

val generate : Oracle_gen.config -> seed:int -> id:int -> case
(** Case [id] of the stream for [seed] — a pure function of
    [(config, seed, id)], independent of any other case. *)

type failure = {
  f_case : case;
  check : string;
      (** dotted check name, e.g. ["approx.bounds"], ["law.complement"];
          the prefix identifies the engine *)
  detail : string;  (** expected-vs-got, single line *)
}

val engine_of_check : string -> engine
(** Which engine a check name exercises (shrinking re-runs only that
    engine). *)

val run_case :
  ?engines:engine list ->
  ?mc_samples:int ->
  ?mc_confidence:float ->
  case ->
  int * failure list
(** Run all enabled checks on one case; returns [(checks_run,
    failures)].  An engine that raises an unexpected exception fails its
    check with the exception text.  Oracle universes that would exceed
    2^16 worlds cause the affected checks to be skipped (not counted). *)

type report = {
  cases_run : int;
  checks_run : int;
  engines_run : engine list;
  mc_confidence : float;
      (** the Bonferroni-corrected per-check confidence used for
          Monte-Carlo containment *)
  failures : failure list;  (** shrunk, in case order *)
  corpus_written : string list;  (** paths, when [corpus_dir] was given *)
}

val run :
  ?config:Oracle_gen.config ->
  ?engines:engine list ->
  ?mc_samples:int ->
  ?corpus_dir:string ->
  seed:int ->
  cases:int ->
  unit ->
  report
(** The fuzzing loop: cases [0 .. cases-1] of the stream for [seed].
    Expensive engines rotate across cases (exact and truncation paths
    run on every applicable case; anytime, Monte-Carlo and the robust
    supervisor on strided subsets).  Failures are shrunk, and — when
    [corpus_dir] is given — written there as replayable [.case] files.
    Bit-reproducible for fixed arguments. *)

(** {1 Corpus serialization} *)

type corpus_case = {
  c_case : case;
  c_check : string;  (** the check the case was minimized against *)
  c_detail : string;  (** the failure detail at capture time *)
}

val to_lines : seed:int -> corpus_case -> string list
val of_lines : ?file:string -> string list -> corpus_case
(** Inverse of {!to_lines}; blank lines and [#] comments ignored.
    @raise Invalid_argument on malformed input, citing [file] and the
    line. *)

val load : string -> corpus_case
(** Read a [.case] file. *)
