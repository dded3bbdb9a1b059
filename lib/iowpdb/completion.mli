(** Open-world completions of probabilistic databases (Section 5).

    A completion of a PDB [D] extends its sample space to {e all} finite
    instances while preserving the original law conditionally:
    [P'(A | Omega) = P(A)] — the completion condition (CC) of
    Definition 5.1.  Theorem 5.5 builds one by independent facts: pick
    convergent probabilities [(p_f)] for the facts outside [F(D)], none
    equal to 1, and take the product of [D] with the countable
    tuple-independent PDB they induce.

    Every original here is tuple-independent, and the product of two TI
    PDBs over disjoint facts is the TI PDB over the union of the two fact
    families (Remark 5.6).  So a completion {e is} one countable TI
    source ({!source}), and queries on it go through the countable-TI
    engines: [Approx_eval.boolean] / [boolean_r] / [marginals],
    [Anytime], [Robust_eval] and [Mc_eval] (on [Countable_ti.sampler]).
    What stays here is the
    construction, the Theorem 5.5 reference objects over explicit worlds
    ({!truncated}, {!completion_condition_gap}, {!omega_prob_bounds} —
    exponential in the table, for small tables), and the policies that
    generalize OpenPDBs: a [lambda] bound for a finite reservoir of new
    facts, a convergent-series bound for an infinite one (the
    generalization suggested at the end of Section 5.1). *)

type t

val complete_ti : Ti_table.t -> Fact_source.t -> t
(** Complete a finite TI table with the independent new facts of a
    source.
    @raise Invalid_argument if the source diverges, contains a fact of
    probability 1 (then [P'(Omega) = 0], violating Definition 5.1), or
    overlaps the table — the last two checked eagerly on a bounded
    prefix and lazily beyond it. *)

val source : t -> Fact_source.t
(** The completed PDB as one countable TI source: the table's facts
    followed by the new facts.  Each call builds a fresh memoizing view
    over the shared new-fact source. *)

val original : t -> Ti_table.t
val new_facts : t -> Fact_source.t

val marginal : t -> Fact.t -> Rational.t option
(** [P'(E_f)]: exact for original facts (their marginal is unchanged —
    independence of the completing product) and for enumerated new
    facts. *)

val truncated : t -> n:int -> Finite_pdb.t
(** The finite product PDB [D x C_n] over the original worlds and the
    first [n] new facts, as explicit worlds.

    Paper: the finite product D x C_n in the proof of Theorem 5.5. *)

val completion_condition_gap : t -> n:int -> Rational.t
(** [max_D |P'_n(D | Omega) - P(D)|] over original worlds [D], computed
    exactly on the truncated completion.  Theorem 5.5 says this is
    exactly 0 for every [n] — the test suite and experiment E7 assert
    it. *)

val omega_prob_bounds : t -> n:int -> Interval.t
(** Enclosure of [P'(Omega)] — the mass remaining on original worlds =
    [prod_{new f} (1 - p_f)]; positive by construction.  Where the new
    facts' certificate does not answer at [n], the factor of the facts
    past [n] is only known to lie in [\[0, 1\]].

    Paper: Theorem 5.5 (P'(Omega) > 0). *)

(** {1 Countable originals (Remark 5.6)} *)

val complete_countable_ti :
  Countable_ti.t -> Fact_source.t -> Countable_ti.t
(** Completion of a {e countable} tuple-independent original: its
    independent-fact completion is the TI PDB over the union of the two
    convergent fact families.  The new facts are validated (lazily) to
    be disjoint from the original enumeration's prefix and free of
    probability-1 entries.
    @raise Invalid_argument if either source diverges.

    Paper: Remark 5.6. *)

(** {1 Open-world policies} *)

type policy =
  | Lambda of Rational.t * int
      (** [lambda:<p>:<k>]: new facts [N(0) .. N(k-1)], each of
          probability [p] *)
  | Geometric of Rational.t * Rational.t
      (** [geometric:<first>:<ratio>]: infinitely many new facts [N(j)]
          of probability [first * ratio^j] *)

val policy_of_string : string -> policy
(** The one parser of the policy spec.  Definition 5.1 is enforced up
    front: [0 <= p < 1], [0 < first < 1], [0 < ratio < 1], [k >= 0].
    @raise Invalid_argument ("bad policy ...") otherwise. *)

val policy_to_string : policy -> string
(** Inverse of {!policy_of_string}. *)

val policy_source : policy -> Fact_source.t
(** The policy's new facts over relation [N] as a fresh source (sources
    memoize, so concurrent consumers each build their own). *)

val openpdb_lambda :
  lambda:Rational.t -> new_facts:Fact.t list -> Ti_table.t -> t
(** The OpenPDB-style completion of Ceylan et al.: finitely many new
    facts, each with probability [lambda].
    @raise Invalid_argument unless [0 <= lambda < 1].

    Paper: the OpenPDB completion (Ceylan et al.) that Section 5
    generalises. *)

val geometric_policy :
  first:Rational.t ->
  ratio:Rational.t ->
  new_facts:(int -> Fact.t) ->
  Ti_table.t ->
  t
(** Infinitely many new facts with geometrically decaying probabilities —
    the "bounded by the summands of a fixed convergent series"
    generalization. *)
