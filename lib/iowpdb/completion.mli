(** Open-world completions of probabilistic databases (Section 5).

    A completion of a PDB [D] extends its sample space to {e all} finite
    instances while preserving the original law conditionally:
    [P'(A | Omega) = P(A)] — the completion condition (CC) of
    Definition 5.1.  Theorem 5.5 builds one by independent facts: pick
    convergent probabilities [(p_f)] for the facts outside [F(D)], none
    equal to 1, and take the product of [D] with the countable
    tuple-independent PDB they induce.

    This module implements that construction over a finite original PDB
    and a countable source of new facts, together with the policies that
    generalize OpenPDBs (a [lambda] bound for a finite reservoir of new
    facts; a convergent-series bound for an infinite one — the
    generalization suggested at the end of Section 5.1). *)

type t

val complete : Finite_pdb.t -> Fact_source.t -> t
(** @raise Invalid_argument if the source diverges, contains a fact of
    probability 1 (then [P'(Omega) = 0], violating Definition 5.1), or —
    checked lazily on access — overlaps [F(D)]. *)

val complete_ti : Ti_table.t -> Fact_source.t -> t
(** Convenience: complete a finite TI table.  The result is itself
    tuple-independent (original facts and new facts all independent). *)

val original : t -> Finite_pdb.t
val new_facts : t -> Fact_source.t

val marginal : t -> Fact.t -> Rational.t option
(** [P'(E_f)]: exact for original facts (their marginal is unchanged —
    independence of the completing product) and for enumerated new
    facts. *)

val truncated : t -> n:int -> Finite_pdb.t
(** The finite product PDB [D x C_n] over the original worlds and the
    first [n] new facts: the object the approximation algorithm of
    Section 6 actually evaluates queries on. *)

val completion_condition_gap : t -> n:int -> Rational.t
(** [max_D |P'_n(D | Omega) - P(D)|] over original worlds [D], computed
    exactly on the truncated completion.  Theorem 5.5 says this is
    exactly 0 for every [n] — the test suite and experiment E7 assert
    it. *)

val omega_prob_bounds : t -> n:int -> Interval.t
(** Enclosure of [P'(Omega)] — the mass remaining on original worlds =
    [prod_{new f} (1 - p_f)]; positive by construction. *)

val query_prob : t -> eps:float -> Fo.t -> Approx_eval.result
(** Additive [eps]-approximation of a Boolean query on the completed PDB
    (Proposition 6.1 over the product measure: one lineage BDD, weighted
    model counts per original world).
    Runs the certify step of {!Approx_eval.certify} on the new-fact
    source.
    @raise Invalid_argument when [eps] is outside [(0, 1/2)] or the tail
    never certifies [eps] within the probe bound; see {!query_prob_r}
    for the recoverable form. *)

val query_prob_r :
  ?budget:Budget.t ->
  t ->
  eps:float ->
  Fo.t ->
  (Approx_eval.result, Errors.t) result
(** Like {!query_prob}, with classified failures instead of exceptions:
    a tail that does not certify [eps] (or an exhausted [budget]) comes
    back as [Budget_exhausted] {e carrying the best sound enclosure
    obtained so far}; malformed completions surface as [Model_invalid].
    When [budget] is given, new-fact accesses are charged as
    [Facts]/[Probes] and BDD allocations as [Bdd_nodes]. *)

val complete_r : Finite_pdb.t -> Fact_source.t -> (t, Errors.t) result
(** {!complete} with classified failures ([Divergent_source] on a
    divergent new-fact source, [Model_invalid] otherwise). *)

val marginals : t -> eps:float -> Fo.t -> (Tuple.t * Rational.t) list
(** Open-world answer-tuple marginals of a query with 1-3 free variables:
    the Section 3.1 semantics applied to the completion, each probability
    carrying the Proposition 6.1 additive guarantee (evaluation over the
    active domain of the original and truncated new facts).  Nonzero
    entries only. *)

val expected_answer_count : t -> eps:float -> Fo.t -> Rational.t
(** [E(|Q(D)|)] by linearity of expectation: the sum of the answer-tuple
    marginals over the truncated domain. *)

(** {1 Countable originals (Remark 5.6)} *)

val complete_countable_ti :
  Countable_ti.t -> Fact_source.t -> Countable_ti.t
(** Completion of a {e countable} tuple-independent original: Remark 5.6
    notes that countable TI PDBs already satisfy the closure properties
    Theorem 5.5 needs, and their independent-fact completion is simply the
    TI PDB over the union of the two convergent fact families.  The new
    facts are validated (lazily) to be disjoint from the original
    enumeration's prefix and free of probability-1 entries.
    @raise Invalid_argument if either source diverges. *)

(** {1 Open-world policies} *)

val openpdb_lambda :
  lambda:Rational.t -> new_facts:Fact.t list -> Ti_table.t -> t
(** The OpenPDB-style completion of Ceylan et al.: finitely many new
    facts, each with probability [lambda].
    @raise Invalid_argument unless [0 <= lambda < 1]. *)

val geometric_policy :
  first:Rational.t ->
  ratio:Rational.t ->
  new_facts:(int -> Fact.t) ->
  Ti_table.t ->
  t
(** Infinitely many new facts with geometrically decaying probabilities —
    the "bounded by the summands of a fixed convergent series"
    generalization. *)
