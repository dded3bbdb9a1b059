(** Nonnegative real series with certified tail bounds.

    A value of type {!t} represents a series [sum_{i>=0} a_i] of
    nonnegative terms together with, when the series converges, an upper
    bound on each tail [sum_{i>=n} a_i].  This is exactly the information
    Section 6 of Grohe & Lindner needs to truncate a countable
    tuple-independent PDB with a guaranteed residual mass, and Section 4
    needs to decide whether a family of fact probabilities is realizable at
    all (Theorem 4.8: realizable iff the series converges).

    Tail bounds are required to be sound (true tail [<=] bound) and
    monotone nonincreasing; they need not be tight.  Truncation points
    and convergence are asked of {!tail} through the one truncation
    search, [Fact_source.search]. *)

type t

val name : t -> string
val term : t -> int -> float
val tail : t -> int -> float option

(** {1 Stock series} *)

val geometric : ?first:float -> ratio:float -> unit -> t
(** [a_i = first * ratio^i] with [0 <= ratio < 1]; exact tails. *)

val zeta2 : ?scale:float -> unit -> t
(** [a_i = scale / (i+1)^2]; tail bound [scale / n] by the integral test
    (and [scale * pi^2/6] at 0).  With [scale = 6/pi^2] the terms are the
    probabilities of Example 2.4 of the paper. *)

val basel_probability : unit -> t
(** [zeta2] with [scale = 6/pi^2], i.e. a probability distribution on the
    positive integers.

    Paper: the probabilities of Example 2.4. *)

val log_slow : ?scale:float -> unit -> t
(** [a_i = scale / ((i+2) * ln^2 (i+2))]: a convergent series whose tail
    [~ scale / ln n] decays so slowly that truncation budgets explode —
    the "series may converge arbitrarily slowly" remark of Section 6. *)

val harmonic : ?scale:float -> unit -> t
(** [a_i = scale / (i+1)]; divergent: [tail] is always [None]. *)

val constant : value:float -> t
(** [a_i = value] for all [i]; divergent unless [value = 0]. *)

val of_list : float list -> t
(** A finite series padded with zeros; exact tails. *)

val map_scale : float -> t -> t
(** Multiply every term (and tails) by a nonnegative constant. *)

val drop : int -> t -> t
(** [drop k s] is the series of terms [k, k+1, ...] of [s]. *)

(** {1 Sums} *)

val partial_sum : t -> int -> float
(** Compensated sum of the first [n] terms. *)

(** {1 Infinite products (Section 2.2 of the paper)} *)

val product_compl_prefix : t -> int -> float
(** [prod_{i<n} (1 - a_i)], computed in log space.  Requires terms in
    [\[0,1\]]. *)

val product_compl_bounds : t -> int -> (float * float) option
(** Two-sided bounds on the full infinite product [prod_{i>=0} (1 - a_i)]
    from the first [n] factors and the tail bound at [n]:
    lower = prefix * exp(-(3/2) tail n)  (claim (∗), valid when all
    remaining terms are < 1/2; the bound checks [term n < 1/2] samples),
    upper = prefix * 1.
    Returns [None] if the series lacks a finite tail bound at [n].

    Paper: claim (∗). *)

val star_bound_gap : t -> int -> float option
(** Diagnostic for experiment E10: ratio between the true prefix product
    [prod_{i<n}(1-a_i)] and the claim-(∗) lower bound
    [exp(-(3/2) * partial_sum n)]; [None] when some term [>= 1/2] makes
    (∗) inapplicable. Always [>= 1] when defined. *)

(** {1 Lemma 2.3 (finite check)} *)

val distributive_law_check : float list -> float
(** For a finite list [a_1..a_k], returns
    [|prod (1+a_i) - sum_{J subseteq [k]} prod_{j in J} a_j|] — the
    finite instance of Lemma 2.3, used by tests to validate the identity
    the countable TI construction rests on.

    Paper: Lemma 2.3. *)
