(** Finite probabilistic databases as explicit world tables.

    The most general finite PDB: a finite probability space whose sample
    points are instances (Definition 3.1 restricted to finite [Omega]).
    TI and BID tables embed into this representation; views and
    conditioning are defined here because they are representation-level
    operations (Section 3.1, equation (3)). *)

type t

val create : (Instance.t * Rational.t) list -> t
(** Duplicate instances have their masses merged; zero-mass entries are
    kept in the sample space (instances of probability 0 are explicitly
    allowed by the paper — see the discussion after Definition 3.1).
    @raise Invalid_argument if masses are negative or do not sum to
    exactly 1. *)

val worlds : t -> (Instance.t * Rational.t) list
val num_worlds : t -> int

val prob_of : t -> Instance.t -> Rational.t
(** Mass of one instance (0 if absent from the sample space). *)

val prob_event : t -> (Instance.t -> bool) -> Rational.t

val prob_ef : t -> Fact.t -> Rational.t
(** [P(E_f)]: the marginal of one fact (Definition 3.1). *)

val prob_intersects : t -> Fact.Set.t -> Rational.t
(** [P(E_F)] for a set of facts.

    Paper: P(E_F) of Definition 3.1. *)

val fact_universe : t -> Fact.t list
(** [F(D)]: facts occurring in some world (regardless of its mass). *)

val expected_size : t -> Rational.t
val size_distribution : t -> (int * Rational.t) list
(** Paper: the size S_D of Section 3. *)

val condition : t -> (Instance.t -> bool) -> t
(** Conditional distribution given the event.
    @raise Invalid_argument when the event has probability zero. *)

val apply_fo_view : (string * Fo.t) list -> t -> t
(** FO-view: each pair [(R', phi)] defines target relation [R'] as
    [phi(D)] under active-domain semantics.  The result is the
    pushforward PDB of the view (Section 3.1).

    Paper: FO views (Section 3.1), as in Proposition 4.9. *)

val product : t -> t -> t
(** Independent product via disjoint union of instances — the coupling
    used in the proof of Theorem 5.5.
    @raise Invalid_argument if some pair of worlds shares a fact. *)

val of_ti : Ti_table.t -> t
val of_bid : Bid_table.t -> t

val is_tuple_independent : t -> bool
(** Checks Lemma 4.2's criterion exhaustively: all fact events
    independent.  Exponential in the number of distinct facts; testing
    only.

    Paper: Lemma 4.2. *)

val equal_distribution : t -> t -> bool
(** Same masses on the union of supports (instances of mass 0 are
    ignored).

    Reference: tests compare PDBs built two ways with it. *)

