(** Countable block-independent-disjoint PDBs (Section 4.4,
    Proposition 4.13, Theorem 4.15).

    Countably many blocks, each a finite or countable family of mutually
    exclusive facts with exact block mass [sum_{f in B} p^B_f <= 1];
    distinct blocks are independent.  Existence requires the total mass
    [sum_B sum_{f in B} p^B_f] to converge (Theorem 4.15), which [create]
    enforces through the block source's tail certificate.  A world is
    drawn from the {!sampler} plan, one draw per block up to the
    certified cut. *)

type block

val block :
  id:string ->
  ?mass:Rational.t ->
  (Fact.t * Rational.t) Seq.t ->
  block
(** A block of mutually exclusive alternatives.  For an infinite
    alternative sequence, [mass] (the exact total [sum p^B_f], needed for
    the "no fact from this block" slack) is required; for finite
    sequences it is computed when omitted.
    @raise Invalid_argument if a supplied mass is not in [\[0,1\]].

    Paper: a block of Definition 4.11. *)

val block_finite : id:string -> (Fact.t * Rational.t) list -> block

type t

val create :
  ?name:string ->
  blocks:block Seq.t ->
  tail:(int -> float option) ->
  unit ->
  t
(** [tail n] bounds [sum_{i>=n} mass(B_i)] over the block enumeration.
    @raise Invalid_argument if no finite certificate exists
    (Theorem 4.15's necessity).  The raw certificate goes through
    {!Fact_source.uncertified}, the test {!Fact_source.converges} runs
    (up to [2^20], so a certificate answering only NaN is rejected),
    {e without} forcing the block enumeration (so deep-answering
    certificates are accepted cheaply); only if it certifies nothing is
    a search up to 1024 blocks run through the forcing tail, which can
    still detect a finite enumeration whose tail is exactly 0. *)

val of_finite_blocks : ?name:string -> block list -> t

val nth_block : t -> int -> block option
(** Reference: an observer for tests (the sampler property walks the
    blocks a plan keeps). *)

val block_mass : block -> Rational.t
(** Paper: the block mass sum_f p^B_f of Definition 4.11. *)

val block_slack : block -> Rational.t
(** Paper: the slack 1 - sum_f p^B_f of Definition 4.11. *)

val alternatives : ?limit:int -> block -> (Fact.t * Rational.t) list
(** Reference: an observer for tests (the sampler property sums the
    in-block mass a plan drops). *)

val marginal : t -> Fact.t -> Rational.t option
(** Scan the first blocks / alternatives for the fact (bounded scan);
    [None] = not found. *)

val tail_mass : t -> int -> float option
(** Certified upper bound on [sum_{i>=n} mass(B_i)] (exactly 0 once the
    block enumeration is exhausted before [n]); [None] when the
    certificate cannot answer at [n].

    Reference: an observer for tests (the sampler property recomputes a
    plan's cut from it). *)

val expected_size_bounds : t -> n:int -> float * float
(** From the first [n] blocks' exact masses plus the tail bound; the
    upper bound is [infinity] where the certificate does not answer at
    [n]. *)

val truncate : t -> n_blocks:int -> alts_per_block:int -> Bid_table.t
(** Finite BID table on the first blocks and alternatives. *)

val sampler : t -> Sampler.t
(** The sampling plan: the blocks before {!Sampler.cut} of the block
    tail certificate, and in each the alternatives until the remaining
    in-block mass is at most {!Sampler.tail_cut} (at most
    {!Sampler.max_depth} of them).  A draw picks at most one kept fact
    per block by sequential inversion; dropped mass collapses into "no
    fact from this block".  Its [tv] is the block tail at the cut plus
    the dropped in-block masses.  Built eagerly, so draws are
    domain-safe.
    @raise Invalid_argument if the certificate answers at no depth up
    to {!Sampler.max_depth}.

    Paper: Definition 4.11 (exclusive within a block, independent
    across blocks). *)
