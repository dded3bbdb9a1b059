(** Countable block-independent-disjoint PDBs (Section 4.4,
    Proposition 4.13, Theorem 4.15).

    Countably many blocks, each a finite or countable family of mutually
    exclusive facts with exact block mass [sum_{f in B} p^B_f <= 1];
    distinct blocks are independent.  Existence requires the total mass
    [sum_B sum_{f in B} p^B_f] to converge (Theorem 4.15), which [create]
    enforces through the block source's tail certificate. *)

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
    (Theorem 4.15's necessity).  The raw certificate goes through the
    truncation search ({!Fact_source.search}, up to [2^20]) {e without}
    forcing the block enumeration (so deep-answering certificates are
    accepted cheaply); only if it stays silent is a search up to 1024
    blocks run through the forcing tail, which can still detect a
    finite enumeration whose tail is exactly 0. *)

(** {!create} with classified failures ([Divergent_source], with the
    depth the raw certificate was searched to, when it never answers). *)

val of_finite_blocks : ?name:string -> block list -> t

val name : t -> string

val nth_block : t -> int -> block option
val block_mass : block -> Rational.t
val block_slack : block -> Rational.t
(** Paper: the slack 1 - sum_f p^B_f of Definition 4.11. *)

val alternatives : ?limit:int -> block -> (Fact.t * Rational.t) list

val marginal : t -> Fact.t -> Rational.t option
(** Scan the first blocks / alternatives for the fact (bounded scan);
    [None] = not found. *)

val tail_mass : t -> int -> float option
(** Certified upper bound on [sum_{i>=n} mass(B_i)] (exactly 0 once the
    block enumeration is exhausted before [n]); [None] when the
    certificate cannot answer at [n]. *)

val expected_size_bounds : t -> n:int -> float * float
(** From the first [n] blocks' exact masses plus the tail bound. *)

val truncate : t -> n_blocks:int -> alts_per_block:int -> Bid_table.t
(** Finite BID table on the first blocks and alternatives. *)

val sample : ?tail_cut:float -> ?max_blocks:int -> t -> Prng.t -> Instance.t
(** One independent draw per block (at most one fact each); blocks stop
    being processed once the remaining block-mass tail is below
    [tail_cut] (default [2^-20]) or [max_blocks] (default 4096) blocks
    were visited; within an infinite block, alternatives beyond
    cumulative mass [1 - tail_cut] collapse into "no fact".  The sampled
    law is within the achieved residual mass of the true one in total
    variation. *)
