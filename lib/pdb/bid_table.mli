(** Finite block-independent-disjoint (BID) probabilistic databases.

    The possible facts are partitioned into blocks; facts within a block
    are mutually exclusive (at most one occurs), distinct blocks are
    independent (Definition 4.11; finitely many finite blocks here, the
    countable generalization lives in the [iowpdb] library).  Each block
    [B] carries probabilities [p^B_f] with [sum_{f in B} p^B_f <= 1]; the
    slack is the probability that the block contributes no fact. *)

type t

type block = { block_id : string; alternatives : (Fact.t * Rational.t) list }

val create : ?schema:Schema.t -> block list -> t
(** @raise Invalid_argument on duplicate block ids, a fact occurring
    twice (within or across blocks), probabilities outside [\[0,1\]], or a
    block whose probabilities sum above 1. *)

val blocks : t -> block list

val prob : t -> Fact.t -> Rational.t
(** The fact's probability in its block; zero for a fact in no block.

    Reference: an observer for tests. *)

val block_slack : t -> string -> Rational.t
(** [1 - sum of the block's probabilities]: the "no fact from this block"
    mass. @raise Invalid_argument on an unknown block id.

    Paper: the slack of Definition 4.11. *)

val support : t -> Fact.t list
(** The facts of every block, in fact order.

    Reference: an observer for tests. *)

val size : t -> int
(** Reference: an observer for tests. *)

val num_blocks : t -> int

val world_probability : t -> Instance.t -> Rational.t
(** Zero on bad instances.

    Paper: the world probability of a BID PDB (Definition 4.11). *)

val worlds : t -> (Instance.t * Rational.t) Seq.t
(** All good worlds: the product over blocks of (alternatives + 1).
    @raise Invalid_argument when that product exceeds [2^20]. *)

val sample : t -> Prng.t -> Instance.t

val of_ti : Ti_table.t -> t
(** Singleton blocks: tuple-independence as the special case noted after
    Definition 4.11.

    Paper: the remark after Definition 4.11. *)

val ti_simulation : t -> Ti_table.t * (string * Fo.t) list
(** The classical finite-case definability result the paper's Section 4.3
    discussion builds on: every finite BID PDB is an FO view of a
    tuple-independent PDB.  Returns an auxiliary TI table over a fresh
    relation [Choose(block, alt)] whose probabilities are the
    chain-conditional [p_i / (1 - p_1 - ... - p_{i-1})], together with FO
    view definitions (one formula per target relation) such that applying
    the view to the TI worlds reproduces this BID distribution exactly
    ([Finite_pdb.equal_distribution] in the tests).  Proposition 4.9 shows
    precisely this kind of simulation cannot exist for all {e countable}
    PDBs.

    Paper: the finite BID-as-TI-view result that Proposition 4.9
    contrasts. *)

val to_string : t -> string

(** {1 Text format} *)

val of_lines : ?file:string -> string list -> t
(** Parses the format {!to_string} emits — one block per line,
    [block_id: R(args) p | S(args) q]; blank lines and [#] comments
    ignored.  Malformed lines are reported with [file] (when given) and
    a 1-based line number; a fact repeated within a block with the same
    probability collapses, with a different probability it is rejected.
    @raise Invalid_argument on parse errors. *)
