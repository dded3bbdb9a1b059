(** Persistent mmap'd fact store: the [.iow] pack format.

    A pack is the canonical countable-TI presentation of the paper's
    evaluation model made durable: facts in non-increasing probability
    order (the enumeration of Lemma 4.4 / Prop 6.1, and of the authors'
    follow-up on tuple-independent representations), probabilities as
    exact rationals, plus a precomputed tail-mass sidecar.  Against that
    layout the two operations every engine performs on a table become
    trivial: [truncate ~n] is a pure O(1) slice of the first [n] facts,
    and the least [n] for a tail budget is the one truncation search
    ({!Fact_source.search}) over {!fact_source}, whose certificate is an
    O(1) sidecar lookup — no parsing, no scanning, no rational
    arithmetic on the hot path.

    Loading is zero-copy: the file is [Unix.map_file]'d into a char
    [Bigarray] and facts/probabilities are decoded on demand.  A
    magic/version header plus a whole-file checksum (verified on every
    load) turn a torn, truncated or bit-rotted pack into a structured
    {!Errors.Store} rejection — never a wrong answer.  The checksum step
    is injective per byte, so every single-byte corruption is detected
    deterministically.

    Layout (all integers little-endian u64):
    {v
    header   magic "IOWPACK1" | version | kind | checksum | length
             n_facts n_values n_rels n_strings n_blocks
             section offsets: strings values rels facts probs
             sidecar blocks
    strings  (offset, len) table + UTF-8 blob        (dictionary)
    values   (tag, payload) pairs                    (dictionary)
    rels     (name string id, arity) pairs           (dictionary)
    facts    offset table + [rel id, value ids...]   (desc. probability)
    probs    offset table + [num len, den len, magnitude bytes]
    sidecar  (n_facts + 1) float64 upper bounds on the exact tail mass
    blocks   reserved: always empty
    v}
    [kind] and [n_blocks] are always 0.  Kind 1 marked the
    block-independent-disjoint packs of older writers; {!load} rejects
    it, and any non-zero [n_blocks], as a ["header"] error. *)

type t

(** {1 Writing} *)

val write_ti : path:string -> Ti_table.t -> unit
(** Pack a TI table: facts sorted by descending probability (ties by
    [Fact.compare]), exact rational probabilities, sidecar of float64
    upper bounds on every suffix sum.  Replaces [path] through
    {!Durable.write}: after a crash or a failed write [path] holds the
    old pack or the whole new one, never a torn one. *)

(** {1 Loading} *)

val load : string -> t
(** mmap the pack and validate magic, version, kind, stored length and
    whole-file checksum, in that order.  O(file bytes) for the checksum
    and O(1) afterwards: no fact is decoded until asked for.
    @raise Errors.Error with [Errors.Store] locating the rejected
    region on any validation failure. *)

(** {1 Inspection} *)

val size : t -> int
(** Number of facts. *)

val byte_size : t -> int
val checksum_hex : t -> string
(** The validated whole-file checksum, as lowercase hex — the token the
    serving layer stores alongside a warm cache to revalidate it. *)

(** {1 Random access (lazy decode)} *)

val prob : t -> int -> Rational.t

val tail_mass : t -> int -> float
(** O(1) sidecar lookup: an upper bound on the exact rational mass of
    facts [n, n+1, ...]; antitone in [n], exactly [0.] at [n >= size].
    Indices above [size] are clamped. *)

(** {1 Truncation} *)

val truncate : t -> n:int -> Ti_table.t
(** The first [min n size] facts as a finite TI table — the truncation
    prefix of Lemma 4.4.  Only those [n] facts are decoded. *)

val to_ti_table : t -> Ti_table.t
(** Decode the whole pack. *)

(** {1 As a fact source} *)

val fact_source : ?rest:Fact_source.t -> t -> Fact_source.t
(** The pack as a countable enumeration with O(1) tail certificates:
    entries decode on demand (and memoize in the source's cache), and
    [tail n] is a sidecar lookup instead of a suffix scan — so
    [Countable_ti.create] on the result certifies convergence without
    touching a single fact.

    [rest] appends an open-world completion tail after the packed
    facts: the combined certificate is
    [tail_mass pack n +. tail rest (max 0 (n - size))], which is how
    [serve --store] combines a pack with a completion policy without
    materializing the table at boot. *)

(** {1 Verification} *)

val verify_against_ti : t -> Ti_table.t -> (unit, string) result
(** Full round-trip check for [pack --verify]: decodes every fact and
    compares rationally against the given table (same facts, identical
    probabilities). *)
