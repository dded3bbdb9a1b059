(** Deterministic, splittable pseudo-random numbers (SplitMix64).

    Implemented from scratch so every sampled experiment in the repository
    is exactly reproducible from a seed, independent of the OCaml stdlib's
    [Random] evolution.  [split] yields an independent stream, which keeps
    parallel samplers (e.g. one per sampled world) decorrelated. *)

type t

val create : ?seed:int -> unit -> t
(** Default seed is a fixed constant: runs are reproducible by default. *)

val copy : t -> t

val split : t -> t
(** A statistically independent generator; the original advances. *)

val substream : t -> int -> t
(** [substream g i] is the [i]-th child stream of [g]: the generator that
    the [(i+1)]-th successive {!split} would return, derived in constant
    time {e without} advancing [g].  Pure in both arguments, so
    [substream g i] is a function of the index — the per-index /
    per-batch generator used by {!Sampler} and the Monte-Carlo engine to
    make draws reproducible and independent of traversal order or domain
    count.  @raise Invalid_argument if [i < 0]. *)

val next_int64 : t -> int64
(** Uniform over all 2^64 bit patterns. *)

val int : t -> int -> int
(** [int g n] is uniform on [\[0, n)]. Unbiased (rejection sampling).
    @raise Invalid_argument if [n <= 0]. *)

val float : t -> float
(** Uniform on [\[0, 1)] with 53 random bits. *)

val bool : t -> bool

val bernoulli : t -> float -> bool
(** [bernoulli g p] is true with probability [p].
    @raise Invalid_argument if [p] is outside [\[0,1\]]. *)

val bernoulli_rational : t -> Rational.t -> bool
(** Exact Bernoulli draw for a rational probability [a/b]: draws a uniform
    integer below [b] and compares with [a]; no float rounding at all. *)

val geometric : t -> float -> int
(** [geometric g p] counts failures before the first success
    (support [0, 1, 2, ...]). @raise Invalid_argument unless [0 < p <= 1]. *)

val exponential : t -> float -> float
(** Rate-parameterized. *)

val uniform_in : t -> float -> float -> float

val pick : t -> 'a array -> 'a
(** Uniform element. @raise Invalid_argument on an empty array. *)

val categorical : t -> float array -> int
(** Index distributed proportionally to the given nonnegative weights.
    @raise Invalid_argument if all weights are zero or any is negative. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher-Yates. *)

val sample_without_replacement : t -> int -> int -> int list
(** [sample_without_replacement g k n] draws [k] distinct values from
    [\[0, n)], in increasing order. @raise Invalid_argument if [k > n]. *)
