(** Size distributions of probabilistic databases (Section 3.2).

    The random variable [S_D = ‖D‖].  For countable PDBs,
    [E(S_D) = sum_f P(E_f)] (equation (5)); tuple-independent PDBs always
    have finite expected size (Corollary 4.7), while general countable
    PDBs need not (Example 3.3) — the gap behind the non-definability
    result of Proposition 4.9. *)

val example_3_3 : unit -> (Instance.t * Rational.t) Seq.t
(** The paper's Example 3.3: instance [D_n = {R(1), ..., R(2^n)}] with
    probability [p_n] proportional to [1/n^2] — here exactly
    [p_n = c/(n(n+1))] with [c = 1] shifted to keep a probability
    distribution with the same [2^n / n^2]-style growth, so that
    [E(S_D) = sum p_n * 2^n] still diverges.  Infinite sequence;
    take a prefix.

    Paper: Example 3.3. *)

val example_3_3_expected_size_prefix : int -> Rational.t
(** [sum_{n<=N} p_n * ‖D_n‖]: the truncated expectation, which grows
    without bound (the experiment E4 series). *)

val example_3_3_mass_prefix : int -> Rational.t
(** [sum_{n<=N} p_n]: approaches 1.

    Paper: Example 3.3. *)

val tail_size_probability : (Instance.t * Rational.t) list -> int -> Rational.t
(** [P(S_D >= n)] of an explicit (sub-)distribution — equation (6) says
    this vanishes as [n] grows for any PDB.

    Paper: equation (6) and Proposition 3.4. *)

val histogram : (int -> Instance.t) -> samples:int -> (int * int) list
(** Sample sizes: [histogram draw ~samples] calls [draw i] for
    [i = 0..samples-1] and tallies [‖D‖]; returns (size, count) sorted. *)

val mean_size : (int -> Instance.t) -> samples:int -> float
