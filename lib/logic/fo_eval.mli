(** Active-domain evaluation of first-order formulas on finite instances.

    Quantifiers range over [adom(D) ∪ adom(phi) ∪ extra], where [extra] is
    an optional caller-supplied finite domain.  By Fact 2.1 this captures
    all finite answers of FO queries over an infinite universe; it is also
    the standard safety convention that keeps evaluation total. *)

val models : ?extra_domain:Value.t list -> Instance.t -> Fo.t -> bool
(** [models d phi] decides [D |= phi] for a sentence.
    @raise Invalid_argument if [phi] has free variables. *)

val answers :
  ?extra_domain:Value.t list -> Instance.t -> Fo.t -> string list * Tuple.Set.t
(** [answers d phi] is [(xs, tuples)]: the free variables in sorted order
    and the set [phi(D)] of satisfying valuations (projected in that
    order).  For a sentence, the answer is the empty tuple iff [D |= phi]
    (the Boolean convention of Section 2.1). *)

val evaluation_domain : Instance.t -> Fo.t -> Value.t list -> Value.t list
(** The combined quantification domain used by the functions above
    (sorted, duplicate-free); exposed for tests and for the lineage
    construction. *)
