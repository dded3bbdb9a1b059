(** Lifted ("extensional", safe-plan) inference for unions of Boolean
    conjunctive queries over tuple-independent tables.

    This is the tractable side of the Dalvi-Suciu dichotomy, built as one
    of the interchangeable "traditional closed-world query evaluation
    algorithms" that Proposition 6.1 plugs into: a recursive planner
    applies independent-union, independent-join, independent-project and
    inclusion-exclusion rules, certifying safety syntactically and
    computing the probability in polynomial time — no lineage
    compilation.

    Queries the rules cannot certify are rejected with [None]
    (completeness is the lineage engine's job, not this one's), and the
    evaluator re-checks every rule precondition on the concrete
    groundings, so an answer is only ever produced when the independence
    arguments hold on the instance at hand. *)

(** {1 The UCQ planner} *)

type atom = { rel : string; args : Fo.term list }

type plan =
  | P_true
  | P_zero
  | P_weight of atom  (** ground-atom probability lookup *)
  | P_join of plan list  (** independent conjunction *)
  | P_union of plan list  (** independent disjunction *)
  | P_project of string * plan  (** independent project on a separator *)
  | P_incl_excl of (int * plan) list  (** signed inclusion-exclusion *)

val plan_of : Fo.t -> plan option
(** The certified safe plan for a positive existential sentence, [None]
    when the sentence is not a UCQ (negation, universal quantifiers,
    [Cmp], free variables) or no rule sequence applies — the hard side
    of the dichotomy, or beyond this planner's fragment. *)

val plan_to_string : plan -> string
(** Compact one-line rendering, e.g.
    [project x (join(P[R(\x01sp.hole.0)], P[S(\x01sp.hole.0)]))]. *)

val is_safe : Fo.t -> bool
(** [plan_of phi <> None]. *)

(** {1 Evaluation} *)

val probability :
  ?step:(unit -> unit) ->
  weight:(Fact.t -> Rational.t) ->
  facts:Fact.t list ->
  Fo.t ->
  Rational.t option
(** [probability ~weight ~facts q]: the probability of the Boolean
    query [q] in the tuple-independent PDB whose possible facts are
    [facts] with marginals [weight].  [None] when no safe plan applies.
    Existential quantifiers range over the values occurring in [facts]
    (plus the query's constants), matching the lineage engine's
    domain; positive existential sentences cannot distinguish that
    domain from any inert extension, so the answer is also the padded
    (limit-semantics) one.  [step] is invoked once per rule
    application and may raise to abort (budget cancellation). *)
