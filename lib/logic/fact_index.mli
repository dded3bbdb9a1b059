(** Facts indexed by relation and argument position.

    The one lookup both the lineage grounder ({!Lineage}) and the lifted
    evaluator ({!Safe_plan}) ask: "which values can variable [x] take in
    atom [R(t_1, ..., t_k)] so that some fact matches?".  A position
    holding a known value (a constant or an already-bound variable) is
    answered from the bucket of that value in the position's map (value
    -> facts); a pattern with no known value reads the distinct values
    at [x]'s position, the map's keys.  A position's map is built at its
    second lookup (the first scans the relation), so a one-shot lifted
    evaluation pays no more than a scan.  The index is persistent:
    {!add} shares the previous index, so sessions that grow their fact
    set pay once per fact. *)

type t

val of_list : Fact.t list -> t

val add : t -> Fact.t -> t
(** The index with one more fact; maps built so far are extended, the
    argument index is unchanged. *)

val values : t -> Set.Make(Value).t
(** Every value occurring in some indexed fact (the active domain). *)

(** One argument position of an atom pattern. *)
type slot =
  | Bound of Value.t  (** must hold this value *)
  | Free  (** any value (a variable bound inside the lookup's scope) *)
  | Target  (** the variable looked up; all its positions agree *)

val fold_matching :
  t -> string -> slot array -> (Value.t -> 'a -> 'a) -> 'a -> 'a
(** [fold_matching idx r slots f acc] folds [f] over the value at the
    [Target] positions of every indexed fact [r(a_1, ..., a_k)], [k] the
    length of [slots], whose [Bound] positions hold their values and
    whose [Target] positions all hold one value.  A value may be visited
    more than once.  [slots] must contain at least one [Target]. *)
