(* First-occurrence variable order over a list of lineages: keeps
   co-occurring variables adjacent (linear BDDs for join lineages where a
   sorted-by-relation order is exponential).  Over several lineages the
   order is that of their concatenation, so one manager can hold a whole
   batch; variables outside every lineage sort after the ranked ones. *)
let first_occurrence_order exprs =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun e ->
      List.iter
        (fun v ->
          if not (Hashtbl.mem tbl v) then
            Hashtbl.add tbl v (Hashtbl.length tbl))
        (Bool_expr.occurrence_order e))
    exprs;
  fun v ->
    match Hashtbl.find_opt tbl v with
    | Some r -> r
    | None -> v + Hashtbl.length tbl

let compile ?tick ?on_free ?cache_size ?gc_threshold e =
  let order = first_occurrence_order [ e ] in
  Bdd.of_expr (Bdd.manager ~order ?tick ?on_free ?cache_size ?gc_threshold ()) e

module Make (C : Prob.CARRIER) = struct
  let probability ~weight (t : Bdd.t) : C.t =
    Bdd.fold_prob ~zero:C.zero ~one:C.one
      ~node:(fun v plo phi ->
        let p = weight v in
        C.add (C.mul p phi) (C.mul (C.compl p) plo))
      t

  let probability_expr ?tick ?on_free ?cache_size ?gc_threshold ~weight e =
    probability ~weight (compile ?tick ?on_free ?cache_size ?gc_threshold e)
end

let float_probability ~weight e =
  let module M = Make (Prob.Float_carrier) in
  M.probability_expr ~weight e

let rational_probability ~weight e =
  let module M = Make (Prob.Rational_carrier) in
  M.probability_expr ~weight e

let interval_probability ~weight e =
  let module M = Make (Prob.Interval_carrier) in
  M.probability_expr ~weight e
