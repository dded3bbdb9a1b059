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

let count ~weight roots =
  Array.map
    (fun (n, d) -> Rational.make n d)
    (Bdd.scaled_count
       ~weight:(fun v ->
         let p = weight v in
         (Rational.num p, Rational.den p))
       roots)

let probability ?tick ~weight e =
  let order = first_occurrence_order [ e ] in
  (count ~weight [| Bdd.of_expr (Bdd.manager ~order ?tick ()) e |]).(0)
