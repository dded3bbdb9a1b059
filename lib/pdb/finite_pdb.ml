module IMap = Map.Make (struct
  type t = Instance.t

  let compare = Instance.compare
end)

type t = { worlds : Rational.t IMap.t }

let create entries =
  let m =
    List.fold_left
      (fun acc (inst, p) ->
        if Rational.sign p < 0 then
          invalid_arg "Finite_pdb.create: negative probability";
        let prev = Option.value (IMap.find_opt inst acc) ~default:Rational.zero in
        IMap.add inst (Rational.add prev p) acc)
      IMap.empty entries
  in
  let total = IMap.fold (fun _ p acc -> Rational.add acc p) m Rational.zero in
  if not (Rational.equal total Rational.one) then
    invalid_arg
      (Printf.sprintf "Finite_pdb.create: masses sum to %s, not 1"
         (Rational.to_string total))
  else { worlds = m }

let worlds t = IMap.bindings t.worlds
let num_worlds t = IMap.cardinal t.worlds

let prob_of t inst =
  Option.value (IMap.find_opt inst t.worlds) ~default:Rational.zero

let prob_event t pred =
  IMap.fold
    (fun inst p acc -> if pred inst then Rational.add acc p else acc)
    t.worlds Rational.zero

let prob_ef t f = prob_event t (fun inst -> Instance.mem f inst)

let prob_intersects t fs = prob_event t (fun inst -> Instance.intersects inst fs)

let fact_universe t =
  IMap.fold
    (fun inst _ acc -> Fact.Set.union acc (Instance.to_set inst))
    t.worlds Fact.Set.empty
  |> Fact.Set.elements

let expected_size t =
  IMap.fold
    (fun inst p acc ->
      Rational.add acc (Rational.mul p (Rational.of_int (Instance.size inst))))
    t.worlds Rational.zero

let size_distribution t =
  let tbl = Hashtbl.create 16 in
  IMap.iter
    (fun inst p ->
      let n = Instance.size inst in
      let prev = Option.value (Hashtbl.find_opt tbl n) ~default:Rational.zero in
      Hashtbl.replace tbl n (Rational.add prev p))
    t.worlds;
  Hashtbl.fold (fun n p acc -> (n, p) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let condition t pred =
  let mass = prob_event t pred in
  if Rational.is_zero mass then
    invalid_arg "Finite_pdb.condition: conditioning on a null event"
  else begin
    let m =
      IMap.fold
        (fun inst p acc ->
          if pred inst then IMap.add inst (Rational.div p mass) acc else acc)
        t.worlds IMap.empty
    in
    { worlds = m }
  end

let map v t =
  let m =
    IMap.fold
      (fun inst p acc ->
        let image = v inst in
        let prev = Option.value (IMap.find_opt image acc) ~default:Rational.zero in
        IMap.add image (Rational.add prev p) acc)
      t.worlds IMap.empty
  in
  { worlds = m }

let apply_fo_view defs t =
  let view inst =
    List.fold_left
      (fun acc (rname, phi) ->
        let _, tuples = Fo_eval.answers inst phi in
        Tuple.Set.fold
          (fun tup acc -> Instance.add (Fact.make_arr rname tup) acc)
          tuples acc)
      Instance.empty defs
  in
  map view t

let product a b =
  let entries =
    List.concat_map
      (fun (ia, pa) ->
        List.map
          (fun (ib, pb) ->
            (Instance.disjoint_union ia ib, Rational.mul pa pb))
          (worlds b))
      (worlds a)
  in
  create entries

let of_ti ti = create (List.of_seq (Ti_table.worlds ti))
let of_bid bid = create (List.of_seq (Bid_table.worlds bid))

let is_tuple_independent t =
  let fs = fact_universe t in
  if List.length fs > 15 then
    invalid_arg "Finite_pdb.is_tuple_independent: too many facts";
  let fs = Array.of_list fs in
  let n = Array.length fs in
  let marginals = Array.map (fun f -> prob_ef t f) fs in
  let ok = ref true in
  for mask = 0 to (1 lsl n) - 1 do
    let joint =
      prob_event t (fun inst ->
          let all = ref true in
          for i = 0 to n - 1 do
            if mask land (1 lsl i) <> 0 && not (Instance.mem fs.(i) inst) then
              all := false
          done;
          !all)
    in
    let expected = ref Rational.one in
    for i = 0 to n - 1 do
      if mask land (1 lsl i) <> 0 then
        expected := Rational.mul !expected marginals.(i)
    done;
    if not (Rational.equal joint !expected) then ok := false
  done;
  !ok

let equal_distribution a b =
  let keys =
    IMap.fold (fun k _ acc -> IMap.add k () acc) b.worlds
      (IMap.map (fun _ -> ()) a.worlds)
  in
  IMap.for_all
    (fun inst () -> Rational.equal (prob_of a inst) (prob_of b inst))
    keys

