type block = { block_id : string; alternatives : (Fact.t * Rational.t) list }

module SMap = Map.Make (String)

type t = {
  blocks : block list; (* in creation order *)
  fact_block : string Fact.Map.t;
  fact_prob : Rational.t Fact.Map.t;
}

let create ?schema blocks =
  let _, fact_block, fact_prob =
    List.fold_left
      (fun (ids, fb, fp) b ->
        if SMap.mem b.block_id ids then
          invalid_arg
            (Printf.sprintf "Bid_table: duplicate block id %s" b.block_id);
        let total =
          List.fold_left
            (fun acc (f, p) ->
              if not (Rational.is_probability p) then
                invalid_arg
                  (Printf.sprintf "Bid_table: probability %s out of range"
                     (Rational.to_string p));
              (match schema with
               | Some s when not (Fact.conforms s f) ->
                 invalid_arg
                   (Printf.sprintf "Bid_table: fact %s does not conform"
                      (Fact.to_string f))
               | _ -> ());
              Rational.add acc p)
            Rational.zero b.alternatives
        in
        if Rational.compare total Rational.one > 0 then
          invalid_arg
            (Printf.sprintf "Bid_table: block %s sums to %s > 1" b.block_id
               (Rational.to_string total));
        let fb, fp =
          List.fold_left
            (fun (fb, fp) (f, p) ->
              if Fact.Map.mem f fb then
                invalid_arg
                  (Printf.sprintf "Bid_table: fact %s occurs twice"
                     (Fact.to_string f))
              else (Fact.Map.add f b.block_id fb, Fact.Map.add f p fp))
            (fb, fp) b.alternatives
        in
        (SMap.add b.block_id () ids, fb, fp))
      (SMap.empty, Fact.Map.empty, Fact.Map.empty)
      blocks
  in
  { blocks; fact_block; fact_prob }

let blocks t = t.blocks

let prob t f =
  Option.value (Fact.Map.find_opt f t.fact_prob) ~default:Rational.zero

let find_block t id =
  match List.find_opt (fun b -> b.block_id = id) t.blocks with
  | Some b -> b
  | None -> invalid_arg (Printf.sprintf "Bid_table: unknown block %s" id)

let block_slack t id =
  let b = find_block t id in
  Rational.compl
    (List.fold_left (fun acc (_, p) -> Rational.add acc p) Rational.zero
       b.alternatives)

let support t = List.map fst (Fact.Map.bindings t.fact_prob)
let size t = Fact.Map.cardinal t.fact_prob
let num_blocks t = List.length t.blocks

let is_good_instance t inst =
  Instance.for_all (fun f -> Fact.Map.mem f t.fact_block) inst
  &&
  (* no two facts from the same block *)
  let seen = Hashtbl.create 8 in
  let ok = ref true in
  Instance.iter
    (fun f ->
      let b = Fact.Map.find f t.fact_block in
      if Hashtbl.mem seen b then ok := false else Hashtbl.add seen b ())
    inst;
  !ok

let world_probability t inst =
  if not (is_good_instance t inst) then Rational.zero
  else
    List.fold_left
      (fun acc b ->
        (* the factor for block b: p of its chosen fact, or its slack *)
        let chosen =
          List.find_opt (fun (f, _) -> Instance.mem f inst) b.alternatives
        in
        let factor =
          match chosen with
          | Some (_, p) -> p
          | None -> block_slack t b.block_id
        in
        Rational.mul acc factor)
      Rational.one t.blocks

let worlds t =
  let choice_counts =
    List.map (fun b -> List.length b.alternatives + 1) t.blocks
  in
  let total = List.fold_left ( * ) 1 choice_counts in
  if total > 1 lsl 20 then
    invalid_arg "Bid_table.worlds: too many worlds to enumerate";
  (* Mixed-radix enumeration: digit 0 = no fact, digit i = alternative i-1. *)
  let blocks = Array.of_list t.blocks in
  Seq.init total (fun code ->
      let inst = ref Instance.empty and p = ref Rational.one in
      let c = ref code in
      Array.iter
        (fun b ->
          let k = List.length b.alternatives + 1 in
          let d = !c mod k in
          c := !c / k;
          if d = 0 then p := Rational.mul !p (block_slack t b.block_id)
          else begin
            let f, pf = List.nth b.alternatives (d - 1) in
            inst := Instance.add f !inst;
            p := Rational.mul !p pf
          end)
        blocks;
      (!inst, !p))

let of_ti ti =
  create
    (List.map
       (fun (f, p) ->
         { block_id = Fact.to_string f; alternatives = [ (f, p) ] })
       (Ti_table.facts ti))

let ti_simulation t =
  (* Chain rule per block: alternative i of block b is chosen iff the
     independent event Choose(b, i) fires and no earlier Choose(b, j)
     does; P(Choose(b,i)) = p_i / (1 - sum_{j<i} p_j) makes the induced
     selection law exactly the block law. *)
  let choose_entries = ref [] in
  let cases = ref [] (* (target fact, block idx, alt idx) *) in
  List.iteri
    (fun bi b ->
      let prefix = ref Rational.zero in
      List.iteri
        (fun ai (f, p) ->
          if not (Rational.is_zero p) then begin
            let denom = Rational.compl !prefix in
            (* denom > 0: prefix < 1 whenever an alternative with p > 0
               remains, since the block sums to at most 1. *)
            let r = Rational.div p denom in
            choose_entries :=
              (Fact.make "Choose" [ Value.Int bi; Value.Int ai ], r)
              :: !choose_entries;
            cases := (f, bi, ai) :: !cases
          end;
          prefix := Rational.add !prefix p)
        b.alternatives)
    t.blocks;
  let aux = Ti_table.create (List.rev !choose_entries) in
  (* One view formula per target relation. *)
  let rels =
    List.sort_uniq String.compare
      (List.map (fun (f, _, _) -> Fact.rel f) !cases)
  in
  let views =
    List.map
      (fun rel ->
        let arity =
          match List.find_opt (fun (f, _, _) -> Fact.rel f = rel) !cases with
          | Some (f, _, _) -> Fact.arity f
          | None -> assert false
        in
        let vars = List.init arity (fun k -> Printf.sprintf "x%d" k) in
        let disjuncts =
          List.filter_map
            (fun (f, bi, ai) ->
              if Fact.rel f <> rel || Fact.arity f <> arity then None
              else begin
                let arg_eqs =
                  List.mapi
                    (fun k v -> Fo.Eq (Fo.v (List.nth vars k), Fo.c v))
                    (Fact.args f)
                in
                let chosen =
                  Fo.atom "Choose" [ Fo.cint bi; Fo.cint ai ]
                in
                let earlier_blocked =
                  List.filter_map
                    (fun (_, bj, aj) ->
                      if bj = bi && aj < ai then
                        Some (Fo.Not (Fo.atom "Choose" [ Fo.cint bj; Fo.cint aj ]))
                      else None)
                    !cases
                in
                Some (Fo.conj (arg_eqs @ [ chosen ] @ earlier_blocked))
              end)
            !cases
        in
        (rel, Fo.disj disjuncts))
      rels
  in
  (aux, views)

let to_string t =
  String.concat "\n"
    (List.map
       (fun b ->
         Printf.sprintf "%s: %s" b.block_id
           (String.concat " | "
              (List.map
                 (fun (f, p) ->
                   Printf.sprintf "%s %s" (Fact.to_string f)
                     (Rational.to_string p))
                 b.alternatives)))
       t.blocks)

let located ?file ~line msg =
  let where =
    match file with
    | Some f -> Printf.sprintf "%s:%d" f line
    | None -> Printf.sprintf "line %d" line
  in
  invalid_arg (Printf.sprintf "Bid_table.of_lines: %s: %s" where msg)

let of_lines ?file lines =
  (* One block per line, the same format [to_string] emits:
     [block_id: R(args) p | S(args) q | ...].  Blank lines and '#'
     comments are ignored; 1-based line numbers in every error. *)
  let parse_alt ~lnum s =
    let s = String.trim s in
    match String.rindex_opt s ')' with
    | None ->
      located ?file ~line:lnum
        (Printf.sprintf "no fact in alternative %S" s)
    | Some i ->
      let fact_str = String.sub s 0 (i + 1) in
      let prob_str =
        String.trim (String.sub s (i + 1) (String.length s - i - 1))
      in
      if prob_str = "" then
        located ?file ~line:lnum
          (Printf.sprintf "missing probability in alternative %S" s);
      let f =
        try Fact.of_string fact_str
        with Invalid_argument m | Failure m -> located ?file ~line:lnum m
      in
      let p =
        match Rational.of_string_opt prob_str with
        | Some p -> p
        | None ->
          located ?file ~line:lnum
            (Printf.sprintf "bad probability %S" prob_str)
      in
      if not (Rational.is_probability p) then
        located ?file ~line:lnum
          (Printf.sprintf "probability %s out of range for %s"
             (Rational.to_string p) (Fact.to_string f));
      (f, p)
  in
  let parse_block_line ~lnum line =
    let line = String.trim line in
    if line = "" || line.[0] = '#' then None
    else begin
      match String.index_opt line ':' with
      | None ->
        located ?file ~line:lnum
          (Printf.sprintf "no 'block_id:' prefix in %S" line)
      | Some c ->
        let block_id = String.trim (String.sub line 0 c) in
        if block_id = "" then located ?file ~line:lnum "empty block id";
        let rest =
          String.trim (String.sub line (c + 1) (String.length line - c - 1))
        in
        let alternatives =
          if rest = "" then []
          else List.map (parse_alt ~lnum) (String.split_on_char '|' rest)
        in
        (* Contradictory duplicates within the block are caught here
           with the line number; [create] would reject them too, but
           without a location. *)
        let rec dup_check seen = function
          | [] -> ()
          | (f, p) :: rest ->
            (match List.find_opt (fun (f0, _) -> Fact.equal f f0) seen with
            | Some (_, p0) when not (Rational.equal p p0) ->
              located ?file ~line:lnum
                (Printf.sprintf
                   "duplicate fact %s with probabilities %s and %s"
                   (Fact.to_string f) (Rational.to_string p0)
                   (Rational.to_string p))
            | _ -> ());
            dup_check ((f, p) :: seen) rest
        in
        dup_check [] alternatives;
        (* Same-probability repeats collapse (mirrors Ti_table). *)
        let alternatives =
          List.fold_left
            (fun acc (f, p) ->
              if List.exists (fun (f0, _) -> Fact.equal f f0) acc then acc
              else (f, p) :: acc)
            [] alternatives
          |> List.rev
        in
        Some { block_id; alternatives }
    end
  in
  (* One pass: duplicate block ids rejected as they arrive (with the
     first occurrence's line), blocks accumulated in order. *)
  let lnum = ref 0 and seen = ref SMap.empty and acc = ref [] in
  List.iter
    (fun line ->
      incr lnum;
      match parse_block_line ~lnum:!lnum line with
      | None -> ()
      | Some b -> (
        match SMap.find_opt b.block_id !seen with
        | Some l0 ->
          located ?file ~line:!lnum
            (Printf.sprintf "duplicate block id %s (already at line %d)"
               b.block_id l0)
        | None ->
          seen := SMap.add b.block_id !lnum !seen;
          acc := b :: !acc))
    lines;
  create (List.rev !acc)
