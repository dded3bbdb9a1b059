module VSet = Set.Make (Value)
module ISet = Set.Make (Int)

type delta =
  | Insert of Fact.t * Rational.t
  | Delete of Fact.t
  | Reweight of Fact.t * Rational.t

let delta_fact = function Insert (f, _) | Delete f | Reweight (f, _) -> f

let delta_target = function
  | Insert (_, p) | Reweight (_, p) -> p
  | Delete _ -> Rational.zero

let delta_to_string = function
  | Insert (f, p) ->
    Printf.sprintf "insert %s %s" (Fact.to_string f) (Rational.to_string p)
  | Delete f -> Printf.sprintf "delete %s" (Fact.to_string f)
  | Reweight (f, p) ->
    Printf.sprintf "reweight %s %s" (Fact.to_string f) (Rational.to_string p)

let delta_of_string s =
  let s = String.trim s in
  let fail () = invalid_arg ("Delta_eval.delta_of_string: " ^ s) in
  match String.index_opt s ' ' with
  | None -> fail ()
  | Some i ->
    let op = String.sub s 0 i in
    let rest = String.trim (String.sub s (i + 1) (String.length s - i - 1)) in
    (* The probability is the last space-separated token; the fact text
       (which itself contains ", " between arguments) is everything
       before it. *)
    let fact_and_prob () =
      match String.rindex_opt rest ' ' with
      | None -> fail ()
      | Some j ->
        let fs = String.trim (String.sub rest 0 j) in
        let ps = String.sub rest (j + 1) (String.length rest - j - 1) in
        (Fact.of_string fs, Rational.of_string ps)
    in
    (match op with
    | "insert" ->
      let f, p = fact_and_prob () in
      Insert (f, p)
    | "delete" -> Delete (Fact.of_string rest)
    | "reweight" ->
      let f, p = fact_and_prob () in
      Reweight (f, p)
    | _ -> fail ())

let check_target d =
  let p = delta_target d in
  try Prob.check_probability_rational p
  with Invalid_argument _ ->
    invalid_arg
      (Printf.sprintf "Delta_eval: marginal %s outside [0,1] in %s"
         (Rational.to_string p) (delta_to_string d))

let apply_table tbl d =
  let f = delta_fact d in
  let p = check_target d in
  if Rational.is_zero p then Ti_table.remove tbl f else Ti_table.add tbl f p

let inverse_of tbl d =
  let f = delta_fact d in
  let w = Ti_table.prob tbl f in
  if Rational.is_zero w then Delete f else Reweight (f, w)

type apply_kind = Noop | Patched | Extended | Recompiled

let apply_kind_to_string = function
  | Noop -> "noop"
  | Patched -> "patched"
  | Extended -> "extended"
  | Recompiled -> "recompiled"

let c_noop = Stats.counter "delta.apply.noop"
let c_patched = Stats.counter "delta.apply.patched"
let c_extended = Stats.counter "delta.apply.extended"
let c_recompiled = Stats.counter "delta.apply.recompiled"
let c_folds = Stats.counter "delta.wmc.folds"
let c_fold_nodes = Stats.counter "delta.wmc.nodes_recomputed"

(* -------------------- shape analysis --------------------

   A sentence [Q x1 ... xk. matrix] with a quantifier-free matrix and
   distinct bound names (shadowed names would make the tuple/binding
   correspondence ambiguous) can absorb facts with fresh constants by
   joining the lineage of only the fresh ground instances onto the root. *)

type chain_kind = Ch_exists | Ch_forall

type shape =
  | Chain of chain_kind * string list * Fo.t
  | Opaque

let shape_of phi =
  let rec strip kind acc = function
    | Fo.Exists (x, f) when kind = Ch_exists -> strip kind (x :: acc) f
    | Fo.Forall (x, f) when kind = Ch_forall -> strip kind (x :: acc) f
    | f -> (List.rev acc, f)
  in
  let chain kind =
    let xs, matrix = strip kind [] phi in
    if
      Fo.is_quantifier_free matrix
      && List.length xs = List.length (List.sort_uniq String.compare xs)
    then Chain (kind, xs, matrix)
    else Opaque
  in
  match phi with
  | Fo.Exists _ -> chain Ch_exists
  | Fo.Forall _ -> chain Ch_forall
  | _ -> if Fo.is_quantifier_free phi then Chain (Ch_exists, [], phi) else Opaque

(* The session's padding over a grow-only domain: every value that ever
   occurred is avoided, so a fact that turns a padding value live moves
   the padding to the next free attempt. *)
let padding_avoiding adom phi =
  Query_eval.choose_padding ~avoid:(fun v -> VSet.mem v adom) [] [ phi ]

(* All k-tuples over [dom] using at least one value outside [old_dom] —
   the ground instances the previous diagram could not mention. *)
let fresh_tuples k dom old_dom =
  let rec go k =
    if k = 0 then Seq.return ([], false)
    else
      Seq.concat_map
        (fun (rest, has_fresh) ->
          Seq.map
            (fun v -> (v :: rest, has_fresh || not (VSet.mem v old_dom)))
            (List.to_seq dom))
        (go (k - 1))
  in
  Seq.filter_map
    (fun (vals, has_fresh) -> if has_fresh then Some vals else None)
    (go k)

let adom_union acc facts =
  List.fold_left
    (fun acc f ->
      List.fold_left (fun acc v -> VSet.add v acc) acc (Fact.args f))
    acc facts

(* -------------------- TI sessions -------------------- *)

module Make (C : Prob.CARRIER) = struct
  type t = {
    phi : Fo.t;
    shape : shape;
    cmp_free : bool;
    tail : float;
    mgr : Bdd.manager;
    memo : C.t Bdd.prob_memo;
    gc_ran : bool ref;  (* set by the manager's on_free hook *)
    mutable tbl : Ti_table.t;
    mutable alpha : Lineage.alphabet;
    mutable weights : C.t array;  (* variable -> current marginal *)
    mutable adom : VSet.t;  (* constants ∪ values ever seen (grow-only) *)
    mutable padding : Value.t list;
    mutable bdd : Bdd.t;  (* the session root, always protected *)
    mutable dirty : ISet.t;  (* weight-patched vars since last fold *)
    mutable memo_valid : bool;  (* false after a variable rebind *)
    mutable cached : C.t option;
    mutable epoch : int;
  }

  (* Marginals of the alphabet's variables from [first] on. *)
  let weights_of ?(first = 0) tbl alpha =
    Array.init (Lineage.alphabet_size alpha - first) (fun i ->
        let f = Lineage.fact_of_var alpha (first + i) in
        C.of_rational (Ti_table.prob tbl f))

  let compile_full t alpha padding =
    Bdd.of_expr t.mgr (Lineage.of_sentence ~extra:padding alpha t.phi)

  (* Publish a new root: protect-then-release keeps a GC between the two
     from sweeping the incoming diagram. *)
  let set_root t bdd =
    if not (Bdd.equal bdd t.bdd) then begin
      Bdd.protect bdd;
      Bdd.release t.bdd;
      t.bdd <- bdd
    end;
    ignore (Bdd.maybe_gc t.mgr)

  (* The one GC policy of a long-lived session: collect at the next safe
     point once 2^16 nodes have been allocated since the last sweep. *)
  let gc_threshold = 1 lsl 16

  let create ?(tail = 0.0) ?tick ?on_free tbl phi =
    if Fo.free_vars phi <> [] then
      invalid_arg "Delta_eval: query must be a sentence";
    if not (tail >= 0.0 && tail < 1.0) then
      invalid_arg "Delta_eval: tail must lie in [0, 1)";
    let gc_ran = ref false in
    let facts = Ti_table.support tbl in
    let adom = adom_union (VSet.of_list (Fo.constants phi)) facts in
    let alpha = Lineage.alphabet facts in
    let padding = padding_avoiding adom phi in
    let lin = Lineage.of_sentence ~extra:padding alpha phi in
    (* The initial alphabet in first-occurrence order over its lineage
       (co-occurring atoms adjacent, as every lineage compiler orders
       them); variables appended later newest-first above it, so
       delta-joins extend the diagram at the top and weight patches on
       recent facts dirty only a shallow slice. *)
    let k = Lineage.alphabet_size alpha in
    let first = Wmc.first_occurrence_order [ lin ] in
    let mgr =
      Bdd.manager
        ~order:(fun v -> if v < k then first v else -v)
        ?tick
        ~on_free:(fun n ->
          if n > 0 then gc_ran := true;
          Option.iter (fun f -> f n) on_free)
        ~gc_threshold ()
    in
    let t =
      {
        phi;
        shape = shape_of phi;
        cmp_free = not (Fo.has_cmp phi);
        tail;
        mgr;
        memo = Bdd.prob_memo ();
        gc_ran;
        tbl;
        alpha;
        weights = weights_of tbl alpha;
        adom;
        padding;
        bdd = Bdd.fls mgr;
        dirty = ISet.empty;
        memo_valid = true;
        cached = None;
        epoch = 0;
      }
    in
    let bdd = Bdd.of_expr mgr lin in
    Bdd.protect bdd;
    t.bdd <- bdd;
    t

  let table t = t.tbl
  let tail t = t.tail
  let epoch t = t.epoch
  let padding t = t.padding
  let inverse t d = inverse_of t.tbl d
  let live_nodes t = Bdd.node_count t.mgr
  let diagram_size t = Bdd.size t.bdd

  let patch t v target =
    t.weights.(v) <- C.of_rational target;
    t.dirty <- ISet.add v t.dirty;
    Stats.incr c_patched;
    Patched

  (* Every [of_expr] is a GC safe point, so the running accumulator is
     pinned join by join; the session root on [t.bdd] stays protected
     until the publish. *)
  let delta_join t alpha kind xs matrix dom old_dom =
    let join = match kind with Ch_exists -> Bdd.disj | Ch_forall -> Bdd.conj in
    let acc = ref t.bdd in
    Bdd.protect !acc;
    Fun.protect
      ~finally:(fun () -> Bdd.release !acc)
      (fun () ->
        Seq.iter
          (fun vals ->
            let lin = Lineage.of_formula alpha (List.combine xs vals) matrix in
            let joined = join t.mgr !acc (Bdd.of_expr t.mgr lin) in
            Bdd.protect joined;
            Bdd.release !acc;
            acc := joined)
          (fresh_tuples (List.length xs) (VSet.elements dom) old_dom);
        !acc)

  (* Facts outside the alphabet entering [tbl] at positive marginals, as
     one delta: the alphabet is appended to, and a whole batch costs one
     delta-join.  Keeping the old diagram is sound iff every new fact
     names a value outside the old domain (adom ∪ padding); otherwise a
     ground atom the old diagram compiled to [False] would now name an
     alphabet variable, and only a recompile in the warm manager can
     revive it.  A fact that turns a padding value live also recompiles,
     under a re-chosen padding.  Either way surviving node indices keep
     their memoized counts (weights of existing variables are untouched
     here); a GC triggered by the compilation is caught by [gc_ran] at the
     next fold.  Everything is built before anything is published, so a
     [tick] that raises leaves the session untouched. *)
  let absorb t tbl facts =
    let old_dom = VSet.union t.adom (VSet.of_list t.padding) in
    let alpha = Lineage.extend t.alpha facts in
    let adom = adom_union t.adom facts in
    let repad =
      List.exists
        (fun f ->
          List.exists
            (fun v -> List.exists (Value.equal v) t.padding)
            (Fact.args f))
        facts
    in
    let padding = if repad then padding_avoiding adom t.phi else t.padding in
    let kind, bdd =
      match t.shape with
      | Chain (kind, xs, matrix)
        when (not repad)
             && List.for_all
                  (fun f ->
                    List.exists
                      (fun v -> not (VSet.mem v old_dom))
                      (Fact.args f))
                  facts ->
        let dom = VSet.union adom (VSet.of_list padding) in
        (Extended, delta_join t alpha kind xs matrix dom old_dom)
      | _ -> (Recompiled, compile_full t alpha padding)
    in
    let first = Array.length t.weights in
    t.weights <- Array.append t.weights (weights_of ~first tbl alpha);
    t.alpha <- alpha;
    t.adom <- adom;
    t.padding <- padding;
    set_root t bdd;
    Stats.incr (if kind = Extended then c_extended else c_recompiled);
    kind

  (* Comparison queries carry no padding and an exact active domain: any
     support change rebinds the alphabet and recompiles. *)
  let rebuild_exact t tbl =
    let facts = Ti_table.support tbl in
    let alpha = Lineage.alphabet facts in
    let bdd = compile_full t alpha [] in
    t.alpha <- alpha;
    t.adom <- adom_union (VSet.of_list (Fo.constants t.phi)) facts;
    t.weights <- weights_of tbl alpha;
    t.memo_valid <- false;
    t.dirty <- ISet.empty;
    set_root t bdd;
    Stats.incr c_recompiled;
    Recompiled

  let publish t tbl kind =
    t.tbl <- tbl;
    t.epoch <- t.epoch + 1;
    t.cached <- None;
    kind

  let apply t d =
    let f = delta_fact d in
    let target = check_target d in
    let before = Ti_table.prob t.tbl f in
    if Rational.equal before target then begin
      Stats.incr c_noop;
      Noop
    end
    else begin
      let tbl =
        if Rational.is_zero target then Ti_table.remove t.tbl f
        else Ti_table.add t.tbl f target
      in
      (* Comparison queries patch only reweights of present facts; for
         the others the alphabet is grow-only. *)
      let patchable =
        t.cmp_free || not (Rational.is_zero before || Rational.is_zero target)
      in
      publish t tbl
        (match Lineage.var_of_fact t.alpha f with
        | Some v when patchable -> patch t v target
        | None when t.cmp_free ->
          (* [before = 0 <> target] here, so this is a genuine insert. *)
          absorb t tbl [ f ]
        | _ -> rebuild_exact t tbl)
    end

  let extend t entries =
    List.iter
      (fun (f, _) ->
        if Ti_table.mem t.tbl f then
          invalid_arg
            ("Delta_eval.extend: " ^ Fact.to_string f ^ " is already present"))
      entries;
    if entries = [] then begin
      Stats.incr c_noop;
      Noop
    end
    else begin
      let tbl =
        List.fold_left
          (fun tbl (f, p) -> Ti_table.add tbl f (check_target (Insert (f, p))))
          t.tbl entries
      in
      let known, fresh =
        List.partition
          (fun (f, _) -> Lineage.var_of_fact t.alpha f <> None)
          entries
      in
      publish t tbl
        (if not t.cmp_free then rebuild_exact t tbl
         else begin
           let kind =
             if fresh = [] then Patched else absorb t tbl (List.map fst fresh)
           in
           List.iter
             (fun (f, p) ->
               ignore (patch t (Option.get (Lineage.var_of_fact t.alpha f)) p))
             known;
           kind
         end)
    end

  let prob t =
    match t.cached with
    | Some p -> p
    | None ->
      Stats.incr c_folds;
      let full = (not t.memo_valid) || !(t.gc_ran) in
      if full then Bdd.prob_memo_clear t.memo;
      let dirty =
        if full then fun _ -> true else fun v -> ISet.mem v t.dirty
      in
      let recomputed = ref 0 in
      let p =
        (Bdd.fold_prob_many ~memo:t.memo ~dirty ~zero:C.zero ~one:C.one
           ~node:(fun v lo hi ->
             incr recomputed;
             let w = t.weights.(v) in
             C.add (C.mul w hi) (C.mul (C.compl w) lo))
           [| t.bdd |]).(0)
      in
      Stats.add c_fold_nodes !recomputed;
      t.dirty <- ISet.empty;
      t.memo_valid <- true;
      t.gc_ran := false;
      t.cached <- Some p;
      p
end

module Exact = Make (Prob.Rational_carrier)
module Certified = Make (Prob.Interval_carrier)
