(* Differential fuzzing of every engine against the enumeration oracle.
   See fuzzer.mli for the contract. *)

module VSet = Set.Make (Value)

(* ------------------------------------------------------------------ *)
(* Engines *)
(* ------------------------------------------------------------------ *)

type engine = Exact | Lifted | Approx | Anytime | Mc | Robust | Batch | Delta

let all_engines = [ Exact; Lifted; Approx; Anytime; Mc; Robust; Batch; Delta ]

let engine_to_string = function
  | Exact -> "exact"
  | Lifted -> "lifted"
  | Approx -> "approx"
  | Anytime -> "anytime"
  | Mc -> "mc"
  | Robust -> "robust"
  | Batch -> "batch"
  | Delta -> "delta"

let engine_of_string s =
  match String.lowercase_ascii (String.trim s) with
  | "exact" -> Some Exact
  | "lifted" -> Some Lifted
  | "approx" -> Some Approx
  | "anytime" -> Some Anytime
  | "mc" -> Some Mc
  | "robust" -> Some Robust
  | "batch" -> Some Batch
  | "delta" -> Some Delta
  | _ -> None

let engines_of_string s =
  if String.lowercase_ascii (String.trim s) = "all" then Ok all_engines
  else
    let parts =
      String.split_on_char ',' s
      |> List.map String.trim
      |> List.filter (fun p -> p <> "")
    in
    if parts = [] then Error "empty engine list"
    else
      let rec go acc = function
        | [] -> Ok (List.rev acc)
        | p :: rest -> (
          match engine_of_string p with
          | Some e -> go (if List.mem e acc then acc else e :: acc) rest
          | None ->
            Error
              (Printf.sprintf
                 "unknown engine %S (expected \
                  exact|lifted|approx|anytime|mc|robust|batch|delta or all)"
                 p))
      in
      go [] parts

(* The dotted prefix of a check name says which engine it exercises;
   oracle self-laws and metamorphic laws ride on the exact engine. *)
let engine_of_check name =
  let prefix =
    match String.index_opt name '.' with
    | Some i -> String.sub name 0 i
    | None -> name
  in
  match prefix with
  | "lifted" -> Lifted
  | "approx" -> Approx
  | "anytime" -> Anytime
  | "mc" -> Mc
  | "robust" -> Robust
  | "batch" -> Batch
  | "mutation" | "delta" -> Delta
  | _ -> Exact

(* ------------------------------------------------------------------ *)
(* Cases *)
(* ------------------------------------------------------------------ *)

type kind = K_ti | K_open | K_bid | K_completion

let kind_to_string = function
  | K_ti -> "ti"
  | K_open -> "open"
  | K_bid -> "bid"
  | K_completion -> "completion"

let kind_of_string = function
  | "ti" -> Some K_ti
  | "open" -> Some K_open
  | "bid" -> Some K_bid
  | "completion" -> Some K_completion
  | _ -> None

type case = {
  id : int;
  kind : kind;
  table : Ti_table.t;
  bid : Bid_table.t option;
  policy : Completion.policy option;
  query : Fo.t;
  deltas : Delta_eval.delta list;  (* mutation sequence; K_ti cases *)
}

let n_atom_sentence =
  Fo.Exists ("w", Fo.Atom (Oracle_gen.policy_relation, [ Fo.Var "w" ]))

let generate cfg ~seed ~id =
  let g = Prng.substream (Prng.create ~seed ()) id in
  let sch = Oracle_gen.schema cfg g in
  let kind =
    match id mod 4 with
    | 0 -> K_ti
    | 1 -> K_open
    | 2 -> K_completion
    | _ -> K_bid
  in
  let table =
    match kind with
    | K_bid -> Ti_table.create []
    | _ -> Oracle_gen.ti_table cfg g sch
  in
  let bid =
    match kind with K_bid -> Some (Oracle_gen.bid_table cfg g sch) | _ -> None
  in
  let policy =
    match kind with
    | K_open ->
      (* Always an infinite geometric tail: the scenario that exercises
         the tail enclosures. *)
      Some
        (Completion.Geometric
           ( Rational.of_ints
               (1 + Prng.int g (cfg.Oracle_gen.denominator / 2))
               cfg.Oracle_gen.denominator,
             Rational.of_ints (1 + Prng.int g 2) 4 ))
    | K_completion -> Some (Oracle_gen.policy cfg g)
    | K_ti | K_bid -> None
  in
  let query =
    (* Positive sentences half the time on plain TI cases, so the
       monotonicity law fires often. *)
    let phi =
      if kind = K_ti && Prng.bool g then Oracle_gen.positive_sentence cfg g sch
      else Oracle_gen.sentence cfg g sch
    in
    match kind with
    | (K_open | K_completion) when Prng.int g 2 = 0 ->
      (* Half the open-world queries mention the policy relation, so the
         tail actually matters to the answer. *)
      if Prng.bool g then Fo.Or (phi, n_atom_sentence)
      else Fo.And (phi, n_atom_sentence)
    | _ -> phi
  in
  let deltas =
    (* Mutation sequences ride on the plain TI cases, where incremental
       vs from-scratch is decidable by exact rational equality. *)
    match kind with
    | K_ti ->
      Oracle_gen.mutations cfg g sch ~table ~len:(4 + Prng.int g 9)
    | _ -> []
  in
  { id; kind; table; bid; policy; query; deltas }

(* ------------------------------------------------------------------ *)
(* Sources and spaces derived from a case *)
(* ------------------------------------------------------------------ *)

(* An open-world case's space: the table completed by its policy, as
   one countable TI source. *)
let completion_of case =
  match case.policy with
  | Some pol -> Completion.complete_ti case.table (Completion.policy_source pol)
  | None -> invalid_arg "Fuzzer: open-world case needs a policy"

let bid_of case =
  match case.bid with
  | Some b -> b
  | None -> invalid_arg "Fuzzer: bid case without a block table"

(* ------------------------------------------------------------------ *)
(* Failures and the check harness *)
(* ------------------------------------------------------------------ *)

type failure = { f_case : case; check : string; detail : string }

let is_blowup msg =
  let has needle =
    let nl = String.length needle and ml = String.length msg in
    let rec go i = i + nl <= ml && (String.sub msg i nl = needle || go (i + 1)) in
    go 0
  in
  has "exceed" || has "blow-up" || has "(max 16)"

let rs = Rational.to_string
let ivs iv = Printf.sprintf "[%.17g, %.17g]" (Interval.lo iv) (Interval.hi iv)

let encs (e : Oracle.enclosure) =
  Printf.sprintf "[%s, %s]" (rs e.Oracle.lo) (rs e.Oracle.hi)

let contains_iv iv x =
  Oracle.interval_contains ~lo:(Interval.lo iv) ~hi:(Interval.hi iv) x

let overlaps_iv iv e =
  Oracle.interval_overlaps ~lo:(Interval.lo iv) ~hi:(Interval.hi iv) e

(* The fuzzer's own inert padding (distinct namespace from the engines'
   and the oracle's), for driving Query_eval's [extra_domain] directly. *)
let fuzz_pads table phi =
  let rank = Fo.quantifier_rank phi in
  if rank = 0 || Fo.has_cmp phi then []
  else begin
    let avoid =
      VSet.of_list
        (Fo.constants phi
        @ List.concat_map Fact.args (Ti_table.support table))
    in
    let rec choose attempt =
      let cand =
        List.init rank (fun i ->
            Value.Str (Printf.sprintf "\x02fuzz.pad.%d.%d" attempt i))
      in
      if List.exists (fun v -> VSet.mem v avoid) cand then choose (attempt + 1)
      else cand
    in
    choose 0
  end

let sem_for phi : Oracle.semantics =
  if Fo.has_cmp phi then Oracle.Truncated else Oracle.Limit

let ground_atom f =
  Fo.Atom (Fact.rel f, List.map (fun v -> Fo.Const v) (Fact.args f))

let eps_coarse = 0.25
let eps_fine = 0.05

let ti_sampler src = Countable_ti.sampler (Countable_ti.create src)

let run_case ?(engines = all_engines) ?(mc_samples = 1500)
    ?(mc_confidence = 0.999) case =
  let checks = ref 0 and fails = ref [] in
  let phi = case.query in
  let cmp_free = not (Fo.has_cmp phi) in
  let check name f =
    if List.mem (engine_of_check name) engines then begin
      incr checks;
      match f () with
      | None -> ()
      | Some detail -> fails := { f_case = case; check = name; detail } :: !fails
      | exception Invalid_argument m when is_blowup m -> decr checks
      | exception e ->
        fails :=
          { f_case = case; check = name; detail = "raised " ^ Printexc.to_string e }
          :: !fails
    end
  in
  let mc_seed = (1_000_003 * case.id) + 77 in
  let expect_eq ~what expected got =
    if Rational.equal expected got then None
    else Some (Printf.sprintf "%s: expected %s, got %s" what (rs expected) (rs got))
  in
  (* The anytime session's final enclosure.  For a [Cmp]-free query it
     must bound the limit truth ([limit_ok]); a [Cmp] query is evaluated
     unpadded,
     so its last step certifies the truncated semantics at the session's
     final depth: the step estimate must contain the oracle's exact
     prefix-conditional probability there, and the bounds must meet the
     oracle's enclosure. *)
  let anytime_check src limit_ok =
    let s = Anytime.create ~eps:eps_fine src phi in
    let _ = Anytime.run s in
    let iv = Anytime.bounds s in
    if cmp_free then limit_ok iv
    else begin
      let n = Anytime.current_n s in
      let e =
        Oracle.enclosure ~semantics:Truncated (Oracle.of_fact_source src ~n) phi
      in
      match Anytime.last_step s with
      | Some st when not (contains_iv st.Anytime.estimate e.Oracle.cond) ->
        Some
          (Printf.sprintf "anytime estimate %s misses truncated %s at n=%d"
             (ivs st.Anytime.estimate) (rs e.Oracle.cond) n)
      | _ when not (overlaps_iv iv e) ->
        Some
          (Printf.sprintf
             "anytime bounds %s disjoint from truncated enclosure %s at n=%d"
             (ivs iv) (encs e) n)
      | _ -> None
    end
  in
  (match case.kind with
  | K_ti ->
    let u = lazy (Oracle.of_ti_table case.table) in
    let truth = lazy (Oracle.query_prob ~semantics:Truncated (Lazy.force u) phi) in
    let truth_lim =
      lazy (Oracle.query_prob ~semantics:(sem_for phi) (Lazy.force u) phi)
    in
    check "exact.bdd" (fun () ->
        expect_eq ~what:"P(Q) on the truncation" (Lazy.force truth)
          (Query_eval.boolean case.table phi));
    check "exact.enum" (fun () ->
        expect_eq ~what:"enumeration engine" (Lazy.force truth)
          (Query_eval.boolean_enum case.table phi));
    check "lifted.oracle" (fun () ->
        (* Every safe query: the lifted plan vs the exact world sum. *)
        match Query_eval.boolean_safe case.table phi with
        | None -> None
        | Some p -> expect_eq ~what:"lifted plan vs oracle" (Lazy.force truth) p);
    check "lifted.bdd" (fun () ->
        (* ... and vs the compiled lineage, by rational equality. *)
        match Query_eval.boolean_safe case.table phi with
        | None -> None
        | Some p ->
          expect_eq ~what:"lifted plan vs BDD"
            (Query_eval.boolean_bdd case.table phi)
            p);
    check "exact.padded" (fun () ->
        (* The extra_domain path vs the oracle's Limit semantics. *)
        let p =
          Query_eval.boolean ~extra_domain:(fuzz_pads case.table phi)
            case.table phi
        in
        expect_eq ~what:"padded limit P(Q)" (Lazy.force truth_lim) p);
    check "store.roundtrip" (fun () ->
        (* Pack -> mmap-load must be invisible to the engines: same
           facts, rationally identical answer. *)
        let path = Filename.temp_file "iowpdb_fuzz" ".iow" in
        Fun.protect
          ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
          (fun () ->
            Store.write_ti ~path case.table;
            let st = Store.load path in
            match Store.verify_against_ti st case.table with
            | Error msg -> Some ("pack round-trip: " ^ msg)
            | Ok () ->
              expect_eq ~what:"P(Q) text-loaded vs pack-loaded"
                (Query_eval.boolean case.table phi)
                (Query_eval.boolean (Store.to_ti_table st) phi)));
    check "law.complement" (fun () ->
        let p = Query_eval.boolean case.table phi in
        let pc = Query_eval.boolean case.table (Fo.Not phi) in
        if Rational.(equal (add p pc) one) then None
        else
          Some
            (Printf.sprintf "P(Q) + P(not Q) = %s + %s <> 1" (rs p) (rs pc)));
    check "law.monotone" (fun () ->
        if not (Fo.is_positive phi) then None
        else begin
          let bumped =
            Ti_table.create
              (List.map
                 (fun (f, p) ->
                   (f, Rational.div (Rational.add Rational.one p) (Rational.of_int 2)))
                 (Ti_table.facts case.table))
          in
          let p = Query_eval.boolean case.table phi in
          let p' = Query_eval.boolean bumped phi in
          if Rational.(p <= p') then None
          else
            Some
              (Printf.sprintf
                 "positive query lost mass under probability increase: %s > %s"
                 (rs p) (rs p'))
        end);
    check "law.marginal" (fun () ->
        let u = Lazy.force u in
        List.find_map
          (fun (f, p) ->
            let m = Oracle.marginal u f in
            if Rational.equal m p then None
            else
              Some
                (Printf.sprintf "oracle marginal of %s is %s, table says %s"
                   (Fact.to_string f) (rs m) (rs p)))
          (Ti_table.facts case.table));
    check "law.expected-size" (fun () ->
        let u = Lazy.force u in
        let want = Rational.sum (List.map snd (Ti_table.facts case.table)) in
        expect_eq ~what:"E(S_D) (Corollary 4.7)" want (Oracle.expected_size u));
    (* The batch engine on a small adversarial batch: the query twice
       (dedup), an alpha-renamed copy (same function, distinct syntax),
       and its negation (same padding rank, so the complement law holds
       member-wise inside one batch). *)
    let batch_queries =
      lazy
        (let renamed =
           (* Primed bound names collide only if the query already uses
              them; then the copy degrades to one more duplicate. *)
           match Fo.rename_bound (fun x -> x ^ "'") phi with
           | r -> r
           | exception Invalid_argument _ -> phi
         in
         [| phi; phi; renamed; Fo.Not phi |])
    in
    let batch_result =
      lazy (Batch_eval.boolean case.table (Lazy.force batch_queries))
    in
    check "batch.member" (fun () ->
        let r = Lazy.force batch_result in
        let m = r.Batch_eval.members in
        let p0 = m.(0).Batch_eval.prob in
        match
          expect_eq ~what:"batch member 0 vs oracle" (Lazy.force truth_lim) p0
        with
        | Some d -> Some d
        | None ->
          if m.(1).Batch_eval.route <> Batch_eval.Duplicate 0 then
            Some "repeated member not routed as Duplicate 0"
          else if not (Rational.equal m.(1).Batch_eval.prob p0) then
            Some "duplicate member disagrees with its representative"
          else if not (Rational.equal m.(2).Batch_eval.prob p0) then
            Some
              (Printf.sprintf "alpha-renamed member: %s <> %s"
                 (rs m.(2).Batch_eval.prob) (rs p0))
          else if
            not Rational.(equal (add p0 m.(3).Batch_eval.prob) one)
          then
            Some
              (Printf.sprintf "batch complement: %s + %s <> 1" (rs p0)
                 (rs m.(3).Batch_eval.prob))
          else None);
    check "batch.map" (fun () ->
        (* The member-wise semantics law: batch member i equals the
           sequential engine under the batch's own padding (members
           with a Cmp atom stay unpadded). *)
        let qs = Lazy.force batch_queries in
        let r = Lazy.force batch_result in
        let bpads = Batch_eval.padding case.table qs in
        let rec go i =
          if i >= Array.length qs then None
          else begin
            let q = qs.(i) in
            let extra_domain = if Fo.has_cmp q then [] else bpads in
            let want = Query_eval.boolean ~extra_domain case.table q in
            match
              expect_eq
                ~what:(Printf.sprintf "batch member %d vs sequential" i)
                want
                r.Batch_eval.members.(i).Batch_eval.prob
            with
            | Some d -> Some d
            | None -> go (i + 1)
          end
        in
        go 0);
    check "batch.domains" (fun () ->
        (* Exact-carrier answers are bit-identical at any domain count. *)
        let qs = Lazy.force batch_queries in
        let r1 = Lazy.force batch_result in
        List.find_map
          (fun d ->
            let rd = Batch_eval.boolean ~domains:d case.table qs in
            let rec go i =
              if i >= Array.length qs then None
              else if
                not
                  (Rational.equal
                     rd.Batch_eval.members.(i).Batch_eval.prob
                     r1.Batch_eval.members.(i).Batch_eval.prob)
              then
                Some
                  (Printf.sprintf
                     "member %d moved with domains=%d: %s <> %s" i d
                     (rs rd.Batch_eval.members.(i).Batch_eval.prob)
                     (rs r1.Batch_eval.members.(i).Batch_eval.prob))
              else go (i + 1)
            in
            go 0)
          [ 2; 3; 4 ]);
    let src = lazy (Fact_source.of_ti_table case.table) in
    check "approx.estimate" (fun () ->
        (* Compare at the truncation point actually used, as the K_open
           branch does: when the whole table's mass fits under the tail
           budget the certified prefix is legitimately shorter than the
           table (even empty), and the estimate is exact only relative to
           that prefix — the additive-eps relation to the limit truth is
           what approx.bounds checks. *)
        let r = Approx_eval.boolean (Lazy.force src) ~eps:eps_coarse phi in
        let u_n =
          Oracle.of_fact_source (Lazy.force src) ~n:r.Approx_eval.n_used
        in
        expect_eq ~what:"Approx_eval estimate at n_used"
          (Oracle.query_prob ~semantics:(sem_for phi) u_n phi)
          r.Approx_eval.estimate);
    check "approx.bounds" (fun () ->
        let r = Approx_eval.boolean (Lazy.force src) ~eps:eps_coarse phi in
        if contains_iv r.Approx_eval.bounds (Lazy.force truth_lim) then None
        else
          Some
            (Printf.sprintf "bounds %s miss exact %s"
               (ivs r.Approx_eval.bounds)
               (rs (Lazy.force truth_lim))));
    check "anytime.bounds" (fun () ->
        anytime_check (Lazy.force src) (fun iv ->
            if contains_iv iv (Lazy.force truth_lim) then None
            else
              Some
                (Printf.sprintf "anytime bounds %s miss exact %s" (ivs iv)
                   (rs (Lazy.force truth_lim)))));
    if cmp_free then begin
      check "mc.bounds" (fun () ->
          let r =
            Mc_eval.boolean ~domains:1 ~confidence:mc_confidence ~seed:mc_seed
              ~samples:mc_samples (ti_sampler (Lazy.force src)) phi
          in
          if contains_iv r.Mc_eval.bounds (Lazy.force truth_lim) then None
          else
            Some
              (Printf.sprintf "MC bounds %s (conf %.5f) miss exact %s"
                 (ivs r.Mc_eval.bounds) mc_confidence
                 (rs (Lazy.force truth_lim))));
      check "robust.enclosure" (fun () ->
          let a =
            Robust_eval.query ~eps:eps_fine ~mc_samples:1000 ~seed:mc_seed
              (Lazy.force src) phi
          in
          let iv = a.Robust_eval.enclosure in
          if contains_iv iv (Lazy.force truth_lim) then None
          else
            Some
              (Printf.sprintf "robust enclosure %s misses exact %s" (ivs iv)
                 (rs (Lazy.force truth_lim))))
    end;
    if case.deltas <> [] then begin
      (* The incremental session's from-scratch reference after each
         delta: padded limit semantics for cmp-free queries (the
         session's own padding values close the comparison), exact
         truncated semantics otherwise. *)
      let scratch_of pads tbl =
        if cmp_free then Query_eval.boolean ~extra_domain:pads tbl phi
        else Query_eval.boolean tbl phi
      in
      check "mutation.incremental" (fun () ->
          let s = Delta_eval.Exact.create case.table phi in
          let tbl = ref case.table in
          let step = ref 0 in
          List.find_map
            (fun d ->
              incr step;
              let k = Delta_eval.Exact.apply s d in
              tbl := Delta_eval.apply_table !tbl d;
              let inc = Delta_eval.Exact.prob s in
              let scratch = scratch_of (Delta_eval.Exact.padding s) !tbl in
              if Rational.equal inc scratch then None
              else
                Some
                  (Printf.sprintf
                     "step %d (%s, %s): incremental %s <> from-scratch %s"
                     !step
                     (Delta_eval.delta_to_string d)
                     (Delta_eval.apply_kind_to_string k)
                     (rs inc) (rs scratch)))
            case.deltas);
      check "mutation.interval" (fun () ->
          (* The interval-carrier session must enclose the exact
             from-scratch answer at every step. *)
          let s = Delta_eval.Certified.create case.table phi in
          let tbl = ref case.table in
          let step = ref 0 in
          List.find_map
            (fun d ->
              incr step;
              ignore (Delta_eval.Certified.apply s d);
              tbl := Delta_eval.apply_table !tbl d;
              let iv = Delta_eval.Certified.prob s in
              let scratch =
                scratch_of (Delta_eval.Certified.padding s) !tbl
              in
              if contains_iv iv scratch then None
              else
                Some
                  (Printf.sprintf "step %d (%s): interval %s misses exact %s"
                     !step
                     (Delta_eval.delta_to_string d)
                     (ivs iv) (rs scratch)))
            case.deltas);
      check "mutation.inverse" (fun () ->
          (* Every delta, taken from the sequence's evolving state, is
             undone exactly by its inverse. *)
          let s = Delta_eval.Exact.create case.table phi in
          let step = ref 0 in
          List.find_map
            (fun d ->
              incr step;
              let p0 = Delta_eval.Exact.prob s in
              let inv = Delta_eval.Exact.inverse s d in
              ignore (Delta_eval.Exact.apply s d);
              ignore (Delta_eval.Exact.apply s inv);
              let p1 = Delta_eval.Exact.prob s in
              if Rational.equal p0 p1 then None
              else
                Some
                  (Printf.sprintf
                     "step %d: %s then %s moved the answer: %s <> %s" !step
                     (Delta_eval.delta_to_string d)
                     (Delta_eval.delta_to_string inv)
                     (rs p0) (rs p1)))
            case.deltas);
      check "mutation.noop" (fun () ->
          (* Recognized no-ops never bump the epoch. *)
          let s = Delta_eval.Exact.create case.table phi in
          match Ti_table.facts case.table with
          | [] -> None
          | (f, p) :: _ ->
            let e0 = Delta_eval.Exact.epoch s in
            let k = Delta_eval.Exact.apply s (Delta_eval.Reweight (f, p)) in
            if k = Delta_eval.Noop && Delta_eval.Exact.epoch s = e0 then None
            else
              Some
                (Printf.sprintf "same-marginal reweight absorbed as %s"
                   (Delta_eval.apply_kind_to_string k)))
    end
  | K_open | K_completion -> (
    (* Both open-world kinds evaluate the table completed by their
       policy as one countable TI source, so one estimate/bounds pair
       serves both: the coarse answer against the oracle at the prefix
       it used.  K_open always completes by an infinite geometric tail;
       K_completion adds λ policies and the Theorem 5.5 laws. *)
    let c = lazy (completion_of case) in
    let src = lazy (Completion.source (Lazy.force c)) in
    let approx eps = Approx_eval.boolean (Lazy.force src) ~eps phi in
    let coarse = lazy (approx eps_coarse) in
    let oracle_at n = Oracle.of_fact_source (Lazy.force src) ~n in
    check "approx.estimate" (fun () ->
        let r = Lazy.force coarse in
        let u = oracle_at r.Approx_eval.n_used in
        expect_eq ~what:"Approx_eval estimate at n_used"
          (Oracle.query_prob ~semantics:(sem_for phi) u phi)
          r.Approx_eval.estimate);
    check "approx.bounds" (fun () ->
        let r = Lazy.force coarse in
        let e =
          Oracle.enclosure ~semantics:(sem_for phi)
            (oracle_at r.Approx_eval.n_used) phi
        in
        if overlaps_iv r.Approx_eval.bounds e then None
        else
          Some
            (Printf.sprintf "bounds %s disjoint from oracle enclosure %s"
               (ivs r.Approx_eval.bounds) (encs e)));
    match case.kind with
    | K_open ->
      (* Narrowing is a law of the limit semantics: a [Cmp] query targets
         each truncation's own semantics, whose enclosures need not nest
         across depths. *)
      if cmp_free then
        check "law.narrowing" (fun () ->
            let r1 = Lazy.force coarse and r2 = approx eps_fine in
            let n1 = r1.Approx_eval.n_used and n2 = r2.Approx_eval.n_used in
            let e1 = Oracle.enclosure ~semantics:Limit (oracle_at n1) phi
            and e2 = Oracle.enclosure ~semantics:Limit (oracle_at n2) phi in
            if n2 < n1 then
              Some
                (Printf.sprintf "tighter eps used a shorter prefix: %d < %d" n2
                   n1)
            else if Rational.(Oracle.width e2 > Oracle.width e1) then
              Some
                (Printf.sprintf
                   "oracle enclosure widened with depth: %s at n=%d vs %s at n=%d"
                   (rs (Oracle.width e2)) n2 (rs (Oracle.width e1)) n1)
            else if
              Rational.(
                e1.Oracle.hi < e2.Oracle.lo || e2.Oracle.hi < e1.Oracle.lo)
            then
              Some
                (Printf.sprintf "oracle enclosures %s and %s are disjoint"
                   (encs e1) (encs e2))
            else if
              (* Both engine intervals bound the same limit probability. *)
              Interval.lo r1.Approx_eval.bounds
              > Interval.hi r2.Approx_eval.bounds
              || Interval.lo r2.Approx_eval.bounds
                 > Interval.hi r1.Approx_eval.bounds
            then
              Some
                (Printf.sprintf "approx bounds %s and %s are disjoint"
                   (ivs r1.Approx_eval.bounds) (ivs r2.Approx_eval.bounds))
            else None);
      let deep_enclosure =
        lazy
          (let r = approx eps_fine in
           Oracle.enclosure ~semantics:Limit (oracle_at r.Approx_eval.n_used) phi)
      in
      check "anytime.bounds" (fun () ->
          anytime_check (Lazy.force src) (fun iv ->
              let e = Lazy.force deep_enclosure in
              if overlaps_iv iv e then None
              else
                Some
                  (Printf.sprintf
                     "anytime bounds %s disjoint from oracle enclosure %s"
                     (ivs iv) (encs e))));
      if cmp_free then begin
        check "mc.bounds" (fun () ->
            let r =
              Mc_eval.boolean ~domains:1 ~confidence:mc_confidence ~seed:mc_seed
                ~samples:mc_samples (ti_sampler (Lazy.force src)) phi
            in
            let e = Lazy.force deep_enclosure in
            if overlaps_iv r.Mc_eval.bounds e then None
            else
              Some
                (Printf.sprintf
                   "MC bounds %s (conf %.5f) disjoint from oracle enclosure %s"
                   (ivs r.Mc_eval.bounds) mc_confidence (encs e)));
        check "robust.enclosure" (fun () ->
            let a =
              Robust_eval.query ~eps:eps_fine ~mc_samples:1000 ~seed:mc_seed
                (Lazy.force src) phi
            in
            let iv = a.Robust_eval.enclosure in
            let e = Lazy.force deep_enclosure in
            if overlaps_iv iv e then None
            else
              Some
                (Printf.sprintf
                   "robust enclosure %s disjoint from oracle enclosure %s"
                   (ivs iv) (encs e)))
      end
    | _ (* K_completion *) ->
      check "law.completion_ti" (fun () ->
          (* Theorem 5.5 for a TI original: the product of the table's
             worlds with the first k new facts is the TI space on the
             first |orig| + k facts of the completed source. *)
          let c = Lazy.force c in
          let orig = Ti_table.size (Completion.original c) in
          let sorted u =
            List.sort
              (fun (a, _) (b, _) -> Instance.compare a b)
              (Oracle.worlds u)
          in
          List.find_map
            (fun k ->
              let product = sorted (Oracle.of_completion c ~n:k)
              and appended = sorted (oracle_at (orig + k)) in
              if
                List.equal
                  (fun (a, p) (b, q) -> Instance.equal a b && Rational.equal p q)
                  product appended
              then None
              else
                Some
                  (Printf.sprintf
                     "product and appended source differ at k = %d (%d vs %d \
                      worlds)"
                     k (List.length product) (List.length appended)))
            [ 0; 1; 2; 3 ]);
      check "law.cc" (fun () ->
          (* Theorem 5.5: the completion preserves the original law
             conditionally, P'(A | Omega) = P(A), at every truncation. *)
          let c = Lazy.force c in
          let gap = Completion.completion_condition_gap c ~n:3 in
          if not (Rational.is_zero gap) then
            Some (Printf.sprintf "completion condition gap %s <> 0" (rs gap))
          else begin
            match case.policy with
            | Some (Completion.Lambda (_, k)) ->
              (* Finite reservoir: condition the exact product universe on
                 "no new fact" and compare world by world. *)
              let u = Oracle.of_completion c ~n:k in
              let no_new inst =
                Fact.Set.for_all
                  (fun f -> Fact.rel f <> Oracle_gen.policy_relation)
                  (Instance.to_set inst)
              in
              let cond = Oracle.condition u no_new in
              let orig = Completion.original c in
              List.find_map
                (fun (inst, m) ->
                  let want = Ti_table.world_probability orig inst in
                  if Rational.equal m want then None
                  else
                    Some
                      (Printf.sprintf
                         "P'(D | Omega) = %s but P(D) = %s on a world" (rs m)
                         (rs want)))
                (Oracle.worlds cond)
            | _ -> None
          end);
      if cmp_free then
        check "mc.bounds" (fun () ->
            let r = Lazy.force coarse in
            let e =
              Oracle.enclosure ~semantics:Limit (oracle_at r.Approx_eval.n_used)
                phi
            in
            let mc =
              Mc_eval.boolean ~domains:1 ~confidence:mc_confidence ~seed:mc_seed
                ~samples:mc_samples (ti_sampler (Lazy.force src)) phi
            in
            if overlaps_iv mc.Mc_eval.bounds e then None
            else
              Some
                (Printf.sprintf
                   "MC bounds %s (conf %.5f) disjoint from oracle enclosure %s"
                   (ivs mc.Mc_eval.bounds) mc_confidence (encs e))));
  | K_bid ->
    let bid = bid_of case in
    let u = lazy (Oracle.of_bid_table bid) in
    let blocks = Bid_table.blocks bid in
    check "law.marginal" (fun () ->
        let u = Lazy.force u in
        List.find_map
          (fun (b : Bid_table.block) ->
            List.find_map
              (fun (f, p) ->
                let m = Oracle.marginal u f in
                if Rational.equal m p then None
                else
                  Some
                    (Printf.sprintf
                       "oracle marginal of %s is %s, block %s says %s"
                       (Fact.to_string f) (rs m) b.Bid_table.block_id (rs p)))
              b.Bid_table.alternatives)
          blocks);
    check "law.exclusive" (fun () ->
        (* Two alternatives of one block never co-occur. *)
        let u = Lazy.force u in
        List.find_map
          (fun (b : Bid_table.block) ->
            match b.Bid_table.alternatives with
            | (f, _) :: (g, _) :: _ ->
              let both = Fo.And (ground_atom f, ground_atom g) in
              let p = Oracle.query_prob u both in
              if Rational.is_zero p then None
              else
                Some
                  (Printf.sprintf "P(%s and %s) = %s <> 0 in block %s"
                     (Fact.to_string f) (Fact.to_string g) (rs p)
                     b.Bid_table.block_id)
            | _ -> None)
          blocks);
    check "law.expected-size" (fun () ->
        let u = Lazy.force u in
        let want =
          Rational.sum
            (List.concat_map
               (fun (b : Bid_table.block) ->
                 List.map snd b.Bid_table.alternatives)
               blocks)
        in
        expect_eq ~what:"E(S_D) over blocks" want (Oracle.expected_size u));
    if cmp_free then
      check "mc.bounds" (fun () ->
          let plan =
            Countable_bid.sampler
              (Countable_bid.of_finite_blocks
                 (List.map
                    (fun (b : Bid_table.block) ->
                      Countable_bid.block_finite ~id:b.Bid_table.block_id
                        b.Bid_table.alternatives)
                    blocks))
          in
          let r =
            Mc_eval.boolean ~domains:1 ~confidence:mc_confidence ~seed:mc_seed
              ~samples:mc_samples plan phi
          in
          let truth =
            Oracle.query_prob ~semantics:(sem_for phi) (Lazy.force u) phi
          in
          if contains_iv r.Mc_eval.bounds truth then None
          else
            Some
              (Printf.sprintf "MC bounds %s (conf %.5f) miss exact %s"
                 (ivs r.Mc_eval.bounds) mc_confidence (rs truth))));
  (!checks, List.rev !fails)

(* ------------------------------------------------------------------ *)
(* Shrinking *)
(* ------------------------------------------------------------------ *)

let drop_nth xs i = List.filteri (fun j _ -> j <> i) xs

let ti_variants case =
  let facts = Ti_table.facts case.table in
  List.mapi (fun i _ -> { case with table = Ti_table.create (drop_nth facts i) }) facts

let bid_variants case =
  match case.bid with
  | None -> []
  | Some bid ->
    let blocks = Bid_table.blocks bid in
    let rebuild bs =
      if bs = [] then None
      else Some { case with bid = Some (Bid_table.create bs) }
    in
    let drop_block =
      List.mapi (fun i _ -> rebuild (drop_nth blocks i)) blocks
    in
    let drop_alt =
      List.concat
        (List.mapi
           (fun i (b : Bid_table.block) ->
             List.mapi
               (fun j _ ->
                 match drop_nth b.Bid_table.alternatives j with
                 | [] -> rebuild (drop_nth blocks i)
                 | alts ->
                   rebuild
                     (List.mapi
                        (fun i' b' ->
                          if i' = i then { b' with Bid_table.alternatives = alts }
                          else b')
                        blocks))
               b.Bid_table.alternatives)
           blocks)
    in
    List.filter_map Fun.id (drop_block @ drop_alt)

let query_variants case =
  let subs =
    match case.query with
    | Fo.Not f -> [ f ]
    | Fo.And (l, r) | Fo.Or (l, r) | Fo.Implies (l, r) -> [ l; r ]
    | Fo.Exists (x, b) | Fo.Forall (x, b) ->
      List.map
        (fun v -> Fo.substitute [ (x, v) ] b)
        [ Value.Int 0; Value.Str "a" ]
    | _ -> []
  in
  List.map (fun q -> { case with query = q }) (subs @ [ Fo.True; Fo.False ])

let delta_variants case =
  List.mapi (fun i _ -> { case with deltas = drop_nth case.deltas i }) case.deltas

let case_variants case =
  ti_variants case @ bid_variants case @ query_variants case
  @ delta_variants case

let shrink ?(max_steps = 64) fl =
  let engines = [ engine_of_check fl.check ] in
  let failure_of c =
    match run_case ~engines c with
    | _, fs -> List.find_opt (fun f -> String.equal f.check fl.check) fs
    | exception _ -> None
  in
  let rec go best steps =
    if steps <= 0 then best
    else
      match
        List.find_map
          (fun c -> Option.map (fun f -> f) (failure_of c))
          (case_variants best.f_case)
      with
      | Some f -> go f (steps - 1)
      | None -> best
  in
  go fl max_steps

(* ------------------------------------------------------------------ *)
(* Corpus serialization *)
(* ------------------------------------------------------------------ *)

type corpus_case = { c_case : case; c_check : string; c_detail : string }

let one_line s =
  String.map (function '\n' | '\r' -> ' ' | c -> c) s

let nonblank_lines s =
  String.split_on_char '\n' s |> List.filter (fun l -> String.trim l <> "")

let to_lines ~seed cc =
  let case = cc.c_case in
  [
    "# iowpdb fuzz counterexample; replayed by the test/corpus loader.";
    Printf.sprintf "# found with seed %d; regenerate: iowpdb fuzz --seed %d"
      seed seed;
    Printf.sprintf "case %d" case.id;
    "kind " ^ kind_to_string case.kind;
    "check " ^ cc.c_check;
    "detail " ^ one_line cc.c_detail;
    "query " ^ Fo.to_string case.query;
  ]
  @ (match case.policy with
    | None -> []
    | Some p -> [ "policy " ^ Completion.policy_to_string p ])
  @ List.map (fun d -> "delta " ^ Delta_eval.delta_to_string d) case.deltas
  @ List.map (fun l -> "ti " ^ l) (nonblank_lines (Ti_table.to_string case.table))
  @
  match case.bid with
  | None -> []
  | Some b -> List.map (fun l -> "bid " ^ l) (nonblank_lines (Bid_table.to_string b))

let of_lines ?file lines =
  let where i =
    Printf.sprintf "%s:%d" (Option.value file ~default:"<corpus>") i
  in
  let id = ref 0
  and kind = ref None
  and chk = ref "replay"
  and detail = ref ""
  and query = ref None
  and policy = ref None
  and deltas = ref []
  and ti_lines = ref []
  and bid_lines = ref [] in
  List.iteri
    (fun i0 line ->
      let i = i0 + 1 in
      let line = String.trim line in
      if line = "" || line.[0] = '#' then ()
      else begin
        let kw, rest =
          match String.index_opt line ' ' with
          | None -> (line, "")
          | Some j ->
            ( String.sub line 0 j,
              String.trim (String.sub line (j + 1) (String.length line - j - 1))
            )
        in
        match kw with
        | "case" -> (
          match int_of_string_opt rest with
          | Some n -> id := n
          | None -> invalid_arg (where i ^ ": malformed case id " ^ rest))
        | "kind" -> (
          match kind_of_string rest with
          | Some k -> kind := Some k
          | None -> invalid_arg (where i ^ ": unknown kind " ^ rest))
        | "check" -> chk := rest
        | "detail" -> detail := rest
        | "query" -> (
          match Fo_parse.parse rest with
          | Ok q -> query := Some q
          | Error e -> invalid_arg (where i ^ ": bad query: " ^ e))
        | "policy" -> (
          match Completion.policy_of_string rest with
          | p -> policy := Some p
          | exception Invalid_argument e -> invalid_arg (where i ^ ": " ^ e))
        | "delta" -> (
          match Delta_eval.delta_of_string rest with
          | d -> deltas := d :: !deltas
          | exception Invalid_argument e -> invalid_arg (where i ^ ": " ^ e))
        | "ti" -> ti_lines := rest :: !ti_lines
        | "bid" -> bid_lines := rest :: !bid_lines
        | _ -> invalid_arg (where i ^ ": unknown keyword " ^ kw)
      end)
    lines;
  let kind =
    match !kind with
    | Some k -> k
    | None -> invalid_arg (Option.value file ~default:"<corpus>" ^ ": no kind line")
  in
  let query =
    match !query with
    | Some q -> q
    | None -> invalid_arg (Option.value file ~default:"<corpus>" ^ ": no query line")
  in
  let table = Ti_table.of_lines ?file (List.rev !ti_lines) in
  let bid =
    match List.rev !bid_lines with
    | [] -> None
    | ls -> Some (Bid_table.of_lines ?file ls)
  in
  {
    c_case =
      {
        id = !id;
        kind;
        table;
        bid;
        policy = !policy;
        query;
        deltas = List.rev !deltas;
      };
    c_check = !chk;
    c_detail = !detail;
  }

let save ~dir ~seed fl =
  let safe =
    String.map
      (fun c ->
        match c with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '-' -> c | _ -> '-')
      fl.check
  in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let path = Filename.concat dir (Printf.sprintf "%s-%d-%d.case" safe seed fl.f_case.id) in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      List.iter
        (fun l -> output_string oc (l ^ "\n"))
        (to_lines ~seed
           { c_case = fl.f_case; c_check = fl.check; c_detail = fl.detail }));
  path

let load path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let rec go acc =
        match input_line ic with
        | l -> go (l :: acc)
        | exception End_of_file -> List.rev acc
      in
      of_lines ~file:path (go []))

(* ------------------------------------------------------------------ *)
(* The fuzzing loop *)
(* ------------------------------------------------------------------ *)

type report = {
  cases_run : int;
  checks_run : int;
  engines_run : engine list;
  mc_confidence : float;
  failures : failure list;
  corpus_written : string list;
}

(* Expensive engines rotate across cases; the strides are part of the
   reproducible protocol, so the per-run Bonferroni correction below is a
   deterministic function of (engines, cases). *)
let case_engines ~engines id =
  List.filter
    (function
      | Exact | Lifted | Approx | Batch | Delta -> true
      | Anytime -> id mod 2 = 0
      | Mc -> id mod 3 = 0
      | Robust -> id mod 5 = 0)
    engines

let run ?(config = Oracle_gen.default) ?(engines = all_engines)
    ?(mc_samples = 1500) ?corpus_dir ~seed ~cases () =
  let mc_checks_planned =
    if List.mem Mc engines then (cases + 2) / 3 else 0
  in
  let mc_confidence =
    1.0 -. (0.02 /. float_of_int (max 1 mc_checks_planned))
  in
  let checks_run = ref 0 and failures = ref [] and written = ref [] in
  for id = 0 to cases - 1 do
    let case = generate config ~seed ~id in
    let engs = case_engines ~engines id in
    let n, fs = run_case ~engines:engs ~mc_samples ~mc_confidence case in
    checks_run := !checks_run + n;
    let fs = List.map (fun f -> shrink f) fs in
    (match corpus_dir with
    | Some dir -> List.iter (fun f -> written := save ~dir ~seed f :: !written) fs
    | None -> ());
    failures := List.rev_append fs !failures
  done;
  {
    cases_run = cases;
    checks_run = !checks_run;
    engines_run = engines;
    mc_confidence;
    failures = List.rev !failures;
    corpus_written = List.rev !written;
  }
