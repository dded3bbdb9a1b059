(* Tests for the knowledge-compilation substrate: boolean expressions,
   ROBDDs and weighted model counting. *)

module E = Bool_expr

let x0 = E.var 0
let x1 = E.var 1
let x2 = E.var 2

(* ------------------------------------------------------------------ *)
(* Bool_expr *)
(* ------------------------------------------------------------------ *)

let test_smart_constructors () =
  Alcotest.(check bool) "and unit" true (E.equal (E.conj [ E.tru; x0 ]) x0);
  Alcotest.(check bool) "and zero" true (E.equal (E.conj [ x0; E.fls ]) E.fls);
  Alcotest.(check bool) "or unit" true (E.equal (E.disj [ E.fls; x0 ]) x0);
  Alcotest.(check bool) "or one" true (E.equal (E.disj [ x0; E.tru ]) E.tru);
  Alcotest.(check bool) "neg neg" true (E.equal (E.neg (E.neg x0)) x0);
  Alcotest.(check bool) "neg true" true (E.equal (E.neg E.tru) E.fls);
  Alcotest.(check bool) "empty conj" true (E.equal (E.conj []) E.tru);
  Alcotest.(check bool) "empty disj" true (E.equal (E.disj []) E.fls);
  (* flattening *)
  (match E.conj [ E.conj [ x0; x1 ]; x2 ] with
   | E.And [ _; _; _ ] -> ()
   | e -> Alcotest.failf "expected flat conj, got %s" (E.to_string e))

let test_eval_vars () =
  let e = E.or2 (E.and2 x0 x1) (E.neg x2) in
  Alcotest.(check bool) "eval tt" true (E.eval (fun _ -> true) e);
  Alcotest.(check bool) "eval ff" true (E.eval (fun _ -> false) e);
  Alcotest.(check bool) "eval mixed" false (E.eval (fun i -> i = 2) e);
  Alcotest.(check (list int)) "vars" [ 0; 1; 2 ] (E.vars e);
  Alcotest.(check int) "model count" 5 (E.model_count e)

let test_implies () =
  let e = E.implies x0 x1 in
  Alcotest.(check bool) "F -> _" true (E.eval (fun _ -> false) e);
  Alcotest.(check bool) "T -> F" false (E.eval (fun i -> i = 0) e)

let test_brute_force_probability () =
  (* P(x0 | x1) with p0 = 1/2, p1 = 1/3: 1 - (1/2)(2/3) = 2/3 *)
  let weight = function
    | 0 -> Rational.half
    | _ -> Rational.of_ints 1 3
  in
  let p = E.brute_force_probability weight (E.or2 x0 x1) in
  Alcotest.(check string) "or prob" "2/3" (Rational.to_string p);
  let p = E.brute_force_probability weight (E.and2 x0 x1) in
  Alcotest.(check string) "and prob" "1/6" (Rational.to_string p);
  let p = E.brute_force_probability weight E.tru in
  Alcotest.(check string) "true prob" "1" (Rational.to_string p)

(* ------------------------------------------------------------------ *)
(* Bdd *)
(* ------------------------------------------------------------------ *)

let test_bdd_canonicity () =
  let m = Bdd.manager () in
  let a = Bdd.var m 0 and b = Bdd.var m 1 in
  (* (a & b) built two different ways is the same node *)
  let ab1 = Bdd.conj m a b in
  let ab2 = Bdd.neg m (Bdd.disj m (Bdd.neg m a) (Bdd.neg m b)) in
  Alcotest.(check bool) "de morgan canonical" true (Bdd.equal ab1 ab2);
  (* tautology collapses to true *)
  let taut = Bdd.disj m a (Bdd.neg m a) in
  Alcotest.(check bool) "tautology" true (Bdd.is_tru taut);
  let contra = Bdd.conj m a (Bdd.neg m a) in
  Alcotest.(check bool) "contradiction" true (Bdd.is_fls contra)

let test_bdd_eval_agrees_with_expr () =
  let m = Bdd.manager () in
  let e = E.or2 (E.and2 x0 (E.neg x1)) (E.and2 x2 x1) in
  let d = Bdd.of_expr m e in
  for mask = 0 to 7 do
    let env i = mask land (1 lsl i) <> 0 in
    Alcotest.(check bool)
      (Printf.sprintf "assignment %d" mask)
      (E.eval env e) (Bdd.eval env d)
  done

let test_bdd_support_size () =
  let m = Bdd.manager () in
  (* x1 is redundant in (x0 & x1) | (x0 & !x1) = x0 *)
  let e = E.or2 (E.and2 x0 x1) (E.and2 x0 (E.neg x1)) in
  let d = Bdd.of_expr m e in
  Alcotest.(check (list int)) "support reduces" [ 0 ] (Bdd.support d);
  Alcotest.(check int) "size 1" 1 (Bdd.size d)

let test_bdd_sat_count () =
  let m = Bdd.manager () in
  let d = Bdd.of_expr m (E.or2 (E.and2 x0 x1) (E.neg x2)) in
  Alcotest.(check string) "5 models" "5"
    (Bigint.to_string (Bdd.sat_count d ~over:[ 0; 1; 2 ]));
  (* extra free variable doubles *)
  Alcotest.(check string) "10 over 4 vars" "10"
    (Bigint.to_string (Bdd.sat_count d ~over:[ 0; 1; 2; 7 ]));
  Alcotest.(check string) "true over 3" "8"
    (Bigint.to_string (Bdd.sat_count (Bdd.tru m) ~over:[ 0; 1; 2 ]));
  Alcotest.(check string) "false" "0"
    (Bigint.to_string (Bdd.sat_count (Bdd.fls m) ~over:[ 0 ]));
  Alcotest.check_raises "missing support"
    (Invalid_argument "Bdd.sat_count: over must contain the support")
    (fun () -> ignore (Bdd.sat_count d ~over:[ 0; 1 ]))

let test_bdd_sat_count_shared_dag () =
  (* Regression: counting used to walk the BDD as a tree, re-expanding
     shared subgraphs — exponential on this parity chain (2^40 visits).
     With memoization it is linear in the DAG size. *)
  let m = Bdd.manager () in
  let nvars = 40 in
  let d =
    List.fold_left
      (fun acc v -> Bdd.xor m acc (Bdd.var m v))
      (Bdd.fls m)
      (List.init nvars Fun.id)
  in
  Alcotest.(check int) "parity dag is linear" ((2 * nvars) - 1) (Bdd.size d);
  (* odd parity holds on exactly half of the 2^40 assignments *)
  Alcotest.(check string) "2^39 models"
    (Bigint.to_string (Bigint.shift_left Bigint.one 39))
    (Bigint.to_string (Bdd.sat_count d ~over:(List.init nvars Fun.id)))

let test_bdd_any_sat () =
  let m = Bdd.manager () in
  let e = E.and2 x0 (E.neg x1) in
  (match Bdd.any_sat (Bdd.of_expr m e) with
   | Some assign ->
     let env i = try List.assoc i assign with Not_found -> false in
     Alcotest.(check bool) "assignment satisfies" true (E.eval env e)
   | None -> Alcotest.fail "satisfiable");
  Alcotest.(check bool) "unsat none" true (Bdd.any_sat (Bdd.fls m) = None)

let test_bdd_any_sat_shared_dag () =
  (* Regression: any_sat used to walk the diagram as a tree, re-entering
     shared refuted subgraphs once per path above them.  With UNSAT
     memoization the search is linear in the DAG, so this 500-variable
     diagram — a parity chain (maximal sharing, false-heavy hi edges)
     disjoined with an all-false chain — answers instantly. *)
  let m = Bdd.manager () in
  let nvars = 500 in
  let vars = List.init nvars Fun.id in
  let parity =
    List.fold_left (fun acc v -> Bdd.xor m acc (Bdd.var m v)) (Bdd.fls m) vars
  in
  let all_false =
    List.fold_left
      (fun acc v -> Bdd.conj m acc (Bdd.neg m (Bdd.var m v)))
      (Bdd.tru m) vars
  in
  let d = Bdd.disj m parity all_false in
  (match Bdd.any_sat d with
  | None -> Alcotest.fail "satisfiable"
  | Some assign ->
    let env i = try List.assoc i assign with Not_found -> false in
    Alcotest.(check bool) "assignment satisfies" true (Bdd.eval env d);
    let support = Bdd.support d in
    Alcotest.(check bool) "assignment within support" true
      (List.for_all (fun (v, _) -> List.mem v support) assign));
  (* and the constant-false diagram still reports unsatisfiable *)
  Alcotest.(check bool) "conj with negation unsat" true
    (Bdd.any_sat (Bdd.conj m d (Bdd.neg m d)) = None)

let test_bdd_restrict () =
  let m = Bdd.manager () in
  let d = Bdd.of_expr m (E.and2 x0 x1) in
  let r1 = Bdd.restrict m d 0 true in
  Alcotest.(check bool) "restrict to x1" true (Bdd.equal r1 (Bdd.var m 1));
  let r0 = Bdd.restrict m d 0 false in
  Alcotest.(check bool) "restrict to false" true (Bdd.is_fls r0)

let test_bdd_ite_xor () =
  let m = Bdd.manager () in
  let a = Bdd.var m 0 and b = Bdd.var m 1 in
  let x = Bdd.xor m a b in
  Alcotest.(check bool) "xor tt" false (Bdd.eval (fun _ -> true) x);
  Alcotest.(check bool) "xor tf" true (Bdd.eval (fun i -> i = 0) x);
  let i = Bdd.ite m a b (Bdd.neg m b) in
  (* ite(a, b, !b) = a xnor b ... check against eval *)
  List.iter
    (fun (va, vb) ->
      let env j = if j = 0 then va else vb in
      Alcotest.(check bool) "ite agree" (if va then vb else not vb)
        (Bdd.eval env i))
    [ (true, true); (true, false); (false, true); (false, false) ]

let test_bdd_variable_order_effect () =
  (* (x0 & x3) | (x1 & x4) | (x2 & x5): interleaved order is linear,
     separated order is exponential - the classic example. *)
  let e =
    E.disj
      [
        E.and2 (E.var 0) (E.var 3);
        E.and2 (E.var 1) (E.var 4);
        E.and2 (E.var 2) (E.var 5);
      ]
  in
  let good = Bdd.manager ~order:(fun v -> match v with
      | 0 -> 0 | 3 -> 1 | 1 -> 2 | 4 -> 3 | 2 -> 4 | 5 -> 5 | _ -> v + 10) () in
  let bad = Bdd.manager () (* 0,1,2,3,4,5: pairs split across the order *) in
  let sg = Bdd.size (Bdd.of_expr good e) in
  let sb = Bdd.size (Bdd.of_expr bad e) in
  Alcotest.(check bool)
    (Printf.sprintf "good order smaller (%d < %d)" sg sb)
    true (sg < sb)

(* ------------------------------------------------------------------ *)
(* Wmc *)
(* ------------------------------------------------------------------ *)

let test_wmc_matches_brute_force_exact () =
  let weight i = Rational.of_ints (i + 1) 10 in
  List.iter
    (fun e ->
      let reference = E.brute_force_probability weight e in
      let got = Wmc.probability ~weight e in
      Alcotest.(check string) ("wmc " ^ E.to_string e)
        (Rational.to_string reference) (Rational.to_string got))
    [
      E.tru;
      E.fls;
      x0;
      E.neg x0;
      E.and2 x0 x1;
      E.or2 x0 x1;
      E.or2 (E.and2 x0 x1) (E.and2 (E.neg x0) x2);
      E.conj [ x0; x1; x2; E.var 3 ];
      E.disj [ E.and2 x0 x1; E.and2 x1 x2; E.and2 x2 x0 ];
      E.implies (E.or2 x0 x1) (E.and2 x2 (E.neg x0));
    ]

let test_wmc_float_and_interval () =
  (* The one fold is generic in its values: over floats it is a fast
     estimate, over intervals (the certified delta sessions' carrier) an
     enclosure of the exact count. *)
  let e = E.disj [ E.and2 x0 x1; E.and2 x1 x2; E.and2 x2 x0 ] in
  let t = Bdd.of_expr (Bdd.manager ()) e in
  let q i = Rational.of_ints (i + 1) 10 in
  let fold ~zero ~one ~node =
    (Bdd.fold_prob_many ~zero ~one ~node [| t |]).(0)
  in
  let f =
    fold ~zero:0.0 ~one:1.0 ~node:(fun v lo hi ->
        let p = Rational.to_float (q v) in
        (p *. hi) +. ((1.0 -. p) *. lo))
  in
  let iv =
    fold ~zero:Interval.zero ~one:Interval.one ~node:(fun v lo hi ->
        let p = Interval.of_rational (q v) in
        Interval.add (Interval.mul p hi) (Interval.mul (Interval.compl p) lo))
  in
  let exact = Wmc.probability ~weight:q e in
  Alcotest.(check bool) "float inside interval" true (Interval.contains iv f);
  Alcotest.(check bool) "interval narrow" true (Interval.width iv < 1e-12);
  Alcotest.(check bool) "exact inside interval" true
    (Rational.compare (Rational.of_float_exn (Interval.lo iv)) exact <= 0
    && Rational.compare exact (Rational.of_float_exn (Interval.hi iv)) <= 0)

let test_wmc_large_conjunction () =
  (* P(AND of 40 independent vars each 1/2) = 2^-40; brute force would be
     hopeless, the BDD is a chain. *)
  let e = E.conj (List.init 40 E.var) in
  let p = Wmc.probability ~weight:(fun _ -> Rational.half) e in
  Alcotest.(check string) "2^-40" (Rational.to_string (Rational.pow Rational.half 40))
    (Rational.to_string p)

(* ------------------------------------------------------------------ *)
(* The derived operation-cache size and the shared-memo batch fold *)
(* ------------------------------------------------------------------ *)

(* E22's hard member at n = 9: !((exists x. R(x) & S(x)) | (exists y.
   S(y) & T(y))) over R(k) = 3k, S(k) = 3k+1, T(k) = 3k+2.  Under
   first-occurrence order every T sits below the S block, so the diagram
   is exponential in n; its probability is the product over k of
   1 - s (1 - (1 - r)(1 - t)). *)
let test_cache_follows_unique_table () =
  let n = 9 in
  let r k = E.var (3 * k) and s k = E.var ((3 * k) + 1)
  and t k = E.var ((3 * k) + 2) in
  let e =
    E.neg
      (E.or2
         (E.disj (List.init n (fun k -> E.and2 (r k) (s k))))
         (E.disj (List.init n (fun k -> E.and2 (s k) (t k)))))
  in
  let weight v = Rational.of_ints (1 + (v mod 3)) (4 + (v mod 5)) in
  let reference =
    List.fold_left Rational.mul Rational.one
      (List.init n (fun k ->
           let w j = weight ((3 * k) + j) in
           let neither =
             Rational.mul (Rational.compl (w 0)) (Rational.compl (w 2))
           in
           Rational.compl (Rational.mul (w 1) (Rational.compl neither))))
  in
  let m = Bdd.manager ~order:(Wmc.first_occurrence_order [ e ]) () in
  Alcotest.(check int) "a fresh manager starts at 2,048 entries" 2048
    (Bdd.cache_size m);
  let d = Bdd.of_expr m e in
  Alcotest.(check bool) "past the unique table's second growth" true
    (Bdd.node_count m > 3072);
  Alcotest.(check bool) "the cache grew with the unique table" true
    (Bdd.cache_size m > 2048);
  Alcotest.(check string) "count = closed form" (Rational.to_string reference)
    (Rational.to_string (Wmc.count ~weight [| d |]).(0));
  (* A long chain compiled into the same manager, after the growth: the
     grown cache must still answer exactly. *)
  let chain =
    E.disj
      (List.init 400 (fun k ->
           E.and2 (E.var (100 + (2 * k))) (E.var (101 + (2 * k)))))
  in
  let half _ = Rational.half in
  let expected =
    Rational.compl (Rational.pow (Rational.of_ints 3 4) 400)
  in
  Alcotest.(check string) "chain in the grown manager"
    (Rational.to_string expected)
    (Rational.to_string (Wmc.count ~weight:half [| Bdd.of_expr m chain |]).(0));
  Alcotest.check_raises "manager rejects nonpositive gc threshold"
    (Invalid_argument "Bdd.manager: gc_threshold must be positive") (fun () ->
      ignore (Bdd.manager ~gc_threshold:0 ()))

let test_fold_prob_many_memo () =
  let m = Bdd.manager () in
  let e1 = E.disj (List.init 6 (fun k -> E.and2 (E.var (2 * k)) (E.var ((2 * k) + 1)))) in
  let e2 = E.and2 (E.var 0) (E.var 1) in
  let roots = Array.map (Bdd.of_expr m) [| e1; e2; e1; E.tru; E.fls |] in
  let w = Array.init 12 (fun v -> Rational.of_ints 1 (v + 2)) in
  let calls = ref 0 in
  let node v lo hi =
    incr calls;
    Rational.add (Rational.mul w.(v) hi) (Rational.mul (Rational.compl w.(v)) lo)
  in
  let fold ?memo ?dirty () =
    Bdd.fold_prob_many ?memo ?dirty ~zero:Rational.zero ~one:Rational.one
      ~node roots
  in
  let check_same what a b =
    Array.iteri
      (fun idx x ->
        Alcotest.(check string)
          (Printf.sprintf "%s: root %d" what idx)
          (Rational.to_string x) (Rational.to_string b.(idx)))
      a
  in
  let fresh = fold () in
  Array.iteri
    (fun idx t ->
      Alcotest.(check string)
        (Printf.sprintf "root %d agrees with its own sweep" idx)
        (Rational.to_string
           (Bdd.fold_prob_many ~zero:Rational.zero ~one:Rational.one ~node
              [| t |]).(0))
        (Rational.to_string fresh.(idx)))
    roots;
  Alcotest.(check string) "shared roots share the answer"
    (Rational.to_string fresh.(0))
    (Rational.to_string fresh.(2));
  Alcotest.(check int) "empty batch" 0
    (Array.length
       (Bdd.fold_prob_many ~zero:Rational.zero ~one:Rational.one ~node [||]));
  (* A persistent memo: the first pass computes every node, a clean
     replay none, and a weight patch only the nodes that can see it. *)
  let memo = Bdd.prob_memo () in
  calls := 0;
  check_same "first memo pass" (fold ~memo ()) fresh;
  let full = !calls in
  Alcotest.(check int) "one entry per node" full (Bdd.prob_memo_size memo);
  calls := 0;
  check_same "clean replay" (fold ~memo ()) fresh;
  Alcotest.(check int) "clean replay computes nothing" 0 !calls;
  w.(11) <- Rational.half;
  calls := 0;
  let patched = fold ~memo ~dirty:(fun v -> v = 11) () in
  Alcotest.(check bool) "patch recomputes a slice" true
    (!calls > 0 && !calls < full);
  check_same "patched memo fold = fresh fold" patched (fold ())

let test_fold_prob_many_rejects_foreign_roots () =
  let m1 = Bdd.manager () and m2 = Bdd.manager () in
  let roots = [| Bdd.of_expr m1 (E.var 0); Bdd.of_expr m2 (E.var 0) |] in
  Alcotest.check_raises "mixed managers rejected"
    (Invalid_argument "Bdd.fold_prob_many: node from a different manager")
    (fun () ->
      ignore
        (Bdd.fold_prob_many ~zero:0.0 ~one:1.0
           ~node:(fun _ lo hi -> 0.5 *. (lo +. hi))
           roots))

(* ------------------------------------------------------------------ *)
(* Properties *)
(* ------------------------------------------------------------------ *)

let arb_expr =
  let open QCheck.Gen in
  let rec gen n =
    if n = 0 then
      oneof [ return E.tru; return E.fls; map E.var (int_range 0 5) ]
    else
      frequency
        [
          (1, map E.var (int_range 0 5));
          (2, map E.neg (gen (n - 1)));
          (3, map2 E.and2 (gen (n / 2)) (gen (n / 2)));
          (3, map2 E.or2 (gen (n / 2)) (gen (n / 2)));
        ]
  in
  QCheck.make ~print:E.to_string (gen 6)

let props =
  [
    QCheck.Test.make ~name:"bdd eval = expr eval" ~count:300 arb_expr (fun e ->
        let m = Bdd.manager () in
        let d = Bdd.of_expr m e in
        List.for_all
          (fun mask ->
            let env i = mask land (1 lsl i) <> 0 in
            E.eval env e = Bdd.eval env d)
          [ 0; 7; 21; 42; 63 ]);
    QCheck.Test.make ~name:"wmc = brute force (float)" ~count:200 arb_expr
      (fun e ->
        (* float marginals, counted exactly: finite floats are dyadic *)
        let weight i =
          Rational.of_float_exn (0.1 +. (0.13 *. float_of_int i))
        in
        Rational.equal
          (E.brute_force_probability weight e)
          (Wmc.probability ~weight e));
    QCheck.Test.make ~name:"sat_count = model_count" ~count:200 arb_expr
      (fun e ->
        let m = Bdd.manager () in
        let d = Bdd.of_expr m e in
        let vs = E.vars e in
        match vs with
        | [] -> true
        | _ ->
          Bigint.to_int (Bdd.sat_count d ~over:vs) = E.model_count e);
    QCheck.Test.make ~name:"neg involution on bdd" ~count:200 arb_expr (fun e ->
        let m = Bdd.manager () in
        let d = Bdd.of_expr m e in
        Bdd.equal d (Bdd.neg m (Bdd.neg m d)));
    QCheck.Test.make ~name:"order independence of wmc" ~count:100 arb_expr
      (fun e ->
        let count m =
          (Wmc.count
             ~weight:(fun i -> Rational.of_ints (i + 3) 20)
             [| Bdd.of_expr m e |]).(0)
        in
        Rational.equal
          (count (Bdd.manager ()))
          (count (Bdd.manager ~order:(fun v -> 100 - v) ())));
  ]

(* ------------------------------------------------------------------ *)
(* The scaled count against the Rational fold *)
(* ------------------------------------------------------------------ *)

(* The reference: the fold over canonical rationals, node by node. *)
let rational_count weight roots =
  Bdd.fold_prob_many ~zero:Rational.zero ~one:Rational.one
    ~node:(fun v lo hi ->
      let p = weight v in
      Rational.add (Rational.mul p hi) (Rational.mul (Rational.compl p) lo))
    roots

let primes = [| 2; 3; 5; 7; 11; 13; 17; 19; 23; 29 |]
let pow2 j = Bigint.shift_left Bigint.one j

(* Marginals of every shape the engines meet: pack-style k/100,
   completion-style 2^-j (past 62 bits too), 1/p for a prime of the
   variable's own (pairwise coprime denominators), the constants 0 and
   1, and numerators above 2^62. *)
let gen_weight v =
  let open QCheck.Gen in
  frequency
    [
      (3, map (fun k -> Rational.of_ints k 100) (int_range 0 100));
      (3, map (fun j -> Rational.make Bigint.one (pow2 j)) (int_range 1 70));
      (2, return (Rational.of_ints 1 primes.(v)));
      (1, return Rational.zero);
      (1, return Rational.one);
      ( 2,
        map
          (fun k -> Rational.make (Bigint.add (pow2 63) (Bigint.of_int ((2 * k) + 1))) (pow2 64))
          (int_range 0 1000) );
    ]

let gen_count_case =
  let open QCheck.Gen in
  let rec expr n =
    if n = 0 then
      oneof [ return E.tru; return E.fls; map E.var (int_range 0 9) ]
    else
      frequency
        [
          (1, map E.var (int_range 0 9));
          (2, map E.neg (expr (n - 1)));
          (3, map2 E.and2 (expr (n / 2)) (expr (n / 2)));
          (3, map2 E.or2 (expr (n / 2)) (expr (n / 2)));
        ]
  in
  let* weights = flatten_a (Array.init 10 gen_weight) in
  let* exprs = list_size (int_range 0 5) (expr 8) in
  let* extras = bool in
  let* order = int_range 0 2 in
  return (weights, exprs, extras, order)

let print_count_case (weights, exprs, extras, order) =
  Printf.sprintf "weights [%s]; exprs [%s]; extras %b; order %d"
    (String.concat "; " (Array.to_list (Array.map Rational.to_string weights)))
    (String.concat "; " (List.map E.to_string exprs))
    extras order

(* Batches of one manager: the drawn roots, and (with [extras]) an
   identical root, a root sharing the first two's sub-DAGs and the two
   constants; the empty batch when nothing is drawn. *)
let count_batch (_, exprs, extras, order) =
  let order =
    match order with
    | 0 -> Fun.id
    | 1 -> fun v -> 100 - v
    | _ -> fun v -> ((7 * v) + 3) mod 11
  in
  let m = Bdd.manager ~order () in
  let roots = List.map (Bdd.of_expr m) exprs in
  let extra =
    match (extras, roots) with
    | true, r :: rest ->
      let s = match rest with r' :: _ -> Bdd.disj m r r' | [] -> Bdd.neg m r in
      [ r; s; Bdd.tru m; Bdd.fls m ]
    | _ -> []
  in
  Array.of_list (roots @ extra)

let prop_count_matches_fold =
  QCheck.Test.make ~name:"Wmc.count = Rational fold" ~count:300
    (QCheck.make ~print:print_count_case gen_count_case)
    (fun ((weights, _, _, _) as case) ->
      let roots = count_batch case in
      let weight v = weights.(v) in
      let got = Wmc.count ~weight roots and want = rational_count weight roots in
      Array.length got = Array.length roots
      && Array.for_all2 Rational.equal got want)

let test_count_edges () =
  let m = Bdd.manager () in
  let weight _ = Rational.of_ints 1 3 in
  Alcotest.(check int) "empty batch" 0 (Array.length (Wmc.count ~weight [||]));
  Alcotest.(check (list string)) "constant roots" [ "1"; "0" ]
    (Array.to_list
       (Array.map Rational.to_string (Wmc.count ~weight [| Bdd.tru m; Bdd.fls m |])));
  let x = Bdd.var m 0 in
  Alcotest.(check (list string)) "identical roots" [ "1/3"; "1/3" ]
    (Array.to_list (Array.map Rational.to_string (Wmc.count ~weight [| x; x |])));
  Alcotest.check_raises "mixed managers rejected"
    (Invalid_argument "Bdd.scaled_count: node from a different manager")
    (fun () ->
      ignore (Wmc.count ~weight [| x; Bdd.var (Bdd.manager ()) 0 |]))

(* ------------------------------------------------------------------ *)
(* Kernel differential testing *)
(* ------------------------------------------------------------------ *)

(* Random programs over the full kernel surface — including the cached
   primitives [ite] and [xor] and the traversal [restrict], which plain
   Bool_expr generation never exercises — compiled under a random
   injective variable order and compared against truth-table evaluation
   on every assignment.  A second pass runs the same programs with a
   garbage collection forced between operations (intermediates
   protected), so a sweep that corrupted live nodes, the unique table or
   the operation cache would change some function's truth table. *)

type kexpr =
  | KFalse
  | KTrue
  | KVar of int
  | KNot of kexpr
  | KAnd of kexpr * kexpr
  | KOr of kexpr * kexpr
  | KXor of kexpr * kexpr
  | KIte of kexpr * kexpr * kexpr
  | KRestrict of kexpr * int * bool

let kvars = 8

let rec kexpr_to_string = function
  | KFalse -> "F"
  | KTrue -> "T"
  | KVar v -> Printf.sprintf "x%d" v
  | KNot a -> Printf.sprintf "!(%s)" (kexpr_to_string a)
  | KAnd (a, b) ->
    Printf.sprintf "(%s & %s)" (kexpr_to_string a) (kexpr_to_string b)
  | KOr (a, b) ->
    Printf.sprintf "(%s | %s)" (kexpr_to_string a) (kexpr_to_string b)
  | KXor (a, b) ->
    Printf.sprintf "(%s ^ %s)" (kexpr_to_string a) (kexpr_to_string b)
  | KIte (c, a, b) ->
    Printf.sprintf "ite(%s, %s, %s)" (kexpr_to_string c) (kexpr_to_string a)
      (kexpr_to_string b)
  | KRestrict (a, v, b) ->
    Printf.sprintf "(%s)[x%d:=%b]" (kexpr_to_string a) v b

let rec keval env = function
  | KFalse -> false
  | KTrue -> true
  | KVar v -> env v
  | KNot a -> not (keval env a)
  | KAnd (a, b) -> keval env a && keval env b
  | KOr (a, b) -> keval env a || keval env b
  | KXor (a, b) -> keval env a <> keval env b
  | KIte (c, a, b) -> if keval env c then keval env a else keval env b
  | KRestrict (a, v, b) -> keval (fun u -> if u = v then b else env u) a

let rec kcompile m = function
  | KFalse -> Bdd.fls m
  | KTrue -> Bdd.tru m
  | KVar v -> Bdd.var m v
  | KNot a -> Bdd.neg m (kcompile m a)
  | KAnd (a, b) -> Bdd.conj m (kcompile m a) (kcompile m b)
  | KOr (a, b) -> Bdd.disj m (kcompile m a) (kcompile m b)
  | KXor (a, b) -> Bdd.xor m (kcompile m a) (kcompile m b)
  | KIte (c, a, b) -> Bdd.ite m (kcompile m c) (kcompile m a) (kcompile m b)
  | KRestrict (a, v, b) -> Bdd.restrict m (kcompile m a) v b

(* Same compilation, but every operand is protected and a collection
   runs after every operation that allocated (the manager must have
   [~gc_threshold:1]); returns a protected diagram (the caller
   releases). *)
let rec kcompile_gc m e =
  let keep d =
    Bdd.protect d;
    ignore (Bdd.maybe_gc m);
    d
  in
  let unop f a =
    let da = kcompile_gc m a in
    let r = keep (f da) in
    Bdd.release da;
    r
  in
  let binop f a b =
    let da = kcompile_gc m a in
    let db = kcompile_gc m b in
    let r = keep (f da db) in
    Bdd.release da;
    Bdd.release db;
    r
  in
  match e with
  | KFalse -> keep (Bdd.fls m)
  | KTrue -> keep (Bdd.tru m)
  | KVar v -> keep (Bdd.var m v)
  | KNot a -> unop (Bdd.neg m) a
  | KAnd (a, b) -> binop (Bdd.conj m) a b
  | KOr (a, b) -> binop (Bdd.disj m) a b
  | KXor (a, b) -> binop (Bdd.xor m) a b
  | KIte (c, a, b) ->
    let dc = kcompile_gc m c in
    let da = kcompile_gc m a in
    let db = kcompile_gc m b in
    let r = keep (Bdd.ite m dc da db) in
    Bdd.release dc;
    Bdd.release da;
    Bdd.release db;
    r
  | KRestrict (a, v, b) -> unop (fun d -> Bdd.restrict m d v b) a

let arb_kprog =
  let open QCheck.Gen in
  let rec gen n =
    if n = 0 then
      oneof
        [ return KFalse; return KTrue;
          map (fun v -> KVar v) (int_range 0 (kvars - 1)) ]
    else
      frequency
        [
          (1, map (fun v -> KVar v) (int_range 0 (kvars - 1)));
          (2, map (fun a -> KNot a) (gen (n - 1)));
          (3, map2 (fun a b -> KAnd (a, b)) (gen (n / 2)) (gen (n / 2)));
          (3, map2 (fun a b -> KOr (a, b)) (gen (n / 2)) (gen (n / 2)));
          (2, map2 (fun a b -> KXor (a, b)) (gen (n / 2)) (gen (n / 2)));
          ( 2,
            map3
              (fun c a b -> KIte (c, a, b))
              (gen (n / 3)) (gen (n / 3)) (gen (n / 3)) );
          ( 1,
            map3
              (fun a v b -> KRestrict (a, v, b))
              (gen (n - 1))
              (int_range 0 (kvars - 1))
              bool );
        ]
  in
  let perm st =
    let a = Array.init kvars Fun.id in
    shuffle_a a st;
    a
  in
  QCheck.make
    ~print:(fun (e, p) ->
      Printf.sprintf "%s under order [%s]" (kexpr_to_string e)
        (String.concat ";" (Array.to_list (Array.map string_of_int p))))
    (pair (gen 8) perm)

let truth_tables_agree e d =
  let ok = ref true in
  for mask = 0 to (1 lsl kvars) - 1 do
    let env i = mask land (1 lsl i) <> 0 in
    if keval env e <> Bdd.eval env d then ok := false
  done;
  !ok

let differential_props =
  [
    QCheck.Test.make ~name:"kernel ops = truth table (random order)"
      ~count:300 arb_kprog (fun (e, perm) ->
        let m = Bdd.manager ~order:(fun v -> perm.(v)) () in
        truth_tables_agree e (kcompile m e));
    QCheck.Test.make ~name:"kernel ops = truth table (gc between ops)"
      ~count:200 arb_kprog (fun (e, perm) ->
        let m = Bdd.manager ~order:(fun v -> perm.(v)) ~gc_threshold:1 () in
        let d = kcompile_gc m e in
        let ok = truth_tables_agree e d in
        Bdd.release d;
        ok);
    QCheck.Test.make ~name:"gc-interleaved compile = straight compile"
      ~count:200 arb_kprog (fun (e, perm) ->
        (* Both compilations happen in one manager: the collected one must
           hand back the very node the straight one builds (canonicity
           survives sweeps and unique-table rebuilds). *)
        let m = Bdd.manager ~order:(fun v -> perm.(v)) ~gc_threshold:1 () in
        let d1 = kcompile_gc m e in
        let d2 = kcompile m e in
        let ok = Bdd.equal d1 d2 in
        Bdd.release d1;
        ok);
  ]

let () =
  Alcotest.run "kc"
    [
      ( "bool_expr",
        [
          Alcotest.test_case "smart constructors" `Quick test_smart_constructors;
          Alcotest.test_case "eval/vars" `Quick test_eval_vars;
          Alcotest.test_case "implies" `Quick test_implies;
          Alcotest.test_case "brute force probability" `Quick
            test_brute_force_probability;
        ] );
      ( "bdd",
        [
          Alcotest.test_case "canonicity" `Quick test_bdd_canonicity;
          Alcotest.test_case "eval agrees" `Quick test_bdd_eval_agrees_with_expr;
          Alcotest.test_case "support/size" `Quick test_bdd_support_size;
          Alcotest.test_case "sat_count" `Quick test_bdd_sat_count;
          Alcotest.test_case "sat_count shared dag" `Quick
            test_bdd_sat_count_shared_dag;
          Alcotest.test_case "any_sat" `Quick test_bdd_any_sat;
          Alcotest.test_case "any_sat shared dag" `Quick
            test_bdd_any_sat_shared_dag;
          Alcotest.test_case "restrict" `Quick test_bdd_restrict;
          Alcotest.test_case "ite/xor" `Quick test_bdd_ite_xor;
          Alcotest.test_case "variable order" `Quick
            test_bdd_variable_order_effect;
        ] );
      ( "wmc",
        [
          Alcotest.test_case "matches brute force" `Quick
            test_wmc_matches_brute_force_exact;
          Alcotest.test_case "float+interval" `Quick test_wmc_float_and_interval;
          Alcotest.test_case "large conjunction" `Quick test_wmc_large_conjunction;
          Alcotest.test_case "cache follows unique table" `Quick
            test_cache_follows_unique_table;
          Alcotest.test_case "fold_prob_many memo = fresh" `Quick
            test_fold_prob_many_memo;
          Alcotest.test_case "fold_prob_many manager check" `Quick
            test_fold_prob_many_rejects_foreign_roots;
          Alcotest.test_case "count edge batches" `Quick test_count_edges;
          QCheck_alcotest.to_alcotest prop_count_matches_fold;
        ] );
      ("properties", List.map QCheck_alcotest.to_alcotest props);
      ( "kernel differential",
        List.map QCheck_alcotest.to_alcotest differential_props );
    ]
