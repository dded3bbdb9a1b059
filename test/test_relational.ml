(* Tests for the relational substrate: values, schemas, facts, instances. *)

let i n = Value.Int n
let s x = Value.Str x

(* ------------------------------------------------------------------ *)
(* Value *)
(* ------------------------------------------------------------------ *)

let test_value_order_total () =
  let vs = [ i (-1); i 0; i 5; s ""; s "a"; Value.Real 1.5; Value.Bool false ] in
  (* compare is a total order: antisymmetric and transitive on samples. *)
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          Alcotest.(check int) "antisym" (Value.compare a b)
            (-Value.compare b a))
        vs)
    vs;
  Alcotest.(check bool) "int < str sort order" true (Value.compare (i 9) (s "") < 0)

let test_value_strings () =
  Alcotest.(check string) "int" "42" (Value.to_string (i 42));
  Alcotest.(check string) "str quoted" "\"ab\"" (Value.to_string (s "ab"));
  Alcotest.(check bool) "roundtrip int" true
    (Value.equal (i (-7)) (Value.of_string "-7"));
  Alcotest.(check bool) "roundtrip str" true
    (Value.equal (s "x,y") (Value.of_string "\"x,y\""));
  Alcotest.(check bool) "roundtrip bool" true
    (Value.equal (Value.Bool true) (Value.of_string "true"));
  Alcotest.(check bool) "real parse" true
    (match Value.of_string "1.5" with Value.Real f -> f = 1.5 | _ -> false);
  Alcotest.check_raises "empty" (Invalid_argument "Value.of_string: empty")
    (fun () -> ignore (Value.of_string ""))

let take n seq = List.of_seq (Seq.take n seq)

let test_value_enum_strings () =
  let prefix = take 7 (Value.enum_strings ~alphabet:"ab" ()) in
  Alcotest.(check bool) "length-lex order" true
    (prefix = [ s ""; s "a"; s "b"; s "aa"; s "ab"; s "ba"; s "bb" ]);
  let prefix = take 500 (Value.enum_strings ()) in
  Alcotest.(check int) "injective" 500
    (List.length (List.sort_uniq Value.compare prefix))

(* ------------------------------------------------------------------ *)
(* Schema / Fact *)
(* ------------------------------------------------------------------ *)

let schema =
  Schema.make
    [
      Schema.relation "R" 2;
      Schema.relation "S" 1;
      Schema.relation ~sorts:[ Value.S_str; Value.S_int ] "T" 2;
    ]

let test_schema_basics () =
  Alcotest.(check int) "arity R" 2 (Option.get (Schema.find schema "R")).arity;
  Alcotest.(check bool) "mem" true (Schema.find schema "S" <> None);
  Alcotest.(check bool) "not mem" false (Schema.find schema "Z" <> None);
  Alcotest.(check int) "relations" 3 (List.length (Schema.relations schema));
  Alcotest.check_raises "dup"
    (Invalid_argument "Schema.make: duplicate relation R") (fun () ->
      ignore (Schema.make [ Schema.relation "R" 1; Schema.relation "R" 2 ]))

let test_fact_basics () =
  let f = Fact.make "R" [ i 1; i 2 ] in
  Alcotest.(check string) "print" "R(1, 2)" (Fact.to_string f);
  Alcotest.(check string) "rel" "R" (Fact.rel f);
  Alcotest.(check int) "arity" 2 (Fact.arity f);
  Alcotest.(check bool) "conforms" true (Fact.conforms schema f);
  Alcotest.(check bool) "wrong arity" false
    (Fact.conforms schema (Fact.make "R" [ i 1 ]));
  Alcotest.(check bool) "unknown rel" false
    (Fact.conforms schema (Fact.make "Q" [ i 1 ]));
  Alcotest.(check bool) "sort ok" true
    (Fact.conforms schema (Fact.make "T" [ s "x"; i 3 ]));
  Alcotest.(check bool) "sort bad" false
    (Fact.conforms schema (Fact.make "T" [ i 3; i 3 ]))

let test_fact_roundtrip () =
  List.iter
    (fun f ->
      Alcotest.(check bool)
        ("roundtrip " ^ Fact.to_string f)
        true
        (Fact.equal f (Fact.of_string (Fact.to_string f))))
    [
      Fact.make "R" [ i 1; i 2 ];
      Fact.make "S" [];
      Fact.make "T" [ s "a,b"; i (-3) ];
      Fact.make "U" [ Value.Bool true; s "" ];
    ]

let test_fact_order () =
  let f1 = Fact.make "R" [ i 1 ] and f2 = Fact.make "R" [ i 2 ] in
  let g = Fact.make "S" [ i 0 ] in
  Alcotest.(check bool) "same rel by args" true (Fact.compare f1 f2 < 0);
  Alcotest.(check bool) "by rel name" true (Fact.compare f1 g < 0);
  Alcotest.(check bool) "equal" true (Fact.equal f1 (Fact.make "R" [ i 1 ]))

let test_hash_covers_every_column () =
  (* Regression: the old hash went through Hashtbl.hash, whose default
     traversal stops at 10 "meaningful" nodes, so wide facts differing
     only in a late column collided systematically.  The fold must see
     all twelve columns. *)
  let wide k = Fact.make "W" (List.init 12 (fun j -> i (if j = 11 then k else j))) in
  Alcotest.(check bool) "facts differing in column 12 hash apart" true
    (Fact.hash (wide 100) <> Fact.hash (wide 200));
  (* Equal values still hash equal, and the result is nonnegative (it
     feeds Hashtbl.Make functors). *)
  Alcotest.(check int) "fact hash is stable" (Fact.hash (wide 7))
    (Fact.hash (wide 7));
  Alcotest.(check bool) "nonnegative" true (Fact.hash (wide 3) >= 0)

(* ------------------------------------------------------------------ *)
(* Instance *)
(* ------------------------------------------------------------------ *)

let inst =
  Instance.of_list
    [
      Fact.make "R" [ i 1; i 2 ];
      Fact.make "R" [ i 2; i 3 ];
      Fact.make "S" [ i 2 ];
    ]

let test_instance_basics () =
  Alcotest.(check int) "size" 3 (Instance.size inst);
  Alcotest.(check bool) "mem" true (Instance.mem (Fact.make "S" [ i 2 ]) inst);
  Alcotest.(check int) "adom" 3 (List.length (Instance.active_domain inst))

let test_instance_set_ops () =
  let a = Instance.of_list [ Fact.make "S" [ i 1 ]; Fact.make "S" [ i 2 ] ] in
  let b = Instance.of_list [ Fact.make "S" [ i 2 ]; Fact.make "S" [ i 3 ] ] in
  Alcotest.(check bool) "subset" true
    (Instance.subset (Instance.singleton (Fact.make "S" [ i 1 ])) a);
  Alcotest.(check bool) "not subset" false (Instance.subset b a)

let test_instance_disjoint_union () =
  let a = Instance.singleton (Fact.make "S" [ i 1 ]) in
  let b = Instance.singleton (Fact.make "S" [ i 2 ]) in
  Alcotest.(check int) "disjoint ok" 2 (Instance.size (Instance.disjoint_union a b));
  Alcotest.check_raises "overlap"
    (Invalid_argument "Instance.disjoint_union: operands share a fact")
    (fun () -> ignore (Instance.disjoint_union a a))

let test_instance_intersects () =
  let fs = Fact.Set.of_list [ Fact.make "S" [ i 2 ]; Fact.make "S" [ i 9 ] ] in
  Alcotest.(check bool) "E_F hit" true (Instance.intersects inst fs);
  let fs' = Fact.Set.singleton (Fact.make "S" [ i 9 ]) in
  Alcotest.(check bool) "E_F miss" false (Instance.intersects inst fs')

(* ------------------------------------------------------------------ *)
(* Properties *)
(* ------------------------------------------------------------------ *)

let arb_fact =
  QCheck.make
    ~print:Fact.to_string
    QCheck.Gen.(
      let* rel = oneofl [ "R"; "S"; "T" ] in
      let* a = int_range 0 3 in
      let* args = list_repeat a (map (fun n -> Value.Int n) (int_range (-5) 5)) in
      return (Fact.make rel args))

let arb_instance =
  QCheck.make
    ~print:Instance.to_string
    QCheck.Gen.(
      map Instance.of_list (list_size (int_range 0 8) (QCheck.get_gen arb_fact)))

let props =
  [
    QCheck.Test.make ~name:"fact to_string/of_string roundtrip" ~count:300
      arb_fact (fun f -> Fact.equal f (Fact.of_string (Fact.to_string f)));
    QCheck.Test.make ~name:"adom bounded by arity * size (Fact 2.1 shape)"
      ~count:300 arb_instance (fun d ->
        List.length (Instance.active_domain d) <= 3 * Instance.size d);
    QCheck.Test.make ~name:"tuple compare total" ~count:300
      QCheck.(pair (list (int_range 0 5)) (list (int_range 0 5)))
      (fun (a, b) ->
        let ta = Array.of_list (List.map (fun n -> Value.Int n) a) in
        let tb = Array.of_list (List.map (fun n -> Value.Int n) b) in
        Tuple.compare ta tb = -Tuple.compare tb ta);
  ]

let () =
  Alcotest.run "relational"
    [
      ( "value",
        [
          Alcotest.test_case "total order" `Quick test_value_order_total;
          Alcotest.test_case "strings" `Quick test_value_strings;
          Alcotest.test_case "enum strings" `Quick test_value_enum_strings;
        ] );
      ( "schema+fact",
        [
          Alcotest.test_case "schema basics" `Quick test_schema_basics;
          Alcotest.test_case "fact basics" `Quick test_fact_basics;
          Alcotest.test_case "fact roundtrip" `Quick test_fact_roundtrip;
          Alcotest.test_case "fact order" `Quick test_fact_order;
          Alcotest.test_case "hash covers every column" `Quick
            test_hash_covers_every_column;
        ] );
      ( "instance",
        [
          Alcotest.test_case "basics" `Quick test_instance_basics;
          Alcotest.test_case "set ops" `Quick test_instance_set_ops;
          Alcotest.test_case "disjoint union" `Quick test_instance_disjoint_union;
          Alcotest.test_case "intersects (E_F)" `Quick test_instance_intersects;
        ] );
      ("properties", List.map QCheck_alcotest.to_alcotest props);
    ]
