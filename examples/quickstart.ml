(* Quickstart: build a finite tuple-independent PDB, query it exactly,
   then open its world with an infinite completion and query again.

   Run with:  dune exec examples/quickstart.exe *)

let i n = Value.Int n
let q = Rational.of_ints
let parse = Fo_parse.parse_exn

let () =
  (* 1. A tuple-independent PDB: each fact is an independent event. *)
  let ti =
    Ti_table.create
      [
        (Fact.make "Likes" [ i 1; i 2 ], q 9 10);
        (Fact.make "Likes" [ i 2; i 1 ], q 1 2);
        (Fact.make "Likes" [ i 2; i 3 ], q 3 4);
        (Fact.make "Friend" [ i 1 ], q 1 3);
        (Fact.make "Friend" [ i 3 ], q 2 3);
      ]
  in
  Printf.printf "The table:\n%s\n\n" (Ti_table.to_string ti);
  Printf.printf "Expected instance size: %s facts\n\n"
    (Rational.to_decimal_string (Ti_table.expected_instance_size ti));

  (* 2. Exact Boolean query answering (safe plan or lineage + BDD). *)
  let queries =
    [
      "exists x y. Likes(x, y)";
      "exists x. Friend(x) & (exists y. Likes(x, y))";
      "forall x. Friend(x) -> (exists y. Likes(y, x))";
    ]
  in
  List.iter
    (fun qs ->
      let p = Query_eval.boolean ti (parse qs) in
      Printf.printf "P[ %s ] = %s  (~%s)\n" qs (Rational.to_string p)
        (Rational.to_decimal_string ~digits:6 p))
    queries;

  (* 3. Marginal answer probabilities for a query with a free variable. *)
  print_newline ();
  List.iter
    (fun (tup, p) ->
      Printf.printf "P[ %s in answers of Friend(x) & exists y. Likes(x,y) ] = %s\n"
        (Tuple.to_string tup) (Rational.to_string p))
    (Query_eval.marginals ti (parse "Friend(x) & (exists y. Likes(x, y))"));

  (* 4. Open the world: unseen Friend-facts get geometrically decaying
     probabilities over the infinite universe 4, 5, 6, ... *)
  let completion =
    Completion.geometric_policy ~first:(q 1 4) ~ratio:Rational.half
      ~new_facts:(fun k -> Fact.make "Friend" [ i (4 + k) ])
      ti
  in
  print_newline ();
  let phi = parse "exists x. Friend(x)" in
  let closed = Query_eval.boolean ti phi in
  let opened =
    Approx_eval.boolean (Completion.source completion) ~eps:0.001 phi
  in
  Printf.printf "P[ exists x. Friend(x) ]  closed world: %s\n"
    (Rational.to_decimal_string ~digits:6 closed);
  Printf.printf "P[ exists x. Friend(x) ]  open world:   %s  (+/- 0.001, %d facts used)\n"
    (Rational.to_decimal_string ~digits:6 opened.Approx_eval.estimate)
    opened.Approx_eval.n_used;

  (* A fact the closed world calls impossible. *)
  let phi = parse "Friend(7)" in
  let opened =
    Approx_eval.boolean (Completion.source completion) ~eps:0.001 phi
  in
  Printf.printf "P[ Friend(7) ]            closed world: %s, open world: %s\n"
    (Rational.to_decimal_string (Query_eval.boolean ti phi))
    (Rational.to_decimal_string ~digits:6 opened.Approx_eval.estimate)
