(* Example 5.7 of the paper, end to end.

   Universe {A, B, C, D} ∪ N; one binary relation R between names and
   positive integers.  The closed-world table:

       R    | P
       A 1  | 0.8
       B 1  | 0.4
       B 2  | 0.5
       C 3  | 0.9

   Open-world policy: every unspecified pair (x, i) gets probability
   2^-i (up to 4 facts with probability 2^-i for each i) — a convergent
   series, so Theorem 5.5 yields an independent-fact completion in which
   every finite Boolean combination of distinct facts is possible.

   Run with:  dune exec examples/open_world_kb.exe *)

let i n = Value.Int n
let s x = Value.Str x
let q = Rational.of_ints
let parse = Fo_parse.parse_exn

let table =
  Ti_table.create
    [
      (Fact.make "R" [ s "A"; i 1 ], q 8 10);
      (Fact.make "R" [ s "B"; i 1 ], q 4 10);
      (Fact.make "R" [ s "B"; i 2 ], q 5 10);
      (Fact.make "R" [ s "C"; i 3 ], q 9 10);
    ]

let names = [| "A"; "B"; "C"; "D" |]

let news () =
  let orig = Fact.Set.of_list (Ti_table.support table) in
  let all =
    Seq.concat_map
      (fun idx ->
        let x = names.(idx mod 4) and iv = (idx / 4) + 1 in
        let f = Fact.make "R" [ s x; i iv ] in
        if Fact.Set.mem f orig then Seq.empty
        else Seq.return (f, Rational.pow Rational.half iv))
      (Seq.ints 0)
  in
  Fact_source.make ~name:"2^-i policy" ~enum:all
    ~tail:(fun n -> Some (8.0 *. (0.5 ** float_of_int (n / 4))))
    ()

let () =
  Printf.printf "Original closed-world table:\n%s\n\n" (Ti_table.to_string table);

  let c = Completion.complete_ti table (news ()) in

  print_endline "Closed vs open answers (eps = 0.005):";
  let compare_query qs =
    let phi = parse qs in
    let closed = Query_eval.boolean table phi in
    let opened = Approx_eval.boolean (Completion.source c) ~eps:0.005 phi in
    Printf.printf "  %-52s closed %-8s open %s\n" qs
      (Rational.to_decimal_string ~digits:4 closed)
      (Rational.to_decimal_string ~digits:4 opened.Approx_eval.estimate)
  in
  compare_query "exists x. R(\"A\", x)";
  compare_query "exists x. R(\"D\", x)";
  compare_query "exists x y. R(\"A\", x) & R(\"A\", y) & x != y";
  compare_query "R(\"D\", 2) & R(\"A\", 2)";
  compare_query "forall x. R(\"B\", x) -> R(\"A\", x)";
  print_newline ();

  (* Marginals of individual new facts under the policy. *)
  print_endline "Policy marginals of a few unspecified facts:";
  List.iter
    (fun (x, iv) ->
      match Completion.marginal c (Fact.make "R" [ s x; i iv ]) with
      | Some p ->
        Printf.printf "  P[ R(%s, %d) ] = %s\n" x iv (Rational.to_string p)
      | None -> Printf.printf "  P[ R(%s, %d) ] not enumerated\n" x iv)
    [ ("D", 1); ("D", 2); ("A", 2); ("C", 4) ];
  print_newline ();

  (* The completion condition, exactly. *)
  Printf.printf
    "Completion condition gap (must be 0 by Theorem 5.5): %s\n"
    (Rational.to_string (Completion.completion_condition_gap c ~n:6));

  (* Budget vs truncation size: the n(eps) the engine picked. *)
  print_newline ();
  print_endline "Truncation sizes chosen by the approximation engine:";
  List.iter
    (fun eps ->
      let r =
        Approx_eval.boolean (Completion.source c) ~eps
          (parse "exists x. R(\"D\", x)")
      in
      Printf.printf "  eps = %-8g -> n = %3d facts, estimate %s\n" eps
        r.Approx_eval.n_used
        (Rational.to_decimal_string ~digits:5 r.Approx_eval.estimate))
    [ 0.1; 0.01; 0.001; 0.0001 ]
