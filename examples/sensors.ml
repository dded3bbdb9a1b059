(* The paper's introduction scenario: office temperature measurements.

   Unreliable sensors in two offices produce an uncertain database.  The
   closed-world reading declares every unseen measurement impossible; in
   particular a temperature in the unobserved gap (20.3-20.4 degrees in
   office 1) has probability exactly 0, and so does "office 1 is warmer
   than office 2" when all observed office-1 readings lie below all
   observed office-2 readings.  The open-world completion assigns unseen
   readings small, decaying positive probabilities, and both events become
   unlikely-but-possible, with nearer gaps more likely than distant ones.

   Temperatures are encoded in tenths of a degree (201 = 20.1 C).

   Run with:  dune exec examples/sensors.exe *)

let i n = Value.Int n
let q = Rational.of_ints
let parse = Fo_parse.parse_exn

(* Observed (noisy) readings: office 1 clusters at 20.1-20.2, office 2 at
   20.5-20.6. *)
let observed =
  Ti_table.create
    [
      (Fact.make "Temp" [ i 1; i 201 ], q 6 10);
      (Fact.make "Temp" [ i 1; i 202 ], q 5 10);
      (Fact.make "Temp" [ i 2; i 205 ], q 6 10);
      (Fact.make "Temp" [ i 2; i 206 ], q 5 10);
    ]

(* Open-world policy: unseen grid readings for both offices, with
   probability decaying geometrically in the distance to the observed
   cluster (the completion's convergent series). *)
let news () =
  let candidates =
    (* (office, tenth) pairs ordered by distance from the cluster *)
    [
      (1, 203, 3); (1, 200, 3); (2, 204, 3); (2, 207, 3);
      (1, 204, 4); (1, 199, 4); (2, 203, 4); (2, 208, 4);
      (1, 205, 5); (1, 198, 5); (2, 202, 5); (2, 209, 5);
      (1, 206, 6); (1, 197, 6); (2, 201, 6); (2, 210, 6);
    ]
  in
  Fact_source.of_list ~name:"sensor-open-world"
    (List.map
       (fun (o, t, d) ->
         (Fact.make "Temp" [ i o; i t ], Rational.pow Rational.half d))
       candidates)

let show_prob label p = Printf.printf "  %-52s %s\n" label p

let () =
  print_endline "Closed world (the finite TI PDB as given):";
  let show_closed ?note qs =
    let label = Printf.sprintf "P[ %s ]%s" qs (Option.value note ~default:"") in
    show_prob label
      (Rational.to_decimal_string ~digits:6 (Query_eval.boolean observed (parse qs)))
  in
  show_closed "Temp(1, 203)";
  show_closed "Temp(1, 199)";
  show_closed ~note:"  (office 1 warmer)" "Temp(1, 206) & Temp(2, 205)";
  print_newline ();

  print_endline "Open world (completion by independent facts, eps = 0.001):";
  let c = Completion.complete_ti observed (news ()) in
  let show_open ?note qs =
    let label = Printf.sprintf "P[ %s ]%s" qs (Option.value note ~default:"") in
    let r = Approx_eval.boolean (Completion.source c) ~eps:0.001 (parse qs) in
    show_prob label
      (Printf.sprintf "%s  (certified in [%.6f, %.6f])"
         (Rational.to_decimal_string ~digits:6 r.Approx_eval.estimate)
         (Interval.lo r.Approx_eval.bounds)
         (Interval.hi r.Approx_eval.bounds))
  in
  show_open "Temp(1, 203)";
  show_open "Temp(1, 199)";
  show_open ~note:"  (office 1 warmer)" "Temp(1, 206) & Temp(2, 205)";
  print_newline ();

  (* The real quantified comparison: office 1 records a strictly higher
     reading than office 2 in the same world. *)
  print_endline "The quantified comparison query (built-in order atoms):";
  let warmer = "exists x y. Temp(1, x) & Temp(2, y) & x > y" in
  Printf.printf "  closed world: P[ %s ] = %s\n" warmer
    (Rational.to_decimal_string ~digits:6
       (Query_eval.boolean observed (parse warmer)));
  let r =
    Approx_eval.boolean (Completion.source c) ~eps:0.001 (parse warmer)
  in
  Printf.printf "  open world:   P[ %s ] = %s\n" warmer
    (Rational.to_decimal_string ~digits:6 r.Approx_eval.estimate);
  print_newline ();

  print_endline
    "Monotonicity: a small gap (20.3) beats a distant reading (19.9), which\n\
     beats an extreme one (20.6 in office 1) - unlike the closed world,\n\
     where all three are equally 'impossible':";
  List.iter
    (fun t ->
      let r =
        Approx_eval.boolean (Completion.source c) ~eps:0.0005
          (parse (Printf.sprintf "Temp(1, %d)" t))
      in
      Printf.printf "  P[ Temp(1, %d) ] = %s\n" t
        (Rational.to_decimal_string ~digits:6 r.Approx_eval.estimate))
    [ 203; 199; 206 ];

  (* The completion condition: conditioned on seeing only observed-grid
     facts, the open world restores the original probabilities exactly. *)
  print_newline ();
  Printf.printf
    "Completion condition (Thm 5.5): max world gap on conditioning = %s\n"
    (Rational.to_string (Completion.completion_condition_gap c ~n:8))
