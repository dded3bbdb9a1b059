(* The differential fuzzing harness: a deterministic ~200-case smoke run
   across all seven engines (the PR's acceptance gate), bit-reproducibility,
   corpus round-trips, and replay of the checked-in regression corpus.
   The corpus files are build dependencies (see test/dune), so they are
   available under ./corpus relative to the test's working directory. *)

let test_smoke_200 () =
  let r = Fuzzer.run ~seed:42 ~cases:200 () in
  Alcotest.(check int) "cases" 200 r.Fuzzer.cases_run;
  Alcotest.(check bool) "covers every engine" true
    (Ok r.Fuzzer.engines_run = Fuzzer.engines_of_string "all");
  Alcotest.(check bool) "at least 1000 checks" true (r.Fuzzer.checks_run >= 1000);
  (match r.Fuzzer.failures with
  | [] -> ()
  | f :: _ ->
    Alcotest.fail
      (Printf.sprintf "case %d failed %s: %s" f.Fuzzer.f_case.Fuzzer.id
         f.Fuzzer.check f.Fuzzer.detail));
  (* Bonferroni: the per-check MC confidence is strictly above the naive
     0.95 once more than one MC check is planned. *)
  Alcotest.(check bool) "mc confidence corrected" true
    (r.Fuzzer.mc_confidence > 0.99)

let test_batch_engine_400 () =
  (* The batch engine's acceptance gate: 400 cases against the oracle,
     the member-wise sequential law, and domain-count bit-identity, with
     zero discrepancies.  Batch checks ride on K_ti cases (one in four). *)
  let r = Fuzzer.run ~seed:2024 ~cases:400 ~engines:[ Fuzzer.Batch ] () in
  Alcotest.(check int) "cases" 400 r.Fuzzer.cases_run;
  Alcotest.(check bool) "at least 300 batch checks" true
    (r.Fuzzer.checks_run >= 300);
  match r.Fuzzer.failures with
  | [] -> ()
  | f :: _ ->
    Alcotest.fail
      (Printf.sprintf "case %d failed %s: %s" f.Fuzzer.f_case.Fuzzer.id
         f.Fuzzer.check f.Fuzzer.detail)

let test_reproducible () =
  let run () =
    let r = Fuzzer.run ~seed:7 ~cases:40 () in
    (r.Fuzzer.cases_run, r.Fuzzer.checks_run, List.length r.Fuzzer.failures)
  in
  let a = run () and b = run () in
  Alcotest.(check (triple int int int)) "same seed, same run" a b

let test_distinct_seeds_distinct_cases () =
  let c1 = Fuzzer.generate Oracle_gen.default ~seed:1 ~id:0 in
  let c2 = Fuzzer.generate Oracle_gen.default ~seed:2 ~id:0 in
  (* Not a law, but with these seeds the streams differ — guards against
     the generator ignoring its seed. *)
  Alcotest.(check bool) "different queries or tables" true
    (Fo.to_string c1.Fuzzer.query <> Fo.to_string c2.Fuzzer.query
    || Ti_table.to_string c1.Fuzzer.table <> Ti_table.to_string c2.Fuzzer.table)

let test_corpus_round_trip () =
  (* to_lines / load is a fixpoint on every generated kind. *)
  for id = 0 to 11 do
    let c = Fuzzer.generate Oracle_gen.default ~seed:42 ~id in
    let cc =
      { Fuzzer.c_case = c; c_check = "law.complement"; c_detail = "round trip" }
    in
    let lines = Fuzzer.to_lines ~seed:42 cc in
    let lines' =
      Fuzzer.to_lines ~seed:42 (Helpers.load_case "round-trip.case" lines)
    in
    Alcotest.(check (list string))
      (Printf.sprintf "case %d round-trips" id)
      lines lines'
  done

let corpus_files () =
  Sys.readdir "corpus" |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".case")
  |> List.sort compare
  |> List.map (Filename.concat "corpus")

let test_corpus_replay () =
  let files = corpus_files () in
  Alcotest.(check bool) "corpus is non-empty" true (files <> []);
  List.iter
    (fun path ->
      let cc = Fuzzer.load path in
      let checks, failures = Fuzzer.run_case cc.Fuzzer.c_case in
      Alcotest.(check bool) (path ^ " runs checks") true (checks > 0);
      match failures with
      | [] -> ()
      | f :: _ ->
        Alcotest.fail
          (Printf.sprintf "%s regressed on %s: %s" path f.Fuzzer.check
             f.Fuzzer.detail))
    files

let test_engine_parsing () =
  Alcotest.(check bool) "all" true
    (Fuzzer.engines_of_string "all"
    = Ok
        Fuzzer.[ Exact; Lifted; Approx; Anytime; Mc; Robust; Batch; Delta ]);
  Alcotest.(check bool) "subset" true
    (Fuzzer.engines_of_string "exact,mc" = Ok [ Fuzzer.Exact; Fuzzer.Mc ]);
  Alcotest.(check bool) "case-insensitive" true
    (Fuzzer.engines_of_string "Robust" = Ok [ Fuzzer.Robust ]);
  match Fuzzer.engines_of_string "exact,bogus" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "bogus engine accepted"

let test_engine_subset_runs_fewer_checks () =
  let all = Fuzzer.run ~seed:11 ~cases:15 () in
  let exact_only =
    Fuzzer.run ~seed:11 ~cases:15 ~engines:[ Fuzzer.Exact ] ()
  in
  Alcotest.(check bool) "subset runs fewer checks" true
    (exact_only.Fuzzer.checks_run < all.Fuzzer.checks_run);
  Alcotest.(check int) "subset still clean" 0
    (List.length exact_only.Fuzzer.failures)

(* --- the [fuzz] subcommand, driven like test_cli.ml ----------------- *)

let run_quiet argv =
  let devnull = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  let so = Unix.dup Unix.stdout and se = Unix.dup Unix.stderr in
  flush stdout;
  flush stderr;
  Unix.dup2 devnull Unix.stdout;
  Unix.dup2 devnull Unix.stderr;
  Fun.protect
    ~finally:(fun () ->
      flush stdout;
      flush stderr;
      Unix.dup2 so Unix.stdout;
      Unix.dup2 se Unix.stderr;
      Unix.close so;
      Unix.close se;
      Unix.close devnull)
    (fun () -> Cli.main ~argv:(Array.of_list ("iowpdb" :: argv)) ())

let test_cli_fuzz_ok () =
  Alcotest.(check int) "fuzz exits 0" 0
    (run_quiet [ "fuzz"; "--cases"; "20"; "--seed"; "42" ])

let test_cli_fuzz_bad_engines () =
  Alcotest.(check int) "bad engine list exits 2" 2
    (run_quiet [ "fuzz"; "--cases"; "5"; "--engines"; "bogus" ])

let test_cli_fuzz_replay () =
  Alcotest.(check int) "corpus replay exits 0" 0
    (run_quiet [ "fuzz"; "--replay"; "corpus" ]);
  Alcotest.(check int) "replay of a single file exits 0" 0
    (run_quiet [ "fuzz"; "--replay"; List.hd (corpus_files ()) ]);
  Alcotest.(check int) "missing replay path exits 2" 2
    (run_quiet [ "fuzz"; "--replay"; "/nonexistent/corpus" ])

let () =
  Alcotest.run "fuzz"
    [
      ( "smoke",
        [
          Alcotest.test_case "200 cases, seven engines, clean" `Slow
            test_smoke_200;
          Alcotest.test_case "batch engine, 400 cases, clean" `Slow
            test_batch_engine_400;
          Alcotest.test_case "bit-reproducible" `Quick test_reproducible;
          Alcotest.test_case "seed-sensitive" `Quick
            test_distinct_seeds_distinct_cases;
          Alcotest.test_case "engine subset" `Quick
            test_engine_subset_runs_fewer_checks;
        ] );
      ( "corpus",
        [
          Alcotest.test_case "serialization round-trip" `Quick
            test_corpus_round_trip;
          Alcotest.test_case "regression replay" `Quick test_corpus_replay;
        ] );
      ( "cli",
        [
          Alcotest.test_case "engine parsing" `Quick test_engine_parsing;
          Alcotest.test_case "fuzz subcommand" `Quick test_cli_fuzz_ok;
          Alcotest.test_case "bad engines" `Quick test_cli_fuzz_bad_engines;
          Alcotest.test_case "replay modes" `Quick test_cli_fuzz_replay;
        ] );
    ]
