(* Exit-code regressions for the command-line interface, driven through
   Cmdliner's evaluation API (no process spawning): malformed input of
   every stripe maps to a one-line stderr message and exit 2, budget
   flags are honoured, and the robust subcommand keeps its never-fail
   contract. *)

(* The commands print their answers; run them against /dev/null (stdout
   into [out], stderr into [err] when given) so the test log stays
   readable.  File descriptors are restored even when the evaluation
   raises. *)
let run_quiet ?out ?err argv =
  let devnull = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  let so = Unix.dup Unix.stdout and se = Unix.dup Unix.stderr in
  flush stdout;
  flush stderr;
  Unix.dup2 (Option.value out ~default:devnull) Unix.stdout;
  Unix.dup2 (Option.value err ~default:devnull) Unix.stderr;
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

let with_table lines f =
  let path = Filename.temp_file "iowpdb_cli" ".ti" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  let oc = open_out path in
  List.iter (fun l -> output_string oc (l ^ "\n")) lines;
  close_out oc;
  f path

let good_table = [ "R(1) 1/2"; "R(2) 1/3"; "R(3) 1/4" ]

let check_exit what expected argv =
  Alcotest.(check int) what expected (run_quiet argv)

let test_query_ok () =
  with_table good_table @@ fun t ->
  check_exit "query succeeds" 0 [ "query"; t; "exists x. R(x)" ]

let test_missing_file () =
  check_exit "missing table file" 2
    [ "query"; "/nonexistent/table.ti"; "exists x. R(x)" ]

let test_malformed_query () =
  with_table good_table @@ fun t ->
  check_exit "query parse error" 2 [ "query"; t; "exists x. R(" ]

let test_malformed_table () =
  with_table [ "R(1) not-a-probability" ] @@ fun t ->
  check_exit "bad probability" 2 [ "query"; t; "exists x. R(x)" ]

let test_duplicate_fact () =
  with_table [ "R(1) 1/2"; "R(1) 1/3" ] @@ fun t ->
  check_exit "contradictory duplicate" 2 [ "query"; t; "exists x. R(x)" ]

let test_free_variable_query () =
  (* [query] answers free-variable queries with marginals; [robust]
     supervises Boolean sentences only and must reject them cleanly. *)
  with_table good_table @@ fun t ->
  check_exit "free variable rejected" 2 [ "robust"; t; "R(x)" ]

let test_bad_eps () =
  with_table good_table @@ fun t ->
  check_exit "eps out of range" 2
    [ "robust"; t; "exists x. R(x)"; "--eps"; "0.9" ]

let test_plan () =
  (* [plan] is purely syntactic: exits 0 on both sides of the dichotomy
     (the verdict is the output), 2 on parse errors / free variables. *)
  check_exit "safe query" 0 [ "plan"; "(exists x. R(x)) | (exists y. S(y))" ];
  check_exit "hard query" 0 [ "plan"; "exists x y. R(x) & S(x, y) & T(y)" ];
  check_exit "parse error" 2 [ "plan"; "exists x. R(" ];
  check_exit "free variable" 2 [ "plan"; "R(x)" ]

let test_mc_with_budget () =
  with_table good_table @@ fun t ->
  check_exit "budgeted mc succeeds" 0
    [
      "mc"; t; "exists x. R(x)"; "--samples"; "2000"; "--virtual-rate";
      "100000"; "--timeout"; "10";
    ]

let test_anytime_with_budget () =
  with_table good_table @@ fun t ->
  check_exit "budgeted anytime succeeds" 0
    [
      "anytime"; t; "exists x. R(x)"; "--virtual-rate"; "100000"; "--timeout";
      "10";
    ]

let test_robust_clean () =
  with_table good_table @@ fun t ->
  check_exit "robust clean run" 0
    [
      "robust"; t; "exists x. R(x)"; "--virtual-rate"; "100000"; "--timeout";
      "10"; "--samples"; "1000"; "--seed"; "3";
    ]

let test_robust_with_faults_never_fails () =
  (* The supervisor contract: faults degrade the answer, they do not
     change the exit code. *)
  with_table good_table @@ fun t ->
  List.iter
    (fun seed ->
      check_exit
        (Printf.sprintf "robust under fault seed %d" seed)
        0
        [
          "robust"; t; "exists x. R(x)"; "--virtual-rate"; "100000";
          "--timeout"; "10"; "--samples"; "500"; "--seed"; "3";
          "--inject-faults"; string_of_int seed;
        ])
    [ 1; 5; 9 ]

let with_queries lines f =
  let path = Filename.temp_file "iowpdb_cli" ".queries" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  let oc = open_out path in
  List.iter (fun l -> output_string oc (l ^ "\n")) lines;
  close_out oc;
  f path

let test_batch_ok () =
  with_table good_table @@ fun t ->
  with_queries
    [ "# comment and blank lines are skipped"; ""; "exists x. R(x)";
      "exists x. R(x)"; "!(forall y. R(y))" ]
  @@ fun qs ->
  check_exit "batch succeeds" 0 [ "batch"; t; qs ];
  check_exit "batch with knobs succeeds" 0
    [ "batch"; t; qs; "--domains"; "2"; "--stats" ];
  (* The BDD kernel sizes its own operation cache and only long-lived
     sessions collect garbage: the tuning flags are unknown options
     (Cmdliner's command-line error, exit 124) on every subcommand. *)
  List.iter
    (fun (cmd, args) ->
      List.iter
        (fun flag ->
          check_exit
            (Printf.sprintf "%s %s is an unknown option" cmd flag)
            124
            ((cmd :: args) @ [ flag; "4096" ]))
        [ "--bdd-cache-size"; "--bdd-gc-threshold" ])
    [
      ("query", [ t; "exists x. R(x)" ]);
      ("batch", [ t; qs ]);
      ("anytime", [ t; "exists x. R(x)" ]);
      ("robust", [ t; "exists x. R(x)" ]);
    ]

let test_batch_bad_inputs () =
  with_table good_table @@ fun t ->
  check_exit "missing queries file exits 2" 2
    [ "batch"; t; "/nonexistent/queries" ];
  with_queries [ "exists x. R(" ] @@ fun bad ->
  check_exit "malformed member exits 2" 2 [ "batch"; t; bad ];
  with_queries [ "R(x)" ] @@ fun free ->
  check_exit "free variable member exits 2" 2 [ "batch"; t; free ];
  with_queries [ "# only comments" ] @@ fun empty ->
  check_exit "empty batch exits 2" 2 [ "batch"; t; empty ];
  with_queries [ "exists x. R(x)" ] @@ fun qs ->
  check_exit "bad domain count exits 2" 2 [ "batch"; t; qs; "--domains"; "0" ]

let test_robust_tight_budget_exit_zero () =
  with_table good_table @@ fun t ->
  check_exit "starved budget still exits 0" 0
    [
      "robust"; t; "exists x. R(x)"; "--virtual-rate"; "100"; "--timeout";
      "0.01"; "--seed"; "0";
    ]

(* Above the 20 facts whose worlds a table may enumerate: the open-world
   commands evaluate the completed table as one countable TI source, so
   its 2^25 worlds are never listed. *)
let big_table =
  List.init 25 (fun j -> Printf.sprintf "R(%d) %d/10" j (1 + (j mod 9)))

let test_open_world_big_table () =
  with_table big_table @@ fun t ->
  let q = "exists x. N(x)" in
  check_exit "open" 0 [ "open"; t; q ];
  check_exit "anytime" 0 [ "anytime"; t; q ];
  check_exit "robust" 0
    [
      "robust"; t; q; "--virtual-rate"; "100000"; "--timeout"; "10";
      "--samples"; "1000"; "--seed"; "3";
    ];
  check_exit "mc --open-world" 0
    [ "mc"; t; q; "--open-world"; "--samples"; "2000"; "--domains"; "1" ];
  check_exit "sample --open-world" 0 [ "sample"; t; "--open-world"; "-n"; "2" ]

(* Exit code and stderr (or, with [~stdout:true], stdout) of one
   evaluation. *)
let run_capture ?(stdout = false) argv =
  let path = Filename.temp_file "iowpdb_cli" ".out" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  let fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_TRUNC ] 0 in
  let code =
    Fun.protect ~finally:(fun () -> Unix.close fd) (fun () ->
        if stdout then run_quiet ~out:fd argv else run_quiet ~err:fd argv)
  in
  (code, In_channel.with_open_text path In_channel.input_all)

(* The open-world draws for a fixed seed, pinned: one sampling plan
   serves every draw, each a pass over the completed table's prefix in
   enumeration order on one generator. *)
let test_sample_open_world_pinned () =
  with_table good_table @@ fun t ->
  let code, out =
    run_capture ~stdout:true
      [ "sample"; t; "--open-world"; "--seed"; "7"; "-n"; "3" ]
  in
  Alcotest.(check int) "exit 0" 0 code;
  Alcotest.(check string) "draws" "{R(1), R(2)}\n{N(0), R(1)}\n{}\n" out

let test_probability_one_policy () =
  (* Definition 5.1 forbids probability-1 new facts (P'(Omega) would be
     0).  Both boot paths reject such a policy with one message before
     touching any fact; the socket lies in a missing directory, so a
     server that booted anyway could not listen. *)
  with_table good_table @@ fun t ->
  let pack = Filename.temp_file "iowpdb_cli" ".iow" in
  Fun.protect ~finally:(fun () -> Sys.remove pack) @@ fun () ->
  check_exit "pack" 0 [ "pack"; t; pack ];
  List.iter
    (fun policy ->
      let text_code, text_err =
        run_capture [ "open"; t; "exists x. N(x)"; "--policy"; policy ]
      in
      let pack_code, pack_err =
        run_capture
          [
            "serve"; "--store"; pack; "--policy"; policy; "--socket";
            "/nonexistent/iowpdb-cli-test.sock";
          ]
      in
      Alcotest.(check int) (policy ^ ": text path exits 2") 2 text_code;
      Alcotest.(check int) (policy ^ ": pack path exits 2") 2 pack_code;
      Alcotest.(check string) (policy ^ ": one message") text_err pack_err;
      Alcotest.(check bool)
        (policy ^ ": names the policy")
        true
        (Helpers.contains text_err "bad policy"))
    [ "lambda:1:3"; "geometric:1:1/2" ]

(* [serve] rejects four argument combinations before it listens (the
   socket lies in a missing directory, so a server that booted anyway
   could not listen either): each exits 2 with its one-line message. *)
let test_serve_boot_errors () =
  with_table good_table @@ fun t ->
  let socket = [ "--socket"; "/nonexistent/iowpdb-cli-test.sock" ] in
  List.iter
    (fun (what, args, msg) ->
      let code, err = run_capture (("serve" :: args) @ socket) in
      Alcotest.(check int) (what ^ ": exits 2") 2 code;
      Alcotest.(check string) (what ^ ": one line") ("iowpdb: serve: " ^ msg ^ "\n")
        err)
    [
      ( "TABLE with --store",
        [ t; "--store"; "missing.iow" ],
        "give either a TABLE argument or --store, not both" );
      ("neither TABLE nor --store", [], "a TABLE argument or --store is required");
      ( "--updatable with --store",
        [ "--store"; "missing.iow"; "--updatable" ],
        "--updatable requires a text TABLE (a mmap'd pack cannot be mutated \
         in place)" );
      ( "--warm-cache without --store",
        [ t; "--warm-cache"; "missing.cache" ],
        "--warm-cache requires --store (the cache is validated against the \
         pack checksum)" );
    ]

(* A pack holds one TI enumeration: there is no [--kind] to choose, and
   a block-independent-disjoint pack from an older writer
   (test/fixtures/bid_v1.iow) is a store rejection naming its kind. *)
let test_pack_ti_only () =
  with_table good_table @@ fun t ->
  let pack = Filename.temp_file "iowpdb_cli" ".iow" in
  Fun.protect ~finally:(fun () -> Sys.remove pack) @@ fun () ->
  check_exit "pack --verify" 0 [ "pack"; t; pack; "--verify" ];
  check_exit "pack --kind is unknown" 124 [ "pack"; t; pack; "--kind"; "bid" ];
  let code, err =
    run_capture
      [
        "serve"; "--store"; "fixtures/bid_v1.iow"; "--socket";
        "/nonexistent/iowpdb-cli-test.sock";
      ]
  in
  Alcotest.(check int) "serve --store old BID pack exits 2" 2 code;
  Alcotest.(check bool) "names the kind" true
    (Helpers.contains err "unknown kind 1")

let () =
  Alcotest.run "cli"
    [
      ( "exit_codes",
        [
          Alcotest.test_case "query ok" `Quick test_query_ok;
          Alcotest.test_case "missing file" `Quick test_missing_file;
          Alcotest.test_case "malformed query" `Quick test_malformed_query;
          Alcotest.test_case "malformed table" `Quick test_malformed_table;
          Alcotest.test_case "duplicate fact" `Quick test_duplicate_fact;
          Alcotest.test_case "free variable" `Quick test_free_variable_query;
          Alcotest.test_case "bad eps" `Quick test_bad_eps;
          Alcotest.test_case "plan" `Quick test_plan;
          Alcotest.test_case "batch ok" `Quick test_batch_ok;
          Alcotest.test_case "batch bad inputs" `Quick test_batch_bad_inputs;
        ] );
      ( "budgets",
        [
          Alcotest.test_case "mc" `Quick test_mc_with_budget;
          Alcotest.test_case "anytime" `Quick test_anytime_with_budget;
        ] );
      ( "open_world",
        [
          Alcotest.test_case "25-fact table" `Quick test_open_world_big_table;
          Alcotest.test_case "sample --open-world pinned" `Quick
            test_sample_open_world_pinned;
          Alcotest.test_case "probability-1 policy" `Quick
            test_probability_one_policy;
        ] );
      ( "pack",
        [ Alcotest.test_case "TI only" `Quick test_pack_ti_only ] );
      ( "serve",
        [ Alcotest.test_case "boot argument errors" `Quick test_serve_boot_errors ] );
      ( "robust",
        [
          Alcotest.test_case "clean" `Quick test_robust_clean;
          Alcotest.test_case "faults never fail" `Quick
            test_robust_with_faults_never_fails;
          Alcotest.test_case "tight budget" `Quick
            test_robust_tight_budget_exit_zero;
        ] );
    ]
