(* Command-line interface to the library.

   Subcommands:
     query    - exact Boolean/non-Boolean query on a TI table file
     batch    - many Boolean queries at once on one shared BDD store
     open     - open-world query: complete the table, approximate to eps
     anytime  - incremental evaluation with a narrowing certified interval
     mc       - domain-parallel Monte-Carlo estimation with an exact
                (Clopper-Pearson) binomial CI
     robust   - resource-governed supervisor: exact -> anytime -> MC
                under one budget, with retries and provenance
     sample   - draw worlds from the (optionally completed) PDB
     plan     - show the lifted safe plan for a query (dichotomy verdict)
     pack     - compile a text table into the mmap'd .iow store format
     info     - table statistics

   Table files are the Ti_table text format: one "R(args...) prob" per
   line, '#' comments.  Open-world policies: --policy lambda:<p>:<k>
   (k fresh facts of probability p over relation N) or
   --policy geometric:<first>:<ratio> (infinitely many N(0), N(1), ...),
   parsed by Completion.policy_of_string on both boot paths.

   Subcommands that do real inference take --stats to print the
   instrumentation counters (BDD cache traffic, fact-source pulls,
   engine dispatch) accumulated during the run.

   Every command body runs under [guard_code] (or [guard], for a body
   that exits 0 when it returns), which turns the error taxonomy into
   one-line stderr messages and exit codes (Errors.exit_code: malformed
   input 2, budget exhaustion 3, engine failure 1) instead of
   uncaught-exception backtraces. *)

open Cmdliner

(* The body chooses the exit code (fuzzing failures exit 1 without being
   an exception). *)
let guard_code f =
  try f () with
  | Errors.Error e ->
    prerr_endline ("iowpdb: " ^ Errors.to_string e);
    Errors.exit_code e
  | Budget.Exhausted ex ->
    prerr_endline
      ("iowpdb: budget exhausted: " ^ Budget.exhaustion_to_string ex);
    3
  | Invalid_argument msg | Sys_error msg | Failure msg ->
    prerr_endline ("iowpdb: " ^ msg);
    2

let guard f =
  guard_code (fun () ->
      f ();
      0)

let read_table = Ti_table.of_file

(* The table completed by an open-world policy, as one countable TI
   source.  Sources memoize, so every consumer builds its own. *)
let completed ti pol =
  Completion.source (Completion.complete_ti ti (Completion.policy_source pol))

(* Shared arguments *)
(* A plain string, not Arg.file: existence is checked by Ti_table.of_file
   inside [guard], so a missing file exits 2 with a one-line message like
   every other input error, instead of Cmdliner's usage error. *)
let table_arg =
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"TABLE" ~doc:"TI table file (one 'R(args) prob' per line).")

let query_arg p =
  Arg.(
    required
    & pos p (some string) None
    & info [] ~docv:"QUERY" ~doc:"First-order query, e.g. 'exists x. R(x, 1)'.")

let stats_arg =
  Arg.(
    value & flag
    & info [ "stats" ]
        ~doc:
          "Print instrumentation counters (BDD cache traffic, fact-source \
           pulls, engine dispatch, wall-clock) accumulated during the run.")

let with_stats enabled f =
  let before = Stats.snapshot () in
  let r = f () in
  if enabled then begin
    print_newline ();
    print_endline "-- stats --";
    Stats.report Format.std_formatter (Stats.diff (Stats.snapshot ()) before);
    Format.pp_print_flush Format.std_formatter ()
  end;
  r

(* Budget flags, shared by anytime / mc / robust.  The terms carry raw
   options; budgets are constructed inside [guard] so that validation
   errors exit like any other bad argument. *)
let timeout_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "timeout" ] ~docv:"SECS"
        ~doc:"Evaluation deadline in seconds (on the chosen clock).")

let virtual_rate_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "virtual-rate" ] ~docv:"UNITS"
        ~doc:
          "Run the deadline on a deterministic virtual clock advancing \
           UNITS work units per second: with --timeout this becomes a \
           reproducible total-work cap, so budget-truncated answers are \
           bit-identical across runs and machines.")

let max_bdd_nodes_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "max-bdd-nodes" ] ~docv:"N"
        ~doc:
          "Cap on BDD nodes per attempt: the nodes an exact compilation \
           allocates, and the nodes an anytime session keeps live (its \
           garbage collections refund what they sweep).")

let max_facts_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "max-facts" ] ~docv:"N"
        ~doc:"Cap on facts pulled from the source.")

let make_budget ?max_bdd_nodes ?max_facts ~timeout ~virtual_rate () =
  if
    timeout = None && virtual_rate = None && max_bdd_nodes = None
    && max_facts = None
  then None
  else begin
    let clock = Option.map (fun r -> Budget.Virtual r) virtual_rate in
    Some (Budget.create ?clock ?timeout ?max_bdd_nodes ?max_facts ())
  end

let run_query table query stats =
  guard @@ fun () ->
  with_stats stats @@ fun () ->
  let ti = read_table table in
  let phi = Fo_parse.parse_exn query in
  if Fo.free_vars phi = [] then begin
    let p = Query_eval.boolean ti phi in
    Printf.printf "P[ %s ] = %s (~%s)\n" query (Rational.to_string p)
      (Rational.to_decimal_string ~digits:8 p)
  end
  else
    List.iter
      (fun (tup, p) ->
        Printf.printf "P[ %s at %s ] = %s\n" query (Tuple.to_string tup)
          (Rational.to_string p))
      (Query_eval.marginals ti phi)

let query_cmd =
  let doc = "Exact query evaluation on a closed-world TI table." in
  Cmd.v (Cmd.info "query" ~doc)
    Term.(const run_query $ table_arg $ query_arg 1 $ stats_arg)

(* ------------------------------------------------------------------ *)
(* batch: many Boolean queries over one table and one shared store *)
(* ------------------------------------------------------------------ *)

let queries_file_arg =
  Arg.(
    value
    & pos 1 (some string) None
    & info [] ~docv:"QUERIES"
        ~doc:
          "File with one first-order sentence per line ('#' comments and \
           blank lines are skipped).  Omitted or $(b,-): read stdin.")

let batch_domains_arg =
  Arg.(
    value & opt int 1
    & info [ "domains" ] ~docv:"D"
        ~doc:
          "Worker domains for the compiled members.  1 (the default) \
           shares a single BDD store across the whole batch — maximal \
           subformula sharing; larger values shard the batch for \
           parallelism.  Results are bit-identical for every value.")

let read_query_lines = function
  | None | Some "-" ->
    let rec go acc =
      match In_channel.input_line stdin with
      | Some l -> go (l :: acc)
      | None -> List.rev acc
    in
    go []
  | Some file -> In_channel.with_open_text file In_channel.input_lines

let route_to_string = function
  | Batch_eval.Lifted -> "lifted"
  | Batch_eval.Compiled s -> Printf.sprintf "bdd shard %d" s
  | Batch_eval.Duplicate j -> Printf.sprintf "duplicate of member %d" j

let run_batch table queries_file domains stats =
  guard @@ fun () ->
  with_stats stats @@ fun () ->
  let ti = read_table table in
  let lines =
    read_query_lines queries_file
    |> List.map String.trim
    |> List.filter (fun l -> l <> "" && not (String.starts_with ~prefix:"#" l))
  in
  if lines = [] then invalid_arg "batch: no queries (empty input)";
  let phis = Array.of_list (List.map Fo_parse.parse_exn lines) in
  let r = Batch_eval.boolean ~domains ti phis in
  Array.iteri
    (fun i (m : Rational.t Batch_eval.member) ->
      Printf.printf "P[ %s ] = %s (~%s) [%s]\n" (List.nth lines i)
        (Rational.to_string m.Batch_eval.prob)
        (Rational.to_decimal_string ~digits:8 m.Batch_eval.prob)
        (route_to_string m.Batch_eval.route))
    r.Batch_eval.members;
  Printf.printf "batch: %d member(s): %d lifted, %d compiled on %d shard(s), \
                 %d duplicate(s)\n"
    (Array.length r.Batch_eval.members)
    r.Batch_eval.lifted r.Batch_eval.compiled r.Batch_eval.shards
    r.Batch_eval.deduped

let batch_cmd =
  let doc =
    "Evaluate many Boolean queries on one TI table at once: one \
     quantifier-rank padding for the whole batch, safe members answered \
     by the lifted engine, the rest compiled into a shared BDD store \
     (common subformulas hit one unique table and op cache) and counted \
     in a single shared-memo sweep.  Exact results, bit-identical to \
     the one-at-a-time loop at any $(b,--domains) setting."
  in
  Cmd.v (Cmd.info "batch" ~doc)
    Term.(
      const run_batch $ table_arg $ queries_file_arg $ batch_domains_arg
      $ stats_arg)

let policy_arg =
  Arg.(
    value
    & opt string "geometric:1/4:1/2"
    & info [ "policy" ] ~docv:"POLICY"
        ~doc:
          "Open-world policy: lambda:<p>:<k> or geometric:<first>:<ratio>.")

let eps_arg =
  Arg.(
    value
    & opt float 0.01
    & info [ "eps" ] ~docv:"EPS" ~doc:"Additive error budget in (0, 1/2).")

let run_open table query policy eps stats =
  guard @@ fun () ->
  with_stats stats @@ fun () ->
  let ti = read_table table in
  let src = completed ti (Completion.policy_of_string policy) in
  let phi = Fo_parse.parse_exn query in
  let r = Approx_eval.boolean src ~eps phi in
  Printf.printf
    "P[ %s ] = %s (+/- %g; %d facts kept; certified in [%.8f, %.8f])\n" query
    (Rational.to_decimal_string ~digits:8 r.Approx_eval.estimate)
    eps r.Approx_eval.n_used
    (Interval.lo r.Approx_eval.bounds)
    (Interval.hi r.Approx_eval.bounds)

let open_cmd =
  let doc = "Open-world (completed) approximate query evaluation." in
  Cmd.v (Cmd.info "open" ~doc)
    Term.(
      const run_open $ table_arg $ query_arg 1 $ policy_arg $ eps_arg
      $ stats_arg)

let run_anytime table query policy eps timeout virtual_rate max_bdd_nodes
    max_facts stats =
  guard @@ fun () ->
  with_stats stats @@ fun () ->
  let ti = read_table table in
  let src = completed ti (Completion.policy_of_string policy) in
  let phi = Fo_parse.parse_exn query in
  let budget =
    make_budget ?max_bdd_nodes ?max_facts ~timeout ~virtual_rate ()
  in
  let sess = Anytime.create ~eps ?budget src phi in
  let reason, steps = Anytime.run sess in
  List.iter
    (fun (s : Anytime.step) ->
      Printf.printf
        "step %2d: n=%6d  est=%.8f  in [%.8f, %.8f]  width=%.2e  bdd=%d  %s\n"
        s.Anytime.index s.Anytime.n
        (Interval.mid s.Anytime.estimate)
        (Interval.lo s.Anytime.bounds)
        (Interval.hi s.Anytime.bounds)
        s.Anytime.width s.Anytime.bdd_size
        (if s.Anytime.incremental then "delta" else "recompile"))
    steps;
  Printf.printf "stopped: %s after %d steps (n=%d, %d nodes in the manager)\n"
    (Anytime.stop_reason_to_string reason)
    (List.length steps) (Anytime.current_n sess) (Anytime.node_count sess)

let anytime_cmd =
  let doc =
    "Incremental anytime evaluation: deepen the truncation step by step, \
     reusing BDD work, until the certified interval has width at most \
     2*eps (or a budget interrupts it, leaving the last certified \
     enclosure)."
  in
  Cmd.v (Cmd.info "anytime" ~doc)
    Term.(
      const run_anytime $ table_arg $ query_arg 1 $ policy_arg $ eps_arg
      $ timeout_arg $ virtual_rate_arg $ max_bdd_nodes_arg $ max_facts_arg
      $ stats_arg)

let samples_arg =
  Arg.(
    value & opt int 5
    & info [ "n"; "samples" ] ~docv:"N" ~doc:"Number of worlds to draw.")

let seed_arg =
  Arg.(
    value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"PRNG seed.")

let opened_arg =
  Arg.(
    value & flag
    & info [ "open-world" ] ~doc:"Sample from the completed PDB instead.")

let run_sample table n seed opened policy =
  guard @@ fun () ->
  let ti = read_table table in
  let g = Prng.create ~seed () in
  let draw =
    if opened then
      (Countable_ti.sampler
         (Countable_ti.create
            (completed ti (Completion.policy_of_string policy))))
        .Sampler.draw
    else Ti_table.sample ti
  in
  for _ = 1 to n do
    print_endline (Instance.to_string (draw g))
  done

let sample_cmd =
  let doc = "Draw random worlds." in
  Cmd.v (Cmd.info "sample" ~doc)
    Term.(
      const run_sample $ table_arg $ samples_arg $ seed_arg $ opened_arg
      $ policy_arg)

let domains_arg =
  Arg.(
    value & opt int 0
    & info [ "domains" ] ~docv:"D"
        ~doc:
          "Worker domains for the Monte-Carlo engine (0 = one per \
           recommended core).  The estimate is bit-identical for every \
           value: parallelism changes only who executes a batch.")

let mc_samples_arg =
  Arg.(
    value & opt int 100_000
    & info [ "samples" ] ~docv:"N" ~doc:"Number of worlds to draw.")

let confidence_arg =
  Arg.(
    value
    & opt float 0.99
    & info [ "confidence" ] ~docv:"C"
        ~doc:"Two-sided coverage level of the reported interval, in (0,1).")

let run_mc table query opened policy domains samples confidence seed timeout
    virtual_rate stats =
  guard @@ fun () ->
  with_stats stats @@ fun () ->
  let ti = read_table table in
  let plan =
    Countable_ti.sampler
      (Countable_ti.create
         (if opened then completed ti (Completion.policy_of_string policy)
          else Fact_source.of_ti_table ti))
  in
  let phi = Fo_parse.parse_exn query in
  let domains = if domains = 0 then None else Some domains in
  let budget = make_budget ~timeout ~virtual_rate () in
  let r =
    Mc_eval.boolean ?budget ?domains ~confidence ~seed ~samples plan phi
  in
  Printf.printf
    "P[ %s ] ~ %.8f  (%d/%d hits; %g%% interval [%.8f, %.8f]; truncation TV \
     %.2e; %d domains, %d batches of %d%s)\n"
    query r.Mc_eval.estimate r.Mc_eval.hits r.Mc_eval.samples
    (100.0 *. r.Mc_eval.confidence)
    (Interval.lo r.Mc_eval.bounds)
    (Interval.hi r.Mc_eval.bounds)
    r.Mc_eval.truncation_tv r.Mc_eval.domains_used r.Mc_eval.batches
    r.Mc_eval.batch_size
    (if r.Mc_eval.interrupted then
       Printf.sprintf "; interrupted at %d/%d worlds" r.Mc_eval.samples
         r.Mc_eval.samples_requested
     else "");
  if stats then begin
    print_endline "-- interval width trajectory --";
    List.iter
      (fun (n, w) -> Printf.printf "  after %8d worlds: width %.6f\n" n w)
      r.Mc_eval.width_trajectory
  end

let mc_cmd =
  let doc =
    "Monte-Carlo query estimation: draw worlds from the (optionally \
     completed) PDB in parallel across domains and report a \
     Clopper-Pearson confidence interval widened by the truncation bound."
  in
  Cmd.v (Cmd.info "mc" ~doc)
    Term.(
      const run_mc $ table_arg $ query_arg 1 $ opened_arg $ policy_arg
      $ domains_arg $ mc_samples_arg $ confidence_arg $ seed_arg
      $ timeout_arg $ virtual_rate_arg $ stats_arg)

let inject_faults_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "inject-faults" ] ~docv:"SEED"
        ~doc:
          "Wrap the fact source in the deterministic fault injector \
           (transient raises, stalls, corrupt probabilities, NaN and \
           silent tail certificates) with this schedule seed — for \
           robustness demos and tests.")

let robust_samples_arg =
  Arg.(
    value & opt int 20_000
    & info [ "samples" ] ~docv:"N"
        ~doc:"Monte-Carlo worlds for the last ladder rung.")

let run_robust table query policy eps timeout virtual_rate max_bdd_nodes
    max_facts samples seed faults stats =
  guard @@ fun () ->
  with_stats stats @@ fun () ->
  let ti = read_table table in
  let src = completed ti (Completion.policy_of_string policy) in
  let src =
    match faults with
    | None -> src
    | Some fs -> Faulty_source.wrap (Faulty_source.default ~seed:fs) src
  in
  let phi = Fo_parse.parse_exn query in
  (* --timeout / --virtual-rate bound the whole ladder; the node/fact
     caps are per-attempt (child budgets inside the supervisor). *)
  let budget = make_budget ~timeout ~virtual_rate () in
  let a =
    Robust_eval.query ?budget ~eps ?max_bdd_nodes ?max_facts
      ~mc_samples:samples ~seed src phi
  in
  print_endline (Robust_eval.answer_to_string a)

let robust_cmd =
  let doc =
    "Resource-governed evaluation: run the degradation ladder exact -> \
     anytime -> Monte-Carlo under one shared budget, retry transient \
     faults, and report the narrowest certified enclosure with full \
     provenance.  Never fails on faults or exhaustion — a starved run \
     returns a wide (still sound) enclosure and says why."
  in
  Cmd.v (Cmd.info "robust" ~doc)
    Term.(
      const run_robust $ table_arg $ query_arg 1 $ policy_arg $ eps_arg
      $ timeout_arg $ virtual_rate_arg $ max_bdd_nodes_arg $ max_facts_arg
      $ robust_samples_arg $ seed_arg $ inject_faults_arg $ stats_arg)

(* ------------------------------------------------------------------ *)
(* fuzz: differential testing against the enumeration oracle *)
(* ------------------------------------------------------------------ *)

let cases_arg =
  Arg.(
    value & opt int 200
    & info [ "cases" ] ~docv:"N" ~doc:"Random cases to generate and check.")

let rank_arg =
  Arg.(
    value & opt int 3
    & info [ "rank" ] ~docv:"R"
        ~doc:"Maximum quantifier rank of generated queries.")

let engines_arg =
  Arg.(
    value & opt string "all"
    & info [ "engines" ] ~docv:"LIST"
        ~doc:
          "Comma-separated engines to exercise \
           (exact|lifted|approx|anytime|mc|robust|batch), or $(b,all).")

let corpus_dir_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "corpus-dir" ] ~docv:"DIR"
        ~doc:
          "Write shrunk failing cases here as replayable .case files \
           (the test/corpus format).")

let fuzz_mc_samples_arg =
  Arg.(
    value & opt int 1500
    & info [ "mc-samples" ] ~docv:"N"
        ~doc:"Monte-Carlo worlds per mc containment check.")

let replay_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "replay" ] ~docv:"PATH"
        ~doc:
          "Instead of generating cases, replay a .case file or a \
           directory of them and re-run every engine check.")

let print_failure (f : Fuzzer.failure) =
  Printf.printf "FAIL case=%d kind=%s check=%s\n  query: %s\n  %s\n"
    f.Fuzzer.f_case.Fuzzer.id
    (Fuzzer.kind_to_string f.Fuzzer.f_case.Fuzzer.kind)
    f.Fuzzer.check
    (Fo.to_string f.Fuzzer.f_case.Fuzzer.query)
    f.Fuzzer.detail

let run_fuzz cases seed rank engines corpus_dir mc_samples replay =
  guard_code @@ fun () ->
  let engines =
    match Fuzzer.engines_of_string engines with
    | Ok es -> es
    | Error msg -> invalid_arg ("--engines: " ^ msg)
  in
  match replay with
  | Some path ->
    let files =
      if Sys.is_directory path then
        Sys.readdir path |> Array.to_list
        |> List.filter (fun f -> Filename.check_suffix f ".case")
        |> List.sort compare
        |> List.map (Filename.concat path)
      else [ path ]
    in
    if files = [] then invalid_arg ("no .case files under " ^ path);
    let checks = ref 0 in
    let failures =
      List.concat_map
        (fun file ->
          let cc = Fuzzer.load file in
          let n, fs =
            Fuzzer.run_case ~engines ~mc_samples cc.Fuzzer.c_case
          in
          checks := !checks + n;
          List.map (fun f -> (file, f)) fs)
        files
    in
    Printf.printf "replayed %d corpus case(s), %d check(s), %d failure(s)\n"
      (List.length files) !checks (List.length failures);
    List.iter
      (fun (file, f) ->
        Printf.printf "in %s:\n" file;
        print_failure f)
      failures;
    if failures = [] then 0 else 1
  | None ->
    let config = { Oracle_gen.default with Oracle_gen.max_rank = rank } in
    let r =
      Fuzzer.run ~config ~engines ~mc_samples ?corpus_dir ~seed ~cases ()
    in
    Printf.printf "fuzz: seed=%d cases=%d checks=%d engines=%s\n" seed
      r.Fuzzer.cases_run r.Fuzzer.checks_run
      (String.concat "," (List.map Fuzzer.engine_to_string r.Fuzzer.engines_run));
    if List.mem Fuzzer.Mc engines then
      Printf.printf "mc containment confidence: %.5f (Bonferroni-corrected)\n"
        r.Fuzzer.mc_confidence;
    List.iter print_failure r.Fuzzer.failures;
    List.iter
      (fun p -> Printf.printf "wrote %s\n" p)
      r.Fuzzer.corpus_written;
    if r.Fuzzer.failures = [] then begin
      print_endline "no discrepancies";
      0
    end
    else 1

let fuzz_cmd =
  let doc =
    "Differential fuzzing: generate random instances and queries, compute \
     exact ground truth by exhaustive possible-worlds enumeration (the \
     oracle), and check every engine against it — exact rational equality \
     for the exact paths, oracle-enclosure containment/overlap for every \
     reported interval (Monte-Carlo at a Bonferroni-corrected confidence), \
     plus metamorphic laws (complement, monotonicity, completion \
     condition, interval narrowing).  Deterministic for a fixed seed; \
     failing cases are shrunk and can be saved for regression replay."
  in
  Cmd.v (Cmd.info "fuzz" ~doc)
    Term.(
      const run_fuzz $ cases_arg $ seed_arg $ rank_arg $ engines_arg
      $ corpus_dir_arg $ fuzz_mc_samples_arg $ replay_arg)

(* Purely syntactic: no table needed — the dichotomy verdict and the plan
   tree are properties of the query alone. *)
let run_plan query =
  guard @@ fun () ->
  let phi = Fo_parse.parse_exn query in
  (match Fo.free_vars phi with
  | [] -> ()
  | fvs ->
    invalid_arg
      (Printf.sprintf "query has free variables %s" (String.concat ", " fvs)));
  match Safe_plan.plan_of phi with
  | Some plan ->
    Printf.printf "safe: yes (lifted evaluation, polynomial time)\n";
    Printf.printf "plan: %s\n" (Safe_plan.plan_to_string plan)
  | None ->
    Printf.printf
      "safe: no (no lifted plan: hard side of the dichotomy, or outside \
       the positive existential UCQ fragment; grounded engines take over)\n"

let plan_cmd =
  let doc =
    "Show the lifted safe plan for a query, or report that none exists. \
     The plan certifies polynomial-time evaluation via independent union \
     / join / project and inclusion-exclusion; queries without one are \
     routed to the lineage + BDD engine by $(b,query) and to the grounded \
     rungs by $(b,robust)."
  in
  Cmd.v (Cmd.info "plan" ~doc)
    Term.(const run_plan $ query_arg 0)

(* ------------------------------------------------------------------ *)
(* serve / client: the resident query service *)
(* ------------------------------------------------------------------ *)

let socket_arg =
  Arg.(
    value
    & opt string "/tmp/iowpdb.sock"
    & info [ "socket" ] ~docv:"PATH"
        ~doc:"Unix-domain socket path (created by serve, removed on exit).")

let tcp_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "tcp" ] ~docv:"HOST:PORT"
        ~doc:"Listen on (or connect to) TCP instead of the Unix socket.")

let endpoint_of ~socket ~tcp =
  match tcp with
  | None -> `Unix socket
  | Some spec -> (
    match String.rindex_opt spec ':' with
    | Some i ->
      let host = String.sub spec 0 i
      and port = String.sub spec (i + 1) (String.length spec - i - 1) in
      (match int_of_string_opt port with
      | Some p when host <> "" -> `Tcp (host, p)
      | _ -> invalid_arg (Printf.sprintf "bad --tcp %S (want HOST:PORT)" spec))
    | None -> invalid_arg (Printf.sprintf "bad --tcp %S (want HOST:PORT)" spec))

let serve_domains_arg =
  Arg.(
    value & opt int 2
    & info [ "domains" ] ~docv:"D"
        ~doc:"Worker domains evaluating queries in parallel.")

let queue_bound_arg =
  Arg.(
    value & opt int 64
    & info [ "queue-bound" ] ~docv:"N"
        ~doc:
          "Work-queue capacity.  A full queue answers Overloaded with a \
           retry-after hint — the server never builds unbounded backlog.")

let window_arg =
  Arg.(
    value & opt float 1.0
    & info [ "window" ] ~docv:"SECS"
        ~doc:
          "Length of the rolling budget epoch carrying the global \
           resource caps.")

let max_samples_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "max-samples" ] ~docv:"N"
        ~doc:"Per-window global cap on Monte-Carlo worlds drawn.")

let serve_samples_arg =
  Arg.(
    value & opt int 20_000
    & info [ "samples" ] ~docv:"N"
        ~doc:
          "Monte-Carlo worlds per request at full service; a tenth of \
           that when degraded under load.")

let serve_deadline_arg =
  Arg.(
    value & opt float 1.0
    & info [ "deadline" ] ~docv:"SECS"
        ~doc:
          "Default per-request wall deadline applied when the client \
           sends none (0 disables).  The deadline starts at admission, \
           so time spent queued counts against it.")

let cache_arg =
  Arg.(
    value & opt int 256
    & info [ "cache" ] ~docv:"N"
        ~doc:
          "Result-cache capacity: certified answers keyed by (query, \
           policy), reused epsilon-aware (0 disables).")

let run_serve table store_path warm_cache socket tcp policy domains
    queue_bound window max_bdd_nodes max_facts max_samples eps samples deadline
    cache updatable =
  guard @@ fun () ->
  (* A fact source's pull cache is not domain-safe, so the server gets a
     factory and builds a fresh source per request.  What is costly to
     build is shared instead: a loaded pack keeps its decoded prefix and
     truncated tables for every request's source, and a table source
     hands its table to a truncation at or past its size. *)
  let make_source, store_checksum, updatable_table =
    match (table, store_path) with
    | Some _, Some _ ->
      invalid_arg "serve: give either a TABLE argument or --store, not both"
    | None, None -> invalid_arg "serve: a TABLE argument or --store is required"
    | Some table, None when updatable ->
      (* Streaming updates need a finite materialized table the server
         can own and mutate; it is served closed-world (the policy
         would complete a table that no longer exists after the first
         delta), so --policy is ignored here. *)
      let ti = read_table table in
      ((fun () -> Fact_source.of_ti_table ti), None, Some ti)
    | Some table, None ->
      (* The completion is validated once, here (convergence, and the
         eager prefix check for probability-1 or overlapping new facts);
         a request builds only its own memoizing view over a fresh policy
         source, whose enumeration still rejects overlaps lazily. *)
      let ti = read_table table in
      let pol = Completion.policy_of_string policy in
      let c = Completion.complete_ti ti (Completion.policy_source pol) in
      let entries = Ti_table.facts (Completion.original c) in
      ( (fun () -> Fact_source.append_finite entries (Completion.policy_source pol)),
        None,
        None )
    | None, Some _ when updatable ->
      invalid_arg
        "serve: --updatable requires a text TABLE (a mmap'd pack cannot \
         be mutated in place)"
    | None, Some pack ->
      (* Zero-parse boot: mmap + checksum, no fact decoded until a query
         asks for it — the sidecar certifies tails in O(1).  Each fact is
         then decoded once, and each truncated table built once, for all
         later requests. *)
      let pol = Completion.policy_of_string policy in
      let st = Store.load pack in
      ( (fun () -> Store.fact_source ~rest:(Completion.policy_source pol) st),
        Some (Store.checksum_hex st),
        None )
  in
  let warm_cache =
    match (warm_cache, store_checksum) with
    | None, _ -> None
    | Some _, None ->
      invalid_arg
        "serve: --warm-cache requires --store (the cache is validated \
         against the pack checksum)"
    | Some path, Some sum -> Some (path, sum ^ ":" ^ policy)
  in
  let cfg =
    {
      Server.endpoint = endpoint_of ~socket ~tcp;
      make_source;
      domains;
      admission =
        {
          Admission.queue_bound;
          window_s = window;
          max_bdd_nodes;
          max_facts;
          max_samples;
        };
      default_eps = eps;
      default_samples = samples;
      default_deadline_s = (if deadline <= 0.0 then None else Some deadline);
      cache_capacity = cache;
      warm_cache;
      updatable = updatable_table;
    }
  in
  Server.run cfg

let updatable_arg =
  Arg.(
    value & flag
    & info [ "updatable" ]
        ~doc:
          "Serve the text TABLE as a finite materialized table that \
           $(b,client update) frames may mutate (insert / delete / \
           reweight) while the server runs.  Each accepted update bumps \
           the mutated relation's epoch, invalidating exactly the \
           cached answers that read it; the table is served \
           closed-world ($(b,--policy) is ignored).  Incompatible with \
           $(b,--store).")

let serve_table_arg =
  Arg.(
    value
    & pos 0 (some string) None
    & info [] ~docv:"TABLE"
        ~doc:
          "TI table text file (one 'R(args) prob' per line).  Omit when \
           booting from $(b,--store).")

let store_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "store" ] ~docv:"PACK"
        ~doc:
          "Boot from a packed $(b,.iow) store instead of a text TABLE: \
           the pack is mmap'd and checksum-validated and no fact is \
           parsed or decoded at boot.  Truncation depths come from the \
           precomputed tail-mass sidecar; each fact is decoded once, by \
           the first query that needs it, and each truncated table is \
           built once and shared by later requests.")

let warm_cache_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "warm-cache" ] ~docv:"PATH"
        ~doc:
          "Persist the epsilon-aware result cache to PATH on drain and \
           restore it at boot.  The file is tagged with the pack \
           checksum and the policy spec, and is rejected wholesale if \
           either has changed — requires $(b,--store).")

let serve_cmd =
  let doc =
    "Resident query server: load the table and open-world policy once, \
     then answer framed requests over a Unix-domain (or TCP) socket, \
     multiplexed across worker domains behind a bounded queue.  \
     Admission control carves each request a budget from a rolling \
     server-wide epoch; under pressure requests are degraded down the \
     robust ladder or rejected with a retry-after hint, and on deadline \
     expiry a request returns its best-so-far sound enclosure instead \
     of timing out.  SIGTERM (or a drain request) finishes in-flight \
     work, rejects new queries, and exits cleanly.  With $(b,--store) \
     the table comes from a packed $(b,.iow) file (zero-parse mmap \
     boot) and $(b,--warm-cache) carries certified answers across \
     restarts.  With $(b,--updatable) the table accepts streaming \
     $(b,client update) deltas with per-relation epoch cache \
     invalidation."
  in
  Cmd.v (Cmd.info "serve" ~doc)
    Term.(
      const run_serve $ serve_table_arg $ store_arg $ warm_cache_arg
      $ socket_arg $ tcp_arg $ policy_arg $ serve_domains_arg
      $ queue_bound_arg $ window_arg $ max_bdd_nodes_arg $ max_facts_arg
      $ max_samples_arg $ eps_arg $ serve_samples_arg $ serve_deadline_arg
      $ cache_arg $ updatable_arg)

(* ------------------------------------------------------------------ *)
(* pack: compile a text table into the mmap'd store format *)
(* ------------------------------------------------------------------ *)

let pack_out_arg =
  Arg.(
    required
    & pos 1 (some string) None
    & info [] ~docv:"OUT" ~doc:"Output pack path (conventionally .iow).")

let pack_verify_arg =
  Arg.(
    value & flag
    & info [ "verify" ]
        ~doc:
          "After writing, re-load the pack and check every fact and \
           probability is rationally identical to the text table \
           (exit 2 on any mismatch).")

let run_pack table out verify =
  guard @@ fun () ->
  let ti = Ti_table.of_file table in
  Store.write_ti ~path:out ti;
  let st = Store.load out in
  Printf.printf "packed:   %s\n" out;
  Printf.printf "facts:    %d\n" (Store.size st);
  Printf.printf "bytes:    %d\n" (Store.byte_size st);
  Printf.printf "checksum: %s\n" (Store.checksum_hex st);
  if verify then
    match Store.verify_against_ti st ti with
    | Ok () ->
      Printf.printf "verify:   ok (%d facts round-trip rationally identical)\n"
        (Store.size st)
    | Error msg ->
      raise (Errors.Error (Errors.Store { path = out; region = "verify"; msg }))

let pack_cmd =
  let doc =
    "Compile a TI text table into the packed $(b,.iow) store format: facts \
     dictionary-encoded and sorted by descending probability, exact \
     rational probabilities, a precomputed tail-mass sidecar (so the \
     truncation depth is an O(log n) search over O(1) lookups), and a \
     whole-file checksum behind a magic/version header.  $(b,serve \
     --store) then boots from the pack with an mmap instead of a parse \
     and builds each truncated table once."
  in
  Cmd.v (Cmd.info "pack" ~doc)
    Term.(
      const run_pack $ table_arg $ pack_out_arg $ pack_verify_arg)

let request_arg =
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"REQUEST"
        ~doc:
          "One of $(b,query), $(b,update), $(b,health), $(b,stats), \
           $(b,drain).")

let client_query_arg =
  Arg.(
    value
    & pos 1 (some string) None
    & info [] ~docv:"QUERY"
        ~doc:
          "First-order sentence (required for $(b,query)), or a delta \
           like 'insert R(a) 1/2', 'delete R(a)', 'reweight R(a) 1/3' \
           (required for $(b,update)).")

let deadline_ms_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "deadline-ms" ] ~docv:"MS"
        ~doc:
          "Per-request deadline in milliseconds, enforced server-side: \
           on expiry the reply is the best-so-far sound enclosure, \
           flagged budget-exhausted.")

let client_eps_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "eps" ] ~docv:"EPS"
        ~doc:"Additive error target (server default when omitted).")

let client_samples_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "mc-samples" ] ~docv:"N"
        ~doc:"Monte-Carlo worlds (server default when omitted).")

let retries_arg =
  Arg.(
    value & opt int 4
    & info [ "retries" ] ~docv:"N"
        ~doc:
          "Total connection attempts (transport faults are retried with \
           capped exponential backoff).")

let run_client socket tcp request query eps deadline_ms mc_samples seed
    retries =
  guard_code @@ fun () ->
  let endpoint = endpoint_of ~socket ~tcp in
  let req =
    match request with
    | "query" -> (
      match query with
      | Some q ->
        Protocol.Query { query = q; eps; deadline_ms; mc_samples; seed }
      | None -> invalid_arg "client query: missing QUERY argument")
    | "update" -> (
      match query with
      | Some d -> Protocol.Update { delta = d }
      | None -> invalid_arg "client update: missing DELTA argument")
    | "health" -> Protocol.Health
    | "stats" -> Protocol.Stats_req
    | "drain" -> Protocol.Drain
    | r ->
      invalid_arg
        (Printf.sprintf
           "unknown request %S (want query|update|health|stats|drain)" r)
  in
  let policy = { Retry.default_policy with Retry.max_attempts = retries } in
  match Client.call ~policy ~seed endpoint req with
  | Error e ->
    prerr_endline ("iowpdb: " ^ Errors.to_string e);
    Errors.exit_code e
  | Ok
      (Protocol.Answer
         { lo; hi; estimate; provenance; budget_exhausted; cached; shed }) ->
    Printf.printf "P[ %s ] in [%.8f, %.8f] ~ %.8f%s%s%s\n"
      (Option.value query ~default:"")
      lo hi estimate
      (if cached then " (cached)" else "")
      (if shed then " (shed)" else "")
      (if budget_exhausted then " (budget exhausted: best-so-far)" else "");
    print_endline provenance;
    0
  | Ok (Protocol.Update_ok { relation; epoch; noop }) ->
    Printf.printf "updated %s (epoch %d)%s\n" relation epoch
      (if noop then " (no-op: table already satisfied the delta)" else "");
    0
  | Ok (Protocol.Overloaded { retry_after_ms; draining }) ->
    Printf.eprintf "iowpdb: server overloaded%s; retry after %d ms\n"
      (if draining then " (draining)" else "")
      retry_after_ms;
    3
  | Ok (Protocol.Error_resp { code; msg }) ->
    prerr_endline ("iowpdb: server error: " ^ msg);
    code
  | Ok (Protocol.Health_ok { draining; inflight; uptime_s }) ->
    Printf.printf "ok: draining=%b inflight=%d uptime=%.1fs\n" draining
      inflight uptime_s;
    0
  | Ok (Protocol.Stats_resp entries) ->
    List.iter (fun (k, v) -> Printf.printf "%s %g\n" k v) entries;
    0

let client_cmd =
  let doc =
    "Talk to a resident $(b,serve) instance: send one query (or an \
     update, health, stats, or drain request) and print the reply.  Transport \
     faults are retried with capped backoff; exit codes: answer 0, \
     overloaded/draining 3, server-reported errors their own code, \
     unreachable server 1."
  in
  Cmd.v (Cmd.info "client" ~doc)
    Term.(
      const run_client $ socket_arg $ tcp_arg $ request_arg
      $ client_query_arg $ client_eps_arg $ deadline_ms_arg
      $ client_samples_arg $ seed_arg $ retries_arg)

let run_info table =
  guard @@ fun () ->
  let ti = read_table table in
  Printf.printf "facts:          %d\n" (Ti_table.size ti);
  Printf.printf "expected size:  %s\n"
    (Rational.to_decimal_string (Ti_table.expected_instance_size ti));
  Printf.printf "active domain:  %d values\n"
    (List.length (Ti_table.active_domain ti));
  List.iter
    (fun (f, p) ->
      Printf.printf "  %s %s\n" (Fact.to_string f) (Rational.to_string p))
    (Ti_table.facts ti)

let info_cmd =
  let doc = "Show statistics of a TI table." in
  Cmd.v (Cmd.info "info" ~doc) Term.(const run_info $ table_arg)

let root =
  let doc = "infinite open-world probabilistic databases" in
  Cmd.group
    (Cmd.info "iowpdb" ~version:"1.0.0" ~doc)
    [
      query_cmd;
      batch_cmd;
      open_cmd;
      anytime_cmd;
      mc_cmd;
      robust_cmd;
      sample_cmd;
      plan_cmd;
      fuzz_cmd;
      pack_cmd;
      serve_cmd;
      client_cmd;
      info_cmd;
    ]

let main ?argv () = Cmd.eval' ?argv root
