(* The metric schema every run prints.  BENCHMARK.json lists the same
   names (the test suite checks they agree); [emit] refuses a metric set
   that does not match, so a renamed or forgotten metric fails loudly
   instead of silently disappearing from the results. *)

type metric = { name : string; unit_ : string }

let m name unit_ = { name; unit_ }

(* Measured with tracing off, on every workload. *)
let end_to_end =
  [
    m "setup_s" "s";
    m "request_p50_s" "s";
    m "request_p95_s" "s";
    m "ops_per_s" "1/s";
    m "ok_share" "share";
    m "rss_peak_mb" "MB";
  ]

(* Measured by the traced replay.  A layer a workload does not run
   reports 0. *)
let per_layer =
  [
    m "query_p50_s" "s";
    m "query_p95_s" "s";
    m "update_p50_s" "s";
    m "update_p95_s" "s";
    m "batch_p50_s" "s";
    m "batch_p95_s" "s";
    m "width_mean" "prob";
    m "serve.codec_s" "s";
    m "serve.response_bytes" "bytes";
    m "serve.overhead_s" "s";
    m "serve.cache.hit_share" "share";
    m "serve.cache.evict" "count";
    m "serve.shed_share" "share";
    m "store.load_s" "s";
    m "store.decode_s" "s";
    m "store.facts_decoded" "count";
    m "iowpdb.truncation_s" "s";
    m "iowpdb.tail_probes" "count";
    m "iowpdb.n_used" "count";
    m "robust.query_s" "s";
    m "robust.rungs_run" "count";
    m "robust.residual_share" "share";
    m "pdb.batch_s" "s";
    m "pdb.route_lifted_share" "share";
    m "pdb.pad_s" "s";
    m "pdb.update_apply_s" "s";
    m "pdb.delta_session_s" "s";
    m "logic.parse_s" "s";
    m "logic.lifted_s" "s";
    m "logic.lineage_s" "s";
    m "logic.lineage_size" "count";
    m "kc.compile_s" "s";
    m "kc.bdd_nodes" "count";
    m "kc.apply_hit_share" "share";
    m "kc.wmc_s" "s";
    m "kc.wmc_bits" "bits";
    m "trace.overhead_share" "share";
    m "trace.spans" "count";
    m "host.unit_s" "s";
  ]

let names l = List.map (fun x -> x.name) l

(* The final stdout line: one JSON object with exactly the keys the
   contract names.  @raise Failure if [values] does not cover [schema]
   exactly. *)
let emit ~schema ~correct ~attempted ~failed values =
  let got = List.sort compare (List.map fst values)
  and want = List.sort compare (names schema) in
  if got <> want then
    failwith
      (Printf.sprintf "metric set mismatch: got [%s], schema [%s]"
         (String.concat ", " got) (String.concat ", " want));
  let metric x =
    let v = List.assoc x.name values in
    let v = if Float.is_finite v then v else 0.0 in
    Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" x.name v x.unit_
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed
    (String.concat ", " (List.map metric schema))
