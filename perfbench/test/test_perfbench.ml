open Pbench

let read path = In_channel.with_open_bin path In_channel.input_all
let benchmark_json = lazy (read "../../BENCHMARK.json")

(* First index of [sub] in [text] at or after [i]. *)
let find_from text i sub =
  let n = String.length sub in
  let rec go i =
    if i + n > String.length text then None
    else if String.sub text i n = sub then Some i
    else go (i + 1)
  in
  go i

let contains text sub = find_from text 0 sub <> None

(* Names listed under [section] ("end_to_end" or "per_layer") in a
   BENCHMARK.json text: the "name" values up to the closing bracket. *)
let names_in_json text section =
  let find_from = find_from text in
  match find_from 0 (Printf.sprintf "%S" section) with
  | None -> []
  | Some i ->
    let stop =
      match find_from i "]" with Some j -> j | None -> String.length text
    in
    let rec collect i acc =
      match find_from i "\"name\"" with
      | Some j when j < stop ->
        let q1 = String.index_from text (j + 6) '"' in
        let q2 = String.index_from text (q1 + 1) '"' in
        collect (q2 + 1) (String.sub text (q1 + 1) (q2 - q1 - 1) :: acc)
      | _ -> List.rev acc
    in
    collect i []

let names_match section schema () =
  Alcotest.(check (list string))
    (section ^ " names")
    (names_in_json (Lazy.force benchmark_json) section)
    (Schema.names schema)

(* Every workload BENCHMARK.json lists is one the generator knows. *)
let workloads_known () =
  let listed = names_in_json (Lazy.force benchmark_json) "workloads" in
  Alcotest.(check bool) "at least two workloads" true (List.length listed >= 2);
  List.iter
    (fun w -> Alcotest.(check bool) (w ^ " generated") true (List.mem w Gen.workloads))
    listed

(* [emit] prints exactly the schema's metrics and refuses any other set. *)
let emit_is_exact () =
  let values = List.map (fun (m : Schema.metric) -> (m.name, 1.5)) Schema.end_to_end in
  let line = Schema.emit ~schema:Schema.end_to_end ~correct:true ~attempted:3 ~failed:0 values in
  List.iter
    (fun (m : Schema.metric) ->
      let key = Printf.sprintf "%S: {\"value\": 1.5, \"unit\": %S}" m.name m.unit_ in
      Alcotest.(check bool) (m.name ^ " printed") true
        (contains line key))
    Schema.end_to_end;
  Alcotest.check_raises "missing metric refused"
    (Failure
       (Printf.sprintf "metric set mismatch: got [%s], schema [%s]"
          (String.concat ", " (List.sort compare (List.tl (Schema.names Schema.end_to_end))))
          (String.concat ", " (List.sort compare (Schema.names Schema.end_to_end)))))
    (fun () ->
      ignore
        (Schema.emit ~schema:Schema.end_to_end ~correct:true ~attempted:1 ~failed:0
           (List.tl values)))

let sizes = function "batch-compile" -> 8 | _ -> 120

let files_of ~dir ~workload ~seed =
  (try Sys.mkdir dir 0o755 with Sys_error _ -> ());
  let inp = Gen.generate ~workload ~seed ~n:(sizes workload) in
  (Gen.render inp, List.map read (Inputs.write ~dir ~workload inp))

let seed_pure workload () =
  let r1, f1 = files_of ~dir:(workload ^ ".a") ~workload ~seed:3
  and r2, f2 = files_of ~dir:(workload ^ ".b") ~workload ~seed:3
  and r3, _ = files_of ~dir:(workload ^ ".c") ~workload ~seed:4 in
  Alcotest.(check string) "same seed, same stream" r1 r2;
  Alcotest.(check (list string)) "same seed, byte-identical files" f1 f2;
  Alcotest.(check bool) "another seed, other inputs" false (r1 = r3)

let () =
  Alcotest.run "perfbench"
    [
      ( "schema",
        [
          Alcotest.test_case "end_to_end names" `Quick (names_match "end_to_end" Schema.end_to_end);
          Alcotest.test_case "per_layer names" `Quick (names_match "per_layer" Schema.per_layer);
          Alcotest.test_case "emit is exact" `Quick emit_is_exact;
          Alcotest.test_case "workloads known" `Quick workloads_known;
        ] );
      ( "inputs",
        List.map (fun w -> Alcotest.test_case w `Quick (seed_pure w)) Gen.workloads );
    ]
