(* Tests for the persistent mmap fact store (lib/store): round-trips
   through the binary .iow format, O(1)/O(log n) truncation against the
   sidecar, the lazy fact-source view, and — the load-bearing property —
   that every single-byte corruption of a pack is rejected with a
   structured [Errors.Store], never loaded. *)

let i n = Value.Int n
let q = Rational.of_ints
let fact r args = Fact.make r (List.map i args)

let tmp_pack =
  let n = ref 0 in
  fun () ->
    incr n;
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "iowpdb_test_%d_%d.iow" (Unix.getpid ()) !n)

let load_result path =
  match Store.load path with
  | st -> Ok st
  | exception Errors.Error e -> Error e

let with_pack_ti ti f =
  let path = tmp_pack () in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Store.write_ti ~path ti;
      f path (Store.load path))

(* Rational equality of tables, fact by fact. *)
let check_ti_equal msg t1 t2 =
  Alcotest.(check int) (msg ^ ": size") (Ti_table.size t1) (Ti_table.size t2);
  List.iter
    (fun (f, p) ->
      if not (Rational.equal p (Ti_table.prob t2 f)) then
        Alcotest.failf "%s: %s has %s vs %s" msg (Fact.to_string f)
          (Rational.to_string p)
          (Rational.to_string (Ti_table.prob t2 f)))
    (Ti_table.facts t1)

let mixed_ti =
  Ti_table.create
    [
      (fact "R" [ 1 ], q 1 2);
      (fact "R" [ 2 ], q 1 3);
      (Fact.make "S" [ Value.Str "ab"; Value.Int (-7) ], q 2 3);
      (Fact.make "T" [ Value.Real 2.5 ], q 1 7);
      (Fact.make "T" [ Value.Bool true ], q 999999999999 1000000000000);
      (Fact.make "U" [], q 1 10);
    ]

let test_roundtrip_small () =
  with_pack_ti mixed_ti @@ fun _path st ->
  Alcotest.(check int) "size" 6 (Store.size st);
  check_ti_equal "roundtrip" mixed_ti (Store.to_ti_table st);
  (match Store.verify_against_ti st mixed_ti with
  | Ok () -> ()
  | Error m -> Alcotest.failf "verify: %s" m);
  (* Facts are stored in descending probability order. *)
  let rec desc i =
    i + 1 >= Store.size st
    || Rational.compare (Store.prob st i) (Store.prob st (i + 1)) >= 0
       && desc (i + 1)
  in
  Alcotest.(check bool) "descending" true (desc 0)

let test_roundtrip_empty () =
  with_pack_ti Ti_table.empty @@ fun _path st ->
  Alcotest.(check int) "size" 0 (Store.size st);
  Alcotest.(check (float 0.0)) "tail" 0.0 (Store.tail_mass st 0);
  (match
     Fact_source.search (Fact_source.tail_mass (Store.fact_source st)) 0.0
   with
  | Found (n, _) -> Alcotest.(check int) "n" 0 n
  | Too_slow _ | Silent _ -> Alcotest.fail "empty pack must truncate at 0");
  Alcotest.(check int) "table" 0 (Ti_table.size (Store.truncate st ~n:0))

(* Seed-pure generated tables through the full round-trip. *)
let test_roundtrip_generated () =
  let cfg = Oracle_gen.default in
  for seed = 0 to 39 do
    let g = Prng.create ~seed () in
    let schema = Oracle_gen.schema cfg g in
    let ti = Oracle_gen.ti_table cfg g schema in
    with_pack_ti ti (fun _path st ->
        check_ti_equal
          (Printf.sprintf "seed %d" seed)
          ti (Store.to_ti_table st))
  done

let test_truncation_and_sidecar () =
  let n = 64 in
  let entries = List.init n (fun j -> (fact "R" [ j ], q 1 (j + 2))) in
  let ti = Ti_table.create entries in
  with_pack_ti ti @@ fun _path st ->
  (* Sidecar soundness: every stored bound dominates the exact suffix
     sum of the stored (descending) order, and is antitone. *)
  let sorted =
    List.sort
      (fun (_, p1) (_, p2) -> Rational.compare p2 p1)
      (Ti_table.facts ti)
  in
  let arr = Array.of_list sorted in
  let suffix = Array.make (n + 1) Rational.zero in
  for k = n - 1 downto 0 do
    suffix.(k) <- Rational.add suffix.(k + 1) (snd arr.(k))
  done;
  for k = 0 to n do
    let bound = Store.tail_mass st k in
    if bound < Rational.to_float suffix.(k) then
      Alcotest.failf "tail %d not an upper bound" k;
    if k < n && Store.tail_mass st (k + 1) > bound then
      Alcotest.failf "sidecar not antitone at %d" k
  done;
  (* truncate ~n decodes exactly the prefix of the stored order. *)
  let tbl = Store.truncate st ~n:10 in
  Alcotest.(check int) "prefix size" 10 (Ti_table.size tbl);
  List.iteri
    (fun k (f, p) ->
      if k < 10 && not (Rational.equal p (Ti_table.prob tbl f)) then
        Alcotest.failf "prefix fact %d missing" k)
    sorted;
  (* The truncation search over the pack's source agrees with the naive
     least-n scan. *)
  let src = Store.fact_source st in
  List.iter
    (fun eps ->
      let m =
        match Fact_source.search (Fact_source.tail_mass src) eps with
        | Found (m, _) -> m
        | Too_slow _ | Silent _ -> Alcotest.failf "no n at %g" eps
      in
      let naive = ref 0 in
      while Store.tail_mass st !naive > eps do incr naive done;
      Alcotest.(check int) (Printf.sprintf "least n at %g" eps) !naive m)
    [ 1.0; 0.5; 0.1; 0.01; 1e-6; 0.0 ]

let test_fact_source_view () =
  let ti =
    Ti_table.create (List.init 20 (fun j -> (fact "R" [ j ], q 1 (j + 2))))
  in
  with_pack_ti ti @@ fun _path st ->
  let s = Store.fact_source st in
  (* O(1) certificate: Countable_ti.create certifies without decoding. *)
  let before = Stats.count (Stats.counter "store.fact.decode") in
  let cti = Countable_ti.create s in
  let after = Stats.count (Stats.counter "store.fact.decode") in
  Alcotest.(check int) "no decode at create" before after;
  (match Fact_source.search (Fact_source.tail_mass s) 0.2 with
  | Found (n, _) ->
    let tbl = Countable_ti.truncate cti ~n in
    List.iter
      (fun (f, p) ->
        if not (Rational.equal p (Ti_table.prob ti f)) then
          Alcotest.failf "store-backed prefix disagrees on %s"
            (Fact.to_string f))
      (Ti_table.facts tbl)
  | Too_slow _ | Silent _ -> Alcotest.fail "no truncation found");
  (* With a completion tail appended, the combined certificate is the
     pack tail plus the rest tail. *)
  let restq =
    Fact_source.geometric ~first:Rational.half ~ratio:Rational.half
      ~facts:(fun j -> Fact.make "N" [ i j ])
      ()
  in
  let s2 = Store.fact_source ~rest:restq st in
  (match Fact_source.tail_mass s2 0 with
  | Some t0 -> Alcotest.(check bool) "tail covers both" true (t0 > 1.0)
  | None -> Alcotest.fail "combined tail must certify");
  ignore (Countable_ti.create s2);
  match Fact_source.search (Fact_source.tail_mass s2) 0.01 with
  | Found (m, _) ->
    Alcotest.(check bool) "needs completion facts" true (m > 20)
  | Too_slow _ | Silent _ -> Alcotest.fail "combined truncation must exist"

(* Engines answer identically on text-loaded vs pack-loaded tables. *)
let test_engine_equivalence () =
  let ti = mixed_ti in
  let text = Ti_table.to_string ti in
  let reparsed = Ti_table.of_lines (String.split_on_char '\n' text) in
  with_pack_ti ti @@ fun _path st ->
  let packed = Store.to_ti_table st in
  let phi = Fo_parse.parse_exn "exists x. R(x)" in
  let p1 = Query_eval.boolean reparsed phi
  and p2 = Query_eval.boolean packed phi in
  if not (Rational.equal p1 p2) then
    Alcotest.failf "engine mismatch: %s vs %s" (Rational.to_string p1)
      (Rational.to_string p2)

(* The checksum property: flipping ANY single byte of the pack must
   produce a structured Errors.Store rejection. *)
let test_every_single_byte_corruption_rejected () =
  let ti =
    Ti_table.create
      [
        (fact "R" [ 1 ], q 1 2);
        (Fact.make "S" [ Value.Str "x" ], q 1 3);
        (fact "R" [ 2 ], q 2 5);
      ]
  in
  let path = tmp_pack () in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Store.write_ti ~path ti;
      let ic = open_in_bin path in
      let len = in_channel_length ic in
      let orig = really_input_string ic len in
      close_in ic;
      let corrupt = tmp_pack () in
      Fun.protect
        ~finally:(fun () -> try Sys.remove corrupt with Sys_error _ -> ())
        (fun () ->
          for pos = 0 to len - 1 do
            let b = Bytes.of_string orig in
            Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor 0x41));
            let oc = open_out_bin corrupt in
            output_bytes oc b;
            close_out oc;
            match load_result corrupt with
            | Error (Errors.Store { path = p; region; _ }) ->
              Alcotest.(check string) "error cites the file" corrupt p;
              Alcotest.(check bool)
                (Printf.sprintf "region named at byte %d" pos)
                true (region <> "")
            | Error e ->
              Alcotest.failf "byte %d: wrong error class %s" pos
                (Errors.to_string e)
            | Ok _ -> Alcotest.failf "byte %d: corrupted pack loaded" pos
          done))

let test_truncated_and_garbage_rejected () =
  let path = tmp_pack () in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Store.write_ti ~path mixed_ti;
      let ic = open_in_bin path in
      let len = in_channel_length ic in
      let orig = really_input_string ic len in
      close_in ic;
      (* Truncated at every interesting boundary. *)
      List.iter
        (fun keep ->
          let oc = open_out_bin path in
          output_string oc (String.sub orig 0 keep);
          close_out oc;
          match load_result path with
          | Error (Errors.Store _) -> ()
          | Error e ->
            Alcotest.failf "truncated@%d: wrong class %s" keep
              (Errors.to_string e)
          | Ok _ -> Alcotest.failf "truncated@%d loaded" keep)
        [ 0; 7; 143; 144; len / 2; len - 1 ];
      (* A missing file is a structured rejection too. *)
      (match load_result (path ^ ".does-not-exist") with
      | Error (Errors.Store { region = "open"; _ }) -> ()
      | Error e -> Alcotest.failf "missing file: %s" (Errors.to_string e)
      | Ok _ -> Alcotest.fail "missing file loaded");
      (* Exit-code contract: store errors are user errors. *)
      Alcotest.(check int) "exit code" 2
        (Errors.exit_code
           (Errors.Store { path; region = "checksum"; msg = "" })))

(* test/fixtures/bid_v1.iow is a block-independent-disjoint pack as
   older writers produced it (kind 1, two blocks: [b1: R(1) 1/2 |
   R(2) 1/3] and [b2: S(1) 1/4]).  Nothing reads blocks, so it must be
   a header rejection naming the kind, never a TI enumeration. *)
let test_old_bid_pack_rejected () =
  match Store.load "fixtures/bid_v1.iow" with
  | _ -> Alcotest.fail "old BID pack loaded"
  | exception Errors.Error (Errors.Store { region; msg; _ }) ->
    Alcotest.(check string) "region" "header" region;
    Alcotest.(check string) "message" "unknown kind 1" msg

(* test/fixtures/mixed.ti packed by an earlier writer: the on-disk
   format is unchanged, so existing packs and the warm caches keyed by
   their checksums stay valid. *)
let test_pack_bytes_unchanged () =
  let path = tmp_pack () in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
  @@ fun () ->
  Store.write_ti ~path (Ti_table.of_file "fixtures/mixed.ti");
  let read p = In_channel.with_open_bin p In_channel.input_all in
  Alcotest.(check bool) "byte-identical" true
    (String.equal (read "fixtures/mixed_v1.iow") (read path))

let test_failed_write_keeps_old_pack () =
  let ti k = Ti_table.create (List.init k (fun j -> (fact "R" [ j ], q 1 (j + 2)))) in
  let path = tmp_pack () in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
  @@ fun () ->
  Store.write_ti ~path (ti 3);
  Helpers.check_failed_write path ~write:(fun () -> Store.write_ti ~path (ti 5));
  check_ti_equal "old pack loads" (ti 3) (Store.truncate (Store.load path) ~n:3)

let () =
  Alcotest.run "store"
    [
      ( "roundtrip",
        [
          Alcotest.test_case "small mixed TI" `Quick test_roundtrip_small;
          Alcotest.test_case "empty table" `Quick test_roundtrip_empty;
          Alcotest.test_case "generated tables" `Quick
            test_roundtrip_generated;
          Alcotest.test_case "engine equivalence" `Quick
            test_engine_equivalence;
          Alcotest.test_case "pack bytes unchanged" `Quick
            test_pack_bytes_unchanged;
        ] );
      ( "truncation",
        [
          Alcotest.test_case "sidecar sound + binary search" `Quick
            test_truncation_and_sidecar;
          Alcotest.test_case "lazy fact source" `Quick test_fact_source_view;
        ] );
      ( "rejection",
        [
          Alcotest.test_case "every single-byte corruption" `Slow
            test_every_single_byte_corruption_rejected;
          Alcotest.test_case "truncation, garbage, missing" `Quick
            test_truncated_and_garbage_rejected;
          Alcotest.test_case "old BID pack" `Quick test_old_bid_pack_rejected;
        ] );
      ( "durability",
        [
          Alcotest.test_case "failed write keeps the old pack" `Quick
            test_failed_write_keeps_old_pack;
        ] );
    ]
