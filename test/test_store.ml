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
  Alcotest.(check bool) "kind" true (Store.kind st = Store.Ti);
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

let test_roundtrip_bid () =
  let bid =
    Bid_table.create
      [
        {
          Bid_table.block_id = "b1";
          alternatives = [ (fact "R" [ 1 ], q 1 2); (fact "R" [ 2 ], q 1 3) ];
        };
        { Bid_table.block_id = "b2"; alternatives = [ (fact "S" [ 1 ], q 1 4) ] };
        { Bid_table.block_id = "empty"; alternatives = [] };
      ]
  in
  let path = tmp_pack () in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Store.write_bid ~path bid;
      let st = Store.load path in
      Alcotest.(check bool) "kind" true (Store.kind st = Store.Bid);
      Alcotest.(check int) "blocks" 3 (Store.num_blocks st);
      (match Store.verify_against_bid st bid with
      | Ok () -> ()
      | Error m -> Alcotest.failf "verify: %s" m);
      let back = Store.to_bid_table st in
      Alcotest.(check int) "facts" (Bid_table.size bid) (Bid_table.size back);
      List.iter
        (fun f ->
          if not (Rational.equal (Bid_table.prob bid f) (Bid_table.prob back f))
          then Alcotest.failf "prob mismatch on %s" (Fact.to_string f))
        (Bid_table.support bid);
      (* Block tail mass: the sidecar at a block's first fact bounds the
         remaining mass, so truncating after block 1 leaves b2's 1/4. *)
      let tr = Store.truncate_blocks st ~n:1 in
      Alcotest.(check int) "truncated blocks" 1 (Bid_table.num_blocks tr))

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
          ti (Store.to_ti_table st));
    let bid = Oracle_gen.bid_table cfg g schema in
    let path = tmp_pack () in
    Fun.protect
      ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
      (fun () ->
        Store.write_bid ~path bid;
        match Store.verify_against_bid (Store.load path) bid with
        | Ok () -> ()
        | Error m -> Alcotest.failf "bid seed %d: %s" seed m)
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
            match Store.load_r corrupt with
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
          match Store.load_r path with
          | Error (Errors.Store _) -> ()
          | Error e ->
            Alcotest.failf "truncated@%d: wrong class %s" keep
              (Errors.to_string e)
          | Ok _ -> Alcotest.failf "truncated@%d loaded" keep)
        [ 0; 7; 143; 144; len / 2; len - 1 ];
      (* A missing file is a structured rejection too. *)
      (match Store.load_r (path ^ ".does-not-exist") with
      | Error (Errors.Store { region = "open"; _ }) -> ()
      | Error e -> Alcotest.failf "missing file: %s" (Errors.to_string e)
      | Ok _ -> Alcotest.fail "missing file loaded");
      (* Exit-code contract: store errors are user errors. *)
      Alcotest.(check int) "exit code" 2
        (Errors.exit_code
           (Errors.Store { path; region = "checksum"; msg = "" })))

let test_wrong_kind_guards () =
  let bid =
    Bid_table.create
      [ { Bid_table.block_id = "b"; alternatives = [ (fact "R" [ 1 ], q 1 2) ] } ]
  in
  let path = tmp_pack () in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Store.write_bid ~path bid;
      let st = Store.load path in
      Alcotest.check_raises "ti op on bid"
        (Invalid_argument
           (Printf.sprintf "Store.truncate: not a TI pack: %s" path))
        (fun () -> ignore (Store.truncate st ~n:1)))

let () =
  Alcotest.run "store"
    [
      ( "roundtrip",
        [
          Alcotest.test_case "small mixed TI" `Quick test_roundtrip_small;
          Alcotest.test_case "empty table" `Quick test_roundtrip_empty;
          Alcotest.test_case "BID blocks" `Quick test_roundtrip_bid;
          Alcotest.test_case "generated tables" `Quick
            test_roundtrip_generated;
          Alcotest.test_case "engine equivalence" `Quick
            test_engine_equivalence;
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
          Alcotest.test_case "kind guards" `Quick test_wrong_kind_guards;
        ] );
    ]
