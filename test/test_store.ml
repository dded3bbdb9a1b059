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
  Alcotest.(check int) "table" 0
    (Ti_table.size (Fact_source.truncate (Store.fact_source st) 0))

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
  (* A truncation at n holds exactly the prefix of the stored order. *)
  let tbl = Fact_source.truncate (Store.fact_source st) 10 in
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
  check_ti_equal "old pack loads" (ti 3)
    (Fact_source.truncate (Store.fact_source (Store.load path)) 3)

(* ------------------------------------------------------------------ *)
(* The shared prefix *)
(* ------------------------------------------------------------------ *)

let decodes () = Stats.count (Stats.counter "store.fact.decode")

(* The pack order: descending probability, ties by fact. *)
let pack_order ti =
  List.sort
    (fun (f1, p1) (f2, p2) ->
      let c = Rational.compare p2 p1 in
      if c <> 0 then c else Fact.compare f1 f2)
    (Ti_table.facts ti)

let shuffled seed n =
  let a = Array.init n Fun.id and g = Prng.create ~seed () in
  for i = n - 1 downto 1 do
    let j = Prng.int g (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done;
  a

let ties_ti =
  Ti_table.create
    (List.init 40 (fun j -> (fact "R" [ j ], q 1 (2 + (j / 3)))))

let test_prefix_every_n_shuffled () =
  with_pack_ti ties_ti @@ fun _path st ->
  let order = Array.of_list (pack_order ties_ti) in
  let size = Store.size st in
  let want n = Ti_table.create (Array.to_list (Array.sub order 0 n)) in
  let pass seed =
    Array.iter
      (fun n ->
        check_ti_equal (Printf.sprintf "n = %d" n) (want n)
          (Fact_source.truncate (Store.fact_source st) n))
      (shuffled seed (size + 1))
  in
  let d0 = decodes () in
  pass 1;
  Alcotest.(check int) "each fact decoded once" size (decodes () - d0);
  let d1 = decodes () in
  pass 2;
  check_ti_equal "whole pack" ties_ti (Store.to_ti_table st);
  Alcotest.(check int) "a second pass decodes nothing" 0 (decodes () - d1)

let test_prefix_two_domains () =
  with_pack_ti ties_ti @@ fun _path st ->
  let order = Array.of_list (pack_order ties_ti) in
  let size = Store.size st in
  (* One domain climbs the even lengths while the other descends the
     odd ones, each through its own source over the one pack. *)
  let asks parity =
    List.filter (fun n -> n mod 2 = parity) (List.init (size + 1) Fun.id)
  in
  let truncate n = (n, Fact_source.truncate (Store.fact_source st) n) in
  let run ns = Domain.spawn (fun () -> List.map truncate ns) in
  let d0 = decodes () in
  let a = run (asks 0) and b = run (List.rev (asks 1)) in
  List.iter
    (fun (n, tbl) ->
      check_ti_equal (Printf.sprintf "n = %d" n)
        (Ti_table.create (Array.to_list (Array.sub order 0 n)))
        tbl)
    (Domain.join a @ Domain.join b);
  Alcotest.(check int) "each fact decoded once" size (decodes () - d0)

(* The per-entry pull the table hook stands in for: the same entries and
   certificate, through a source with no hook. *)
let pulled src =
  Fact_source.make ~name:(Fact_source.name src) ~enum:(Fact_source.seq_of src)
    ~tail:(Fact_source.tail_mass src) ()

let test_prefix_budget_charges () =
  let decay =
    Ti_table.create
      (List.init 40 (fun j ->
           (fact "R" [ j ], Rational.(mul half (pow (q 3 4) j)))))
  in
  with_pack_ti decay @@ fun _path st ->
  let phi = Fo_parse.parse_exn "exists x. R(x) & x > 4" in
  let eps = 0.05 in
  let n =
    match Approx_eval.truncation_r (Store.fact_source st) ~eps with
    | Ok (n, _) -> n
    | Error e -> Alcotest.failf "truncation: %s" (Errors.to_string e)
  in
  Alcotest.(check bool) "a proper prefix" true (n > 1 && n < Store.size st);
  let run cap src =
    let b = Budget.create ~max_facts:cap () in
    let r = Approx_eval.boolean_r ~budget:b src ~eps phi in
    (r, Budget.spent b Budget.Facts)
  in
  let iv x = Printf.sprintf "[%h, %h]" (Interval.lo x) (Interval.hi x) in
  let outcome = function
    | Ok r, spent ->
      Printf.sprintf "ok %s, %d facts" (iv r.Approx_eval.bounds) spent
    | Error (Errors.Budget_exhausted { exhaustion; partial; _ }), spent ->
      Printf.sprintf "exhausted (%s) %s, %d facts"
        (Budget.exhaustion_to_string exhaustion)
        (match partial with Some x -> iv x | None -> "-")
        spent
    | Error e, _ -> Errors.to_string e
  in
  List.iter
    (fun cap ->
      let shared = outcome (run cap (Store.fact_source st))
      and pull = outcome (run cap (pulled (Store.fact_source st))) in
      Alcotest.(check string)
        (Printf.sprintf "cap %d as the pull" cap)
        pull shared)
    [ n - 1; n; n + 1 ];
  (match run (n - 1) (Store.fact_source st) with
  | ( Error
        (Errors.Budget_exhausted
           { exhaustion = Budget.Cap Budget.Facts; partial = Some _; _ }),
      _ ) ->
    ()
  | r -> Alcotest.failf "cap n - 1: %s" (outcome r));
  (* The truncation itself: a cap of n admits it, n - 1 does not. *)
  let truncate cap =
    let b = Budget.create ~max_facts:cap () in
    Fact_source.truncate (Fact_source.with_budget b (Store.fact_source st)) n
  in
  Alcotest.(check int) "cap n passes" n (Ti_table.size (truncate n));
  Alcotest.check_raises "cap n - 1 raises"
    (Budget.Exhausted (Budget.Cap Budget.Facts))
    (fun () -> ignore (truncate (n - 1)));
  (* A wrapper pays for each entry once, however it is reached. *)
  let b = Budget.create () in
  let w = Fact_source.with_budget b (Store.fact_source st) in
  ignore (Fact_source.truncate w n);
  ignore (Fact_source.prefix w n);
  ignore (Fact_source.truncate w (n - 1));
  Alcotest.(check int) "paid once" n (Budget.spent b Budget.Facts);
  ignore (Fact_source.truncate w (Store.size st + 5));
  Alcotest.(check int) "past the end: the pulls and the end" (Store.size st + 1)
    (Budget.spent b Budget.Facts)

(* FNV-1a over the pack as Store checks it: aligned little-endian 4-byte
   chunks, the 8 checksum bytes at offset 24 folded as zero. *)
let pack_checksum b =
  let mask62 = (1 lsl 62) - 1 and prime = 0x100000001B3 in
  let h = ref 0x0BF29CE484222325 and len = Bytes.length b in
  for qi = 0 to (len lsr 2) - 1 do
    let i = qi lsl 2 in
    let c =
      if i = 24 || i = 28 then 0
      else Int32.to_int (Bytes.get_int32_le b i) land 0xFFFF_FFFF
    in
    h := ((!h lxor c) * prime) land mask62
  done;
  for i = (len lsr 2) lsl 2 to len - 1 do
    h := ((!h lxor Char.code (Bytes.get b i)) * prime) land mask62
  done;
  !h

let test_prefix_repeated_fact () =
  (* R(k) sits at pack index k.  Point index 6's fact record at index
     2's: a checksum-valid pack whose enumeration repeats R(2). *)
  let ti k =
    Ti_table.create (List.init k (fun j -> (fact "R" [ j ], q 1 (j + 2))))
  in
  let path = tmp_pack () in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
  @@ fun () ->
  Store.write_ti ~path (ti 10);
  let b =
    Bytes.of_string (In_channel.with_open_bin path In_channel.input_all)
  in
  let offset k = Int64.to_int (Bytes.get_int64_le b 104) + (8 * k) in
  Bytes.set_int64_le b (offset 6) (Bytes.get_int64_le b (offset 2));
  Bytes.set_int64_le b 24 (Int64.of_int (pack_checksum b));
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_bytes oc b);
  let st = Store.load path in
  let want =
    Invalid_argument
      (Printf.sprintf "Fact_source store:%s: duplicate fact R(2)"
         (Filename.basename path))
  in
  let truncate n = Fact_source.truncate (Store.fact_source st) n in
  let raises msg f = Alcotest.check_raises msg want (fun () -> ignore (f ())) in
  check_ti_equal "before the repeat" (ti 6) (truncate 6);
  raises "first truncation past it" (fun () -> truncate 7);
  raises "every later one" (fun () -> truncate 7);
  raises "and further" (fun () -> truncate 10);
  raises "the whole pack" (fun () -> Store.to_ti_table st);
  raises "a pull" (fun () -> Fact_source.prefix (Store.fact_source st) 8);
  check_ti_equal "the good prefix still serves" (ti 5) (truncate 5)

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
      ( "shared prefix",
        [
          Alcotest.test_case "every n, shuffled, decoded once" `Quick
            test_prefix_every_n_shuffled;
          Alcotest.test_case "two domains" `Quick test_prefix_two_domains;
          Alcotest.test_case "budget charges as the pull" `Quick
            test_prefix_budget_charges;
          Alcotest.test_case "repeated fact raises every time" `Quick
            test_prefix_repeated_fact;
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
