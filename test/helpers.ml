(* Helpers shared by the test suites. *)

(* Substring search, for asserting on error messages. *)
let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

(* [check_failed_write ~write path] checks that [write ()], which replaces
   [path] (an existing regular file) through [path ^ ".tmp"], fails
   cleanly when the disk is full: the temporary file is made a link to
   /dev/full, so the write raises, [path] keeps its old bytes and no
   temporary file is left behind. *)
let check_failed_write ~write path =
  let read () = In_channel.with_open_bin path In_channel.input_all in
  let before = read () and tmp = path ^ ".tmp" in
  Fun.protect ~finally:(fun () -> try Sys.remove tmp with Sys_error _ -> ())
  @@ fun () ->
  Unix.symlink "/dev/full" tmp;
  (match write () with
  | () -> Alcotest.fail "a write to a full disk must raise"
  | exception Sys_error _ -> ());
  Alcotest.(check bool)
    "old file is still a regular file" true
    ((Unix.lstat path).st_kind = Unix.S_REG);
  Alcotest.(check bool) "old bytes kept" true (read () = before);
  Alcotest.(check bool) "no .tmp left" false (Sys.file_exists tmp)
