let fsync_dir dir =
  let fd = Unix.openfile dir [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0 in
  Fun.protect ~finally:(fun () -> Unix.close fd) (fun () -> Unix.fsync fd)

let write path emit =
  let tmp = path ^ ".tmp" in
  let oc = open_out_bin tmp in
  (try
     emit oc;
     flush oc;
     Unix.fsync (Unix.descr_of_out_channel oc);
     close_out oc;
     Sys.rename tmp path
   with e ->
     let bt = Printexc.get_raw_backtrace () in
     close_out_noerr oc;
     (try Sys.remove tmp with Sys_error _ -> ());
     Printexc.raise_with_backtrace e bt);
  fsync_dir (Filename.dirname path)
