(* The files a run hands the program, written from {!Gen.inputs}: the
   text table, its pack (serve-open-world and serve-pack boot from it) and the batch
   file.  Everything else reaches the program as request frames. *)

let table_path dir = Filename.concat dir "table.ti"
let pack_path dir = Filename.concat dir "table.iow"
let batches_path dir = Filename.concat dir "batches.fo"

let write_lines path lines =
  let oc = open_out_bin path in
  List.iter (fun l -> output_string oc l; output_char oc '\n') lines;
  close_out oc

(* Returns the paths written, in a fixed order. *)
let write ~dir ~workload (inp : Gen.inputs) =
  write_lines (table_path dir) inp.table;
  match workload with
  | "serve-open-world" | "serve-pack" ->
    Store.write_ti ~path:(pack_path dir) (Ti_table.of_file (table_path dir));
    [ table_path dir; pack_path dir ]
  | "batch-compile" ->
    write_lines (batches_path dir)
      (List.concat_map
         (fun b -> Array.to_list (Array.map (fun q -> q.Gen.text) b) @ [ "" ])
         (Array.to_list inp.batches));
    [ table_path dir; batches_path dir ]
  | _ -> [ table_path dir ]

(* Batches as written by [write]: one member per line, blank-separated. *)
let read_batches path =
  let ic = open_in_bin path in
  let rec go cur acc =
    match input_line ic with
    | "" -> go [] (Array.of_list (List.rev cur) :: acc)
    | l -> go (l :: cur) acc
    | exception End_of_file ->
      close_in ic;
      let acc = if cur = [] then acc else Array.of_list (List.rev cur) :: acc in
      Array.of_list (List.rev acc)
  in
  go [] []
