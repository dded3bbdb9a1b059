(* The exported-surface check.  Every top-level [val] of a
   [lib/**/*.mli] earns its place in one of three ways:

   - a caller outside its own module in lib/, bin/, bench/, perfbench/
     or examples/;
   - a doc comment line opening with [Paper:], naming the result of the
     paper the val reproduces;
   - a doc comment line opening with [Reference:], saying how tests use
     it as an oracle or observer.

   Callers are found on the parse trees, not by grep: comments and
   strings never count, [module X = Y] aliases resolve to [Y], and a
   bare name counts for every module the file opens ([open], [let open],
   [M.( ... )] or [include]).  Aliases and opens are taken to scope over
   the whole file, which can only over-count callers.

   [surface_debt.txt] lists the vals that still break the rule; a line
   whose val no longer does (deleted, called or tagged) fails the check
   too, so the list only shrinks. *)

let caller_dirs = [ "lib"; "bin"; "bench"; "perfbench"; "examples" ]
let root = ".."

let rec sources dir =
  Sys.readdir dir |> Array.to_list |> List.sort compare
  |> List.concat_map (fun name ->
         let path = Filename.concat dir name in
         if Sys.is_directory path then
           if name.[0] = '.' || name = "_build" then [] else sources path
         else if
           Filename.check_suffix name ".ml" || Filename.check_suffix name ".mli"
         then [ path ]
         else [])

let module_of path =
  String.capitalize_ascii (Filename.remove_extension (Filename.basename path))

let parse parser path =
  let lexbuf =
    Lexing.from_string (In_channel.with_open_bin path In_channel.input_all)
  in
  Location.init lexbuf path;
  parser lexbuf

(* The (module, name) pairs an implementation may refer to. *)
let references path =
  let open Parsetree in
  let aliases = Hashtbl.create 8 and opens = ref [] and idents = ref [] in
  let module_ident (me : module_expr) =
    match me.pmod_desc with
    | Pmod_ident { txt = Longident.Lident m; _ } -> Some m
    | _ -> None
  in
  let opened me = Option.iter (fun m -> opens := m :: !opens) (module_ident me) in
  let alias name me =
    match (name, module_ident me) with
    | Some x, Some m -> Hashtbl.replace aliases x m
    | _ -> ()
  in
  let super = Ast_iterator.default_iterator in
  let iter =
    {
      super with
      expr =
        (fun it e ->
          (match e.pexp_desc with
          | Pexp_ident { txt; _ } -> idents := txt :: !idents
          | Pexp_open (od, _) -> opened od.popen_expr
          | Pexp_letmodule ({ txt; _ }, me, _) -> alias txt me
          | _ -> ());
          super.expr it e);
      structure_item =
        (fun it si ->
          (match si.pstr_desc with
          | Pstr_open od -> opened od.popen_expr
          | Pstr_include incl -> opened incl.pincl_mod
          | Pstr_module mb -> alias mb.pmb_name.txt mb.pmb_expr
          | _ -> ());
          super.structure_item it si);
    }
  in
  iter.structure iter (parse Parse.implementation path);
  let rec resolve m seen =
    match Hashtbl.find_opt aliases m with
    | Some m' when not (List.mem m' seen) -> resolve m' (m :: seen)
    | _ -> m
  in
  List.concat_map
    (function
      | Longident.Ldot (Lident m, v) -> [ (resolve m [], v) ]
      | Lident v -> List.map (fun m -> (resolve m [], v)) !opens
      | _ -> [])
    !idents

let doc_string (a : Parsetree.attribute) =
  match a.attr_payload with
  | PStr
      [
        {
          pstr_desc =
            Pstr_eval
              ({ pexp_desc = Pexp_constant (Pconst_string (s, _, _)); _ }, _);
          _;
        };
      ]
    when a.attr_name.txt = "ocaml.doc" ->
      Some s
  | _ -> None

(* Every top-level val of an interface, with its doc comments. *)
let exported path =
  List.filter_map
    (fun (item : Parsetree.signature_item) ->
      match item.psig_desc with
      | Psig_value vd ->
          Some
            ( vd.pval_name.txt,
              String.concat "\n" (List.filter_map doc_string vd.pval_attributes)
            )
      | _ -> None)
    (parse Parse.interface path)

(* A tag opens a line of the doc comment. *)
let tagged doc =
  List.exists
    (fun line ->
      let line = String.trim line in
      String.starts_with ~prefix:"Paper:" line
      || String.starts_with ~prefix:"Reference:" line)
    (String.split_on_char '\n' doc)

let violations () =
  let files =
    List.concat_map (fun d -> sources (Filename.concat root d)) caller_dirs
  in
  let callers = Hashtbl.create 4096 in
  List.iter
    (fun path ->
      if Filename.check_suffix path ".ml" then
        let self = module_of path in
        List.iter
          (fun (m, v) -> if m <> self then Hashtbl.replace callers (m, v) ())
          (references path))
    files;
  let lib = Filename.concat root "lib" in
  List.concat_map
    (fun path ->
      if not (Filename.check_suffix path ".mli") then []
      else
        let m = module_of path in
        List.filter_map
          (fun (v, doc) ->
            if Hashtbl.mem callers (m, v) || tagged doc then None
            else Some (m ^ "." ^ v))
          (exported path))
    (sources lib)

let debt () =
  In_channel.with_open_text "surface_debt.txt" In_channel.input_all
  |> String.split_on_char '\n' |> List.map String.trim
  |> List.filter (fun l -> l <> "" && l.[0] <> '#')

let test_surface () =
  let bad = violations () and debt = debt () in
  let fresh = List.filter (fun v -> not (List.mem v debt)) bad in
  let stale = List.filter (fun v -> not (List.mem v bad)) debt in
  if fresh <> [] then
    Alcotest.failf
      "%d exported vals have no caller outside their own module in %s and \
       no Paper:/Reference: tag; drop each from its .mli (and delete it if \
       its module does not use it either) or tag it:\n%s"
      (List.length fresh)
      (String.concat ", " caller_dirs)
      (String.concat "\n" fresh);
  if stale <> [] then
    Alcotest.failf
      "%d lines of surface_debt.txt name vals that no longer break the \
       rule; delete those lines:\n%s"
      (List.length stale) (String.concat "\n" stale)

let () =
  Alcotest.run "surface"
    [
      ( "surface",
        [
          Alcotest.test_case "every exported val earns its place" `Quick
            test_surface;
        ] );
    ]
