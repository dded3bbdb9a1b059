type relation = {
  rel_name : string;
  arity : int;
  sorts : Value.sort array option;
}

module M = Map.Make (String)

type t = relation M.t

let relation ?sorts name arity =
  if name = "" then invalid_arg "Schema.relation: empty name";
  if arity < 0 then invalid_arg "Schema.relation: negative arity";
  let sorts =
    match sorts with
    | None -> None
    | Some l ->
      if List.length l <> arity then
        invalid_arg "Schema.relation: sorts length mismatch"
      else Some (Array.of_list l)
  in
  { rel_name = name; arity; sorts }

let make rs =
  List.fold_left
    (fun acc r ->
      if M.mem r.rel_name acc then
        invalid_arg (Printf.sprintf "Schema.make: duplicate relation %s" r.rel_name)
      else M.add r.rel_name r acc)
    M.empty rs

let relations t = List.map snd (M.bindings t)
let find t name = M.find_opt name t

