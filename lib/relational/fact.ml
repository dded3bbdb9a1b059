type t = { rel : string; args : Value.t array }

let make_arr rel args =
  if rel = "" then invalid_arg "Fact.make: empty relation name";
  { rel; args }

let make rel args = make_arr rel (Array.of_list args)

let conforms schema f =
  match Schema.find schema f.rel with
  | None -> false
  | Some r ->
    Array.length f.args = r.Schema.arity
    && (match r.Schema.sorts with
        | None -> true
        | Some ss ->
          let ok = ref true in
          Array.iteri
            (fun i v -> if Value.sort_of v <> ss.(i) then ok := false)
            f.args;
          !ok)

let rel f = f.rel
let args f = Array.to_list f.args
let arity f = Array.length f.args
let arg f i = f.args.(i)

let compare a b =
  let c = String.compare a.rel b.rel in
  if c <> 0 then c
  else begin
    let la = Array.length a.args and lb = Array.length b.args in
    if la <> lb then Stdlib.compare la lb
    else begin
      let rec go i =
        if i = la then 0
        else begin
          let c = Value.compare a.args.(i) b.args.(i) in
          if c <> 0 then c else go (i + 1)
        end
      in
      go 0
    end
  end

let equal a b = compare a b = 0

(* Allocation-free multiplicative-mix fold over the relation name and
   every argument.  [Hashtbl.hash] on an intermediate array would both
   allocate per call and stop after its default 10-element meaningful
   limit, making wide facts differing only in late columns collide
   systematically — the batch evaluator's weight cache keys on this. *)
let hash f =
  let h = ref (Hashtbl.hash f.rel) in
  for i = 0 to Array.length f.args - 1 do
    h := (((!h * 0x9e3779b1) land max_int) lxor Value.hash f.args.(i)) land max_int
  done;
  let h = !h in
  (h lxor (h lsr 15)) land max_int

let to_string f =
  Printf.sprintf "%s(%s)" f.rel
    (String.concat ", " (List.map Value.to_string (args f)))

let of_string s =
  match String.index_opt s '(' with
  | None -> invalid_arg "Fact.of_string: missing '('"
  | Some i ->
    let n = String.length s in
    if s.[n - 1] <> ')' then invalid_arg "Fact.of_string: missing ')'";
    let rel = String.trim (String.sub s 0 i) in
    let body = String.sub s (i + 1) (n - i - 2) in
    let parts =
      if String.trim body = "" then []
      else begin
        (* Split on commas that are not inside string quotes. *)
        let out = ref [] and buf = Buffer.create 16 and in_str = ref false in
        String.iter
          (fun c ->
            match c with
            | '"' ->
              in_str := not !in_str;
              Buffer.add_char buf c
            | ',' when not !in_str ->
              out := Buffer.contents buf :: !out;
              Buffer.clear buf
            | c -> Buffer.add_char buf c)
          body;
        out := Buffer.contents buf :: !out;
        List.rev_map String.trim !out
      end
    in
    make rel (List.map Value.of_string parts)

module Ord = struct
  type nonrec t = t

  let compare = compare
end

module Set = Set.Make (Ord)
module Map = Map.Make (Ord)
