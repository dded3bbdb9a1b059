type t =
  | Int of int
  | Str of string
  | Real of float
  | Bool of bool

type sort = S_int | S_str | S_real | S_bool

let sort_of = function
  | Int _ -> S_int
  | Str _ -> S_str
  | Real _ -> S_real
  | Bool _ -> S_bool

let sort_rank = function S_int -> 0 | S_str -> 1 | S_real -> 2 | S_bool -> 3

let compare a b =
  match (a, b) with
  | Int x, Int y -> Stdlib.compare x y
  | Str x, Str y -> Stdlib.compare x y
  | Real x, Real y -> Float.compare x y
  | Bool x, Bool y -> Stdlib.compare x y
  | _ -> Stdlib.compare (sort_rank (sort_of a)) (sort_rank (sort_of b))

let equal a b = compare a b = 0
let hash = Hashtbl.hash

let to_string = function
  | Int n -> string_of_int n
  | Str s -> Printf.sprintf "%S" s
  | Real f -> Printf.sprintf "%h" f
  | Bool b -> string_of_bool b

let of_string s =
  let n = String.length s in
  if n = 0 then invalid_arg "Value.of_string: empty"
  else if n >= 2 && s.[0] = '"' && s.[n - 1] = '"' then
    Str (Scanf.sscanf s "%S" Fun.id)
  else if s = "true" then Bool true
  else if s = "false" then Bool false
  else
    match int_of_string_opt s with
    | Some i -> Int i
    | None -> (
        match float_of_string_opt s with
        | Some f when not (Float.is_nan f) -> Real f
        | _ -> invalid_arg (Printf.sprintf "Value.of_string: %S" s))

let enum_strings ?(alphabet = "ab") () =
  let k = String.length alphabet in
  if k = 0 then invalid_arg "Value.enum_strings: empty alphabet";
  (* Bijective base-k numeration: the n-th string (n >= 0) over the
     alphabet in length-lexicographic order. *)
  let nth n =
    let buf = Buffer.create 8 in
    let rec go n =
      if n > 0 then begin
        let n = n - 1 in
        go (n / k);
        Buffer.add_char buf alphabet.[n mod k]
      end
    in
    go n;
    Buffer.contents buf
  in
  Seq.map (fun n -> Str (nth n)) (Seq.ints 0)
