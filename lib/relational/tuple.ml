type t = Value.t array

let compare a b =
  let la = Array.length a and lb = Array.length b in
  if la <> lb then Stdlib.compare la lb
  else begin
    let rec go i =
      if i = la then 0
      else begin
        let c = Value.compare a.(i) b.(i) in
        if c <> 0 then c else go (i + 1)
      end
    in
    go 0
  end

(* Allocation-free multiplicative-mix fold over every element; see the
   matching comment on [Fact.hash] for why [Hashtbl.hash] on an
   intermediate array is wrong for wide tuples. *)
let hash t =
  let h = ref (Array.length t) in
  for i = 0 to Array.length t - 1 do
    h := (((!h * 0x9e3779b1) land max_int) lxor Value.hash t.(i)) land max_int
  done;
  let h = !h in
  (h lxor (h lsr 15)) land max_int

let to_string t =
  "(" ^ String.concat ", " (List.map Value.to_string (Array.to_list t)) ^ ")"

module Ord = struct
  type nonrec t = t

  let compare = compare
end

module Set = Set.Make (Ord)
module Map = Map.Make (Ord)
