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

let to_string t =
  "(" ^ String.concat ", " (List.map Value.to_string (Array.to_list t)) ^ ")"

module Ord = struct
  type nonrec t = t

  let compare = compare
end

module Set = Set.Make (Ord)
module Map = Map.Make (Ord)
