(* Exact rationals in canonical form: positive denominator coprime to the
   numerator; zero is 0/1. *)

module B = Bigint

type t = { n : B.t; d : B.t }

let make n d =
  if B.is_zero d then raise Division_by_zero
  else begin
    let n, d = if B.is_negative d then (B.neg n, B.neg d) else (n, d) in
    if B.is_zero n then { n = B.zero; d = B.one }
    else begin
      let g = B.gcd n d in
      if B.is_one g then { n; d } else { n = B.div n g; d = B.div d g }
    end
  end

let zero = { n = B.zero; d = B.one }
let one = { n = B.one; d = B.one }
let half = { n = B.one; d = B.two }

let of_bigint n = { n; d = B.one }
let of_int i = of_bigint (B.of_int i)
let of_ints a b = make (B.of_int a) (B.of_int b)

let num x = x.n
let den x = x.d

let sign x = B.sign x.n
let is_zero x = B.is_zero x.n
let is_one x = B.is_one x.n && B.is_one x.d

let equal a b = B.equal a.n b.n && B.equal a.d b.d

let compare a b = B.compare (B.mul a.n b.d) (B.mul b.n a.d)

let neg x = { x with n = B.neg x.n }
let abs x = { x with n = B.abs x.n }

let add a b =
  if B.equal a.d b.d then make (B.add a.n b.n) a.d
  else make (B.add (B.mul a.n b.d) (B.mul b.n a.d)) (B.mul a.d b.d)

let sub a b = add a (neg b)

let mul a b = make (B.mul a.n b.n) (B.mul a.d b.d)

let inv x =
  if is_zero x then raise Division_by_zero else make x.d x.n

let div a b = mul a (inv b)

let pow x k =
  if k >= 0 then { n = B.pow x.n k; d = B.pow x.d k }
  else begin
    let y = inv x in
    { n = B.pow y.n (-k); d = B.pow y.d (-k) }
  end

let compl p = sub one p

let sum xs = List.fold_left add zero xs
let product xs = List.fold_left mul one xs

let floor x = fst (B.ediv_rem x.n x.d)

let ceil x =
  let q, r = B.ediv_rem x.n x.d in
  if B.is_zero r then q else B.succ q

let min a b = if compare a b <= 0 then a else b
let max a b = if compare a b >= 0 then a else b

let is_probability x = sign x >= 0 && compare x one <= 0

(* Conversion to float with one rounding.  The shift [s] scales |x| so
   that the integer quotient q = floor(|n| 2^s / d) has 61 or 62 bits (a
   native int) whatever the operands' sizes; a nonzero remainder is
   folded into q's last bit as a sticky bit, eight or nine bits below the
   rounding point, so [float_of_int] rounds q to the double nearest |x|
   2^s.  [ldexp] is exact except on subnormal results, where it rounds
   once more, still within one ulp. *)
let to_float x =
  if is_zero x then 0.0
  else begin
    let n = B.abs x.n in
    let s = 61 - B.num_bits n + B.num_bits x.d in
    let q, r =
      if s >= 0 then B.ediv_rem (B.shift_left n s) x.d
      else B.ediv_rem n (B.shift_left x.d (-s))
    in
    let q = B.to_int q in
    let q = if B.is_zero r then q else q lor 1 in
    let f = ldexp (float_of_int q) (-s) in
    if sign x < 0 then -.f else f
  end

let of_float_exn f =
  match classify_float f with
  | FP_nan | FP_infinite ->
    invalid_arg "Rational.of_float_exn: not finite"
  | FP_zero -> zero
  | FP_normal | FP_subnormal ->
    let m, e = frexp f in
    (* m * 2^53 is integral for any finite float. *)
    let mi = Int64.of_float (ldexp m 53) in
    let n = B.of_int (Int64.to_int mi) in
    let e = e - 53 in
    if e >= 0 then of_bigint (B.shift_left n e)
    else make n (B.shift_left B.one (-e))

let to_string x =
  if B.is_one x.d then B.to_string x.n
  else B.to_string x.n ^ "/" ^ B.to_string x.d

let to_decimal_string ?(digits = 12) x =
  let sgn = if sign x < 0 then "-" else "" in
  let x = abs x in
  let ip = floor x in
  let frac = sub x (of_bigint ip) in
  if is_zero frac then sgn ^ B.to_string ip
  else begin
    let scale = B.pow (B.of_int 10) digits in
    let scaled = floor (mul frac (of_bigint scale)) in
    let s = B.to_string scaled in
    let s = String.make (Stdlib.max 0 (digits - String.length s)) '0' ^ s in
    (* Trim trailing zeros but keep at least one fractional digit. *)
    let last = ref (String.length s) in
    while !last > 1 && s.[!last - 1] = '0' do decr last done;
    sgn ^ B.to_string ip ^ "." ^ String.sub s 0 !last
  end

let of_string_opt s =
  let parse_frac s =
    match String.index_opt s '/' with
    | Some i ->
      let a = String.sub s 0 i in
      let b = String.sub s (i + 1) (String.length s - i - 1) in
      (match (B.of_string_opt a, B.of_string_opt b) with
       | Some a, Some b when not (B.is_zero b) -> Some (make a b)
       | _ -> None)
    | None ->
      (match String.index_opt s '.' with
       | Some i ->
         let ip = String.sub s 0 i in
         let fp = String.sub s (i + 1) (String.length s - i - 1) in
         let neg = String.length ip > 0 && ip.[0] = '-' in
         if String.length fp = 0 then Option.map of_bigint (B.of_string_opt ip)
         else begin
           (* Count real digits of the fractional part (ignoring '_'). *)
           let fdigits = ref 0 and ok = ref true in
           String.iter
             (fun c ->
               match c with
               | '0' .. '9' -> incr fdigits
               | '_' -> ()
               | _ -> ok := false)
             fp;
           let ip = if ip = "" || ip = "-" || ip = "+" then ip ^ "0" else ip in
           match (B.of_string_opt ip, B.of_string_opt fp) with
           | Some i, Some f when !ok && !fdigits > 0 ->
             let scale = B.pow (B.of_int 10) !fdigits in
             let fr = make f scale in
             let iv = of_bigint i in
             Some (if neg then sub iv fr else add iv fr)
           | _ -> None
         end
       | None -> Option.map of_bigint (B.of_string_opt s))
  in
  parse_frac s

let of_string s =
  match of_string_opt s with
  | Some v -> v
  | None -> invalid_arg (Printf.sprintf "Rational.of_string: %S" s)

let ( + ) = add
let ( - ) = sub
let ( * ) = mul
let ( / ) = div
let ( = ) = equal
let ( < ) a b = Stdlib.( < ) (compare a b) 0
let ( <= ) a b = Stdlib.( <= ) (compare a b) 0
let ( > ) a b = Stdlib.( > ) (compare a b) 0
let ( >= ) a b = Stdlib.( >= ) (compare a b) 0

