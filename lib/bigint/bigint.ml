(* Arbitrary-precision integers.

   Representation: a sign in {-1, 0, 1} and a little-endian magnitude in
   base 2^30 with no leading zero limb.  The magnitude is empty exactly
   when the sign is 0.  All limb products fit in a 63-bit native int
   (30 + 30 = 60 bits), which is what makes the schoolbook and Knuth-D
   inner loops overflow-free. *)

type t = { sign : int; mag : int array }

let base_bits = 30
let base = 1 lsl base_bits
let mask = base - 1

(* ------------------------------------------------------------------ *)
(* Magnitude helpers (arrays of limbs, little-endian, may carry leading
   zeros only transiently inside an operation).                         *)
(* ------------------------------------------------------------------ *)

let mag_normalize a =
  let n = ref (Array.length a) in
  while !n > 0 && a.(!n - 1) = 0 do decr n done;
  if !n = Array.length a then a else Array.sub a 0 !n

let mag_compare a b =
  let la = Array.length a and lb = Array.length b in
  if la <> lb then compare la lb
  else begin
    let rec go i = if i < 0 then 0
      else if a.(i) <> b.(i) then compare a.(i) b.(i)
      else go (i - 1)
    in
    go (la - 1)
  end

let mag_add a b =
  let la = Array.length a and lb = Array.length b in
  let lr = (if la > lb then la else lb) + 1 in
  let r = Array.make lr 0 in
  let carry = ref 0 in
  for i = 0 to lr - 1 do
    let s =
      (if i < la then a.(i) else 0) + (if i < lb then b.(i) else 0) + !carry
    in
    r.(i) <- s land mask;
    carry := s lsr base_bits
  done;
  mag_normalize r

(* Requires a >= b. *)
let mag_sub a b =
  let la = Array.length a and lb = Array.length b in
  let r = Array.make la 0 in
  let borrow = ref 0 in
  for i = 0 to la - 1 do
    let s = a.(i) - (if i < lb then b.(i) else 0) - !borrow in
    if s < 0 then begin r.(i) <- s + base; borrow := 1 end
    else begin r.(i) <- s; borrow := 0 end
  done;
  assert (!borrow = 0);
  mag_normalize r

let mag_mul_school a b =
  let la = Array.length a and lb = Array.length b in
  if la = 0 || lb = 0 then [||]
  else begin
    let r = Array.make (la + lb) 0 in
    for i = 0 to la - 1 do
      let ai = a.(i) in
      if ai <> 0 then begin
        let carry = ref 0 in
        for j = 0 to lb - 1 do
          let p = (ai * b.(j)) + r.(i + j) + !carry in
          r.(i + j) <- p land mask;
          carry := p lsr base_bits
        done;
        (* Propagate the final carry; it can ripple at most once into a
           limb that is still below base. *)
        let k = ref (i + lb) in
        while !carry <> 0 do
          let s = r.(!k) + !carry in
          r.(!k) <- s land mask;
          carry := s lsr base_bits;
          incr k
        done
      end
    done;
    mag_normalize r
  end

(* [a * k] for one limb [0 < k < base]: a limb product plus carry fits
   in 61 bits.  The result has a top limb iff the carry out of the old
   top limb is nonzero; that is certain when [top * k >= base] and
   impossible when [(top + 1) * k <= base]. *)
let mag_mul_limb a k =
  let la = Array.length a in
  let top = a.(la - 1) in
  let r = Array.make (if (top + 1) * k <= base then la else la + 1) 0 in
  let carry = ref 0 in
  for i = 0 to la - 1 do
    let p = (a.(i) * k) + !carry in
    r.(i) <- p land mask;
    carry := p lsr base_bits
  done;
  if !carry <> 0 then r.(la) <- !carry;
  mag_normalize r

let karatsuba_threshold = 32

(* Split [a] at limb [k] into (low, high). *)
let mag_split a k =
  let la = Array.length a in
  if la <= k then (a, [||])
  else (mag_normalize (Array.sub a 0 k), Array.sub a k (la - k))

let rec mag_mul a b =
  let la = Array.length a and lb = Array.length b in
  if la < karatsuba_threshold || lb < karatsuba_threshold then
    mag_mul_school a b
  else begin
    let k = (Stdlib.max la lb + 1) / 2 in
    let a0, a1 = mag_split a k and b0, b1 = mag_split b k in
    let z0 = mag_mul a0 b0 in
    let z2 = mag_mul a1 b1 in
    let z1 = mag_mul (mag_add a0 a1) (mag_add b0 b1) in
    let z1 = mag_sub (mag_sub z1 z0) z2 in
    let shift m s =
      let lm = Array.length m in
      if lm = 0 then [||]
      else begin
        let r = Array.make (lm + s) 0 in
        Array.blit m 0 r s lm; r
      end
    in
    mag_add z0 (mag_add (shift z1 k) (shift z2 (2 * k)))
  end

(* Shift a magnitude left by [s] bits, 0 <= s < base_bits. *)
let mag_shift_left_small a s =
  if s = 0 then Array.copy a
  else begin
    let la = Array.length a in
    let r = Array.make (la + 1) 0 in
    let carry = ref 0 in
    for i = 0 to la - 1 do
      let v = (a.(i) lsl s) lor !carry in
      r.(i) <- v land mask;
      carry := v lsr base_bits
    done;
    r.(la) <- !carry;
    mag_normalize r
  end

let mag_shift_right_small a s =
  if s = 0 then Array.copy a
  else begin
    let la = Array.length a in
    let r = Array.make la 0 in
    let carry = ref 0 in
    for i = la - 1 downto 0 do
      r.(i) <- (a.(i) lsr s) lor (!carry lsl (base_bits - s));
      carry := a.(i) land ((1 lsl s) - 1)
    done;
    mag_normalize r
  end

(* Division of a magnitude by a single positive limb. *)
let mag_divmod_limb a d =
  let la = Array.length a in
  let q = Array.make la 0 in
  let r = ref 0 in
  for i = la - 1 downto 0 do
    let cur = (!r lsl base_bits) lor a.(i) in
    q.(i) <- cur / d;
    r := cur mod d
  done;
  (mag_normalize q, !r)

(* Knuth algorithm D.  Requires Array.length v >= 2 and u >= v. *)
let mag_divmod_knuth u v =
  let n = Array.length v in
  let m = Array.length u - n in
  (* Normalize so the top limb of v has its high bit set. *)
  let s =
    let top = v.(n - 1) in
    let rec go s = if top lsl s land (base lsr 1) <> 0 then s else go (s + 1) in
    go 0
  in
  let v' = mag_shift_left_small v s in
  let v' = if Array.length v' < n then Array.append v' [| 0 |] else v' in
  let u' =
    let t = mag_shift_left_small u s in
    let lt = Array.length t in
    if lt < m + n + 1 then Array.append t (Array.make (m + n + 1 - lt) 0)
    else t
  in
  let q = Array.make (m + 1) 0 in
  let vn1 = v'.(n - 1) and vn2 = v'.(n - 2) in
  for j = m downto 0 do
    let num = (u'.(j + n) lsl base_bits) lor u'.(j + n - 1) in
    let qhat = ref (num / vn1) and rhat = ref (num mod vn1) in
    let continue = ref true in
    while !continue do
      if !qhat >= base || !qhat * vn2 > (!rhat lsl base_bits) lor u'.(j + n - 2)
      then begin
        decr qhat;
        rhat := !rhat + vn1;
        if !rhat >= base then continue := false
      end
      else continue := false
    done;
    (* Multiply and subtract: u'[j .. j+n] -= qhat * v'. *)
    let borrow = ref 0 and carry = ref 0 in
    for i = 0 to n - 1 do
      let p = (!qhat * v'.(i)) + !carry in
      carry := p lsr base_bits;
      let sub = u'.(i + j) - (p land mask) - !borrow in
      if sub < 0 then begin u'.(i + j) <- sub + base; borrow := 1 end
      else begin u'.(i + j) <- sub; borrow := 0 end
    done;
    let sub = u'.(j + n) - !carry - !borrow in
    if sub < 0 then begin
      (* qhat was one too large: add v' back.  [sub] can be as low as
         [-(base+1)] (carry can reach [base]), so reduce modulo base via
         a double offset rather than a single one. *)
      u'.(j + n) <- (sub + (base * 2)) land mask;
      decr qhat;
      let c = ref 0 in
      for i = 0 to n - 1 do
        let t = u'.(i + j) + v'.(i) + !c in
        u'.(i + j) <- t land mask;
        c := t lsr base_bits
      done;
      u'.(j + n) <- (u'.(j + n) + !c) land mask
    end
    else u'.(j + n) <- sub;
    q.(j) <- !qhat
  done;
  let r = mag_shift_right_small (mag_normalize (Array.sub u' 0 n)) s in
  (mag_normalize q, r)

let mag_divmod u v =
  if Array.length v = 0 then raise Division_by_zero
  else if mag_compare u v < 0 then ([||], Array.copy u)
  else if Array.length v = 1 then begin
    let q, r = mag_divmod_limb u v.(0) in
    (q, if r = 0 then [||] else [| r |])
  end
  else mag_divmod_knuth u v

(* ------------------------------------------------------------------ *)
(* Signed interface                                                     *)
(* ------------------------------------------------------------------ *)

let mk sign mag =
  let mag = mag_normalize mag in
  if Array.length mag = 0 then { sign = 0; mag = [||] } else { sign; mag }

let zero = { sign = 0; mag = [||] }
let one = { sign = 1; mag = [| 1 |] }
let two = { sign = 1; mag = [| 2 |] }

let of_int n =
  if n = 0 then zero
  else if n > -base && n < base then
    { sign = (if n < 0 then -1 else 1); mag = [| Stdlib.abs n |] }
  else begin
    let sign = if n < 0 then -1 else 1 in
    (* min_int has no positive counterpart; go through a buffer limb by
       limb using negative absolute values to stay representable. *)
    let rec limbs acc n =
      if n = 0 then acc else limbs ((-(n mod base)) :: acc) (n / base)
    in
    let l = List.rev (limbs [] (if n < 0 then n else -n)) in
    mk sign (Array.of_list l)
  end

let sign x = x.sign
let is_zero x = x.sign = 0
let is_negative x = x.sign < 0
let is_one x = x.sign = 1 && Array.length x.mag = 1 && x.mag.(0) = 1
let is_even x = x.sign = 0 || x.mag.(0) land 1 = 0

let equal a b = a.sign = b.sign && mag_compare a.mag b.mag = 0

let compare a b =
  if a.sign <> b.sign then compare a.sign b.sign
  else if a.sign >= 0 then mag_compare a.mag b.mag
  else mag_compare b.mag a.mag

let bit_length v =
  let rec bits b v = if v = 0 then b else bits (b + 1) (v lsr 1) in
  bits 0 v

let num_bits x =
  let n = Array.length x.mag in
  if n = 0 then 0 else (base_bits * (n - 1)) + bit_length x.mag.(n - 1)

let fits_int x = num_bits x <= 62

let to_int_opt x =
  if not (fits_int x) then None
  else begin
    let v = Array.fold_right (fun limb acc -> (acc lsl base_bits) lor limb) x.mag 0 in
    Some (if x.sign < 0 then -v else v)
  end

let to_int x =
  match to_int_opt x with
  | Some v -> v
  | None -> failwith "Bigint.to_int: value does not fit in a native int"

let to_float x =
  let m =
    Array.fold_right
      (fun limb acc -> (acc *. float_of_int base) +. float_of_int limb)
      x.mag 0.0
  in
  if x.sign < 0 then -.m else m

let neg x = if x.sign = 0 then x else { x with sign = -x.sign }
let abs x = if x.sign < 0 then { x with sign = 1 } else x

let add a b =
  if a.sign = 0 then b
  else if b.sign = 0 then a
  else if a.sign = b.sign then mk a.sign (mag_add a.mag b.mag)
  else begin
    let c = mag_compare a.mag b.mag in
    if c = 0 then zero
    else if c > 0 then mk a.sign (mag_sub a.mag b.mag)
    else mk b.sign (mag_sub b.mag a.mag)
  end

let sub a b = add a (neg b)
let succ x = add x one
let pred x = sub x one

let mul a b =
  if a.sign = 0 || b.sign = 0 then zero
  else mk (a.sign * b.sign) (mag_mul a.mag b.mag)

(* [mul_int] with a one-limb operand ([|n| < base]) runs one pass over
   the magnitude; wider operands go through [of_int]. *)
let mul_int a n =
  if a.sign = 0 || n = 0 then zero
  else if n > -base && n < base then
    { sign = (if n < 0 then -a.sign else a.sign);
      mag = mag_mul_limb a.mag (Stdlib.abs n) }
  else mul a (of_int n)

let divmod a b =
  if b.sign = 0 then raise Division_by_zero
  else begin
    let qm, rm = mag_divmod a.mag b.mag in
    let q = mk (a.sign * b.sign) qm in
    let r = mk a.sign rm in
    (q, r)
  end

let div a b = fst (divmod a b)

let ediv_rem a b =
  let q, r = divmod a b in
  if r.sign >= 0 then (q, r)
  else if b.sign > 0 then (pred q, add r b)
  else (succ q, sub r b)

(* [a * u + b * v] over the first [n] limbs, for cofactors below 2^31
   in magnitude and a result known to be nonnegative and below base^n.
   A limb of the sum can be negative, so the carry is its floor
   quotient by the base ([asr]); the two products and the carry stay
   below 2^62 in magnitude. *)
let mag_lincomb a u b v n =
  let lv = Array.length v in
  let r = Array.make n 0 in
  let carry = ref 0 in
  for i = 0 to n - 1 do
    let s = (a * u.(i)) + (if i < lv then b * v.(i) else 0) + !carry in
    r.(i) <- s land mask;
    carry := s asr base_bits
  done;
  mag_normalize r

let rec int_gcd a b = if b = 0 then a else int_gcd b (a mod b)

(* Lehmer's gcd: Knuth, TAOCP vol. 2, 4.5.2, Algorithm L.  [uh] is the
   top 30 bits of u and [vh] those of v at the same shift; Euclid runs
   on them while both quotient tests agree, that is while the quotient
   is the one the full operands would give.  The cofactors A..D then
   replay those steps on u and v in one [mag_lincomb] pass each; if no
   step was certain ([b = 0]) one full division step runs instead.
   Once u fits two limbs the rest is a native-int Euclid. *)
let gcd x y =
  let native m =
    match Array.length m with
    | 0 -> 0
    | 1 -> m.(0)
    | _ -> m.(0) lor (m.(1) lsl base_bits)
  in
  let rec go u v =
    let n = Array.length u in
    if n <= 2 then of_int (int_gcd (native u) (native v))
    else if Array.length v = 0 then { sign = 1; mag = u }
    else begin
      let k = bit_length u.(n - 1) in
      let limb w i = if i < Array.length w then w.(i) else 0 in
      let lead w =
        (limb w (n - 1) lsl (base_bits - k)) lor (limb w (n - 2) lsr k)
      in
      let uh = ref (lead u) and vh = ref (lead v) in
      let a = ref 1 and b = ref 0 and c = ref 0 and d = ref 1 in
      let continue = ref true in
      while !continue do
        if !vh + !c = 0 || !vh + !d = 0 then continue := false
        else begin
          let q = (!uh + !a) / (!vh + !c) in
          if q <> (!uh + !b) / (!vh + !d) then continue := false
          else begin
            let t = !a - (q * !c) in
            a := !c;
            c := t;
            let t = !b - (q * !d) in
            b := !d;
            d := t;
            let t = !uh - (q * !vh) in
            uh := !vh;
            vh := t
          end
        end
      done;
      if !b = 0 then go v (snd (mag_divmod u v))
      else go (mag_lincomb !a u !b v n) (mag_lincomb !c u !d v n)
    end
  in
  if mag_compare x.mag y.mag >= 0 then go x.mag y.mag else go y.mag x.mag

let pow x k =
  if k < 0 then invalid_arg "Bigint.pow: negative exponent"
  else begin
    let rec go acc base k =
      if k = 0 then acc
      else begin
        let acc = if k land 1 = 1 then mul acc base else acc in
        go acc (mul base base) (k lsr 1)
      end
    in
    go one x k
  end

let shift_left x s =
  if s < 0 then invalid_arg "Bigint.shift_left"
  else if x.sign = 0 || s = 0 then x
  else begin
    let limb_shift = s / base_bits and bit_shift = s mod base_bits in
    let m = mag_shift_left_small x.mag bit_shift in
    let m =
      if limb_shift = 0 then m
      else Array.append (Array.make limb_shift 0) m
    in
    mk x.sign m
  end

let min a b = if compare a b <= 0 then a else b
let max a b = if compare a b >= 0 then a else b

(* ------------------------------------------------------------------ *)
(* Decimal I/O                                                          *)
(* ------------------------------------------------------------------ *)

let chunk_base = 1_000_000_000 (* 10^9 < 2^30: a valid single limb divisor *)
let chunk_digits = 9

let to_string x =
  if x.sign = 0 then "0"
  else begin
    let buf = Buffer.create 32 in
    let rec go m acc =
      if Array.length m = 0 then acc
      else begin
        let q, r = mag_divmod_limb m chunk_base in
        go q (r :: acc)
      end
    in
    let chunks = go x.mag [] in
    if x.sign < 0 then Buffer.add_char buf '-';
    (match chunks with
     | [] -> Buffer.add_char buf '0'
     | first :: rest ->
       Buffer.add_string buf (string_of_int first);
       List.iter (fun c -> Buffer.add_string buf (Printf.sprintf "%09d" c)) rest);
    Buffer.contents buf
  end

let of_string_opt s =
  let n = String.length s in
  if n = 0 then None
  else begin
    let sign, start =
      match s.[0] with '-' -> (-1, 1) | '+' -> (1, 1) | _ -> (1, 0)
    in
    if start >= n then None
    else begin
      let acc = ref zero and cur = ref 0 and ndig = ref 0 and ok = ref true in
      let flush () =
        if !ndig > 0 then begin
          let scale = of_int (int_of_float (10.0 ** float_of_int !ndig)) in
          acc := add (mul !acc scale) (of_int !cur);
          cur := 0;
          ndig := 0
        end
      in
      String.iteri
        (fun i c ->
          if i >= start && !ok then
            match c with
            | '0' .. '9' ->
              cur := (!cur * 10) + (Char.code c - Char.code '0');
              incr ndig;
              if !ndig = chunk_digits then flush ()
            | '_' -> ()
            | _ -> ok := false)
        s;
      flush ();
      if (not !ok) || (n - start = 0) then None
      else begin
        (* Reject strings that were only underscores. *)
        let has_digit = ref false in
        String.iter (fun c -> if c >= '0' && c <= '9' then has_digit := true) s;
        if not !has_digit then None
        else Some (if sign < 0 then neg !acc else !acc)
      end
    end
  end

(* Little-endian magnitude bytes for the persistent store.  A base-2^30
   limb stream is re-chunked into bytes through a small bit
   accumulator; [bits] never exceeds 37 (30 new + at most 7 pending), so
   the accumulator stays well inside a native int. *)
let to_bytes_le x =
  if x.sign < 0 then invalid_arg "Bigint.to_bytes_le: negative value";
  let buf = Buffer.create (4 * Array.length x.mag) in
  let acc = ref 0 and bits = ref 0 in
  Array.iter
    (fun limb ->
      acc := !acc lor (limb lsl !bits);
      bits := !bits + base_bits;
      while !bits >= 8 do
        Buffer.add_char buf (Char.chr (!acc land 0xff));
        acc := !acc lsr 8;
        bits := !bits - 8
      done)
    x.mag;
  while !bits > 0 do
    Buffer.add_char buf (Char.chr (!acc land 0xff));
    acc := !acc lsr 8;
    bits := !bits - 8
  done;
  (* Canonical form: no trailing zero bytes, so equal values have equal
     encodings (the store's checksum relies on this). *)
  let s = Buffer.contents buf in
  let n = ref (String.length s) in
  while !n > 0 && s.[!n - 1] = '\000' do decr n done;
  String.sub s 0 !n

let of_bytes_le s =
  let limbs = ref [] and acc = ref 0 and bits = ref 0 in
  String.iter
    (fun c ->
      acc := !acc lor (Char.code c lsl !bits);
      bits := !bits + 8;
      if !bits >= base_bits then begin
        limbs := (!acc land mask) :: !limbs;
        acc := !acc lsr base_bits;
        bits := !bits - base_bits
      end)
    s;
  if !bits > 0 then limbs := !acc :: !limbs;
  mk 1 (mag_normalize (Array.of_list (List.rev !limbs)))

