(* SplitMix64 (Steele, Lea & Flood, OOPSLA'14).  The mixing constants are
   the published ones; the generator passes BigCrush when used as here. *)

type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

let create ?(seed = 0x5DEECE66D) () = { state = Int64.of_int seed }

let copy g = { state = g.state }

let mix64 z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let next_int64 g =
  g.state <- Int64.add g.state golden_gamma;
  mix64 g.state

let split g =
  let s = next_int64 g in
  { state = mix64 s }

let substream g i =
  if i < 0 then invalid_arg "Prng.substream"
  else
    (* [split] advances the parent by one gamma step and double-mixes the
       resulting state ([mix64] of [next_int64]'s already-mixed output);
       jumping the parent i+1 gamma steps in one multiplication gives
       exactly the generator the (i+1)-th successive [split] would return,
       in O(1) and without advancing [g].  Distinct indices give
       decorrelated streams for the same reason distinct splits do. *)
    {
      state =
        mix64
          (mix64
             (Int64.add g.state
                (Int64.mul (Int64.of_int (i + 1)) golden_gamma)));
    }

let int g n =
  if n <= 0 then invalid_arg "Prng.int"
  else if n = 1 then 0
  else begin
    (* Rejection sampling on 61 random bits for exact uniformity (61 so
       the bound stays a positive OCaml int on 64-bit platforms). *)
    let bound = 1 lsl 61 in
    if n > bound then invalid_arg "Prng.int: bound too large"
    else begin
      let limit = bound - (bound mod n) in
      let rec go () =
        let v = Int64.to_int (Int64.shift_right_logical (next_int64 g) 3) in
        if v < limit then v mod n else go ()
      in
      go ()
    end
  end

let float g =
  (* 53 uniform bits scaled into [0, 1). *)
  let v = Int64.to_int (Int64.shift_right_logical (next_int64 g) 11) in
  float_of_int v *. 0x1p-53

let bool g = Int64.logand (next_int64 g) 1L = 1L

let bernoulli g p =
  if Float.is_nan p || p < 0.0 || p > 1.0 then invalid_arg "Prng.bernoulli"
  else float g < p

let bernoulli_rational g p =
  if not (Rational.is_probability p) then invalid_arg "Prng.bernoulli_rational"
  else if Rational.is_zero p then false
  else if Rational.is_one p then true
  else begin
    (* Exact: compare a uniform draw below den with num.  Denominators in
       this project overwhelmingly fit a native int; fall back to a float
       draw (documented approximation) otherwise. *)
    match Bigint.to_int_opt (Rational.den p) with
    | Some d when d > 0 ->
      let n = Bigint.to_int (Rational.num p) in
      int g d < n
    | _ -> float g < Rational.to_float p
  end

let geometric g p =
  if not (p > 0.0 && p <= 1.0) then invalid_arg "Prng.geometric"
  else if p = 1.0 then 0
  else begin
    (* Inversion: floor(log U / log (1-p)). *)
    let u = 1.0 -. float g (* in (0, 1] *) in
    int_of_float (Float.floor (log u /. log1p (-.p)))
  end

let exponential g rate =
  if not (rate > 0.0) then invalid_arg "Prng.exponential"
  else -.log (1.0 -. float g) /. rate

let uniform_in g lo hi =
  if not (lo <= hi) then invalid_arg "Prng.uniform_in"
  else lo +. ((hi -. lo) *. float g)

let pick g a =
  if Array.length a = 0 then invalid_arg "Prng.pick"
  else a.(int g (Array.length a))

let categorical g w =
  let n = Array.length w in
  if n = 0 then invalid_arg "Prng.categorical";
  let total = Array.fold_left (fun acc x ->
      if x < 0.0 || Float.is_nan x then invalid_arg "Prng.categorical"
      else acc +. x) 0.0 w
  in
  if total <= 0.0 then invalid_arg "Prng.categorical";
  let u = float g *. total in
  let rec go i acc =
    if i = n - 1 then i
    else begin
      let acc = acc +. w.(i) in
      if u < acc then i else go (i + 1) acc
    end
  in
  go 0 0.0

let shuffle g a =
  for i = Array.length a - 1 downto 1 do
    let j = int g (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

let sample_without_replacement g k n =
  if k < 0 || k > n then invalid_arg "Prng.sample_without_replacement";
  (* Floyd's algorithm. *)
  let module S = Set.Make (Int) in
  let s = ref S.empty in
  for j = n - k to n - 1 do
    let t = int g (j + 1) in
    s := if S.mem t !s then S.add j !s else S.add t !s
  done;
  S.elements !s
