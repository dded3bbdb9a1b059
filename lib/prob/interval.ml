(* Outward-rounded float intervals.  OCaml gives no access to the FPU
   rounding mode, so we widen every result by one ulp on each side via
   Float.pred/Float.succ; this over-approximates directed rounding and
   keeps the enclosure property. *)

type t = { lo : float; hi : float }

let make lo hi =
  if Float.is_nan lo || Float.is_nan hi || lo > hi then
    invalid_arg "Interval.make"
  else { lo; hi }

let point x = make x x

(* [Rational.to_float] is off by less than one ulp, so the adjacent
   floats bracket the exact value. *)
let of_rational q =
  let f = Rational.to_float q in
  make (Float.pred f) (Float.succ f)

let zero = point 0.0
let one = point 1.0

let lo x = x.lo
let hi x = x.hi
let width x = x.hi -. x.lo
let mid x = if x.lo = x.hi then x.lo else 0.5 *. (x.lo +. x.hi)

(* Unconditional one-ulp widening: cheap, and always sound. *)
let down x = Float.pred x
let up x = Float.succ x

let add a b = { lo = down (a.lo +. b.lo); hi = up (a.hi +. b.hi) }
let sub a b = { lo = down (a.lo -. b.hi); hi = up (a.hi -. b.lo) }

(* The corner products can be nan on unbounded operands (0 * inf);
   building the record directly would then bypass [make]'s nan guard and
   poison every downstream min/max.  Each nan corner is replaced by its
   sound set-based bound instead. *)

let mul a b =
  (* nan here is exactly 0 * ±inf.  Under set semantics the factor 0
     annihilates (the IEEE-1788 convention), so 0 is the sound corner
     value. *)
  let corner x y =
    let p = x *. y in
    if Float.is_nan p then 0.0 else p
  in
  let p1 = corner a.lo b.lo and p2 = corner a.lo b.hi in
  let p3 = corner a.hi b.lo and p4 = corner a.hi b.hi in
  {
    lo = down (Float.min (Float.min p1 p2) (Float.min p3 p4));
    hi = up (Float.max (Float.max p1 p2) (Float.max p3 p4));
  }

let compl x = sub one x

let intersect a b =
  let lo = Float.max a.lo b.lo and hi = Float.min a.hi b.hi in
  if lo > hi then None else Some { lo; hi }

let contains x v = x.lo <= v && v <= x.hi

let clamp01 x =
  match intersect x { lo = 0.0; hi = 1.0 } with
  | Some r -> r
  | None -> if x.hi < 0.0 then zero else one

let equal a b = a.lo = b.lo && a.hi = b.hi

