type t = {
  name : string;
  term : int -> float;
  tail : int -> float option;
}

let name s = s.name

let term s i =
  if i < 0 then invalid_arg "Series.term: negative index"
  else begin
    let v = s.term i in
    if v < 0.0 || Float.is_nan v then
      invalid_arg (Printf.sprintf "Series.term: negative term at %d" i)
    else v
  end

let tail s n = s.tail n

let geometric ?(first = 1.0) ~ratio () =
  if not (ratio >= 0.0 && ratio < 1.0) then invalid_arg "Series.geometric";
  if first < 0.0 then invalid_arg "Series.geometric";
  {
    name = Printf.sprintf "geometric(%g,%g)" first ratio;
    term = (fun i -> first *. (ratio ** float_of_int i));
    (* Exact tail: first * ratio^n / (1 - ratio). *)
    tail = (fun n -> Some (first *. (ratio ** float_of_int n) /. (1.0 -. ratio)));
  }

let zeta2 ?(scale = 1.0) () =
  if scale < 0.0 then invalid_arg "Series.zeta2";
  let pi = 4.0 *. atan 1.0 in
  {
    name = Printf.sprintf "zeta2(%g)" scale;
    term = (fun i -> scale /. (float_of_int (i + 1) ** 2.0));
    (* Integral test: sum_{i>=n} 1/(i+1)^2 <= 1/n for n >= 1. *)
    tail =
      (fun n ->
        if n <= 0 then Some (scale *. pi *. pi /. 6.0)
        else Some (scale /. float_of_int n));
  }

let basel_probability () =
  let pi = 4.0 *. atan 1.0 in
  let s = zeta2 ~scale:(6.0 /. (pi *. pi)) () in
  { s with name = "basel-probability" }

let log_slow ?(scale = 1.0) () =
  if scale < 0.0 then invalid_arg "Series.log_slow";
  {
    name = Printf.sprintf "log-slow(%g)" scale;
    term =
      (fun i ->
        let x = float_of_int (i + 2) in
        scale /. (x *. log x *. log x));
    (* Integral test: sum_{i>=n} 1/((i+2) ln^2 (i+2)) <= 1/ln(n+1) for
       n >= 1 (the integral of 1/(x ln^2 x) from n+1 is 1/ln(n+1)). *)
    tail =
      (fun n ->
        let x = float_of_int (Stdlib.max 1 n + 1) in
        Some (scale /. log x));
  }

let of_list xs =
  List.iter
    (fun x -> if x < 0.0 || Float.is_nan x then invalid_arg "Series.of_list")
    xs;
  let a = Array.of_list xs in
  let n = Array.length a in
  (* Suffix sums for exact tails. *)
  let suffix = Array.make (n + 1) 0.0 in
  for i = n - 1 downto 0 do
    suffix.(i) <- suffix.(i + 1) +. a.(i)
  done;
  {
    name = Printf.sprintf "finite(%d)" n;
    term = (fun i -> if i < n then a.(i) else 0.0);
    tail = (fun k -> Some (if k >= n then 0.0 else suffix.(k)));
  }

let partial_sum s n =
  Prob.kahan_sum_seq (Seq.init n (fun i -> term s i))

let product_compl_prefix s n =
  let acc = ref 0.0 in
  for i = 0 to n - 1 do
    let p = term s i in
    if p > 1.0 then invalid_arg "Series.product_compl_prefix: term above 1";
    acc := !acc +. log1p (-.p)
  done;
  exp !acc

let product_compl_bounds s n =
  match s.tail n with
  | None -> None
  | Some t ->
    let prefix = product_compl_prefix s n in
    (* Claim (∗) of the paper: if all p_i < 1/2 then
       prod (1-p_i) >= exp(-(3/2) sum p_i).  Soundness of applying it to
       the tail needs every remaining term < 1/2; a sound sufficient
       condition is tail mass < 1/2, since terms are bounded by tails. *)
    if t < 0.5 then Some (prefix *. exp (-1.5 *. t), prefix)
    else Some (0.0, prefix)

let star_bound_gap s n =
  let ok = ref true in
  for i = 0 to n - 1 do
    if term s i >= 0.5 then ok := false
  done;
  if not !ok then None
  else begin
    let lower = exp (-1.5 *. partial_sum s n) in
    Some (product_compl_prefix s n /. lower)
  end

let distributive_law_check xs =
  let k = List.length xs in
  if k > 20 then invalid_arg "Series.distributive_law_check: too many terms";
  let a = Array.of_list xs in
  let lhs = Array.fold_left (fun acc x -> acc *. (1.0 +. x)) 1.0 a in
  let rhs = ref 0.0 in
  for mask = 0 to (1 lsl k) - 1 do
    let p = ref 1.0 in
    for i = 0 to k - 1 do
      if mask land (1 lsl i) <> 0 then p := !p *. a.(i)
    done;
    rhs := !rhs +. !p
  done;
  Float.abs (lhs -. !rhs)
