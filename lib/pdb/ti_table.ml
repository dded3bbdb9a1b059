type t = {
  schema : Schema.t option;
  probs : Rational.t Fact.Map.t; (* invariant: values in (0, 1] *)
}

let validate_prob f p =
  if not (Rational.is_probability p) then
    invalid_arg
      (Printf.sprintf "Ti_table: probability %s out of range for %s"
         (Rational.to_string p) (Fact.to_string f))

let validate_schema schema f =
  match schema with
  | Some s when not (Fact.conforms s f) ->
    invalid_arg
      (Printf.sprintf "Ti_table: fact %s does not conform to the schema"
         (Fact.to_string f))
  | _ -> ()

let create ?schema entries =
  let probs =
    List.fold_left
      (fun acc (f, p) ->
        validate_prob f p;
        validate_schema schema f;
        if Fact.Map.mem f acc then
          invalid_arg
            (Printf.sprintf "Ti_table: duplicate fact %s" (Fact.to_string f))
        else if Rational.is_zero p then acc
        else Fact.Map.add f p acc)
      Fact.Map.empty entries
  in
  { schema; probs }

let empty = { schema = None; probs = Fact.Map.empty }

let facts t = Fact.Map.bindings t.probs
let support t = List.map fst (facts t)

let prob t f =
  Option.value (Fact.Map.find_opt f t.probs) ~default:Rational.zero

let mem t f = Fact.Map.mem f t.probs
let size t = Fact.Map.cardinal t.probs

let add t f p =
  validate_prob f p;
  validate_schema t.schema f;
  if Rational.is_zero p then { t with probs = Fact.Map.remove f t.probs }
  else { t with probs = Fact.Map.add f p t.probs }

let remove t f = { t with probs = Fact.Map.remove f t.probs }

let expected_instance_size t =
  Fact.Map.fold (fun _ p acc -> Rational.add acc p) t.probs Rational.zero

let world_probability t inst =
  if not (Instance.for_all (fun f -> mem t f) inst) then Rational.zero
  else
    Fact.Map.fold
      (fun f p acc ->
        Rational.mul acc
          (if Instance.mem f inst then p else Rational.compl p))
      t.probs Rational.one

let worlds t =
  let entries = Array.of_list (facts t) in
  let n = Array.length entries in
  if n > 20 then invalid_arg "Ti_table.worlds: support too large to enumerate";
  Seq.init (1 lsl n) (fun mask ->
      let inst = ref Instance.empty and p = ref Rational.one in
      for i = 0 to n - 1 do
        let f, pf = entries.(i) in
        if mask land (1 lsl i) <> 0 then begin
          inst := Instance.add f !inst;
          p := Rational.mul !p pf
        end
        else p := Rational.mul !p (Rational.compl pf)
      done;
      (!inst, !p))

let sample t g =
  Fact.Map.fold
    (fun f p acc ->
      if Prng.bernoulli_rational g p then Instance.add f acc else acc)
    t.probs Instance.empty

let marginal_check t f =
  Seq.fold_left
    (fun acc (inst, p) ->
      if Instance.mem f inst then Rational.add acc p else acc)
    Rational.zero (worlds t)

let active_domain t =
  Instance.active_domain (Instance.of_list (support t))

let to_string t =
  String.concat "\n"
    (List.map
       (fun (f, p) ->
         Printf.sprintf "%s %s" (Fact.to_string f) (Rational.to_string p))
       (facts t))

let to_channel oc t =
  output_string oc (to_string t);
  output_char oc '\n'

let located ?file ~line msg =
  let where =
    match file with
    | Some f -> Printf.sprintf "%s:%d" f line
    | None -> Printf.sprintf "line %d" line
  in
  invalid_arg (Printf.sprintf "Ti_table.of_lines: %s: %s" where msg)

(* One line of the text format: [R(args...) p], blank, or [# comment].
   Returns [None] for the latter two. *)
let parse_line ?file ~lnum line =
  let line = String.trim line in
  if line = "" || line.[0] = '#' then None
  else begin
    (* The probability is the text after the closing parenthesis. *)
    match String.rindex_opt line ')' with
    | None -> located ?file ~line:lnum (Printf.sprintf "no fact in %S" line)
    | Some i ->
      let fact_str = String.sub line 0 (i + 1) in
      let prob_str =
        String.trim (String.sub line (i + 1) (String.length line - i - 1))
      in
      if prob_str = "" then
        located ?file ~line:lnum
          (Printf.sprintf "missing probability in %S" line);
      let f =
        try Fact.of_string fact_str
        with Invalid_argument m | Failure m -> located ?file ~line:lnum m
      in
      let p =
        match Rational.of_string_opt prob_str with
        | Some p -> p
        | None ->
          located ?file ~line:lnum
            (Printf.sprintf "bad probability %S" prob_str)
      in
      if not (Rational.is_probability p) then
        located ?file ~line:lnum
          (Printf.sprintf "probability %s out of range for %s"
             (Rational.to_string p) (Fact.to_string f));
      Some (f, p)
  end

(* Streaming core shared by [of_lines] and [of_file]: one pass over the
   lines, so [of_file] never materializes the file and peak memory
   beyond the table itself is O(longest line).  Line numbers are 1-based
   over the input as given (comments and blank lines count), so errors
   point at the line an editor shows.

   Duplicate policy: repeating a fact with the same probability is
   harmless redundancy and collapses; repeating it with a different one
   is a contradiction and is rejected with both line numbers. *)
let of_line_seq ?file lines =
  let lnum = ref 0 and seen = ref Fact.Map.empty and acc = ref [] in
  Seq.iter
    (fun line ->
      incr lnum;
      match parse_line ?file ~lnum:!lnum line with
      | None -> ()
      | Some (f, p) -> (
        match Fact.Map.find_opt f !seen with
        | None ->
          seen := Fact.Map.add f (p, !lnum) !seen;
          acc := (f, p) :: !acc
        | Some (p0, l0) ->
          if not (Rational.equal p p0) then
            located ?file ~line:!lnum
              (Printf.sprintf
                 "duplicate fact %s with probability %s (already %s at line \
                  %d)"
                 (Fact.to_string f) (Rational.to_string p)
                 (Rational.to_string p0) l0)))
    lines;
  create (List.rev !acc)

let of_lines ?file lines = of_line_seq ?file (List.to_seq lines)

let of_file path =
  let ic = open_in path in
  (* Close the channel even when a parse error escapes the stream. *)
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let next () =
        match input_line ic with
        | line -> Some line
        | exception End_of_file -> None
      in
      of_line_seq ~file:path (Seq.of_dispenser next))
