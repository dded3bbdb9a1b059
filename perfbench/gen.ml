(* Seed-pure input generation for the workloads.

   Everything a run feeds the program is derived here from the seed and
   nothing else: the table text, the request stream (query texts with
   their error targets, and update deltas) and the batches.  Costs must
   not depend on the seed, only the details do, so the shapes are fixed:

   - tables join two path-shaped chains (see [two_chains]) whose
     marginals are seeded two-decimal values k/100;
   - every request stream is built from blocks with a fixed template
     mix, shuffled inside the block, so each run sees the same
     proportions in a seeded order;
   - query texts carry the request index in their variable names, so a
     text never repeats where the workload needs it not to, while the
     [key] field names the sentence up to that renaming (the reference
     answers are memoized on it). *)

type query = {
  text : string;  (** the sentence sent to the program *)
  eps : float;  (** additive error target (serve workloads) *)
  key : string;  (** identity up to bound-variable renaming *)
}

type op = Query of query | Update of string  (** delta text *)

type inputs = {
  table : string list;  (** one "R(args) p" line per fact *)
  ops : op array;  (** serve workloads: the request stream *)
  batches : query array array;  (** batch-compile: the batch calls *)
}

let workloads =
  [ "serve-open-world"; "serve-pack"; "serve-hot-updates"; "batch-compile" ]

(* Sizes, recorded in BENCHMARK.json's workload descriptions.  Each
   table joins two chains: a small R/S/T core that the hard (BDD) and
   universal queries read, whose exact-rational WMC sets their cost, and
   a wider P/E/Q chain that the lifted and selective queries read. *)
let open_world_core = 16 (* 63 facts *)
let open_world_wide = 59 (* 235 facts: 298 in all *)
let pack_tail = 24 (* N facts after the serve-open-world table: 322 in all *)
let hot_core = 14 (* 55 facts *)
let hot_wide = 40 (* 159 facts, plus 36 hot U facts: 250 in all *)
let hot_facts = 36
let batch_core = 10 (* 39 facts *)
let batch_wide = 28 (* 111 facts: 150 in all *)

let rng seed tag = Random.State.make [| seed; Hashtbl.hash tag |]

let shuffle st a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

(* Two-decimal marginal in [0.05, 0.95]: the precision text tables hold,
   which keeps exact-rational WMC cost bounded. *)
let marginal st = Printf.sprintf "0.%02d" (5 + Random.State.int st 91)
let a i = Printf.sprintf "\"a%d\"" i
let cv i = Printf.sprintf "\"c%d\"" i

(* The path  U(x_0) - V(x_0, y_0) - V(x_1, y_0) - W(y_0) - ...  of
   length [m] over constants [x] and [y]. *)
let chain st (u, v, w) (x, y) m =
  let x i = Printf.sprintf "\"%s%d\"" x i and y i = Printf.sprintf "\"%s%d\"" y i in
  List.concat
    (List.init m (fun i ->
         [ Printf.sprintf "%s(%s) %s" u (x i) (marginal st);
           Printf.sprintf "%s(%s, %s) %s" v (x i) (y i) (marginal st) ]
         @ (if i + 1 < m then
              [ Printf.sprintf "%s(%s, %s) %s" v (x (i + 1)) (y i) (marginal st) ]
            else [])
         @ [ Printf.sprintf "%s(%s) %s" w (y i) (marginal st) ]))

let two_chains st ~core ~wide =
  chain st ("R", "S", "T") ("a", "b") core
  @ chain st ("P", "E", "Q") ("c", "d") wide

(* A template renders with variable suffix [v] (renaming) and constant
   index [k]; [uses_const] says whether [k] changes the sentence. *)
type template = {
  name : string;
  render : v:string -> k:int -> string;
  uses_const : bool;
}

let tmpl name uses_const render = { name; render; uses_const }

let instantiate t ~v ~k ~eps =
  let k = if t.uses_const then k else 0 in
  {
    text = t.render ~v ~k;
    eps;
    key = Printf.sprintf "%s/%d/%g" t.name k eps;
  }

let find_tmpl ts name = List.find (fun t -> t.name = name) ts

(* The templates, across the dichotomy.  [v] suffixes every bound
   variable. *)
let hard =
  tmpl "hard" false (fun ~v ~k:_ ->
      Printf.sprintf "exists x%s y%s. R(x%s) & S(x%s, y%s) & T(y%s)" v v v v v
        v)

let universal =
  tmpl "universal" false (fun ~v ~k:_ ->
      Printf.sprintf "forall x%s. R(x%s) -> exists y%s. S(x%s, y%s) & T(y%s)" v
        v v v v v)

let safe =
  tmpl "safe" false (fun ~v ~k:_ ->
      Printf.sprintf "exists x%s y%s. P(x%s) & E(x%s, y%s)" v v v v v)

let selective =
  tmpl "selective" true (fun ~v ~k ->
      Printf.sprintf "exists y%s. P(%s) & E(%s, y%s) & Q(y%s)" v (cv k) (cv k)
        v v)

(* ------------------------------------------------------------------ *)
(* serve-open-world *)

let open_world_templates =
  [
    safe;
    hard;
    universal;
    tmpl "open" false (fun ~v ~k:_ ->
        Printf.sprintf "exists x%s y%s. N(x%s) & Q(y%s)" v v v v);
    selective;
  ]

let open_world_eps = [| 0.01; 0.005; 0.002 |]

(* Constants of the selective template: a seeded subset of the wide
   chain, so its reference answers memoize. *)
let selective_consts = 8

let open_world seed ~n_ops =
  let st = rng seed "open-world" in
  let table = two_chains st ~core:open_world_core ~wide:open_world_wide in
  let consts = Array.init open_world_wide Fun.id in
  shuffle st consts;
  (* One block = every template at every eps, shuffled. *)
  let block =
    List.concat_map
      (fun t -> Array.to_list (Array.map (fun e -> (t, e)) open_world_eps))
      open_world_templates
    |> Array.of_list
  in
  let ops = ref [] and i = ref 0 in
  while !i < n_ops do
    let blk = Array.copy block in
    shuffle st blk;
    Array.iter
      (fun (t, eps) ->
        if !i < n_ops then begin
          let k = consts.(Random.State.int st selective_consts) in
          ops := Query (instantiate t ~v:(string_of_int !i) ~k ~eps) :: !ops;
          incr i
        end)
      blk
  done;
  { table; ops = Array.of_list (List.rev !ops); batches = [||] }

(* ------------------------------------------------------------------ *)
(* serve-pack *)

(* The serve-open-world table and requests, with the first [pack_tail]
   facts of the default completion written into the table, N(j) at
   1/4 (1/2)^j, and no completion beyond them.  The pack's own tail
   then certifies the truncation, and each ε drops the deepest N facts:
   from ε = 0.01 to 0.002 the truncation keeps 7 to 9 of them. *)
let serve_pack seed ~n_ops =
  let inp = open_world seed ~n_ops in
  {
    inp with
    table = inp.table @ List.init pack_tail (fun j -> Printf.sprintf "N(%d) 1/%d" j (4 lsl j));
  }

(* ------------------------------------------------------------------ *)
(* serve-hot-updates *)

(* The hot relation U(c_i) is the only one updates touch; four of the
   sixteen texts read it. *)
let hot =
  tmpl "hot" true (fun ~v:_ ~k ->
      Printf.sprintf "exists y. U(%s) & E(%s, y) & Q(y)" (cv k) (cv k))

let hot_query_set st =
  let consts = Array.init hot_facts Fun.id in
  shuffle st consts;
  let q t k = instantiate t ~v:"" ~k ~eps:0.01 in
  Array.of_list
    ([ q safe 0; q hard 0; q universal 0 ]
    @ List.init 9 (fun j -> q selective consts.(j))
    @ List.init 4 (fun j -> q hot consts.(9 + j)))

let hot_updates seed ~n_ops =
  let st = rng seed "hot-updates" in
  let hot_fact i = Printf.sprintf "U(%s)" (cv i) in
  let weight = Array.init hot_facts (fun _ -> marginal st) in
  let table =
    two_chains st ~core:hot_core ~wide:hot_wide
    @ List.init hot_facts (fun i -> hot_fact i ^ " " ^ weight.(i))
  in
  let texts = hot_query_set st in
  (* [weight] tracks every hot marginal, so a reweight never no-ops;
     fresh facts U(c_i), i >= hot_facts, are inserted and later deleted
     (at most four outstanding), keeping the table size stationary. *)
  let fresh = ref hot_facts and outstanding = Queue.create () in
  let update () =
    match Random.State.int st 4 with
    | 0 when Queue.length outstanding < 4 ->
      let i = !fresh in
      incr fresh;
      Queue.push i outstanding;
      Printf.sprintf "insert %s %s" (hot_fact i) (marginal st)
    | 1 when not (Queue.is_empty outstanding) ->
      Printf.sprintf "delete %s" (hot_fact (Queue.pop outstanding))
    | _ ->
      let i = Random.State.int st hot_facts in
      let rec pick () =
        let p = marginal st in
        if p = weight.(i) then pick () else p
      in
      weight.(i) <- pick ();
      Printf.sprintf "reweight %s %s" (hot_fact i) weight.(i)
  in
  (* One block = each text once plus four updates, shuffled: 80% reads,
     20% writes, and the hot texts (a quarter of reads) nearly always
     miss because an update lands between two reads of the same text. *)
  let ops = ref [] and i = ref 0 in
  while !i < n_ops do
    let blk = Array.append (Array.map Option.some texts) (Array.make 4 None) in
    shuffle st blk;
    Array.iter
      (fun o ->
        if !i < n_ops then begin
          (ops :=
             match o with
             | Some q -> Query q :: !ops
             | None -> Update (update ()) :: !ops);
          incr i
        end)
      blk
  done;
  { table; ops = Array.of_list (List.rev !ops); batches = [||] }

(* ------------------------------------------------------------------ *)
(* batch-compile *)

let batch_templates =
  [
    hard;
    tmpl "hard-neq" true (fun ~v ~k ->
        Printf.sprintf
          "exists x%s y%s. R(x%s) & S(x%s, y%s) & T(y%s) & x%s != %s" v v v v
          v v v (a k));
    universal;
    tmpl "universal-t" false (fun ~v ~k:_ ->
        Printf.sprintf "forall y%s. T(y%s) -> exists x%s. R(x%s) & S(x%s, y%s)"
          v v v v v v);
    selective;
  ]

(* Members per batch: α-variants of the hard and universal templates
   (shared store, distinct texts) and two lifted ones. *)
let batch_mix =
  [ ("hard", 6); ("hard-neq", 2); ("universal", 3); ("universal-t", 3);
    ("selective", 2) ]

let batch_compile seed ~n_batches =
  let st = rng seed "batch" in
  let table = two_chains st ~core:batch_core ~wide:batch_wide in
  let tm = find_tmpl batch_templates in
  let batches =
    Array.init n_batches (fun _ ->
        let members =
          List.concat_map
            (fun (name, n) ->
              let t = tm name in
              let range = if name = "selective" then batch_wide else batch_core in
              List.init n (fun j ->
                  instantiate t ~v:(string_of_int j)
                    ~k:(Random.State.int st range) ~eps:0.0))
            batch_mix
          |> Array.of_list
        in
        shuffle st members;
        members)
  in
  { table; ops = [||]; batches }

let generate ~workload ~seed ~n =
  match workload with
  | "serve-open-world" -> open_world seed ~n_ops:n
  | "serve-pack" -> serve_pack seed ~n_ops:n
  | "serve-hot-updates" -> hot_updates seed ~n_ops:n
  | "batch-compile" -> batch_compile seed ~n_batches:n
  | w -> invalid_arg ("unknown workload " ^ w)

(* Canonical rendering of everything a run feeds the program; the
   seed-purity test compares these bytes. *)
let render inp =
  let b = Buffer.create 4096 in
  List.iter (fun l -> Buffer.add_string b l; Buffer.add_char b '\n') inp.table;
  Array.iter
    (function
      | Query q -> Printf.bprintf b "Q %g %s\n" q.eps q.text
      | Update d -> Printf.bprintf b "U %s\n" d)
    inp.ops;
  Array.iter
    (fun bt ->
      Buffer.add_string b "B\n";
      Array.iter (fun q -> Printf.bprintf b "  %s\n" q.text) bt)
    inp.batches;
  Buffer.contents b
