(* Seeded inputs for every workload.

   Inputs come from the seed and this file only, never from the
   program's own generators, so a change to the program cannot change
   what the benchmark measures.  Every pool is stratified: a seed fixes
   which graphs, tuples and query pairs fill each stratum, never how
   many, so the mix of work is the same for every seed. *)

let labels = [| "a"; "b"; "c" |]

let rng seed salt = Random.State.make [| seed; salt; 0x5eed |]

(* ------------------------------------------------------------------ *)
(* Graphs                                                              *)
(* ------------------------------------------------------------------ *)

type graph = {
  gname : string;
  kind : string;  (** stratum: "gnm" or "grid" *)
  edges : (int * string * int) list;
}

(* [edges] distinct labelled edges with uniform endpoints; node
   [nodes - 1] always carries an edge so the loaded graph has exactly
   [nodes] nodes. *)
let gnm rng ~name ~nodes ~edges =
  let seen = Hashtbl.create (2 * edges) in
  let acc = ref [] in
  let add e =
    if not (Hashtbl.mem seen e) then begin
      Hashtbl.add seen e ();
      acc := e :: !acc
    end
  in
  add (nodes - 1, labels.(Random.State.int rng 3), Random.State.int rng nodes);
  while Hashtbl.length seen < edges do
    let u = Random.State.int rng nodes in
    let l = labels.(Random.State.int rng 3) in
    add (u, l, Random.State.int rng nodes)
  done;
  { gname = name; kind = "gnm"; edges = List.rev !acc }

(* rows × cols grid: edges along even rows are [a], along odd rows [c],
   down a column [b].  High diameter, so relation building needs many
   sweeps. *)
let grid ~name ~rows ~cols =
  let id r c = (r * cols) + c in
  let acc = ref [] in
  for r = rows - 1 downto 0 do
    for c = cols - 1 downto 0 do
      if c + 1 < cols then acc := (id r c, (if r mod 2 = 0 then "a" else "c"), id r (c + 1)) :: !acc;
      if r + 1 < rows then acc := (id r c, "b", id (r + 1) c) :: !acc
    done
  done;
  { gname = name; kind = "grid"; edges = !acc }

let edge_list g =
  let b = Buffer.create (16 * List.length g.edges) in
  List.iter (fun (u, l, v) -> Printf.bprintf b "%d %s %d\n" u l v) g.edges;
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Query templates (gMark chain / star / cycle families)               *)
(* ------------------------------------------------------------------ *)

type shape = Chain | Star | Cycle

type template = { tname : string; shape : shape; langs : string list }

(* Atom order and variable names per shape; the head is always the two
   free variables (x, y).
   - Chain k: x -L1-> v1 -L2-> ... -Lk-> y
   - Star:    c -L1-> x, c -L2-> y, c -L3-> z
   - Cycle k: x -L1-> y -L2-> ... -Lk-> x *)
let query_string t =
  let atom s l d = Printf.sprintf "%s -[%s]-> %s" s l d in
  let atoms =
    match (t.shape, t.langs) with
    | Chain, [ l1; l2 ] -> [ atom "x" l1 "u"; atom "u" l2 "y" ]
    | Chain, [ l1; l2; l3 ] -> [ atom "x" l1 "u"; atom "u" l2 "v"; atom "v" l3 "y" ]
    | Star, [ l1; l2; l3 ] -> [ atom "c" l1 "x"; atom "c" l2 "y"; atom "c" l3 "z" ]
    | Cycle, [ l1; l2 ] -> [ atom "x" l1 "y"; atom "y" l2 "x" ]
    | Cycle, [ l1; l2; l3 ] -> [ atom "x" l1 "y"; atom "y" l2 "z"; atom "z" l3 "x" ]
    | _ -> invalid_arg ("Gen.query_string: " ^ t.tname)
  in
  "Q(x, y) :- " ^ String.concat ", " atoms

(* A fixed catalogue: the seed picks graphs and tuples, not queries, so
   the regular-expression mix (and the number of epsilon-free disjuncts
   it implies) is identical across seeds. *)
let templates =
  [
    { tname = "chain2-a.b*"; shape = Chain; langs = [ "a"; "b*" ] };
    { tname = "chain2-(a|b)+.c"; shape = Chain; langs = [ "(a|b)+"; "c" ] };
    { tname = "chain3-a.b.c*"; shape = Chain; langs = [ "a"; "b"; "c*" ] };
    { tname = "star3-a*.b.c"; shape = Star; langs = [ "a*"; "b"; "c" ] };
    { tname = "cycle2-(a|b)*.c"; shape = Cycle; langs = [ "(a|b)*"; "c" ] };
    { tname = "cycle3-a+.b.(a|c)*"; shape = Cycle; langs = [ "a+"; "b"; "(a|c)*" ] };
  ]

(* ------------------------------------------------------------------ *)
(* Reference answers (benchmark-side join over bitset rows)            *)
(* ------------------------------------------------------------------ *)

module Bits = struct
  let w = 62

  let create n = Array.make ((n + w - 1) / w) 0

  let set b i = b.(i / w) <- b.(i / w) lor (1 lsl (i mod w))

  let mem b i = b.(i / w) land (1 lsl (i mod w)) <> 0

  let union_into dst src = Array.iteri (fun i x -> dst.(i) <- dst.(i) lor x) src

  let is_empty b = Array.for_all (fun x -> x = 0) b

  let iter f b =
    Array.iteri
      (fun i x ->
        if x <> 0 then
          for j = 0 to w - 1 do
            if x land (1 lsl j) <> 0 then f ((i * w) + j)
          done)
      b

  let cardinal b =
    let c = ref 0 in
    iter (fun _ -> incr c) b;
    !c
end

let rows_of_matrix (m : bool array array) =
  let n = Array.length m in
  Array.map
    (fun row ->
      let b = Bits.create n in
      Array.iteri (fun j x -> if x then Bits.set b j) row;
      b)
    m

let compose n r s =
  Array.map
    (fun row ->
      let out = Bits.create n in
      Bits.iter (fun y -> Bits.union_into out s.(y)) row;
      out)
    r

let transpose n r =
  let t = Array.init n (fun _ -> Bits.create n) in
  Array.iteri (fun x row -> Bits.iter (fun y -> Bits.set t.(y) x) row) r;
  t

let intersect r s = Array.map2 (fun a b -> Array.map2 ( land ) a b) r s

(* [answers t n rels]: answer rows (row x has bit y iff (x, y) is an
   answer) from the atoms' st relations, given in template atom order. *)
let answers t n rels =
  let rels = List.map rows_of_matrix rels in
  match (t.shape, rels) with
  | Chain, [ r1; r2 ] -> compose n r1 r2
  | Chain, [ r1; r2; r3 ] -> compose n (compose n r1 r2) r3
  | Star, [ r1; r2; r3 ] ->
    let out = Array.init n (fun _ -> Bits.create n) in
    Array.iteri
      (fun c row ->
        if not (Bits.is_empty r3.(c)) then
          Bits.iter (fun x -> Bits.union_into out.(x) r2.(c)) row)
      r1;
    out
  | Cycle, [ r1; r2 ] -> intersect r1 (transpose n r2)
  | Cycle, [ r1; r2; r3 ] -> intersect r1 (transpose n (compose n r2 r3))
  | _ -> invalid_arg ("Gen.answers: " ^ t.tname)

(* ------------------------------------------------------------------ *)
(* Tuples                                                              *)
(* ------------------------------------------------------------------ *)

(* A uniformly drawn answer, or [None] when there is none. *)
let draw_positive rng ans =
  let total = Array.fold_left (fun acc row -> acc + Bits.cardinal row) 0 ans in
  if total = 0 then None
  else begin
    let k = ref (Random.State.int rng total) and found = ref None in
    Array.iteri
      (fun x row ->
        if !found = None then
          Bits.iter
            (fun y ->
              if !k = 0 && !found = None then found := Some (x, y);
              decr k)
            row)
      ans;
    !found
  end

(* A uniformly drawn non-answer (answer sets here are far from full). *)
let rec draw_negative rng n ans =
  let x = Random.State.int rng n and y = Random.State.int rng n in
  if Bits.mem ans.(x) y then draw_negative rng n ans else (x, y)

(* ------------------------------------------------------------------ *)
(* Containment pairs                                                   *)
(* ------------------------------------------------------------------ *)

type cls = Cq | Fin | Crpq

let cls_name = function Cq -> "cq" | Fin -> "fin" | Crpq -> "crpq"

let pick rng a = a.(Random.State.int rng (Array.length a))

let label rng = pick rng labels

let fin_lang rng =
  match Random.State.int rng 3 with
  | 0 -> label rng
  | 1 -> label rng ^ label rng
  | _ -> Printf.sprintf "(%s|%s%s)" (label rng) (label rng) (label rng)

let star_lang rng =
  match Random.State.int rng 4 with
  | 0 -> label rng ^ "+"
  | 1 -> Printf.sprintf "%s%s*" (label rng) (label rng)
  | 2 -> Printf.sprintf "(%s%s)+" (label rng) (label rng)
  | _ -> Printf.sprintf "(%s|%s)+" (label rng) (label rng)

(* atoms of a Boolean query over variables v0..v(nv-1), connected:
   atom i links v(i mod nv) to a random other variable *)
let random_query rng cls ~nvars ~natoms =
  let langs =
    List.init natoms (fun i ->
        match cls with
        | Cq -> label rng
        | Fin -> fin_lang rng
        | Crpq -> if i = 0 || Random.State.bool rng then star_lang rng else fin_lang rng)
  in
  List.mapi
    (fun i l ->
      let s = i mod nvars in
      let d = (s + 1 + Random.State.int rng (nvars - 1)) mod nvars in
      (Printf.sprintf "v%d" s, l, Printf.sprintf "v%d" d))
    langs

(* q2 from q1 by dropping atoms and relaxing languages, so that
   containment often holds *)
let derive rng q1 =
  let n = List.length q1 in
  let kept =
    List.filteri (fun i _ -> i = 0 || n = 1 || Random.State.int rng 3 > 0) q1
  in
  List.map
    (fun (s, l, d) ->
      match Random.State.int rng 3 with
      | 0 -> (s, Printf.sprintf "(%s)+" l, d)
      | 1 -> (s, Printf.sprintf "(%s|%s)" l (label rng), d)
      | _ -> (s, l, d))
    kept

let bool_query atoms =
  String.concat ", "
    (List.map (fun (s, l, d) -> Printf.sprintf "%s -[%s]-> %s" s l d) atoms)
