(* End-to-end CRPQ benchmark.

     bench.exe --workload W --seed N --seconds S --trace 0|1
               [--report FILE]
     bench.exe --mix --seed N

   Each workload builds a fixed, stratified input pool from the seed and
   replays it in a fixed order for a number of whole passes fixed by
   [--seconds], so two runs of one seed do byte-identical work.  The
   last line of standard output is one JSON object: the end-to-end
   metrics (trace 0) or the per-layer metrics (trace 1).  [--report]
   writes the full record: raw and normalised timings, the work
   fingerprint and per-input costs.  [--mix] prints each workload's
   stratum shares and fails if they differ from the stated ones. *)

let usage () =
  prerr_endline
    "usage: bench.exe --workload st-reach|st-join|contain|serve-mix --seed N \
     --seconds S --trace 0|1 [--report FILE]\n\
    \       bench.exe --mix --seed N";
  exit 2

let die fmt = Printf.ksprintf (fun s -> prerr_endline ("bench: " ^ s); exit 2) fmt

let workload_names = [ "st-reach"; "st-join"; "contain"; "serve-mix" ]

let out_dir = ".crpqbench"

(* the daemon, built beside the benchmark *)
let injcrpq = "_build/default/bin/injcrpq.exe"

(* ------------------------------------------------------------------ *)
(* Fixed settings: what a user gets by default                         *)
(* ------------------------------------------------------------------ *)

let fix_settings () =
  Parmap.set_default_jobs 1;
  Bulk_rpq.set_mode Bulk_rpq.Auto;
  Bulk_rpq.set_sweep Bulk_rpq.Adaptive;
  Bulk_rpq.set_block_rows None;
  Cache.set_enabled true;
  Guard.Chaos.disarm ();
  Obs.Metrics.set_enabled false;
  Obs.Trace.set_enabled false

let daemon_env () =
  let drop =
    [ "INJCRPQ_JOBS"; "INJCRPQ_BULK"; "INJCRPQ_BULK_SWEEP"; "INJCRPQ_BULK_BLOCK";
      "INJCRPQ_CACHE"; "INJCRPQ_CHAOS"; "INJCRPQ_OPTIMIZE" ]
  in
  let keep =
    List.filter
      (fun kv ->
        match String.index_opt kv '=' with
        | Some i -> not (List.mem (String.sub kv 0 i) drop)
        | None -> true)
      (Array.to_list (Unix.environment ()))
  in
  Array.of_list
    (keep @ [ "INJCRPQ_JOBS=1"; "INJCRPQ_BULK=auto"; "INJCRPQ_BULK_SWEEP=auto";
              "INJCRPQ_CACHE=on" ])

(* ------------------------------------------------------------------ *)
(* Operations                                                          *)
(* ------------------------------------------------------------------ *)

type outcome = {
  digest : string;  (** canonical output; compared against the reference *)
  decided : bool;  (** an exact result, not [Unknown] *)
  failure : string option;  (** raised, wrong output, hard stop, refused *)
}

type op = {
  stratum : string;
  prepare : unit -> unit;  (** untimed, before each execution *)
  run : unit -> outcome;
  traced : unit -> outcome;  (** [run] with spans, replays and counters *)
  expect : string option;
}

let ok ?(decided = true) digest = { digest; decided; failure = None }

let failed why = { digest = "failed"; decided = false; failure = Some why }

(* Per-operation safety net: the step budget decides outcomes; the
   deadline only stops a runaway operation, which then counts as
   failed. *)
let hard_stop_ms = 20_000

let guarded ~fuel f =
  let guard = Guard.create ~fuel ~deadline_ms:hard_stop_ms () in
  match Guard.run ~guard f with
  | Ok o -> o
  | Error { Guard.reason = Guard.Deadline_exceeded _; _ } -> failed "hard stop"
  | Error trip -> ok ~decided:false ("unknown:" ^ Guard.reason_kind trip.Guard.reason)
  | exception e -> failed (Printexc.to_string e)

let parse s =
  match Crpq.parse_result s with
  | Ok q -> q
  | Error e -> failwith (Crpq.string_of_parse_error e)

(* ------------------------------------------------------------------ *)
(* Traced-run bookkeeping                                              *)
(* ------------------------------------------------------------------ *)

(* per-layer self time, summed over the traced pass *)
let self_ms = Hashtbl.create 16

let add_self layer ms =
  Hashtbl.replace self_ms layer (ms +. Option.value (Hashtbl.find_opt self_ms layer) ~default:0.)

(* named per-layer accumulators (times in ms, counts) *)
let acc = Hashtbl.create 64

let bump name v = Hashtbl.replace acc name (v +. Option.value (Hashtbl.find_opt acc name) ~default:0.)

let counter_names =
  [ "nfa.product_states"; "bulk.sweeps"; "bulk.words_anded"; "bulk.bits_scattered";
    "bulk.sweep_sparse"; "bulk.sweep_dense"; "path_search.product_states";
    "path_search.simple_backtracks"; "morphism.candidates_tried"; "morphism.backtracks";
    "eval.candidates_tried"; "containment.expansions_enumerated";
    "qinj.abstraction_states"; "f7.window_words"; "guard.checkpoints";
    "analysis.certificates_checked" ]

let counters = lazy (List.map (fun n -> (n, Obs.Metrics.counter n)) counter_names)

let cache_totals () =
  List.fold_left
    (fun (h, m) (name, v) ->
      match v with
      | Obs.Metrics.Counter c when Filename.check_suffix name ".hits" -> (h + c, m)
      | Obs.Metrics.Counter c when Filename.check_suffix name ".misses" -> (h, m + c)
      | _ -> (h, m))
    (0, 0) (Obs.Metrics.snapshot ())

(* Run [f] inside a span and add the program counters it moved. *)
let counted name f =
  let before = List.map (fun (n, c) -> (n, Obs.Metrics.counter_value c)) (Lazy.force counters) in
  let h0, m0 = cache_totals () in
  let r, s = Meter.with_span name f in
  List.iter2
    (fun (n, c) (_, b) -> bump n (float (Obs.Metrics.counter_value c - b)))
    (Lazy.force counters) before;
  let h1, m1 = cache_totals () in
  bump "cache.hits" (float (h1 - h0));
  bump "cache.misses" (float (m1 - m0));
  (r, s)

let timed name f =
  let r, s = Meter.with_span name f in
  (r, Meter.span_ms s)

(* ------------------------------------------------------------------ *)
(* st workloads: Eval.check / Eval.eval                                *)
(* ------------------------------------------------------------------ *)

let write_graph dir (g : Gen.graph) =
  let path = Filename.concat dir (g.Gen.gname ^ ".txt") in
  let oc = open_out path in
  output_string oc (Gen.edge_list g);
  close_out oc;
  path

let atom_nfa lang = Crpq.nfa (Regex.parse lang)

(* the relations Eval rebuilds: one per atom of each epsilon-free
   disjunct *)
let replay_relations ~simple g q =
  List.iter
    (fun d ->
      List.iter
        (fun (a : Crpq.atom) ->
          let nfa = Crpq.nfa a.Crpq.lang in
          let name = if simple then "graphdb.simple_relation" else "graphdb.relation" in
          ignore
            (Meter.with_span name (fun () ->
                 if simple then ignore (Path_search.simple_reach_relation g nfa)
                 else ignore (Bulk_rpq.st_relation g nfa))))
        d.Crpq.atoms)
    (Crpq.epsilon_free_disjuncts q)

(* One traced st operation: parse, NFA compilation, replayed relations,
   then the program call itself. *)
let traced_st ~eval_call ~fuel s g =
  let q, parse_ms = timed "parse" (fun () -> parse s) in
  add_self "parse" parse_ms;
  let (), auto_ms =
    timed "automata" (fun () ->
        List.iter
          (fun d -> List.iter (fun (a : Crpq.atom) -> ignore (Crpq.nfa a.Crpq.lang)) d.Crpq.atoms)
          (Crpq.epsilon_free_disjuncts q))
  in
  add_self "automata" auto_ms;
  bump "automata.compile_ms" auto_ms;
  bump "eval.disjuncts" (float (List.length (Crpq.epsilon_free_disjuncts q)));
  let (), rel_ms = timed "graphdb" (fun () -> replay_relations ~simple:false g q) in
  bump "graphdb.relation_ms" rel_ms;
  add_self "graphdb" rel_ms;
  let out, s = counted "core.eval" (fun () -> guarded ~fuel (fun () -> eval_call q)) in
  let join = Float.max 0. (Meter.span_ms s -. rel_ms) in
  bump "eval.join_ms" join;
  add_self "core" join;
  out

let st_graphs dir specs =
  let files = List.map (fun (g : Gen.graph) -> (g, write_graph dir g)) specs in
  (List.map snd files, fun () -> List.map (fun (spec, path) -> (spec, Graph_io.load path)) files)

(* Warm-up after loading: one bulk relation per graph fills the
   per-graph memos (bulk.csr, bulk.adjacency), and compiling every
   template atom fills the automata memos. *)
let warm_st loaded =
  List.iter
    (fun (_, g) -> ignore (Bulk_rpq.st_relation g (atom_nfa "a")))
    loaded;
  List.iter
    (fun t ->
      let q = parse (Gen.query_string t) in
      List.iter
        (fun d -> List.iter (fun (a : Crpq.atom) -> ignore (Crpq.nfa a.Crpq.lang)) d.Crpq.atoms)
        (Crpq.epsilon_free_disjuncts q))
    Gen.templates

let ref_answers g t =
  let rels = List.map (fun l -> Bulk_rpq.st_relation g (atom_nfa l)) t.Gen.langs in
  Gen.answers t (Graph.nnodes g) rels

let applicable kind t = kind = "gnm" || t.Gen.shape <> Gen.Cycle

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done;
  a

let st_fuel = 5_000_000

type workload = {
  setup : unit -> unit;  (** timed set-up, repeated *)
  ops : unit -> op array;  (** after the last set-up *)
  check : unit -> string list;  (** reference cross-checks, after the run *)
  rss_pid : unit -> string;
  files : string list;  (** edge lists the program loads *)
  teardown : unit -> unit;
  passes : int;
}

(* 16 graphs in all: the per-graph memos (bulk.csr, bulk.adjacency)
   hold 16 entries *)
let reach_gnm = 13

let reach_grids = [ (25, 40); (20, 50); (40, 25) ]

let reach_tuples = 2

let st_reach ~seed ~dir =
  let rng = Gen.rng seed 1 in
  let specs =
    List.init reach_gnm (fun i -> Gen.gnm rng ~name:(Printf.sprintf "gnm%d" i) ~nodes:1000 ~edges:1500)
    @ List.map (fun (rows, cols) -> Gen.grid ~name:(Printf.sprintf "grid%dx%d" rows cols) ~rows ~cols) reach_grids
  in
  let files, load = st_graphs dir specs in
  let loaded = ref [] in
  let setup () =
    Cache.clear_all ();
    loaded := load ();
    warm_st !loaded
  in
  let cases = ref [] in
  (* [reach_tuples] true and as many false tuples per applicable (graph,
     template): a check's cost depends on its tuple as well as on the
     graph.  A sparse cycle query can have no answer on one graph; its
     true tuples then come from another graph of the same kind, so every
     template keeps its share of true checks. *)
  let ops () =
    let op (spec : Gen.graph) g t ((x, y), expected) =
      let s = Gen.query_string t in
      cases := (s, g, [ x; y ], expected) :: !cases;
      let call q = ok (string_of_bool (Eval.check Semantics.St q g [ x; y ])) in
      {
        stratum = Printf.sprintf "%s/%s/%s" spec.Gen.kind t.Gen.tname (if expected then "pos" else "neg");
        prepare = ignore;
        run = (fun () -> guarded ~fuel:st_fuel (fun () -> call (parse s)));
        traced = (fun () -> traced_st ~eval_call:call ~fuel:st_fuel s g);
        expect = Some (string_of_bool expected);
      }
    in
    let l =
      List.concat_map
        (fun t ->
          List.concat_map
            (fun kind ->
              let graphs = List.filter (fun ((spec : Gen.graph), _) -> spec.Gen.kind = kind) !loaded in
              if not (applicable kind t) then []
              else begin
                let with_ans = List.map (fun (spec, g) -> (spec, g, ref_answers g t)) graphs in
                let answered =
                  Array.of_list
                    (List.filter (fun (_, _, ans) -> Array.exists (fun r -> not (Gen.Bits.is_empty r)) ans) with_ans)
                in
                List.concat_map
                  (fun (spec, g, ans) ->
                    let n = Graph.nnodes g in
                    List.concat
                      (List.init reach_tuples (fun _ ->
                           let pspec, pg, pans =
                             if Array.exists (fun r -> not (Gen.Bits.is_empty r)) ans then (spec, g, ans)
                             else answered.(Random.State.int rng (Array.length answered))
                           in
                           let pos = Option.get (Gen.draw_positive rng pans) in
                           [ op pspec pg t (pos, true); op spec g t (Gen.draw_negative rng n ans, false) ])))
                  with_ans
              end)
            [ "gnm"; "grid" ])
        Gen.templates
    in
    shuffle rng (Array.of_list l)
  in
  (* pointwise reference: Eval with the bulk engine off, on a sample *)
  let check () =
    let sample = List.filteri (fun i _ -> i mod 96 = 0) (List.rev !cases) in
    Bulk_rpq.set_mode Bulk_rpq.Off;
    let errs =
      List.filter_map
        (fun (s, g, tup, expected) ->
          if Eval.check Semantics.St (parse s) g tup = expected then None
          else Some (Printf.sprintf "pointwise check disagrees on %s" s))
        sample
    in
    Bulk_rpq.set_mode Bulk_rpq.Auto;
    errs
  in
  { setup; ops; check; rss_pid = (fun () -> "self"); files; teardown = ignore; passes = 1 }

let pairs_digest answers =
  let l = List.sort compare answers in
  Digest.to_hex
    (Digest.string (String.concat ";" (List.map (fun t -> String.concat "," (List.map string_of_int t)) l)))

let ref_pairs ans =
  let l = ref [] in
  Array.iteri (fun x row -> Gen.Bits.iter (fun y -> l := [ x; y ] :: !l) row) ans;
  !l

(* Join-heavy instances of the same families.  At label out-degree 1.5
   the closures are supercritical, so answer counts (and join cost)
   concentrate across random graphs; at degree 1 they are critical and
   the cost of one query varied 2x between graphs.  The (a|b)+ closure
   composed with a label is left out: at this density it alone took
   three quarters of busy time. *)
let join_templates =
  List.filter (fun t -> t.Gen.shape <> Gen.Star && t.Gen.tname <> "chain2-(a|b)+.c") Gen.templates
  @ [ { Gen.tname = "star3-a.b.c*"; shape = Gen.Star; langs = [ "a"; "b"; "c*" ] } ]

let join_nodes = 160

let st_join ~seed ~dir =
  let rng = Gen.rng seed 2 in
  let specs =
    List.init 32 (fun i -> Gen.gnm rng ~name:(Printf.sprintf "gnm%d" i) ~nodes:join_nodes ~edges:720)
  in
  let files, load = st_graphs dir specs in
  let loaded = ref [] in
  let setup () =
    Cache.clear_all ();
    loaded := load ();
    warm_st !loaded
  in
  let cases = ref [] in
  let ops () =
    let l =
      List.concat_map
        (fun (_, g) ->
          List.map
            (fun t ->
              let s = Gen.query_string t in
              let expected = pairs_digest (ref_pairs (ref_answers g t)) in
              cases := (s, g, expected) :: !cases;
              let call q =
                let a = Eval.eval Semantics.St q g in
                bump "eval.answers" (float (List.length a));
                ok (pairs_digest a)
              in
              {
                stratum = Printf.sprintf "n%d/%s" (Graph.nnodes g) t.Gen.tname;
                prepare = ignore;
                run = (fun () -> guarded ~fuel:st_fuel (fun () -> call (parse s)));
                traced = (fun () -> traced_st ~eval_call:call ~fuel:st_fuel s g);
                expect = Some expected;
              })
            join_templates)
        !loaded
    in
    shuffle rng (Array.of_list l)
  in
  (* at 160 nodes the default engine is pointwise, so the sample is
     cross-checked on the bulk engine *)
  let check () =
    let sample = List.filteri (fun i _ -> i mod 16 = 0) (List.rev !cases) in
    Bulk_rpq.set_mode Bulk_rpq.On;
    let errs =
      List.filter_map
        (fun (s, g, expected) ->
          if pairs_digest (Eval.eval Semantics.St (parse s) g) = expected then None
          else Some (Printf.sprintf "bulk-engine eval disagrees on %s" s))
        sample
    in
    Bulk_rpq.set_mode Bulk_rpq.Auto;
    errs
  in
  { setup; ops; check; rss_pid = (fun () -> "self"); files; teardown = ignore; passes = 2 }

(* ------------------------------------------------------------------ *)
(* contain: Containment.decide, cold caches                            *)
(* ------------------------------------------------------------------ *)

let contain_fuel = 2_000

let contain_bound = 3

let contain_sems = [ Semantics.St; Semantics.A_inj; Semantics.Q_inj ]

let contain_classes = [ Gen.Cq; Gen.Fin; Gen.Crpq ]

let contain_pairs_per_cell = 1000

let strategy_slug name =
  let has p = String.length name >= String.length p && String.sub name 0 (String.length p) = p in
  if has "trivial" then "trivial"
  else if has "cq-hom" then "cq_cq"
  else if has "regular" then "rpq"
  else if has "finite" then "finite_lhs"
  else if has "abstraction" then "qinj_abstraction"
  else if has "window" then "f7"
  else "bounded"

let strategy_slugs = [ "trivial"; "cq_cq"; "rpq"; "finite_lhs"; "qinj_abstraction"; "f7"; "bounded" ]

let contain_cells () =
  List.concat_map
    (fun sem ->
      List.concat_map
        (fun cls -> List.map (fun derived -> (sem, cls, derived)) [ true; false ])
        contain_classes)
    contain_sems

let cell_name (sem, cls, derived) =
  Printf.sprintf "%s/%s/%s" (Semantics.to_string sem) (Gen.cls_name cls)
    (if derived then "derived" else "independent")

let contain_pool seed =
  let rng = Gen.rng seed 3 in
  List.concat_map
    (fun (sem, cls, derived) ->
      (* fuel does not bound the Thm 5.1 abstraction algorithm's wall
         time tightly: at 3 atoms one q-inj CRPQ pair in 600 took 264 ms
         under the budget, at 2 atoms none took over 4 ms *)
      let natoms = if sem = Semantics.Q_inj && cls = Gen.Crpq then 2 else 3 in
      List.init contain_pairs_per_cell (fun _ ->
          let a1 = Gen.random_query rng cls ~nvars:4 ~natoms in
          let a2 =
            if derived then Gen.derive rng a1
            else Gen.random_query rng (if Random.State.bool rng then cls else Gen.Crpq) ~nvars:4 ~natoms
          in
          (cell_name (sem, cls, derived), sem, Gen.bool_query a1, Gen.bool_query a2)))
    (contain_cells ())
  |> Array.of_list
  |> shuffle rng

let verdict_outcome witnesses idx sem q2 = function
  | Containment.Contained -> ok "contained"
  | Containment.Not_contained w ->
    if not (Hashtbl.mem witnesses idx) then Hashtbl.replace witnesses idx (sem, q2, w);
    ok ("not-contained:" ^ Cq.to_string w.Containment.expansion.Expansion.cq)
  | Containment.Unknown (Containment.Resource_exhausted { Guard.reason = Guard.Deadline_exceeded _; _ }) ->
    failed "hard stop"
  | Containment.Unknown r ->
    ok ~decided:false ("unknown:" ^ Containment.reason_to_string r)

let contain ~seed =
  let pool = contain_pool seed in
  let setup () =
    (* cold start of a CLI call: parse and compile the pool's queries *)
    Cache.clear_all ();
    Array.iter
      (fun (_, _, s1, s2) ->
        List.iter
          (fun s -> List.iter (fun (a : Crpq.atom) -> ignore (Crpq.nfa a.Crpq.lang)) (parse s).Crpq.atoms)
          [ s1; s2 ])
      pool
  in
  let witnesses = Hashtbl.create 256 in
  let decide sem q1 q2 =
    let guard = Guard.create ~fuel:contain_fuel ~deadline_ms:hard_stop_ms () in
    Containment.decide ~bound:contain_bound ~guard sem q1 q2
  in
  let ops () =
    Array.mapi
      (fun idx (stratum, sem, s1, s2) ->
        {
          stratum;
          prepare = Cache.clear_all;
          run =
            (fun () ->
              try
                let q1 = parse s1 and q2 = parse s2 in
                verdict_outcome witnesses idx sem s2 (decide sem q1 q2)
              with e -> failed (Printexc.to_string e));
          traced =
            (fun () ->
              try
                let (q1, q2), parse_ms = timed "parse" (fun () -> (parse s1, parse s2)) in
                add_self "parse" parse_ms;
                let (), auto_ms =
                  timed "automata" (fun () ->
                      List.iter
                        (fun (a : Crpq.atom) -> ignore (Crpq.nfa a.Crpq.lang))
                        (q1.Crpq.atoms @ q2.Crpq.atoms))
                in
                add_self "automata" auto_ms;
                bump "automata.compile_ms" auto_ms;
                let slug = strategy_slug (Containment.strategy_name sem q1 q2) in
                let v, s = counted ("core.containment." ^ slug) (fun () -> decide sem q1 q2) in
                add_self "core" (Meter.span_ms s);
                bump ("containment.ms." ^ slug) (Meter.span_ms s);
                bump ("containment.n." ^ slug) 1.;
                verdict_outcome witnesses idx sem s2 v
              with e -> failed (Printexc.to_string e));
          expect = None;
        })
      pool
  in
  let check () =
    Hashtbl.fold
      (fun idx (sem, q2, w) errs ->
        if Containment.is_counterexample sem (parse q2) w.Containment.expansion then errs
        else Printf.sprintf "witness of pair %d is not a counterexample" idx :: errs)
      witnesses []
  in
  { setup; ops; check; rss_pid = (fun () -> "self"); files = []; teardown = ignore; passes = 1 }

(* ------------------------------------------------------------------ *)
(* serve-mix: the injcrpq serve daemon, one closed-loop client         *)
(* ------------------------------------------------------------------ *)

let serve_steps = 200_000

(* the cost of a-inj evals varies most between graphs, so twelve small
   graphs, not six: fewer than 16, the daemon's per-graph memo size *)
let serve_graph_sizes = [ 40; 40; 45; 45; 50; 50; 55; 55; 60; 60; 60; 60 ]

let serve_contains = 72

let serve_requests seed =
  let rng = Gen.rng seed 4 in
  let specs =
    List.mapi
      (fun i n -> Gen.gnm rng ~name:(Printf.sprintf "g%d" i) ~nodes:n ~edges:(3 * n / 2))
      serve_graph_sizes
  in
  let loaded = List.map (fun (g : Gen.graph) -> (g.Gen.gname, Graph_io.of_string (Gen.edge_list g))) specs in
  let evals =
    List.concat_map
      (fun (gname, g) ->
        List.concat_map
          (fun sem ->
            List.concat_map
              (fun t ->
                let s = Gen.query_string t in
                let ans = ref_answers g t in
                let x, y =
                  match Gen.draw_positive rng ans with
                  | Some p when Random.State.bool rng -> p
                  | _ -> Gen.draw_negative rng (Graph.nnodes g) ans
                in
                let stratum = Printf.sprintf "eval/%s" (Semantics.to_string sem) in
                [ (stratum ^ "/tuple",
                   Serve.Protocol.request ~sem ~query:s ~graph:gname ~tuple:[ x; y ]
                     ~max_steps:serve_steps Serve.Protocol.Eval);
                  (stratum ^ "/all",
                   Serve.Protocol.request ~sem ~query:s ~graph:gname ~max_steps:serve_steps
                     Serve.Protocol.Eval) ])
              Gen.templates)
          contain_sems)
      loaded
  in
  let contains =
    List.init serve_contains (fun i ->
        let sem = List.nth contain_sems (i mod 3) in
        let cls = List.nth contain_classes (i / 3 mod 3) in
        let a1 = Gen.random_query rng cls ~nvars:3 ~natoms:2 in
        let a2 = if i mod 2 = 0 then Gen.derive rng a1 else Gen.random_query rng cls ~nvars:3 ~natoms:2 in
        ( "contain/" ^ Semantics.to_string sem,
          Serve.Protocol.request ~sem ~lhs:(Gen.bool_query a1) ~rhs:(Gen.bool_query a2)
            ~bound:2 ~max_steps:serve_steps Serve.Protocol.Contain ))
  in
  let optimizes =
    List.concat_map
      (fun t ->
        List.map
          (fun sem ->
            ( "optimize/" ^ Semantics.to_string sem,
              Serve.Protocol.request ~sem ~query:(Gen.query_string t) ~bound:2
                ~max_steps:serve_steps Serve.Protocol.Optimize ))
          [ Semantics.St; Semantics.Q_inj ])
      Gen.templates
  in
  let reqs = Array.of_list (evals @ contains @ optimizes) in
  let reqs = shuffle rng reqs in
  let reqs = Array.mapi (fun i (s, (r : Serve.Protocol.request)) -> (s, { r with id = Obs.Json.Int i })) reqs in
  (specs, loaded, reqs)

(* the response fields that are a function of the request alone *)
let response_digest (r : Serve.Protocol.response) =
  let field k = Option.value (List.assoc_opt k r.Serve.Protocol.body) ~default:Obs.Json.Null in
  let keep =
    match r.Serve.Protocol.op with
    | Some Serve.Protocol.Eval -> [ field "check"; field "answers"; field "tuples" ]
    | Some Serve.Protocol.Contain -> [ field "verdict"; field "counterexample" ]
    | Some Serve.Protocol.Optimize -> (
      match field "result" with
      | Obs.Json.Obj _ as j ->
        [ Option.value (Obs.Json.member "after" j) ~default:Obs.Json.Null ]
      | j -> [ j ])
    | _ -> []
  in
  let kind =
    match Obs.Json.member "kind" (field "reason") with
    | Some (Obs.Json.String k) -> k
    | _ -> ""
  in
  Serve.Protocol.status_to_string r.Serve.Protocol.status ^ ":" ^ kind ^ ":"
  ^ Obs.Json.to_string (Obs.Json.List keep)

let serve_outcome (r : Serve.Protocol.response) =
  let digest = response_digest r in
  match r.Serve.Protocol.status with
  | Serve.Protocol.Ok_ -> ok digest
  | Serve.Protocol.Unknown ->
    if String.length digest > 16 && String.sub digest 0 16 = "unknown:deadline" then
      failed "hard stop"
    else ok ~decided:false digest
  | s -> failed (Serve.Protocol.status_to_string s)

let serve_mix ~seed ~dir =
  let specs, loaded, reqs = serve_requests seed in
  let files = List.map (fun g -> (g.Gen.gname, write_graph dir g)) specs in
  let sock = Filename.concat dir "serve.sock" in
  let daemon = ref None in
  let stop () =
    match !daemon with
    | None -> ()
    | Some (pid, client) ->
      daemon := None;
      (try Serve.Client.close client with _ -> ());
      (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
      ignore (Unix.waitpid [] pid)
  in
  let request client req =
    match Serve.Client.send client req with
    | Error e -> Error e
    | Ok () -> Serve.Client.recv ~timeout_ms:(hard_stop_ms + 10_000) client
  in
  let setup () =
    stop ();
    let args =
      [ injcrpq; "serve"; "--socket"; sock; "--workers"; "1" ]
      @ List.concat_map (fun (n, f) -> [ "--graph"; n ^ "=" ^ f ]) files
    in
    let null = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
    (try Unix.unlink sock with Unix.Unix_error _ -> ());
    let pid =
      Unix.create_process_env injcrpq (Array.of_list args) (daemon_env ()) null null null
    in
    Unix.close null;
    let rec connect tries =
      match Serve.Client.connect_unix sock with
      | c -> c
      | exception Unix.Unix_error _ when tries > 0 ->
        Unix.sleepf 0.002;
        connect (tries - 1)
    in
    let client = connect 10_000 in
    daemon := Some (pid, client);
    (match Serve.Client.greeting ~timeout_ms:10_000 client with
    | Ok _ -> ()
    | Error e -> failwith ("daemon greeting: " ^ e));
    (* fill the daemon's per-graph memos and automata caches: one st
       eval of every template on every graph.  A single tiny request per
       graph left set-up to process start-up alone, whose cost drifted
       by 70% between sets of runs. *)
    List.iter
      (fun (name, _) ->
        List.iter
          (fun t ->
            match
              request client
                (Serve.Protocol.request ~query:(Gen.query_string t) ~graph:name Serve.Protocol.Eval)
            with
            | Ok _ -> ()
            | Error e -> failwith ("daemon warm-up: " ^ e))
          Gen.templates)
      files
  in
  let client () = match !daemon with Some (_, c) -> c | None -> failwith "no daemon" in
  (* in-process replica with the daemon's configuration: the reference
     outputs, and serve.handle_ms in the traced run *)
  let replica = lazy (Serve.Server.create (Serve.Server.config ~workers:1 ~graphs:loaded ())) in
  let reference = Hashtbl.create 256 in
  let expected i req =
    match Hashtbl.find_opt reference i with
    | Some d -> d
    | None ->
      let d = response_digest (Serve.Server.handle_request (Lazy.force replica) req) in
      Hashtbl.replace reference i d;
      d
  in
  let graph_of req = List.assoc (Option.get req.Serve.Protocol.graph) loaded in
  let ops () =
    (* warm pass: the daemon's automata caches fill as they do for a
       user's repeated traffic; references come from the replica *)
    Array.iteri
      (fun i (_, req) ->
        ignore (expected i req);
        ignore (request (client ()) req))
      reqs;
    (* creating the replica turned metrics on, as it does in the daemon *)
    Obs.Metrics.set_enabled false;
    Array.mapi
      (fun i (stratum, (req : Serve.Protocol.request)) ->
        let exp = Some (expected i req) in
        let call () =
          match request (client ()) req with
          | Ok r -> serve_outcome r
          | Error e -> failed ("dropped: " ^ e)
        in
        {
          stratum;
          prepare = ignore;
          run = call;
          traced =
            (fun () ->
              let out, lat = timed "serve.request" call in
              let _, span =
                counted "serve.handle" (fun () -> Serve.Server.handle_request (Lazy.force replica) req)
              in
              let handle = Meter.span_ms span in
              bump "serve.handle_ms" handle;
              bump "serve.overhead_ms" (Float.max 0. (lat -. handle));
              add_self "serve" (Float.max 0. (lat -. handle));
              (* the replica's time split: replays of the optimizer and of
                 a-inj simple-path relations, the rest is the core *)
              let replayed =
                match req.Serve.Protocol.op with
                | Serve.Protocol.Optimize ->
                  let (), ms =
                    timed "analysis" (fun () ->
                        let q = parse (Option.get req.Serve.Protocol.query) in
                        Guard.with_guard (Guard.create ~fuel:serve_steps ()) (fun () ->
                            try ignore (Analysis.optimize ~sem:req.Serve.Protocol.sem ~bound:2 q)
                            with Guard.Trip _ -> ()))
                  in
                  bump "analysis.optimize_ms" ms;
                  add_self "analysis" ms;
                  ms
                | Serve.Protocol.Eval when req.Serve.Protocol.sem = Semantics.A_inj ->
                  let q = parse (Option.get req.Serve.Protocol.query) in
                  let (), ms =
                    timed "graphdb" (fun () -> replay_relations ~simple:true (graph_of req) q)
                  in
                  bump "graphdb.simple_relation_ms" ms;
                  add_self "graphdb" ms;
                  ms
                | _ -> 0.
              in
              add_self "core" (Float.max 0. (handle -. replayed));
              out);
          expect = exp;
        })
      reqs
  in
  (* the injective evaluators behind eval requests, against the
     expansion semantics; expansions are exponential, so on 6-node
     graphs of the same density *)
  let check () =
    let rng = Gen.rng seed 5 in
    List.concat_map
      (fun i ->
        let g =
          Graph_io.of_string (Gen.edge_list (Gen.gnm rng ~name:"tiny" ~nodes:6 ~edges:12))
        in
        List.concat_map
          (fun t ->
            let q = parse (Gen.query_string t) in
            let pos = Gen.draw_positive rng (ref_answers g t) in
            let tup = match pos with Some (x, y) -> [ x; y ] | None -> [ i; 5 - i ] in
            List.filter_map
              (fun sem ->
                if Eval.check sem q g tup = Eval.check_via_expansions sem q g tup then None
                else
                  Some
                    (Printf.sprintf "%s eval disagrees with expansions on %s"
                       (Semantics.to_string sem) (Gen.query_string t)))
              [ Semantics.A_inj; Semantics.Q_inj ])
          Gen.templates)
      [ 0; 1 ]
  in
  let rss_pid () = match !daemon with Some (pid, _) -> string_of_int pid | None -> "self" in
  let stats () =
    match request (client ()) (Serve.Protocol.request Serve.Protocol.Stats) with
    | Ok r ->
      let get k =
        match Option.bind (List.assoc_opt "serve" r.Serve.Protocol.body) (Obs.Json.member k) with
        | Some (Obs.Json.Int n) -> float n
        | _ -> 0.
      in
      (get "serve.unknown", get "serve.retried")
    | Error _ -> (0., 0.)
  in
  ({ setup; ops; check; rss_pid; files = List.map snd files; teardown = stop; passes = 5 }, stats)

(* ------------------------------------------------------------------ *)
(* The measured loop                                                   *)
(* ------------------------------------------------------------------ *)

type sample = {
  idx : int;
  interval : int;  (** probe interval the operation ran in *)
  raw_ms : float;
  mutable norm_ms : float;
  out : outcome;
  minor_words : float;
}

(* interval k lies between probes k and k+1 *)
let normalise probes samples =
  Array.iter
    (fun s ->
      let p = (probes.(s.interval) +. probes.(s.interval + 1)) /. 2. in
      s.norm_ms <- s.raw_ms *. Meter.reference_probe_ms /. p)
    samples

(* Run [passes] whole passes over [ops], probing between operations
   after each ~0.5 s of busy time. *)
let measure ~passes ~traced ~deadline_ns ops =
  let samples = ref [] and busy = ref 0. and interval = ref 0 in
  let probes = ref [ Meter.probe () ] in
  let record idx raw_ms out minor_words =
    samples := { idx; interval = !interval; raw_ms; norm_ms = raw_ms; out; minor_words } :: !samples
  in
  for _ = 1 to passes do
    Array.iteri
      (fun idx op ->
        if !busy >= 500. then begin
          probes := Meter.probe () :: !probes;
          incr interval;
          busy := 0.
        end;
        if Int64.compare (Meter.now_ns ()) deadline_ns > 0 then record idx 0. (failed "run hard stop") 0.
        else begin
          op.prepare ();
          Meter.current_op := idx;
          let m0 = Gc.minor_words () in
          let t0 = Meter.now_ns () in
          let out =
            if traced then fst (Meter.with_span "op" (fun () -> op.traced ())) else op.run ()
          in
          let t1 = Meter.now_ns () in
          let m1 = Gc.minor_words () in
          let out =
            match (op.expect, out.failure) with
            | Some e, None when e <> out.digest -> { out with failure = Some "wrong output" }
            | _ -> out
          in
          let ms = Meter.ms_of_ns (Int64.sub t1 t0) in
          busy := !busy +. ms;
          record idx ms out (m1 -. m0)
        end)
      ops
  done;
  probes := Meter.probe () :: !probes;
  let samples = Array.of_list (List.rev !samples) and probes = Array.of_list (List.rev !probes) in
  normalise probes samples;
  (samples, probes)

(* ------------------------------------------------------------------ *)
(* Per-workload fixed parameters                                       *)
(* ------------------------------------------------------------------ *)

(* tail percentile, fixed per workload: at least 10 samples beyond it *)
let tail_pct = function
  | "st-reach" -> 90.
  | "st-join" -> 90.
  | "contain" -> 95.
  | _ -> 95.

(* setup repetitions; setup_s is their median *)
let setup_reps = function "st-reach" -> 5 | _ -> 9

(* ------------------------------------------------------------------ *)
(* Output                                                              *)
(* ------------------------------------------------------------------ *)

let json_metric (name, value, unit_) =
  Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name
    (if Float.is_integer value && Float.abs value < 1e15 then Printf.sprintf "%.1f" value
     else Printf.sprintf "%.17g" value)
    unit_

let result_line ~correct ~attempted ~failed metrics =
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed
    (String.concat ", " (List.map json_metric metrics))

let per_op total n = if n = 0 then 0. else total /. float n

let per_layer_metrics ~samples ~untraced_busy ~traced_busy ~probe_ms ~gc_minor ~gc_major
    ~serve_stats =
  let n = Array.length samples in
  let get k = Option.value (Hashtbl.find_opt acc k) ~default:0. in
  let self k = Option.value (Hashtbl.find_opt self_ms k) ~default:0. in
  let hits = get "cache.hits" and misses = get "cache.misses" in
  let unknown, retried = serve_stats in
  let bench_self =
    traced_busy -. List.fold_left (fun a l -> a +. self l) 0.
                     [ "parse"; "automata"; "graphdb"; "core"; "analysis"; "serve" ]
  in
  [ ("parse.ms", per_op (self "parse") n, "ms");
    ("automata.compile_ms", per_op (get "automata.compile_ms") n, "ms");
    ("nfa.product_states", per_op (get "nfa.product_states") n, "count");
    ("cache.hit_ratio", (if hits +. misses = 0. then 0. else hits /. (hits +. misses)), "ratio");
    ("graphdb.relation_ms", per_op (get "graphdb.relation_ms") n, "ms");
    ("bulk.sweeps", per_op (get "bulk.sweeps") n, "count");
    ("bulk.words_anded", per_op (get "bulk.words_anded") n, "count");
    ("bulk.bits_scattered", per_op (get "bulk.bits_scattered") n, "count");
    ("bulk.sweep_sparse", per_op (get "bulk.sweep_sparse") n, "count");
    ("bulk.sweep_dense", per_op (get "bulk.sweep_dense") n, "count");
    ("bulk.peak_tile_words", float (Bulk_rpq.peak_tile_words ()), "words");
    ("graphdb.simple_relation_ms", per_op (get "graphdb.simple_relation_ms") n, "ms");
    ("path_search.product_states", per_op (get "path_search.product_states") n, "count");
    ("path_search.simple_backtracks", per_op (get "path_search.simple_backtracks") n, "count");
    ("morphism.candidates_tried", per_op (get "morphism.candidates_tried") n, "count");
    ("morphism.backtracks", per_op (get "morphism.backtracks") n, "count");
    ("graphdb.load_ms", get "graphdb.load_ms", "ms");
    ("eval.join_ms", per_op (get "eval.join_ms") n, "ms");
    ("eval.candidates_tried", per_op (get "eval.candidates_tried") n, "count");
    ("eval.answer_yield",
     (let c = get "eval.candidates_tried" in if c = 0. then 0. else get "eval.answers" /. c),
     "ratio");
    ("eval.disjuncts", per_op (get "eval.disjuncts") n, "count") ]
  @ List.map
      (fun slug ->
        ( "containment.ms." ^ slug,
          per_op (get ("containment.ms." ^ slug))
            (int_of_float (get ("containment.n." ^ slug))),
          "ms" ))
      strategy_slugs
  @ [ ("containment.expansions_enumerated", per_op (get "containment.expansions_enumerated") n, "count");
      ("qinj.abstraction_states", per_op (get "qinj.abstraction_states") n, "count");
      ("f7.window_words", per_op (get "f7.window_words") n, "count");
      ("guard.checkpoints", per_op (get "guard.checkpoints") n, "count");
      ("analysis.optimize_ms", per_op (get "analysis.optimize_ms") n, "ms");
      ("analysis.certificates_checked", per_op (get "analysis.certificates_checked") n, "count");
      ("serve.handle_ms", per_op (get "serve.handle_ms") n, "ms");
      ("serve.overhead_ms", per_op (get "serve.overhead_ms") n, "ms");
      ("serve.unknown", unknown, "count");
      ("serve.retried", retried, "count");
      ("gc.minor_mw_per_op", per_op (gc_minor /. 1e6) n, "Mwords");
      ("gc.major_collections_per_op", per_op gc_major n, "count") ]
  @ List.map
      (fun l -> ("self_ms." ^ l, per_op (if l = "bench" then bench_self else self l) n, "ms"))
      [ "parse"; "automata"; "graphdb"; "core"; "analysis"; "serve"; "bench" ]
  @ [ ("trace.overhead", (if untraced_busy = 0. then 0. else traced_busy /. untraced_busy), "ratio");
      ("machine.probe_ms", probe_ms, "ms") ]

(* ------------------------------------------------------------------ *)
(* Main                                                                *)
(* ------------------------------------------------------------------ *)

type args = {
  mutable workload : string option;
  mutable seed : int option;
  mutable seconds : int option;
  mutable trace : bool option;
  mutable report : string option;
  mutable mix : bool;
}

let parse_args argv =
  let a =
    { workload = None; seed = None; seconds = None; trace = None; report = None;
      mix = false }
  in
  let int_arg flag v =
    match int_of_string_opt v with
    | Some n -> n
    | None -> die "%s expects an integer, got %S" flag v
  in
  let rec go = function
    | [] -> ()
    | "--workload" :: v :: rest ->
      if not (List.mem v workload_names) then
        die "unknown workload %S (known: %s)" v (String.concat ", " workload_names);
      a.workload <- Some v;
      go rest
    | "--seed" :: v :: rest ->
      a.seed <- Some (int_arg "--seed" v);
      go rest
    | "--seconds" :: v :: rest ->
      let s = int_arg "--seconds" v in
      if s < 1 || s > 600 then die "--seconds must be in 1..600, got %d" s;
      a.seconds <- Some s;
      go rest
    | "--trace" :: v :: rest ->
      (match v with
      | "0" -> a.trace <- Some false
      | "1" -> a.trace <- Some true
      | _ -> die "--trace expects 0 or 1, got %S" v);
      go rest
    | "--report" :: v :: rest ->
      a.report <- Some v;
      go rest
    | "--mix" :: rest ->
      a.mix <- true;
      go rest
    | ("-h" | "--help") :: _ -> usage ()
    | x :: _ -> die "unexpected argument %S" x
  in
  go (List.tl (Array.to_list argv));
  a

let mkdir_p d = if not (Sys.file_exists d) then Sys.mkdir d 0o755

(* One timed set-up in a forked child, so every repetition starts from
   the same heap: in-process repetitions alternated between two speeds
   as major collections fell in or out of them. *)
let forked_setup wl =
  let r, w = Unix.pipe () in
  match Unix.fork () with
  | 0 ->
    Unix.close r;
    (* the child never returns into the parent's code, and stops any
       daemon it started *)
    (match
       Fun.protect ~finally:wl.teardown (fun () ->
           let t0 = Meter.now_ns () in
           wl.setup ();
           Meter.ms_of_ns (Int64.sub (Meter.now_ns ()) t0) /. 1e3)
     with
    | secs ->
      let s = Printf.sprintf "%.9f" secs in
      ignore (Unix.write_substring w s 0 (String.length s))
    | exception e -> prerr_endline ("bench: set-up failed: " ^ Printexc.to_string e));
    Unix._exit 0
  | pid ->
    Unix.close w;
    let ic = Unix.in_channel_of_descr r in
    let line = try input_line ic with End_of_file -> "" in
    close_in ic;
    ignore (Unix.waitpid [] pid);
    (match float_of_string_opt line with Some t -> t | None -> failwith "set-up failed")

(* [--mix]: a seed's pools against the stated stratum shares.  The
   counts are fixed by construction except st-reach's positive tuples,
   which need a non-empty answer set. *)
let mix_check seed =
  let bad = ref false in
  let share name strata stated =
    let n = List.length strata in
    let count k = List.length (List.filter (( = ) k) strata) in
    List.iter
      (fun (k, want) ->
        let got = float (count k) /. float n in
        let okay = Float.abs (got -. want) < 1e-9 in
        if not okay then bad := true;
        Printf.printf "%-10s %-40s %6.3f (stated %6.3f)%s\n" name k got want
          (if okay then "" else "  MISMATCH"))
      stated
  in
  let dir = Filename.concat out_dir (Printf.sprintf "mix-%d-%d" seed (Unix.getpid ())) in
  mkdir_p out_dir;
  mkdir_p dir;
  let strata_of wl =
    wl.setup ();
    let strata = Array.to_list (Array.map (fun o -> o.stratum) (wl.ops ())) in
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
    strata
  in
  let strata = strata_of (st_reach ~seed ~dir) in
  let join_strata = strata_of (st_join ~seed ~dir) in
  Sys.rmdir dir;
  let total = float ((reach_gnm * List.length Gen.templates * 2) + (List.length reach_grids * 4 * 2)) in
  share "st-reach" strata
    (List.concat_map
       (fun t ->
         List.concat_map
           (fun (kind, graphs) ->
             if applicable kind t then
               List.map (fun pn -> (Printf.sprintf "%s/%s/%s" kind t.Gen.tname pn, float graphs /. total))
                 [ "pos"; "neg" ]
             else [])
           [ ("gnm", reach_gnm); ("grid", List.length reach_grids) ])
       Gen.templates);
  share "st-join" join_strata
    (List.map
       (fun t -> (Printf.sprintf "n%d/%s" join_nodes t.Gen.tname, 1. /. float (List.length join_templates)))
       join_templates);
  let cells = contain_cells () in
  share "contain"
    (Array.to_list (Array.map (fun (s, _, _, _) -> s) (contain_pool seed)))
    (List.map (fun c -> (cell_name c, 1. /. float (List.length cells))) cells);
  let _, _, reqs = serve_requests seed in
  let nsem = List.length contain_sems and nt = List.length Gen.templates in
  let ng = List.length serve_graph_sizes in
  let total = float ((ng * nsem * nt * 2) + serve_contains + (nt * 2)) in
  share "serve-mix"
    (Array.to_list (Array.map fst reqs))
    (List.concat_map
       (fun sem ->
         let s = Semantics.to_string sem in
         [ ("eval/" ^ s ^ "/tuple", float (ng * nt) /. total);
           ("eval/" ^ s ^ "/all", float (ng * nt) /. total);
           ("contain/" ^ s, float (serve_contains / nsem) /. total) ]
         @ if sem = Semantics.A_inj then [] else [ ("optimize/" ^ s, float nt /. total) ])
       contain_sems);
  if !bad then exit 1

let () =
  let a = parse_args Sys.argv in
  if a.mix then begin
    match a.seed with
    | None -> die "--mix needs --seed"
    | Some seed -> mix_check seed; exit 0
  end;
  let workload = match a.workload with Some w -> w | None -> die "--workload is required" in
  let seed = match a.seed with Some s -> s | None -> die "--seed is required" in
  let seconds = match a.seconds with Some s -> s | None -> die "--seconds is required" in
  let traced = match a.trace with Some t -> t | None -> die "--trace is required" in
  if workload = "serve-mix" && not (Sys.file_exists injcrpq) then
    die "daemon binary %s not found" injcrpq;
  fix_settings ();
  mkdir_p out_dir;
  let dir = Filename.concat out_dir (Printf.sprintf "%s-%d-%d" workload seed (Unix.getpid ())) in
  mkdir_p dir;
  let serve_stats = ref (fun () -> (0., 0.)) in
  let wl =
    match workload with
    | "st-reach" -> st_reach ~seed ~dir
    | "st-join" -> st_join ~seed ~dir
    | "contain" -> contain ~seed
    | _ ->
      let wl, stats = serve_mix ~seed ~dir in
      serve_stats := stats;
      wl
  in
  let cleanup () =
    wl.teardown ();
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
    Sys.rmdir dir
  in
  at_exit cleanup;
  (* a signal still stops the daemon and removes the inputs *)
  List.iter (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> exit 130))) [ Sys.sigterm; Sys.sigint ];
  (* timed set-up, repeated; scaled like the operations, by the median
     of probes taken between repetitions: with only the two probes around
     the repetitions, one stalled probe once scaled setup_s down 5x *)
  let setup_raw_s =
    let probes = ref [ Meter.probe () ] in
    let t =
      Array.init (setup_reps workload) (fun _ ->
          let x = forked_setup wl in
          probes := Meter.probe () :: !probes;
          x)
    in
    let scale = Meter.reference_probe_ms /. Meter.median (Array.of_list !probes) in
    Array.map (fun x -> (x, x *. scale)) t
  in
  wl.setup ();
  let setup_s = Array.map snd setup_raw_s in
  if traced then
    (* Graph_io.load on its own, per graph *)
    List.iter
      (fun f ->
        let _, ms = timed "graphdb.load" (fun () -> Graph_io.load f) in
        bump "graphdb.load_ms" (ms /. float (List.length wl.files)))
      wl.files;
  let ops = wl.ops () in
  Meter.reset_hwm (wl.rss_pid ());
  (* whole passes: [passes] at the nominal 20 s, scaled with --seconds *)
  let passes = max 1 (int_of_float (Float.round (float wl.passes *. float seconds /. 20.))) in
  let deadline_ns = Int64.add (Meter.now_ns ()) (Int64.of_float (150e9)) in
  let serve_before = ref (0., 0.) in
  let untraced_busy, samples, probes, gc_major =
    if not traced then begin
      let major0 = (Gc.quick_stat ()).Gc.major_collections in
      let samples, probes = measure ~passes ~traced:false ~deadline_ns ops in
      let major1 = (Gc.quick_stat ()).Gc.major_collections in
      (0., samples, probes, float (major1 - major0))
    end
    else begin
      (* one untraced pass for trace.overhead, then one traced pass *)
      let base, _ = measure ~passes:1 ~traced:false ~deadline_ns ops in
      Obs.Metrics.set_enabled true;
      Bulk_rpq.reset_peak_tile_words ();
      serve_before := !serve_stats ();
      let major0 = (Gc.quick_stat ()).Gc.major_collections in
      let samples, probes = measure ~passes:1 ~traced:true ~deadline_ns ops in
      let major1 = (Gc.quick_stat ()).Gc.major_collections in
      (Meter.sum (Array.map (fun s -> s.raw_ms) base), samples, probes, float (major1 - major0))
    end
  in
  let peak_rss_mb = Meter.vm_hwm_mb (wl.rss_pid ()) in
  let serve_counts =
    let u1, r1 = if traced then !serve_stats () else (0., 0.) in
    let u0, r0 = !serve_before in
    (per_op (u1 -. u0) (Array.length samples), per_op (r1 -. r0) (Array.length samples))
  in
  wl.teardown ();
  (* reference cross-checks, outside the timed loop *)
  let check_errors = wl.check () in
  let attempted = Array.length samples in
  let failures = Array.to_list samples |> List.filter (fun s -> s.out.failure <> None) in
  let nfailed = List.length failures in
  (* every pass must repeat the first pass's outputs *)
  let first = Hashtbl.create 256 in
  let drift = ref 0 in
  Array.iter
    (fun s ->
      match Hashtbl.find_opt first s.idx with
      | None -> Hashtbl.replace first s.idx s.out.digest
      | Some d -> if d <> s.out.digest then incr drift)
    samples;
  let wrong = List.length (List.filter (fun s -> s.out.failure = Some "wrong output") failures) in
  let correct = wrong = 0 && check_errors = [] && !drift = 0 in
  let norm = Array.map (fun s -> s.norm_ms) samples in
  let raw = Array.map (fun s -> s.raw_ms) samples in
  let decided = Array.fold_left (fun n s -> if s.out.decided then n + 1 else n) 0 samples in
  let pct = tail_pct workload in
  let beyond =
    let tail = Meter.percentile pct norm in
    Array.fold_left (fun n x -> if x > tail then n + 1 else n) 0 norm
  in
  let timing arr =
    [ ("ops_per_s", float attempted /. (Meter.sum arr /. 1e3), "ops/s");
      ("lat_p50_ms", Meter.median arr, "ms");
      ("lat_tail_ms", Meter.percentile pct arr, "ms") ]
  in
  let end_to_end =
    [ ("setup_s", Meter.median setup_s, "s") ]
    @ timing norm
    @ [ ("peak_rss_mb", peak_rss_mb, "MiB");
        ("decided_ratio", float decided /. float (max 1 attempted), "ratio") ]
  in
  let minor = Meter.sum (Array.map (fun s -> s.minor_words) samples) in
  let outcome_digest =
    Digest.to_hex (Digest.string (String.concat "\n" (Array.to_list (Array.map (fun s -> s.out.digest) samples))))
  in
  let probe_ms = Meter.median probes in
  (* share of busy time taken by the costliest 1% of inputs *)
  let per_input = Hashtbl.create 256 in
  Array.iter
    (fun s -> Hashtbl.replace per_input s.idx (s.raw_ms +. Option.value (Hashtbl.find_opt per_input s.idx) ~default:0.))
    samples;
  let costs = List.sort (fun x y -> compare y x) (Hashtbl.fold (fun _ v l -> v :: l) per_input []) in
  let top = max 1 (List.length costs / 100) in
  let top1_share = List.fold_left ( +. ) 0. (List.filteri (fun i _ -> i < top) costs) /. Meter.sum raw in
  let metrics =
    if not traced then end_to_end
    else
      per_layer_metrics ~samples ~untraced_busy
        ~traced_busy:(Meter.sum raw) ~probe_ms
        ~gc_minor:minor ~gc_major ~serve_stats:serve_counts
  in
  List.iter (fun e -> prerr_endline ("bench: check failed: " ^ e)) check_errors;
  List.iteri
    (fun i s -> if i < 5 then Printf.eprintf "bench: op %d failed: %s\n" s.idx (Option.get s.out.failure))
    failures;
  if !drift > 0 then Printf.eprintf "bench: %d outputs differ between passes\n" !drift;
  if beyond < 10 && not traced then Printf.eprintf "bench: only %d samples beyond p%g\n" beyond pct;
  (match a.report with
  | None -> ()
  | Some path ->
    let fields =
      [ ("workload", Obs.Json.String workload);
        ("seed", Obs.Json.Int seed);
        ("seconds", Obs.Json.Int seconds);
        ("trace", Obs.Json.Bool traced);
        ("passes", Obs.Json.Int passes);
        ("pool", Obs.Json.Int (Array.length ops));
        ("tail_pct", Obs.Json.Float pct);
        ("samples_beyond_tail", Obs.Json.Int beyond);
        ("metrics", Obs.Json.Obj (List.map (fun (k, v, _) -> (k, Obs.Json.Float v)) metrics));
        ("raw", Obs.Json.Obj (List.map (fun (k, v, _) -> (k, Obs.Json.Float v)) (timing raw)));
        ("setup_s_raw", Obs.Json.List (Array.to_list (Array.map (fun (x, _) -> Obs.Json.Float x) setup_raw_s)));
        ("probe_ms", Obs.Json.Float probe_ms);
        ("top1pct_busy_share", Obs.Json.Float top1_share);
        ("fingerprint",
         Obs.Json.Obj
           ([ ("attempted", Obs.Json.Int attempted);
              ("outcomes", Obs.Json.String outcome_digest);
              ("decided", Obs.Json.Int decided) ]
           @ (if workload = "serve-mix" then [] else [ ("minor_words", Obs.Json.Float minor) ])
           @
           if traced then
             [ ("guard.checkpoints",
                Obs.Json.Float (Option.value (Hashtbl.find_opt acc "guard.checkpoints") ~default:0.)) ]
           else []));
        ("strata",
         Obs.Json.Obj
           (let t = Hashtbl.create 16 in
            Array.iter
              (fun s ->
                let k = ops.(s.idx).stratum in
                Hashtbl.replace t k (s.norm_ms +. Option.value (Hashtbl.find_opt t k) ~default:0.))
              samples;
            List.sort compare (Hashtbl.fold (fun k v l -> (k, Obs.Json.Float v) :: l) t [])));
        (* counted by the daemon's domains, where increments can be lost *)
        ("approximate",
         Obs.Json.List
           (if traced && workload = "serve-mix" then
              [ Obs.Json.String "serve.unknown"; Obs.Json.String "serve.retried" ]
            else []));
        ("correct", Obs.Json.Bool correct);
        ("failed", Obs.Json.Int nfailed) ]
    in
    let oc = open_out path in
    output_string oc (Obs.Json.to_string (Obs.Json.Obj fields));
    output_char oc '\n';
    close_out oc);
  if traced then
    Meter.write_spans (Filename.concat out_dir (Printf.sprintf "trace-%s-%d.jsonl" workload seed));
  print_endline (result_line ~correct ~attempted ~failed:nfailed metrics)
