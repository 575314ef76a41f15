(* Timing, drift normalisation, spans and summary statistics. *)

let now_ns () = Obs.Clock.monotonic_ns ()

let ms_of_ns ns = Int64.to_float ns /. 1e6

(* ------------------------------------------------------------------ *)
(* Machine-speed probe                                                 *)
(* ------------------------------------------------------------------ *)

(* Wall time of byte-identical work drifts with what other tenants do to
   the host's memory system: a fixed batch varied by up to 1.6x between
   5-10 s windows while an ALU loop stayed steady.  One read pass over
   16 MiB, owned by the benchmark, tracks that drift: each interval's
   operation times are scaled by [reference_probe_ms] over the interval's
   probe time, so reported times are at the speed of a machine whose
   probe reads [reference_probe_ms].  On a shared 2-core x86-64 VM, over
   eight runs of one seed, this cut the spread of ops_per_s from 0.14 to
   0.04 (st-reach), 0.17 to 0.08 (st-join), 0.23 to 0.11 (contain) and
   0.13 to 0.10 (serve-mix).  A cache-latency probe (dependent reads
   over 4 MiB) did worse on st-reach, contain and serve-mix, and on
   st-join when the two were run interleaved.  Median windows of 5 or 9
   probes in place of the two around an interval, and a median of seven
   passes in place of three, did no better. *)
let reference_probe_ms = 4.0

let probe_words = 16 * 1024 * 1024 / 8

let probe_buf = lazy (Array.init probe_words (fun i -> i land 0xff))

let probe_once () =
  let a = Lazy.force probe_buf in
  let t0 = now_ns () in
  let s = ref 0 in
  for i = 0 to probe_words - 1 do
    s := !s + Array.unsafe_get a i
  done;
  let t1 = now_ns () in
  if !s < 0 then prerr_string "";
  ms_of_ns (Int64.sub t1 t0)

(* median of three passes *)
let probe () =
  let a = probe_once () in
  let b = probe_once () in
  let c = probe_once () in
  max (min a b) (min (max a b) c)

(* ------------------------------------------------------------------ *)
(* Statistics                                                          *)
(* ------------------------------------------------------------------ *)

let sorted a =
  let a = Array.copy a in
  Array.sort compare a;
  a

(* nearest-rank percentile, [p] in (0, 100] *)
let percentile p a =
  let s = sorted a in
  let n = Array.length s in
  if n = 0 then nan
  else s.(max 0 (min (n - 1) (int_of_float (ceil (p /. 100. *. float n)) - 1)))

let median a =
  let s = sorted a in
  let n = Array.length s in
  if n = 0 then nan
  else if n mod 2 = 1 then s.(n / 2)
  else (s.((n / 2) - 1) +. s.(n / 2)) /. 2.

let sum a = Array.fold_left ( +. ) 0. a

(* ------------------------------------------------------------------ *)
(* Peak RSS                                                            *)
(* ------------------------------------------------------------------ *)

(* Restart a process's VmHWM from its current RSS, so the peak read
   after the measured loop belongs to the loop, not to input
   generation. *)
let reset_hwm pid =
  try
    let oc = open_out (Printf.sprintf "/proc/%s/clear_refs" pid) in
    output_string oc "5";
    close_out oc
  with Sys_error _ -> ()

(* VmHWM of a process, in MiB *)
let vm_hwm_mb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  match open_in path with
  | exception Sys_error _ -> nan
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () ->
        let rec go () =
          match input_line ic with
          | exception End_of_file -> nan
          | line ->
            if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
              Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB"
                (fun kb -> float kb /. 1024.)
            else go ()
        in
        go ())

(* ------------------------------------------------------------------ *)
(* Spans (traced runs only)                                            *)
(* ------------------------------------------------------------------ *)

type span = {
  id : int;
  name : string;
  parent : int;  (** -1 for an operation's root span *)
  op : int;
  start_ns : int64;
  mutable stop_ns : int64;
}

let spans : span list ref = ref []

let next_id = ref 0

let current = ref (-1)

let current_op = ref (-1)

let span_ms s = ms_of_ns (Int64.sub s.stop_ns s.start_ns)

(* [with_span name f] records a span around [f] as a child of the
   enclosing span, and returns [f]'s result with the span. *)
let with_span name f =
  let s =
    { id = !next_id; name; parent = !current; op = !current_op;
      start_ns = now_ns (); stop_ns = 0L }
  in
  incr next_id;
  let saved = !current in
  current := s.id;
  Fun.protect
    ~finally:(fun () ->
      s.stop_ns <- now_ns ();
      current := saved;
      spans := s :: !spans)
    (fun () -> (f (), s))

let write_spans path =
  let oc = open_out path in
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"id\":%d,\"name\":%S,\"parent\":%d,\"op\":%d,\"start_ns\":%Ld,\"end_ns\":%Ld}\n"
        s.id s.name s.parent s.op s.start_ns s.stop_ns)
    (List.rev !spans);
  close_out oc
