(* End-to-end benchmark: four workloads run as a user runs sa_run, each
   trial in a fresh child process, every output checked, every metric
   printed by name with its unit.  See README.md. *)

module J = Obs.Json
module W = Workloads

(* ------------------------------------------------------------------ *)
(* Metrics *)

type better = Lower | Higher

type metric = {
  name : string;
  unit : string;
  better : better;
  bound : float;  (** share of the median a regression may cost; 0 = unbounded *)
}

let metric ?(bound = 0.0) name unit better = { name; unit; better; bound }

(* Keep in step with BENCHMARK.json at the repository root. *)
let end_to_end =
  [
    metric "wall_s" "s" Lower ~bound:0.25;
    metric "setup_s" "s" Lower ~bound:0.25;
    metric "peak_rss_mb" "MB" Lower ~bound:0.10;
    metric "ops_per_s" "1/s" Higher ~bound:0.25;
    metric "latency_p50_ms" "ms" Lower ~bound:0.25;
    metric "latency_p99_ms" "ms" Lower ~bound:0.25;
  ]

(* setup_s is a few milliseconds of process start: below this absolute
   difference [stability] does not hold it to its relative bound. *)
let setup_floor_s = 0.02

let per_layer =
  let s name = metric name "s" Lower in
  let count ?(better = Lower) name = metric name "count" better in
  [
    count "spec.modelcheck.explored";
    count "spec.modelcheck.leaves";
    count ~better:Higher "spec.modelcheck.cache_hits";
    count ~better:Higher "spec.modelcheck.sleep_pruned";
    s "spec.modelcheck_s";
    s "spec.properties.check_s";
    count "spec.properties.check_calls";
    s "spec.prof.interp_s";
    s "spec.prof.footprint_s";
    s "spec.prof.hash_s";
    s "spec.prof.cache_s";
    s "spec.prof.replay_s";
    s "spec.prof.check_s";
    s "spec.completion_s";
    s "analyze.absint_s";
    count "analyze.absint_steps";
    count "analyze.absint_passes";
    s "analyze.lint_s";
    s "analyze.dynamic_s";
    count ~better:Higher "analyze.rows";
    s "fuzz.corpus.next_s";
    s "fuzz.coverage.signature_s";
    s "fuzz.coverage.add_s";
    s "fuzz.corpus.record_s";
  ]
  @ List.map (fun o -> s ("fuzz.oracle." ^ Fuzz.Oracle.name o ^ "_s")) Fuzz.Oracle.all
  @ [
      count ~better:Higher "fuzz.execs";
      count ~better:Higher "fuzz.interesting";
      count ~better:Higher "fuzz.coverage_bits";
      count ~better:Higher "fuzz.corpus_size";
      metric "fuzz.program_len_mean" "steps" Lower;
      s "service.loadgen_s";
      count "service.slots";
      count "service.steps";
      count ~better:Higher "service.batch_mean";
      count "service.stalls";
      count "service.registers";
      metric "service.slot_ms_p50" "ms" Lower;
      metric "service.slot_ms_p99" "ms" Lower;
      metric "universal.stepper.slot_growth" "ratio" Lower;
      s "conform.verdict_s";
      metric "service.latency_p999_ms" "ms" Lower;
      metric "gc.minor_words" "words" Lower;
      count "gc.major_collections";
      s "unattributed_s";
      metric "trace_overhead_pct" "%" Lower;
    ]

(* ------------------------------------------------------------------ *)
(* The child: one trial (or one set-up probe) of one workload *)

let peak_rss_mb () =
  In_channel.with_open_text "/proc/self/status" (fun ic ->
      let rec go () =
        match In_channel.input_line ic with
        | None -> failwith "no VmHWM in /proc/self/status"
        | Some l -> (
          match Scanf.sscanf_opt l "VmHWM: %d kB" Fun.id with
          | Some kb -> float_of_int kb /. 1024.0
          | None -> go ())
      in
      go ())

(* Time per layer span name, and the trial wall left outside every leaf
   layer span (a layer span no other layer span names as parent). *)
let span_layers tr ~wall =
  let spans = List.filter (fun (s : Obs.Trace.span) -> s.cat = "layer") (Obs.Trace.spans tr) in
  let parents = Hashtbl.create 64 in
  List.iter (fun (s : Obs.Trace.span) -> Hashtbl.replace parents s.parent ()) spans;
  let sums = Hashtbl.create 16 in
  let leaf_ns = ref 0 in
  List.iter
    (fun (s : Obs.Trace.span) ->
      let prev = Option.value ~default:0 (Hashtbl.find_opt sums s.name) in
      Hashtbl.replace sums s.name (prev + s.dur_ns);
      if not (Hashtbl.mem parents s.id) then leaf_ns := !leaf_ns + s.dur_ns)
    spans;
  ("unattributed_s", wall -. W.seconds !leaf_ns)
  :: Hashtbl.fold (fun name ns acc -> (name ^ "_s", W.seconds ns) :: acc) sums []

let child = function
  | name :: size :: seed :: mode :: trace_file ->
    let w = Option.get (W.find name) in
    let size = if size = W.size_name W.Smoke then W.Smoke else W.Full in
    let timed = w.W.prepare size ~seed:(int_of_string seed) in
    let t0 = Obs.Trace.now_ns () in
    let fields =
      if mode = "setup" then []
      else begin
        let tr = if mode = "traced" then Some (Obs.Trace.create ()) else None in
        let grade =
          match tr with None -> timed () | Some tr -> Obs.Trace.with_attached tr timed
        in
        let wall = W.seconds (Obs.Trace.now_ns () - t0) in
        let gc = Gc.quick_stat () in
        let rss = peak_rss_mb () in
        let o = grade () in
        let latencies = W.sorted_array o.W.results_s in
        let layers =
          match tr with
          | None -> o.W.layers
          | Some tr ->
            List.iter
              (fun path -> Obs.Chrome_trace.save ~process_name:("e2e " ^ name) path tr)
              trace_file;
            o.W.layers @ span_layers tr ~wall
        in
        let counts =
          o.W.counts
          @ [
              ("gc.minor_words", int_of_float gc.Gc.minor_words);
              ("gc.major_collections", gc.Gc.major_collections);
            ]
        in
        J.
          [
            ("wall_s", Float wall);
            ("ops", Int o.W.ops);
            ("attempted", Int o.W.attempted);
            ("failed", Int o.W.failed);
            ("checks", Arr (List.map (fun c -> String c) o.W.checks));
            ("latency_p50_ms", Float (1e3 *. W.percentile latencies 0.50));
            ("latency_p99_ms", Float (1e3 *. W.percentile latencies 0.99));
            ("peak_rss_mb", Float rss);
            ("counts", Obj (List.map (fun (k, v) -> (k, Int v)) counts));
            ("layers", Obj (List.map (fun (k, v) -> (k, Float v)) layers));
            ("digest", String o.W.digest);
          ]
      end
    in
    print_endline (J.to_string (J.Obj (("t0_ns", J.Int t0) :: fields)))
  | _ -> invalid_arg "child: expected WORKLOAD SIZE SEED MODE [TRACE-FILE]"

(* ------------------------------------------------------------------ *)
(* The parent: spawn trials, aggregate *)

type trial = {
  setup_s : float;
  wall_s : float;
  ops : int;
  attempted : int;
  failed : int;
  checks : string list;
  p50_ms : float;
  p99_ms : float;
  rss_mb : float;
  counts : (string * int) list;
  layers : (string * float) list;
  digest : string;
}

let num = function J.Int i -> float_of_int i | J.Float f -> f | _ -> nan
let field j k = Option.value ~default:J.Null (J.member k j)
let int_field j k = Option.value ~default:0 (J.to_int_opt (field j k))
let assoc f = function J.Obj l -> List.map (fun (k, v) -> (k, f v)) l | _ -> []

(* Run one child to completion; the child's stdout is its JSON result. *)
let spawn args =
  let exe = Sys.executable_name in
  let r, w = Unix.pipe ~cloexec:true () in
  let spawned = Obs.Trace.now_ns () in
  let pid =
    Unix.create_process exe (Array.of_list (exe :: "child" :: args)) Unix.stdin w Unix.stderr
  in
  Unix.close w;
  let ic = Unix.in_channel_of_descr r in
  let out = In_channel.input_all ic in
  close_in ic;
  let rec wait () = try snd (Unix.waitpid [] pid) with Unix.Unix_error (EINTR, _, _) -> wait () in
  match (wait (), J.of_string (String.trim out)) with
  | Unix.WEXITED 0, Ok j ->
    Ok
      {
        setup_s = W.seconds (int_field j "t0_ns" - spawned);
        wall_s = num (field j "wall_s");
        ops = int_field j "ops";
        attempted = int_field j "attempted";
        failed = int_field j "failed";
        checks =
          (match field j "checks" with
          | J.Arr l -> List.filter_map J.to_string_opt l
          | _ -> []);
        p50_ms = num (field j "latency_p50_ms");
        p99_ms = num (field j "latency_p99_ms");
        rss_mb = num (field j "peak_rss_mb");
        counts = assoc (fun v -> Option.value ~default:0 (J.to_int_opt v)) (field j "counts");
        layers = assoc num (field j "layers");
        digest = Option.value ~default:"" (J.to_string_opt (field j "digest"));
      }
  | Unix.WEXITED 0, Error e -> Error ("child output unreadable: " ^ e)
  | (Unix.WEXITED c | Unix.WSIGNALED c | Unix.WSTOPPED c), _ ->
    Error (Printf.sprintf "child %s exited with status %d" (String.concat " " args) c)

type opts = {
  workloads : W.t list;
  seed : int;
  size : W.size;
  trials : int;  (** at least this many trials *)
  seconds : float;  (** then more while they fit in this many seconds *)
  out : string option;
}

let setup_probes = 5

let child_args o (w : W.t) mode =
  [ w.name; W.size_name o.size; string_of_int o.seed; mode ]

type run = {
  workload : string;
  trials : trial list;  (** untraced, in order *)
  setups : float list;  (** every set-up sample: probes and trials *)
  traced : trial option;
  errors : string list;  (** failed checks and failed children *)
}

let errors_of trials = List.concat_map (fun t -> t.checks) trials

let measure o (w : W.t) =
  let errors = ref [] in
  let attempt mode =
    match spawn (child_args o w mode) with
    | Ok t -> Some t
    | Error e ->
      errors := e :: !errors;
      None
  in
  let probes = List.filter_map (fun _ -> attempt "setup") (List.init setup_probes Fun.id) in
  let start = Obs.Trace.now_ns () in
  let rec loop acc n =
    let elapsed = W.seconds (Obs.Trace.now_ns () - start) in
    let fits = n > 0 && elapsed *. float_of_int (n + 1) /. float_of_int n <= o.seconds in
    if n < o.trials || fits then
      loop (match attempt "timed" with Some t -> t :: acc | None -> acc) (n + 1)
    else List.rev acc
  in
  let trials = loop [] 0 in
  {
    workload = w.name;
    trials;
    setups = List.map (fun t -> t.setup_s) (probes @ trials);
    traced = None;
    errors = List.rev !errors @ errors_of trials;
  }

(* [--trials] untraced trials as the baseline, then one traced trial,
   whose results must match the baseline's exactly. *)
let trace o (w : W.t) =
  let base = measure { o with seconds = 0.0 } w in
  let file =
    Option.map (fun dir -> Filename.concat dir (w.name ^ ".trace.json")) o.out
  in
  match spawn (child_args o w "traced" @ Option.to_list file) with
  | Error e -> { base with errors = base.errors @ [ e ] }
  | Ok t ->
    let same =
      if List.for_all (fun b -> b.digest = t.digest) base.trials then []
      else [ w.name ^ ": the traced run's results differ from the front door's" ]
    in
    { base with traced = Some t; errors = base.errors @ t.checks @ same }

let median l =
  let a = W.sorted_array l in
  let n = Array.length a in
  if n = 0 then nan else if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Quartile [i] (1 to 3) of Python's statistics.quantiles (exclusive
   method), which extrapolates past the samples when there are two. *)
let quartile l i =
  let a = W.sorted_array l in
  let n = Array.length a in
  if n < 2 then median l
  else
    let j = max 1 (min (n - 1) (i * (n + 1) / 4)) in
    let delta = float_of_int ((i * (n + 1)) - (j * 4)) in
    ((a.(j - 1) *. (4.0 -. delta)) +. (a.(j) *. delta)) /. 4.0

(* Interquartile range as a share of the median. *)
let spread l = if List.length l < 2 then 0.0 else (quartile l 3 -. quartile l 1) /. median l

(* The value a run reports for a metric.  A busy shared host only ever
   makes a trial worse, and in bursts: a few disturbed trials move the
   median, and a trial's p99 latency is set by a handful of pauses.  So
   a metric reports the quartile on its better side (the first for lower
   is better), kept within the samples.  Set-up reports the median. *)
let aggregate m l =
  if m.name = "setup_s" then median l
  else
    let a = W.sorted_array l in
    let n = Array.length a in
    if n = 0 then nan
    else
      let q = quartile l (match m.better with Lower -> 1 | Higher -> 3) in
      Float.min a.(n - 1) (Float.max a.(0) q)

(* Per-trial samples of an end-to-end metric. *)
let samples r name =
  match name with
  | "setup_s" -> r.setups
  | _ ->
    List.map
      (fun t ->
        match name with
        | "wall_s" -> t.wall_s
        | "peak_rss_mb" -> t.rss_mb
        | "ops_per_s" -> float_of_int t.ops /. t.wall_s
        | "latency_p50_ms" -> t.p50_ms
        | "latency_p99_ms" -> t.p99_ms
        | _ -> invalid_arg name)
      r.trials

(* Per-layer values of a traced run; allocation counts come from the
   untraced baseline, so they describe the program, not the tracer. *)
let layer_values r =
  match (r.traced, r.trials) with
  | Some t, (b :: _ as base) ->
    let counts l = List.map (fun (k, v) -> (k, float_of_int v)) l in
    let gc = List.filter (fun (k, _) -> String.starts_with ~prefix:"gc." k) (counts b.counts) in
    let untraced = median (List.map (fun b -> b.wall_s) base) in
    gc
    @ [ ("trace_overhead_pct", 100.0 *. (t.wall_s -. untraced) /. untraced) ]
    @ counts t.counts @ t.layers
  | _ -> []

let attempted r =
  List.fold_left (fun acc t -> acc + t.attempted) 0 (r.trials @ Option.to_list r.traced)

let failed r =
  List.fold_left (fun acc t -> acc + t.failed) 0 (r.trials @ Option.to_list r.traced)

let correct r = r.errors = [] && r.trials <> []

(* The result line: one JSON object, the last line of a workload's output. *)
let result_line r metrics =
  J.to_string
    (J.Obj
       [
         ("correct", J.Bool (correct r));
         ("attempted", J.Int (max 1 (attempted r)));
         ("failed", J.Int (failed r + if correct r then 0 else 1));
         ( "metrics",
           J.Obj
             (List.map
                (fun (m, v) -> (m.name, J.Obj [ ("value", J.Float v); ("unit", J.String m.unit) ]))
                metrics) );
       ])

let e2e_values r = List.map (fun m -> (m, aggregate m (samples r m.name))) end_to_end

let layer_metrics r =
  let values = layer_values r in
  List.map (fun m -> (m, Option.value ~default:0.0 (List.assoc_opt m.name values))) per_layer

(* ------------------------------------------------------------------ *)
(* Provenance *)

let command_output prog args =
  match Unix.open_process_args_in prog (Array.of_list (prog :: args)) with
  | exception Unix.Unix_error _ -> None
  | ic -> (
    let s = In_channel.input_all ic in
    match Unix.close_process_in ic with Unix.WEXITED 0 -> Some (String.trim s) | _ -> None)

let cpuinfo () =
  match In_channel.with_open_text "/proc/cpuinfo" In_channel.input_all with
  | exception Sys_error _ -> (0, "unknown")
  | s ->
    let lines = String.split_on_char '\n' s in
    let value l = String.trim (List.nth (String.split_on_char ':' l) 1) in
    ( List.length (List.filter (String.starts_with ~prefix:"processor") lines),
      match List.find_opt (String.starts_with ~prefix:"model name") lines with
      | Some l -> value l
      | None -> "unknown" )

let provenance o =
  (* only inside a git work tree's root: never search parent directories *)
  let git args = if Sys.file_exists ".git" then command_output "git" args else None in
  let nproc, cpu = cpuinfo () in
  J.Obj
    [
      ("rev", match git [ "rev-parse"; "HEAD" ] with Some r -> J.String r | None -> J.Null);
      ( "dirty",
        match git [ "status"; "--porcelain" ] with Some s -> J.Bool (s <> "") | None -> J.Null );
      ("seed", J.Int o.seed);
      ("size", J.String (W.size_name o.size));
      ( "host",
        J.Obj
          [
            ("nproc", J.Int nproc);
            ("recommended_domain_count", J.Int (Domain.recommended_domain_count ()));
            ("ocaml", J.String Sys.ocaml_version);
            ("cpu", J.String cpu);
          ] );
    ]

(* ------------------------------------------------------------------ *)
(* Reporting *)

let pct f = Printf.sprintf "%.1f%%" (100.0 *. f)
let better_name = function Lower -> "lower" | Higher -> "higher"

let print_e2e r =
  Printf.printf "== %s: %d trial(s), %d set-up samples ==\n" r.workload (List.length r.trials)
    (List.length r.setups);
  Printf.printf "  %-16s %14s %8s  %-5s %-6s %s\n" "metric" "value" "iqr" "unit" "better" "bound";
  List.iter
    (fun (m, v) ->
      Printf.printf "  %-16s %14.4f %8s  %-5s %-6s %s\n" m.name v (pct (spread (samples r m.name)))
        m.unit (better_name m.better) (pct m.bound))
    (e2e_values r);
  Printf.printf "  %-16s %14.4f %8s  %-5s %-6s %s\n" "error_rate"
    (float_of_int (failed r) /. float_of_int (max 1 (attempted r)))
    "-" "ratio" "lower" "any increase";
  Printf.printf "  trial walls (s): %s\n"
    (String.concat " " (List.map (fun t -> Printf.sprintf "%.3f" t.wall_s) r.trials))

let print_layers r =
  Printf.printf "== %s: traced trial ==\n" r.workload;
  List.iter
    (fun (m, v) -> if v <> 0.0 then Printf.printf "  %-34s %16.4f %s\n" m.name v m.unit)
    (layer_metrics r)

let print_checks r =
  match r.errors with
  | [] -> print_endline "  checks: ok"
  | es ->
    List.iter
      (fun e ->
        Printf.printf "  CHECK FAILED: %s\n" e;
        Printf.eprintf "%s: CHECK FAILED: %s\n%!" r.workload e)
      es

let trial_json t =
  J.Obj
    [
      ("setup_s", J.Float t.setup_s);
      ("wall_s", J.Float t.wall_s);
      ("ops", J.Int t.ops);
      ("peak_rss_mb", J.Float t.rss_mb);
      ("latency_p50_ms", J.Float t.p50_ms);
      ("latency_p99_ms", J.Float t.p99_ms);
      ("counts", J.Obj (List.map (fun (k, v) -> (k, J.Int v)) t.counts));
    ]

let run_json r metrics =
  J.Obj
    [
      ("workload", J.String r.workload);
      ("correct", J.Bool (correct r));
      ("attempted", J.Int (attempted r));
      ("failed", J.Int (failed r));
      ("checks_failed", J.Arr (List.map (fun e -> J.String e) r.errors));
      ("metrics", J.Obj (List.map (fun (m, v) -> (m.name, J.Float v)) metrics));
      ("setup_samples_s", J.Arr (List.map (fun s -> J.Float s) r.setups));
      ("trials", J.Arr (List.map trial_json r.trials));
    ]

(* [run] and [trace]: one result line per workload, the last line of
   stdout being the last workload's. *)
let bench o ~traced =
  let prov = provenance o in
  print_endline ("provenance: " ^ J.to_string prov);
  Option.iter (fun dir -> if traced && not (Sys.file_exists dir) then Sys.mkdir dir 0o755) o.out;
  let results =
    List.map
      (fun w ->
        let r = if traced then trace o w else measure o w in
        let metrics = if traced then layer_metrics r else e2e_values r in
        if traced then print_layers r else print_e2e r;
        print_checks r;
        (match (traced, o.out) with
        | true, Some dir ->
          Out_channel.with_open_text
            (Filename.concat dir (w.W.name ^ ".layers.json"))
            (fun oc -> output_string oc (J.to_pretty_string (run_json r metrics)))
        | _ -> ());
        print_endline (result_line r metrics);
        (r, metrics))
      o.workloads
  in
  (match (traced, o.out) with
  | false, Some file ->
    Out_channel.with_open_text file (fun oc ->
        output_string oc
          (J.to_pretty_string
             (J.Obj
                [
                  ("provenance", prov);
                  ("workloads", J.Arr (List.map (fun (r, m) -> run_json r m) results));
                ])))
  | _ -> ());
  if List.for_all (fun (r, _) -> correct r && failed r = 0) results then 0 else 1

(* Two full passes back to back: every end-to-end value within its
   bound of the other pass, every count identical across all trials. *)
let stability o =
  print_endline ("provenance: " ^ J.to_string (provenance o));
  let pass () = List.map (measure o) o.workloads in
  let a = pass () in
  let b = pass () in
  let ok = ref true in
  let fail fmt = Printf.ksprintf (fun s -> ok := false; print_endline ("  FAILED: " ^ s)) fmt in
  List.iter2
    (fun ra rb ->
      Printf.printf "== %s ==\n  %-16s %14s %14s %8s %8s\n" ra.workload "metric" "pass 1" "pass 2"
        "diff" "bound";
      List.iter2
        (fun (m, v1) (_, v2) ->
          let rel = Float.abs (v2 -. v1) /. v1 in
          let within =
            rel <= m.bound || (m.name = "setup_s" && Float.abs (v2 -. v1) < setup_floor_s)
          in
          Printf.printf "  %-16s %14.4f %14.4f %8s %8s%s\n" m.name v1 v2 (pct rel) (pct m.bound)
            (if within then "" else "  OUT OF BOUND");
          if not within then ok := false)
        (e2e_values ra) (e2e_values rb);
      List.iter (fun e -> fail "%s" e) (ra.errors @ rb.errors);
      match ra.trials @ rb.trials with
      | [] -> fail "%s: no trial completed" ra.workload
      | first :: rest ->
        List.iter
          (fun t ->
            List.iter2
              (fun (k, v) (_, v') -> if v <> v' then fail "%s: %s %d <> %d" ra.workload k v v')
              first.counts t.counts)
          rest;
        Printf.printf "  counts identical over %d trials: %s\n" (1 + List.length rest)
          (String.concat ", " (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) first.counts)))
    a b;
  print_endline (if !ok then "stability: ok" else "stability: FAILED");
  if !ok then 0 else 1

(* ------------------------------------------------------------------ *)
(* Command line *)

let usage =
  {|End-to-end benchmark: dpor-fig3, analyze-sweep, fuzz-campaign, serve-zipf.

  e2e.exe run [--workload W]... [--seed N] [--trials N] [--seconds S] [--smoke] [--out FILE]
  e2e.exe trace [--workload W]... [--seed N] [--trials N] [--smoke] [--out DIR]
  e2e.exe stability [--workload W]... [--seed N] [--trials N] [--seconds S] [--smoke]
  e2e.exe --workload W --seed N --seconds S --trace 0|1      (= run, or trace with 1)

run prints every end-to-end metric (the better-side quartile over the
trials; the median for setup_s); trace runs
--trials untraced trials, then one traced trial, and prints every
per-layer metric; stability runs two passes and compares them.

Options:|}

let main cmd args =
  let workloads = ref [] and seed = ref 0 and trials = ref 3 and seconds = ref 30.0 in
  let smoke = ref false and out = ref None and traced = ref (cmd = `Trace) in
  let specs =
    Arg.align
      [
        ("--workload", Arg.String (fun w -> workloads := w :: !workloads), "W workload (repeatable; default all)");
        ("--seed", Arg.Set_int seed, "N workload seed (default 0)");
        ("--trials", Arg.Set_int trials, "N minimum untraced trials per workload (default 3)");
        ("--seconds", Arg.Set_float seconds, "S then add trials while they fit in S seconds (default 30)");
        ("--trace", Arg.Int (fun t -> traced := t = 1), "0|1 1 = one traced trial per workload");
        ("--smoke", Arg.Set smoke, " tiny sizes, for the test suite");
        ("--out", Arg.String (fun s -> out := Some s), "PATH results file (run) or trace directory (trace)");
      ]
  in
  let bad msg =
    prerr_endline msg;
    exit 2
  in
  (try Arg.parse_argv ~current:(ref 0) (Array.of_list ("e2e" :: args)) specs
         (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage
   with
   | Arg.Bad msg -> bad msg
   | Arg.Help msg ->
     print_string msg;
     exit 0);
  let workloads =
    match List.rev !workloads with
    | [] | [ "all" ] -> W.all
    | names ->
      List.map
        (fun n ->
          match W.find n with
          | Some w -> w
          | None ->
            bad (Printf.sprintf "unknown workload %S; valid: %s" n
                   (String.concat " " (List.map (fun (w : W.t) -> w.name) W.all))))
        names
  in
  if !trials < 1 then bad "--trials must be at least 1";
  let o =
    {
      workloads;
      seed = !seed;
      size = (if !smoke then W.Smoke else W.Full);
      trials = !trials;
      seconds = !seconds;
      out = !out;
    }
  in
  exit (if cmd = `Stability then stability o else bench o ~traced:!traced)

let () =
  match List.tl (Array.to_list Sys.argv) with
  | "child" :: args -> child args
  | "run" :: args -> main `Run args
  | "trace" :: args -> main `Trace args
  | "stability" :: args -> main `Stability args
  | args -> main `Run args
