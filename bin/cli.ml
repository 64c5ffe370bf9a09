(* The command-line vocabulary shared by the executables in bin/: every
   flag that more than one command takes is declared once, here, as
   part of a group whose term returns a validated value.  An invalid
   value is a usage error — one line on stderr and exit code 2, never
   an uncaught exception.  Adding a flag to a command that takes a
   group means adding it to the group. *)

open Cmdliner

let usage_error fmt =
  Fmt.kstr
    (fun msg ->
      Fmt.epr "%s@." msg;
      exit 2)
    fmt

(* A count flag: zero or a negative count checks nothing, or crashes
   deeper down, so it is a usage error. *)
let positive flag v = if v < 1 then usage_error "%s must be positive" flag else v

(* The largest n of a parameter-grid sweep ([analyze --all], [fig1]):
   the grids start at n = 2, so a smaller bound sweeps nothing. *)
let grid_max_n n = if n < 2 then usage_error "--max-n %d: the grid starts at n = 2" n else n

(* The exit statuses every command's --help lists.  Cmdliner's own
   parse errors are usage errors too: sa_run.ml maps its code to 2. *)
let exits =
  Cmd.Exit.
    [
      info 0 ~doc:"on success.";
      info 1 ~doc:"when the command's check fails (a safety violation or a failed \
                   verdict).";
      info 2 ~doc:"on usage errors, command line parsing errors included.";
      info internal_error ~doc:"on unexpected internal errors (bugs).";
    ]

(* A value named on the command line and looked up by [find]. *)
let lookup what ~valid find name =
  match find name with
  | Some v -> v
  | None -> usage_error "unknown %s %S; valid: %s" what name (String.concat " | " valid)

(* ------------------------------------------------------------------ *)
(* Files named on the command line: an unreadable or unwritable path
   is a usage error naming the flag. *)

let with_path flag f = try f () with Sys_error e -> usage_error "%s: %s" flag e

(* "-" is stdout, as for [write_output]; [close_out_channel] flushes
   it rather than closing it. *)
let out_channel flag path =
  if path = "-" then stdout else with_path flag (fun () -> open_out path)

let close_out_channel oc = if oc == stdout then flush oc else close_out oc

(* Fail before any work when an output file's directory is missing or
   the path is itself a directory ("-", stdout, passes); a write that
   still fails later goes through [with_path]. *)
let check_output flag path =
  let dir = Filename.dirname path in
  if not (Sys.file_exists dir && Sys.is_directory dir) then
    usage_error "%s: %s: No such file or directory" flag path
  else if path <> "-" && Sys.file_exists path && Sys.is_directory path then
    usage_error "%s: %s: Is a directory" flag path

let write_file flag path s =
  with_path flag (fun () -> Out_channel.with_open_text path (fun oc -> output_string oc s))

(* A document named by an output flag: "-" prints it on stdout, after
   what was printed before it; any other path is a file, announced by
   a "wrote PATH" line with [note] appended. *)
let write_output flag ?(note = "") path s =
  if path = "-" then Fmt.pr "%s@?" s
  else begin
    write_file flag path s;
    Fmt.pr "wrote %s%s@." path note
  end

(* ------------------------------------------------------------------ *)
(* n/m/k, with per-command defaults. *)

let params ~n ~m ~k =
  try Agreement.Params.make ~n ~m ~k with Invalid_argument msg -> usage_error "%s" msg

(* The triple, and whether any of its flags was given: [n] is the term
   for n and whether it was given (conform agreement names it
   --domains); -m and -k read None when absent. *)
let nmk_given n ~m ~k =
  let int names default doc =
    Arg.(value & opt (some ~none:(string_of_int default) int) None & info names ~doc)
  in
  Term.(
    const (fun (n, n_given) m' k' ->
        ( n_given || m' <> None || k' <> None,
          params ~n ~m:(Option.value m' ~default:m) ~k:(Option.value k' ~default:k) ))
    $ n
    $ int [ "m" ] m "Obstruction bound."
    $ int [ "k" ] k "Agreement bound.")

let nmk_of n ~m ~k = Term.(const snd $ nmk_given (const (fun n -> (n, false)) $ n) ~m ~k)

let nmk_flags ?(n_doc = "Number of processes.") ~n ~m ~k () =
  let n_arg = Arg.(value & opt (some ~none:(string_of_int n) int) None & info [ "n" ] ~doc:n_doc) in
  nmk_given Term.(const (fun o -> (Option.value o ~default:n, o <> None)) $ n_arg) ~m ~k

let nmk ?n_doc ~n ~m ~k () = Term.(const snd $ nmk_flags ?n_doc ~n ~m ~k ())

(* ------------------------------------------------------------------ *)
(* --memory-backend: applies process-wide, before any configuration is
   built, so a command's term evaluates it first. *)

let memory_backend =
  let parse s =
    match Shm.Memory.backend_of_string s with
    | Some b -> Ok b
    | None ->
      Error
        (`Msg
          (Fmt.str "unknown memory backend %S (expected persistent|map|journal|journaled)"
             s))
  in
  let backend = Arg.conv (parse, fun ppf b -> Fmt.string ppf (Shm.Memory.backend_name b)) in
  Term.(
    const (Option.iter Shm.Memory.set_default)
    $ Arg.(
        value
        & opt (some backend) None
        & info [ "memory-backend" ] ~docv:"BACKEND"
            ~doc:
              "Simulator register backend: $(b,journaled) (flat array + undo journal, \
               the default) or $(b,persistent) (the reference persistent map).  The \
               test suite pins the two observationally equivalent; switch to \
               persistent when bisecting a suspected backend bug (see \
               docs/PERFORMANCE.md)."))

(* ------------------------------------------------------------------ *)
(* The instance group: which algorithm, over which snapshot, at which
   parameters and register budget, proposing which inputs. *)

type algo = One_shot | Repeated | Anonymous | Baseline

type instance = {
  algo : algo;
  impl : Agreement.Instances.impl;
  params : Agreement.Params.t;
  config : Shm.Config.t;
  inputs : pid:int -> instance:int -> Shm.Value.t option;
}

let build_config ~algo ~impl ~registers params =
  match algo with
  | One_shot -> Agreement.Instances.oneshot ?r:registers ~impl params
  | Repeated -> Agreement.Instances.repeated ?r:registers ~impl params
  | Baseline -> Agreement.Instances.baseline ~impl params
  | Anonymous ->
    Agreement.Instances.anonymous ?r:registers
      ~anonymous_collect:(impl = Agreement.Instances.Double_collect)
      params

let instance =
  let algo =
    Arg.(
      value
      & opt
          (enum
             [ ("oneshot", One_shot); ("repeated", Repeated); ("anonymous", Anonymous);
               ("baseline", Baseline) ])
          One_shot
      & info [ "algo"; "a" ] ~doc:"Algorithm to run.")
  in
  let impl =
    Arg.(
      value
      & opt
          (enum
             [
               ("atomic", Agreement.Instances.Atomic);
               ("collect", Agreement.Instances.Double_collect);  (* register-level double collect *)
               ("sw", Agreement.Instances.Sw_based);  (* n single-writer registers *)
             ])
          Agreement.Instances.Atomic
      & info [ "impl" ] ~doc:"Snapshot implementation.")
  in
  let rounds =
    Arg.(
      value
      & opt (some ~none:"3" int) None
      & info [ "rounds"; "r" ] ~doc:"Instances (repeated and anonymous only).")
  in
  let registers =
    Arg.(
      value
      & opt (some int) None
      & info [ "registers" ] ~docv:"R"
          ~doc:
            "Override the register budget (components) of the instance.  Fewer than \
             n+2m-k voids the correctness argument — that is the point: explore \
             register-starved instances to exhibit their violations.  The baseline's \
             2(n-k) registers are fixed.")
  in
  let make () algo impl params rounds registers =
    (match (algo, registers) with
    | _, Some r when r < 1 -> usage_error "--registers %d: need at least 1 register" r
    | Baseline, Some r -> usage_error "--registers %d: the baseline's 2(n-k) registers are fixed" r
    | _ -> ());
    let rounds =
      match (algo, rounds) with
      | (One_shot | Baseline), Some r ->
        usage_error "--rounds %d: --algo %s runs one instance" r
          (if algo = One_shot then "oneshot" else "baseline")
      | (One_shot | Baseline), None -> 1
      | (Repeated | Anonymous), r -> Option.value r ~default:3
    in
    {
      algo;
      impl;
      params;
      config = build_config ~algo ~impl ~registers params;
      inputs =
        Shm.Exec.repeated_inputs ~rounds (fun pid instance ->
            Shm.Value.int ((100 * instance) + pid));
    }
  in
  Term.(
    const make $ memory_backend $ algo $ impl $ nmk ~n:5 ~m:1 ~k:2 () $ rounds $ registers)

(* ------------------------------------------------------------------ *)
(* The schedule of a single run: scheduler spec name[:arg[:arg]]. *)

let sched_specs =
  [ "round-robin"; "quantum[:Q]"; "random[:SEED]"; "solo:P"; "m-bounded:SEED[:M]" ]

let parse_sched spec ~n =
  let ( let* ) r f = Result.bind r f in
  let int_arg what v =
    match int_of_string_opt v with
    | Some i -> Ok i
    | None -> Error (Fmt.str "scheduler %S: %s %S is not an integer" spec what v)
  in
  let quantum q =
    if q < 1 then Error (Fmt.str "scheduler %S: need quantum Q >= 1" spec)
    else Ok (Shm.Schedule.quantum_round_robin ~quantum:q n)
  in
  match String.split_on_char ':' spec with
  | [ "round-robin" ] -> Ok (Shm.Schedule.round_robin n)
  | [ "quantum"; q ] ->
    let* q = int_arg "quantum" q in
    quantum q
  | [ "quantum" ] -> quantum 300
  | [ "random"; s ] ->
    let* s = int_arg "seed" s in
    Ok (Shm.Schedule.random ~seed:s n)
  | [ "random" ] -> Ok (Shm.Schedule.random ~seed:0 n)
  | [ "solo"; p ] ->
    let* p = int_arg "pid" p in
    if p < 0 || p >= n then Error (Fmt.str "scheduler %S: need 0 <= P < n (n = %d)" spec n)
    else Ok (Shm.Schedule.solo p)
  | [ "m-bounded"; s ] ->
    let* s = int_arg "seed" s in
    Ok (Shm.Schedule.m_bounded ~seed:s ~m:1 ~prefix:100 n)
  | [ "m-bounded"; s; m ] ->
    let* s = int_arg "seed" s in
    let* m = int_arg "m" m in
    if m < 1 || m > n then
      Error (Fmt.str "scheduler %S: need 1 <= m <= n (n = %d)" spec n)
    else Ok (Shm.Schedule.m_bounded ~seed:s ~m ~prefix:100 n)
  | _ ->
    Error
      (Fmt.str "unknown scheduler %S; valid specs: %s" spec
         (String.concat " | " sched_specs))

(* ------------------------------------------------------------------ *)
(* One run of an instance: the instance and its schedule, validated
   against each other (scheduler specs depend on n). *)

type run = { inst : instance; sched : Shm.Schedule.t; max_steps : int }

let valid = function Ok v -> v | Error e -> usage_error "%s" e

let run =
  let make inst spec max_steps =
    {
      inst;
      sched = valid (parse_sched spec ~n:inst.params.Agreement.Params.n);
      max_steps = positive "--max-steps" max_steps;
    }
  in
  Term.(
    const make $ instance
    $ Arg.(
        value
        & opt string "quantum:300"
        & info [ "sched"; "s" ] ~doc:("Scheduler: " ^ String.concat " | " sched_specs ^ "."))
    $ Arg.(value & opt int 500_000 & info [ "max-steps" ] ~doc:"Step budget."))

(* ------------------------------------------------------------------ *)
(* An exploration of an instance: the engine:DEPTH spec, checked against
   the instance's n. *)

type explore = { engine : Spec.Modelcheck.engine; depth : int }

let explore_specs = [ "naive:DEPTH"; "dpor:DEPTH"; "dpor-nocache:DEPTH" ]

let parse_explore spec ~n =
  let engine_of = function
    | "naive" -> Some Spec.Modelcheck.Naive
    | "dpor" -> Some (Spec.Modelcheck.Dpor { cache = true; jobs = 1 })
    | "dpor-nocache" -> Some (Spec.Modelcheck.Dpor { cache = false; jobs = 1 })
    | _ -> None
  in
  match String.split_on_char ':' spec with
  | [ name; d ] -> (
    match (engine_of name, int_of_string_opt d) with
    | Some (Spec.Modelcheck.Dpor _), Some _ when n > Spec.Explore.max_procs ->
      Error
        (Fmt.str "explore %S: -n %d exceeds the DPOR limit of %d processes" spec n
           Spec.Explore.max_procs)
    | Some engine, Some depth when depth >= 0 -> Ok { engine; depth }
    | Some _, _ -> Error (Fmt.str "explore %S: depth %S is not a non-negative integer" spec d)
    | None, _ ->
      Error
        (Fmt.str "explore %S: unknown engine %S; valid specs: %s" spec name
           (String.concat " | " explore_specs)))
  | _ ->
    Error
      (Fmt.str "explore %S: expected ENGINE:DEPTH; valid specs: %s" spec
         (String.concat " | " explore_specs))

let explore =
  let make inst spec = (inst, valid (parse_explore spec ~n:inst.params.Agreement.Params.n)) in
  Term.(
    const make $ instance
    $ Arg.(
        required
        & pos 0 (some string) None
        & info [] ~docv:"ENGINE:DEPTH"
            ~doc:("Engine and depth bound: " ^ String.concat " | " explore_specs ^ ".")))

(* ------------------------------------------------------------------ *)
(* Observability: --stats, and on the commands that record spans
   --trace-out.  A trace collector is attached when either is given;
   --trace-out writes it as a Chrome trace, and --stats prints its span
   summary before the command's own table. *)

let stats =
  Arg.(
    value & flag
    & info [ "stats" ]
        ~doc:
          "After the output, print the span summary (on the commands that take \
           $(b,--trace-out)), then the command's own statistics.")

type obs = { stats : bool; trace_out : string option; trace : Obs.Trace.t option }

let obs =
  let trace_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace-out" ] ~docv:"FILE"
          ~doc:
            "Write the recorded spans, instants and counter tracks to $(docv) as a \
             Chrome trace-event file (load at ui.perfetto.dev): a run's $(b,run) span \
             and register-coverage tracks, $(b,explore)'s span and exploration \
             tracks, $(b,serve)'s per-slot spans.  $(b,-) prints it on stdout \
             instead.")
  in
  let make stats trace_out =
    Option.iter (check_output "--trace-out") trace_out;
    let trace = if stats || trace_out <> None then Some (Obs.Trace.create ()) else None in
    { stats; trace_out; trace }
  in
  Term.(const make $ stats $ trace_out)

(* [f ()] with the collector, if any, attached. *)
let observe o f = match o.trace with None -> f () | Some tr -> Obs.Trace.with_attached tr f

(* Called after the command's output and before its own --stats table:
   writes the Chrome trace and prints the span summary. *)
let report o =
  Option.iter
    (fun tr ->
      Option.iter
        (fun path ->
          if path = "-" then
            Fmt.pr "%s@." (Obs.Json.to_pretty_string (Obs.Chrome_trace.to_json tr))
          else begin
            with_path "--trace-out" (fun () -> Obs.Chrome_trace.save path tr);
            Fmt.pr "chrome trace written to %s (open in https://ui.perfetto.dev)@." path
          end)
        o.trace_out;
      if o.stats then Fmt.pr "%a@." Obs.Trace.pp tr)
    o.trace
