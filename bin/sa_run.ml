(* sa-run: run any of the set-agreement algorithms under a chosen
   scheduler and report decisions, safety, and space usage — or
   model-check them over *all* schedules (`explore`) — or audit the
   native multicore layer with the conformance harness (`conform`) — or
   reproduce Figure 1 with a verdict per row (`fig1`).

   Examples:
     sa_run -n 5 -m 1 -k 2
     sa_run -n 5 -m 2 -k 3 --algo repeated --rounds 4 --sched random:7
     sa_run -n 4 -m 1 -k 2 --algo anonymous --impl collect --trace
     sa_run -n 6 -m 2 -k 3 --sched m-bounded:7:2 --stats --trace-out run.json
     sa_run -n 6 -m 2 -k 3 --sched m-bounded:7:2 --events run.jsonl
     sa_run explore dpor:10 -n 3 -m 1 -k 1
     sa_run explore dpor:14 -n 3 -m 1 -k 1 --registers 3 --shrink
     sa_run explore dpor:12 -n 3 -m 1 -k 1 --stats --trace-out dpor.json
     sa_run protocol 'r2 n2 : R0; W1<-in; D last' --run --explore-depth 6
     sa_run fig1 --max-n 6
     sa_run conform snapshot --domains 4 --iters 500
     sa_run conform snapshot --mutant single-collect --chaos yields
     sa_run conform agreement --domains 4 -m 2 -k 2 --chaos crashes *)

open Cmdliner

(* The exploration series, read back from the trace: a [nodes] sample
   and the [frontier], [cache hits] and [sleep hits] samples Explore
   took with it share one timestamp. *)
let pp_series ppf samples =
  let at = Hashtbl.create 256 in
  List.iter (fun (s : Obs.Trace.sample) -> Hashtbl.replace at (s.track, s.s_dom, s.s_ts_ns) s) samples;
  let row (s : Obs.Trace.sample) =
    let get track = (Hashtbl.find at (track, s.s_dom, s.s_ts_ns)).Obs.Trace.value in
    if s.track <> "nodes" then None
    else Some (s.s_ts_ns, s.value, get "frontier", get "cache hits", get "sleep hits")
  in
  match List.filter_map row samples with
  | [] -> ()
  | (t0, _, _, _, _) :: _ as rows ->
    Fmt.pf ppf "--- exploration series ---@.%-10s %10s %10s %12s %12s@." "t (ms)" "nodes"
      "frontier" "cache hits" "sleep hits";
    List.iter
      (fun (ts, nodes, frontier, cache, sleep) ->
        Fmt.pf ppf "%-10.2f %10.0f %10.0f %12.0f %12.0f@." (float_of_int (ts - t0) /. 1e6)
          nodes frontier cache sleep)
      rows;
    Fmt.pf ppf "%d samples@." (List.length rows)

(* The `explore` command: model-check the configured instance over all
   schedules up to the depth bound.  The trace holds the DPOR explore
   span and the exploration counter tracks. *)
let explore_main ((inst : Cli.instance), (e : Cli.explore)) shrink (o : Cli.obs) =
  let check = Spec.Properties.check_safety ~k:inst.params.Agreement.Params.k in
  let metrics = Obs.Metrics.create () in
  (* profile only under --stats: phase attribution costs two clock
     reads per phase per node, which we don't charge to plain runs *)
  let prof = if o.stats then Some (Obs.Prof.create ()) else None in
  let t0 = Obs.Trace.now_ns () in
  let explore () =
    Spec.Modelcheck.run ~engine:e.engine ~depth:e.depth ~inputs:inst.inputs ~metrics ?prof
      ~check inst.config
  in
  let outcome = Cli.observe o explore in
  let wall = float_of_int (Obs.Trace.now_ns () - t0) /. 1e9 in
  let s = Spec.Modelcheck.stats_of outcome in
  Fmt.pr "engine: %s, depth bound: %d@." (Spec.Modelcheck.engine_name e.engine) e.depth;
  Fmt.pr
    "explored %d nodes (%d leaves, %d completion memo hits, %d completion summary hits, %d \
     cache hits, %d sleep-set pruned) in %.3fs@."
    s.Spec.Modelcheck.explored s.Spec.Modelcheck.leaves s.Spec.Modelcheck.memo_hits
    s.Spec.Modelcheck.summary_hits s.Spec.Modelcheck.cache_hits s.Spec.Modelcheck.pruned wall;
  (match outcome with
  | Spec.Modelcheck.Ok_bounded _ ->
    Fmt.pr "verdict: no safety violation within the bound@."
  | Spec.Modelcheck.Counterexample { schedule; error; _ } ->
    Fmt.pr "verdict: VIOLATION — %s@." error;
    Fmt.pr "schedule (%d steps): [%s]@." (List.length schedule)
      (String.concat " " (List.map string_of_int schedule));
    if shrink then begin
      let replay s =
        (* fresh copy: Config.t is persistent, replay never mutates the config *)
        Spec.Counterex.replay ~completion_steps:Spec.Counterex.completion_steps
          ~inputs:inst.inputs ~check inst.config s
      in
      match
        Option.bind (Spec.Modelcheck.counterex_of outcome) (fun ce ->
            Spec.Shrink.minimize ~replay ce.Spec.Counterex.schedule)
      with
      | Some r -> Fmt.pr "%a@." Spec.Shrink.pp_result r
      | None -> Fmt.pr "shrink: counterexample did not reproduce under replay@."
    end);
  Cli.report o;
  if o.stats then begin
    Fmt.pr "--- metrics ---@.%a@." Obs.Metrics.pp metrics;
    (match prof with
    | Some p when not (Obs.Prof.is_empty p) ->
      Fmt.pr "--- phase breakdown ---@.%a@." Obs.Prof.pp p
    | _ -> ());
    Option.iter (fun tr -> pp_series Fmt.stdout (Obs.Trace.samples tr)) o.trace
  end;
  match outcome with Spec.Modelcheck.Ok_bounded _ -> () | _ -> exit 1

let explore_cmd =
  let shrink =
    Arg.(
      value & flag
      & info [ "shrink" ] ~doc:"Minimize the counterexample schedule before printing.")
  in
  Cmd.v
    (Cmd.info "explore" ~exits:Cli.exits
       ~doc:
         "Model-check the instance over all schedules up to a depth bound instead of \
          running one schedule.  $(b,--stats) prints the explore.* metrics, the phase \
          breakdown and the exploration series.  Exits 1 on a violation.")
    Term.(const explore_main $ Cli.explore $ shrink $ Cli.obs)

let stopped_name = function
  | Shm.Exec.All_quiescent -> "quiescent"
  | Shm.Exec.Fuel_exhausted -> "fuel exhausted"

(* A single run.  With a collector attached, the trace holds a [run]
   span and the register-coverage tracks (covered = poised writes,
   written = the space measure), recorded through Exec's probe hook;
   [--cov-sets] adds the sets themselves.  [--events] streams the
   replayable event log. *)
let run (r : Cli.run) trace diagram (o : Cli.obs) sets events =
  let { Cli.config; params = { Agreement.Params.n; k; _ }; _ } = r.inst in
  if sets && o.trace = None then
    Cli.usage_error "--cov-sets: records into the trace; pass --trace-out or --stats";
  let acc = Shm.Analysis.create ~n ~registers:(Shm.Memory.size (Shm.Config.mem config)) in
  let events_chan = Option.map (Cli.out_channel "--events") events in
  let sink =
    match events_chan with
    | None -> Shm.Analysis.feed acc
    | Some oc ->
      let write = Obs.Jsonl.sink_to_channel oc in
      fun ev ->
        Shm.Analysis.feed acc ev;
        write ev
  in
  let exec probe =
    Shm.Exec.run ?probe ~record:(trace || diagram) ~sink ~sched:r.sched ~inputs:r.inst.inputs
      ~max_steps:r.max_steps config
  in
  let result =
    match o.trace with
    | None -> exec None
    | Some tr ->
      Obs.Trace.with_attached tr (fun () ->
          let root =
            Obs.Trace.begin_span tr ~cat:"exec"
              ~args:[ ("sched", Obs.Json.String (Shm.Schedule.name r.sched)) ]
              "run"
          in
          let result = exec (Obs.Coverage.ambient_probe ~sets ()) in
          Obs.Trace.end_span tr ~args:[ ("steps", Obs.Json.Int result.Shm.Exec.steps) ] root;
          result)
  in
  Option.iter close_out events_chan;
  if trace then
    Fmt.pr "@[<v>--- trace ---@,%a@,-------------@]@." Shm.Exec.pp_trace
      result.Shm.Exec.trace;
  if diagram then
    Fmt.pr "@[<v>--- space-time diagram (first 80 steps) ---@,%a@]@."
      (fun ppf -> Shm.Diagram.pp ~len:80 ~n ppf)
      result.Shm.Exec.trace;
  Fmt.pr "algorithm: %s over %s snapshot, scheduler: %s@."
    (match r.inst.algo with
    | Cli.One_shot -> "one-shot (Fig. 3)"
    | Cli.Repeated -> "repeated (Fig. 4)"
    | Cli.Anonymous -> "anonymous (Fig. 5)"
    | Cli.Baseline -> "DFGR'13 baseline")
    (Agreement.Instances.impl_name r.inst.impl)
    (Shm.Schedule.name r.sched);
  Spec.Properties.by_instance result.Shm.Exec.config
  |> List.iter (fun (inst, ins, outs) ->
         Fmt.pr "instance %d: in {%a} out {%a}@." inst
           Fmt.(list ~sep:(any ", ") Shm.Value.pp)
           (Spec.Properties.distinct_values ins)
           Fmt.(list ~sep:(any ", ") Shm.Value.pp)
           (Spec.Properties.distinct_values outs));
  let safety = Spec.Properties.check_safety ~k result.Shm.Exec.config in
  (match safety with
  | Ok () -> Fmt.pr "safety: OK@."
  | Error e -> Fmt.pr "safety: VIOLATED — %s@." e);
  Fmt.pr "stopped: %s after %d steps; registers written: %d@."
    (stopped_name result.Shm.Exec.stopped)
    result.Shm.Exec.steps
    (Agreement.Runner.registers_used result);
  Cli.report o;
  if o.stats then begin
    let a = Shm.Analysis.snapshot acc in
    Fmt.pr "--- stats ---@.%a@.spans: %d completed, %d open; latency %a@."
      Shm.Analysis.pp a (List.length a.latencies) a.pending
      Obs.Metrics.Histogram.pp (Obs.Metrics.Histogram.of_list a.latencies)
  end;
  Option.iter (fun path -> Fmt.pr "events written to %s (JSONL)@." path) events;
  if Result.is_error safety then exit 1

(* ------------------------------------------------------------------ *)
(* The `analyze` subcommand: static protocol analyzer (lib/analyze).   *)

let print_diags ~witness diags =
  List.iter
    (fun (d : Analyze.Lint.diag) ->
      if witness then Fmt.pr "  %a@." Analyze.Lint.pp_diag d
      else
        Fmt.pr "  [%s] %s: %s@."
          (Analyze.Lint.severity_name d.Analyze.Lint.severity)
          d.Analyze.Lint.rule d.Analyze.Lint.message)
    diags

let analyze_mutants ~witness ~params =
  Fmt.pr "--- mutants (must be rejected) ---@.";
  List.map
    (fun (mu : Analyze.Mutants.mutant) ->
      let summary, diags = Analyze.Mutants.check mu params in
      let rejected = Analyze.Mutants.rejected mu params in
      let static = Analyze.Absint.IntSet.cardinal summary.Analyze.Absint.writes in
      Fmt.pr "%s at %s: static footprint %d, bound %d, lint errors %d -> %s@."
        mu.Analyze.Mutants.name
        (Agreement.Params.to_string params)
        static (mu.Analyze.Mutants.bound params)
        (List.length (Analyze.Lint.errors diags))
        (if rejected then "rejected" else "ACCEPTED (analyzer failure)");
      (* the witness that pins the rejection *)
      (if static > mu.Analyze.Mutants.bound params then
         match
           Analyze.Absint.write_witness summary (mu.Analyze.Mutants.bound params)
         with
         | Some w when witness ->
           Fmt.pr "  witness (write beyond bound):@.    %a@."
             (Fmt.list ~sep:(Fmt.any "@.    ") Fmt.string)
             w
         | Some _ -> Fmt.pr "  witness available (re-run with --witness)@."
         | None -> ());
      print_diags ~witness (Analyze.Lint.errors diags);
      (mu, rejected))
    Analyze.Mutants.all

(* The dataflow engine is versioned with the protocol grammar it
   consumes, so SARIF logs and corpus caches key on the same string. *)
let analyzer_version = Fuzz.Gen.version

(* The --json document, as [Obs.History.write_document] writes it. *)
let json_document ~experiment rows =
  Obs.Json.to_pretty_string (Obs.History.document ~experiment rows) ^ "\n"

(* The flags `analyze` and `protocol` share. *)
let witness =
  Arg.(value & flag & info [ "witness" ] ~doc:"Print full witness paths for every finding.")

let json_path =
  Arg.(
    value
    & opt (some string) None
    & info [ "json" ] ~docv:"FILE"
        ~doc:
          "Write the rows as a BENCH-style JSON document to FILE, or to stdout \
           after the table when FILE is $(b,-).")

let sarif_path =
  Arg.(
    value
    & opt (some string) None
    & info [ "sarif" ] ~docv:"FILE"
        ~doc:
          "Write the lint diagnostics as a SARIF 2.1.0 log to FILE, or to stdout \
           after the table when FILE is $(b,-).")

let analyze () algos all (nmk_given, p) max_n mutants json_path witness no_dynamic sarif_path
    stats =
  Option.iter (Cli.check_output "--json") json_path;
  Option.iter (Cli.check_output "--sarif") sarif_path;
  let max_n =
    match (max_n, all) with
    | Some n, false -> Cli.usage_error "--max-n %d bounds the --all sweep; pass --all" n
    | n, _ -> Cli.grid_max_n (Option.value n ~default:6)
  in
  if all && nmk_given && not mutants then
    Cli.usage_error "-n/-m/-k: --all sweeps its own grid; only --mutants reads the triple";
  List.iter
    (fun a -> ignore (Cli.lookup "algorithm" Analyze.Registry.find a ~valid:Analyze.Registry.names))
    algos;
  (* the registry entries of single-triple mode *)
  let selected =
    List.filter
      (fun (e : Analyze.Registry.entry) ->
        (algos = [] || List.mem e.name algos) && e.applicable p)
      Analyze.Registry.all
  in
  let dynamic = not no_dynamic in
  let cells =
    if all then Analyze.Report.cells ~max_n ~algos
    else List.map (fun e -> (e, p)) selected
  in
  let rows, totals = Analyze.Report.measure ~dynamic cells in
  Fmt.pr "%a@." Analyze.Report.pp_header ();
  List.iter (fun r -> Fmt.pr "%a@." Analyze.Report.pp_row r) rows;
  (* with --witness in single-triple mode, show the discovered path to
     every register in each algorithm's static footprint *)
  if witness && not all then
    selected
    |> List.iter (fun (e : Analyze.Registry.entry) ->
           let summary =
             Analyze.Absint.analyze ~rounds:e.Analyze.Registry.rounds
               (e.Analyze.Registry.config p)
           in
           Fmt.pr "@.%s write witnesses:@." e.Analyze.Registry.name;
           Analyze.Absint.IntSet.iter
             (fun r ->
               match Analyze.Absint.write_witness summary r with
               | Some w ->
                 Fmt.pr "    R%d:@.      %a@." r
                   (Fmt.list ~sep:(Fmt.any "@.      ") Fmt.string)
                   w
               | None -> ())
             summary.Analyze.Absint.writes);
  (match sarif_path with
  | None -> ()
  | Some path ->
    let results =
      List.concat_map
        (fun (r : Analyze.Report.row) ->
          List.map
            (fun dg -> ("algo:" ^ r.Analyze.Report.algo, dg))
            r.Analyze.Report.diags)
        rows
    in
    Cli.write_output "--sarif" path
      ~note:(Fmt.str " (%d results)" (List.length results))
      (Analyze.Sarif.to_string ~tool_version:analyzer_version results));
  let bad = Analyze.Report.violations rows in
  List.iter
    (fun (r : Analyze.Report.row) ->
      Fmt.pr "@.violation: %s at %s (static %d vs bound %d, dynamic within \
              static: %b):@."
        r.Analyze.Report.algo
        (Agreement.Params.to_string r.Analyze.Report.params)
        r.Analyze.Report.static_writes r.Analyze.Report.bound
        r.Analyze.Report.dynamic_within_static;
      print_diags ~witness (Analyze.Lint.errors r.Analyze.Report.diags))
    bad;
  let verdicts = if mutants then analyze_mutants ~witness ~params:p else [] in
  let mutants_ok = List.for_all snd verdicts in
  Option.iter
    (fun path ->
      Cli.write_output "--json" path
        (json_document ~experiment:"analyze" (Analyze.Report.bench_rows rows ~p verdicts)))
    json_path;
  Fmt.pr "@.%d rows, %d violations%s@." (List.length rows) (List.length bad)
    (if mutants then
       Fmt.str ", mutants %s" (if mutants_ok then "all rejected" else "NOT all rejected")
     else "");
  if stats then Fmt.pr "%a@." Analyze.Report.pp_stats totals;
  if bad <> [] || not mutants_ok then exit 1

let analyze_cmd =
  let algos =
    Arg.(
      value & opt_all string []
      & info [ "algo"; "a" ] ~docv:"NAME"
          ~doc:"Algorithm(s) to analyze (repeatable): oneshot | repeated | \
                anonymous | baseline.  Default: all.")
  in
  let all =
    Arg.(
      value & flag
      & info [ "all" ]
          ~doc:"Sweep the whole parameter grid (n <= $(b,--max-n), 1 <= m <= k \
                < n) instead of one triple.")
  in
  let max_n =
    Arg.(value & opt (some ~none:"6" int) None & info [ "max-n" ] ~doc:"Grid limit for --all.")
  in
  let mutants =
    Arg.(
      value & flag
      & info [ "mutants" ]
          ~doc:"Also analyze the seeded broken protocols; exit 1 unless every \
                one is rejected.")
  in
  let no_dynamic =
    Arg.(
      value & flag
      & info [ "no-dynamic" ]
          ~doc:"Skip the concrete runs; static analysis and lints only.")
  in
  Cmd.v
    (Cmd.info "analyze" ~exits:Cli.exits
       ~doc:
         "Statically analyze the algorithms: abstract-interpretation register \
          footprints checked against the paper bounds and against dynamically \
          measured registers, plus well-formedness and anonymity lints.  \
          $(b,sa_run protocol) analyzes a first-order protocol instead.  \
          $(b,--stats) prints the abstract interpretation's totals over the rows: \
          steps, passes, and the abstract domain's alternative lookups and cache \
          recomputes.  Exits 1 on any violation.")
    Term.(
      const analyze $ Cli.memory_backend $ algos $ all $ Cli.nmk_flags ~n:4 ~m:1 ~k:2 ()
      $ max_n $ mutants $ json_path $ witness $ no_dynamic $ sarif_path $ Cli.stats)

(* ------------------------------------------------------------------ *)
(* The `protocol` subcommand: the dataflow engine (lib/analyze IR, not
   the free-monad registry) on one first-order protocol string, and
   optionally one run or a model check of it. *)

(* Run or model-check the protocol under the selected engine
   (free-monad interpreter or bytecode vm); both see the fuzzer's input
   space, so the two engines' verdicts are directly comparable (the vm
   oracle enforces run equivalence; this surface makes it inspectable
   by hand). *)
let run_protocol ~engine prog =
  let r = Agreement.Runner.run_proto ~engine prog in
  let written = r.Shm.Vm.final.Shm.Vm.written in
  Fmt.pr "@.run (%s engine): %d steps, %s; %d register(s) written {%a}@."
    (Agreement.Runner.engine_name engine)
    r.Shm.Vm.steps (stopped_name r.Shm.Vm.stopped) (List.length written)
    Fmt.(list ~sep:(any ", ") int)
    written;
  List.iter
    (fun (pid, inst, v) ->
      Fmt.pr "  p%d decides %a (instance %d)@." pid Shm.Value.pp v inst)
    r.Shm.Vm.final.Shm.Vm.outputs

let explore_protocol ~engine ~depth prog =
  let mc_engine = Spec.Modelcheck.Dpor { cache = true; jobs = 1 } in
  let inputs = Agreement.Runner.proto_inputs in
  let outcome =
    match (engine : Agreement.Runner.engine) with
    | Agreement.Runner.Interp ->
      Spec.Modelcheck.run ~engine:mc_engine ~depth ~inputs
        ~check:(Spec.Properties.check_safety ~k:1)
        (Shm.Vm.config prog)
    | Agreement.Runner.Vm ->
      Spec.Modelcheck.run_vm ~engine:mc_engine ~depth ~inputs
        ~check:(Spec.Properties.check_safety_io ~k:1)
        prog
  in
  Fmt.pr "@.explore (%s engine, depth %d): %a@."
    (Agreement.Runner.engine_name engine)
    depth Spec.Modelcheck.pp_outcome outcome;
  match outcome with Spec.Modelcheck.Ok_bounded _ -> () | _ -> exit 1

let protocol () s ir indep optimize witness sarif_path json_path engine_s run explore_depth =
  Option.iter (Cli.check_output "--json") json_path;
  Option.iter (Cli.check_output "--sarif") sarif_path;
  let engine =
    match engine_s with
    | Some e when not (run || explore_depth <> None) ->
      Cli.usage_error "--engine %s: runs nothing without --run or --explore-depth" e
    | e ->
      Cli.lookup "engine" Agreement.Runner.engine_of_string
        (Option.value e ~default:"interp")
        ~valid:[ "interp"; "vm" ]
  in
  let prog =
    match Analyze.Ir.parse s with
    | Ok p -> p
    | Error msg -> Cli.usage_error "protocol parse error: %s" msg
  in
  (* executing needs a protocol the engines accept; the analyses
     below lint the others *)
  (match Shm.Vm.validate prog with
  | Error msg when run || explore_depth <> None ->
    Cli.usage_error "protocol cannot run: %s" msg
  | _ -> ());
  (* the explorer rejects both with Invalid_argument; catch them first *)
  (match explore_depth with
  | Some d when d < 0 ->
    Cli.usage_error "--explore-depth %d: depth is not a non-negative integer" d
  | Some d when prog.Shm.Vm.n > Spec.Explore.max_procs ->
    Cli.usage_error "--explore-depth %d: protocol n%d exceeds the DPOR limit of %d processes"
      d prog.Shm.Vm.n Spec.Explore.max_procs
  | _ -> ());
  let artifact = "protocol:" ^ Analyze.Ir.to_string prog in
  let d = Analyze.Dataflow.analyze prog in
  Fmt.pr "%a@." Analyze.Dataflow.pp d;
  if ir then
    Fmt.pr "@.control-flow graph:@.%a@." Analyze.Ir.pp_cfg
      (Analyze.Ir.cfg_of_prog prog);
  let flow_diags = Analyze.Lint.flow d in
  if indep then begin
    Fmt.pr "@.independence facts: %a@." Analyze.Dataflow.pp_facts d;
    if flow_diags = [] then Fmt.pr "no flow diagnostics@."
    else begin
      Fmt.pr "flow diagnostics:@.";
      print_diags ~witness flow_diags
    end
  end;
  let opt = if optimize then Some (Analyze.Optim.optimize prog) else None in
  Option.iter (fun r -> Fmt.pr "@.%a@." Analyze.Optim.pp r) opt;
  Option.iter
    (fun path ->
      Cli.write_output "--sarif" path
        (Analyze.Sarif.to_string ~tool_version:analyzer_version
           (List.map (fun dg -> (artifact, dg)) flow_diags)))
    sarif_path;
  Option.iter
    (fun path ->
      Cli.write_output "--json" path
        (json_document ~experiment:"analyze-protocol"
           [ Analyze.Report.protocol_row prog d ~flow_diags:(List.length flow_diags) opt ]))
    json_path;
  if run then run_protocol ~engine prog;
  Option.iter (fun depth -> explore_protocol ~engine ~depth prog) explore_depth

let protocol_cmd =
  let prog =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"PROG"
          ~doc:
            "A first-order protocol string (the fuzz generator's compact form, e.g. \
             'r2 n2 : R0; W1<-in; D last').")
  in
  let ir =
    Arg.(
      value & flag
      & info [ "ir" ]
          ~doc:"Print the protocol's control-flow graph (its program points and successors).")
  in
  let indep =
    Arg.(
      value & flag
      & info [ "indep" ]
          ~doc:
            "Print the protocol's dataflow facts (constant and dead \
             registers, redundant scans) and its flow/* diagnostics.  These \
             are diagnostics: the DPOR independence relation is decided at \
             run time and reads none of them.")
  in
  let optimize =
    Arg.(
      value & flag
      & info [ "optimize" ]
          ~doc:
            "Rewrite the protocol (dead-register write elimination, constant \
             folding, redundant-scan collapse) and print the edit list.")
  in
  let engine =
    Arg.(
      value
      & opt (some ~none:"interp" string) None
      & info [ "engine" ] ~docv:"ENGINE"
          ~doc:
            "Execution engine for --run/--explore-depth: $(b,interp) (the \
             free-monad reference interpreter) or $(b,vm) (the bytecode \
             engine, see docs/PERFORMANCE.md).")
  in
  let run =
    Arg.(
      value & flag
      & info [ "run" ]
          ~doc:
            "Also execute the protocol (round-robin schedule, the fuzzer's \
             input space) under --engine and print steps, written registers \
             and decisions.")
  in
  let explore_depth =
    Arg.(
      value
      & opt (some int) None
      & info [ "explore-depth" ] ~docv:"DEPTH"
          ~doc:
            "Also model-check the protocol (DPOR, 1-agreement safety) to \
             DEPTH scheduler steps under --engine; exits 1 on a violation.")
  in
  Cmd.v
    (Cmd.info "protocol" ~exits:Cli.exits
       ~doc:
         "Analyze a first-order protocol with the dataflow engine ($(b,last) value \
          sets, $(b,last)-liveness, register value sets), and optionally run or \
          model-check it.  Exits 1 if the model check finds a violation.")
    Term.(
      const protocol $ Cli.memory_backend $ prog $ ir $ indep $ optimize $ witness
      $ sarif_path $ json_path $ engine $ run $ explore_depth)

(* ------------------------------------------------------------------ *)
(* The `conform` subcommand: native conformance harness (lib/conform). *)

let chaos_profile chaos =
  Cli.lookup "chaos profile" Conform.Chaos.profile_of_string chaos
    ~valid:(List.map Conform.Chaos.profile_name Conform.Chaos.all_profiles)

(* Print the conform.* metrics under --stats, then exit. *)
let conform_finish ~stats metrics code =
  if stats then Fmt.pr "--- metrics ---@.%a@." Obs.Metrics.pp metrics;
  exit code

let conform_snapshot domains components ops mutant (chaos, seed, iters, stats) =
  let domains = Cli.positive "--domains" domains in
  let components = Cli.positive "--components" components in
  let ops = Cli.positive "--ops" ops in
  let iters = Cli.positive "--iters" iters in
  let profile = chaos_profile chaos in
  let sut =
    match mutant with
    | None -> Conform.Sut.real
    | Some name ->
      Cli.lookup "implementation" Conform.Sut.by_name name
        ~valid:(List.map (fun s -> s.Conform.Sut.name) Conform.Sut.all)
  in
  let metrics = Obs.Metrics.create () in
  let cfg = { Conform.Harness.domains; components; ops; profile; seed; iters } in
  Fmt.pr "object: snapshot (%s), %d domains x %d ops, %d components, chaos %s, seed %d, \
          %d iterations@."
    sut.Conform.Sut.name domains ops components
    (Conform.Chaos.profile_name profile)
    seed iters;
  let outcome = Conform.Harness.run_snapshot ~metrics ~sut cfg in
  Fmt.pr "%a@." Conform.Harness.pp_outcome outcome;
  match outcome with
  | Conform.Harness.Pass _ -> conform_finish ~stats metrics 0
  | Conform.Harness.Fail v ->
    (* the seed pins the workload and chaos plan, but the physical
       race still needs retries: give the replay a few dozen
       iterations (sub-second) rather than promising one-shot
       reproduction of a timing-dependent failure *)
    Fmt.pr "replay: sa_run conform snapshot%s --domains %d --components %d --ops %d \
            --chaos %s --seed %d --iters 40@."
      (match mutant with Some mu -> " --mutant " ^ mu | None -> "")
      domains components ops
      (Conform.Chaos.profile_name profile)
      v.Conform.Harness.iter_seed;
    conform_finish ~stats metrics 1

let conform_agreement params (chaos, seed, iters, stats) =
  let iters = Cli.positive "--iters" iters in
  let profile = chaos_profile chaos in
  let metrics = Obs.Metrics.create () in
  Fmt.pr "object: agreement (Fig. 3 native, %s), chaos %s, seed %d, %d instances@."
    (Agreement.Params.to_string params)
    (Conform.Chaos.profile_name profile)
    seed iters;
  let outcome = Conform.Harness.run_agreement ~metrics ~params ~profile ~seed ~iters () in
  Fmt.pr "%a@." Conform.Harness.pp_agreement_outcome outcome;
  match outcome with
  | Conform.Harness.Agree_pass _ -> conform_finish ~stats metrics 0
  | Conform.Harness.Agree_fail _ -> conform_finish ~stats metrics 1

let conform_cmd, conform_cmds =
  let domains =
    Arg.(value & opt int 4 & info [ "domains" ] ~doc:"OCaml domains (= processes).")
  in
  (* the flags both objects take *)
  let common =
    let chaos =
      Arg.(
        value & opt string "calm"
        & info [ "chaos" ]
            ~doc:"Chaos profile: calm | yields | stalls | crashes | mixed.")
    in
    let seed = Arg.(value & opt int 0 & info [ "seed" ] ~doc:"Base seed (replayable).") in
    let iters =
      Arg.(value & opt int 100 & info [ "iters" ] ~doc:"Iterations (fresh object each).")
    in
    Term.(const (fun c s i st -> (c, s, i, st)) $ chaos $ seed $ iters $ Cli.stats)
  in
  let components =
    Arg.(value & opt int 4 & info [ "components" ] ~doc:"Snapshot components.")
  in
  let ops =
    Arg.(value & opt int 12 & info [ "ops" ] ~doc:"Operations per domain per iteration.")
  in
  let mutant =
    Arg.(
      value
      & opt (some string) None
      & info [ "mutant" ] ~docv:"NAME"
          ~doc:
            "Audit a deliberately broken snapshot instead of the real one: \
             single-collect | torn-update.  The harness must reject it.")
  in
  let snapshot =
    Cmd.v
      (Cmd.info "snapshot" ~exits:Cli.exits
         ~doc:
           "Audit the native atomic snapshot: real histories checked for real-time \
            linearizability, failures shrunk to 1-minimal witnesses with a replay line.")
      Term.(const conform_snapshot $ domains $ components $ ops $ mutant $ common)
  in
  let agreement =
    Cmd.v
      (Cmd.info "agreement" ~exits:Cli.exits
         ~doc:
           "Audit native Figure 3 set agreement: validity and k-agreement over fresh \
            instances, one process per domain.")
      Term.(const conform_agreement $ Cli.nmk_of domains ~m:1 ~k:2 $ common)
  in
  let cmds = [ snapshot; agreement ] in
  ( Cmd.group
      (Cmd.info "conform" ~exits:Cli.exits
         ~doc:
           "Audit the native multicore layer: capture real histories, check real-time \
            linearizability (chaos injection, crash-pending completion), shrink failures \
            to 1-minimal witnesses; $(b,--stats) prints the conform.* metrics registry")
      cmds,
    cmds )

(* ------------------------------------------------------------------ *)
(* The `serve` subcommand: sharded batched serving layer (lib/service). *)

let serve () shards clients ops keys theta seed app_name batch window params (o : Cli.obs) =
  let { Agreement.Params.n; m; k } = params in
  let app =
    Cli.lookup "app" Service.App.by_name app_name
      ~valid:(List.map (fun a -> a.Service.App.name) Service.App.all)
  in
  let shards = Cli.positive "--shards" shards in
  let batch = Cli.positive "--batch" batch in
  if window < batch then
    Cli.usage_error "--window (%d) must be at least --batch (%d)" window batch;
  let clients = Cli.positive "--clients" clients in
  let keys = Cli.positive "--keys" keys in
  if ops < 0 then Cli.usage_error "--ops must be non-negative";
  let server = Service.Server.create ~batch_max:batch ~window ~app ~shards params in
  let cfg =
    { Service.Loadgen.clients; ops_per_client = ops; keys; theta; seed }
  in
  Fmt.pr "serve: %d shards x %s, app %s, %d clients x %d ops, zipf theta %.2f, \
          seed %d@."
    shards
    (Agreement.Params.to_string params)
    app.Service.App.name clients ops theta seed;
  let report = Cli.observe o (fun () -> Service.Loadgen.run server cfg) in
  Fmt.pr "committed %d commands in %.1f ms: %.0f cmds/s, p50 %.1f us, p99 %.1f us, \
          %d backpressure stalls@."
    report.Service.Loadgen.ops
    (float_of_int report.Service.Loadgen.wall_ns /. 1e6)
    report.Service.Loadgen.throughput_cps
    (report.Service.Loadgen.p50_ns /. 1e3)
    (report.Service.Loadgen.p99_ns /. 1e3)
    report.Service.Loadgen.stalls;
  Fmt.pr "space: %d registers total (%d shards x min(n+2m-k, n) = %d each)@."
    (Service.Server.registers_used server)
    shards
    (min (n + (2 * m) - k) n);
  Cli.report o;
  if o.stats then
    List.iter
      (fun (s : Service.Shard.stats) ->
        Fmt.pr "  shard %d: %d slots, %d commands, %d steps, %d registers, %d alive%s@."
          s.Service.Shard.shard s.Service.Shard.slots s.Service.Shard.committed
          s.Service.Shard.steps s.Service.Shard.registers s.Service.Shard.alive
          (if s.Service.Shard.stuck then " [stuck]" else ""))
      (Service.Server.stats server);
  match Service.Server.verdict server with
  | Ok () ->
    Fmt.pr "verdict: ok (every shard passes validity + %d-agreement%s)@." k
      (if app.Service.App.name = "register" then " + linearizability" else "");
    exit 0
  | Error errors ->
    List.iter (Fmt.epr "verdict: %s@.") errors;
    exit 1

let serve_cmd =
  let shards =
    Arg.(value & opt int 4 & info [ "shards" ] ~doc:"Independent agreement shards.")
  in
  let clients =
    Arg.(value & opt int 32 & info [ "clients" ] ~doc:"Closed-loop clients.")
  in
  let ops =
    Arg.(value & opt int 8 & info [ "ops" ] ~doc:"Commands per client.")
  in
  let keys =
    Arg.(value & opt int 1024 & info [ "keys" ] ~doc:"Key-space size (keys hash onto shards).")
  in
  let theta =
    Arg.(
      value & opt float 0.9
      & info [ "skew"; "theta" ] ~doc:"Zipf skew theta; 0 = uniform keys.")
  in
  let seed = Arg.(value & opt int 0 & info [ "seed" ] ~doc:"Base seed (replayable).") in
  let app_arg =
    Arg.(
      value & opt string "register"
      & info [ "app" ] ~doc:"Replicated application: register | counter.")
  in
  let batch =
    Arg.(value & opt int 16 & info [ "batch" ] ~doc:"Max commands per agreement slot.")
  in
  let window =
    Arg.(
      value & opt int 64
      & info [ "window" ] ~doc:"Per-shard in-flight window (backpressure bound).")
  in
  Cmd.v
    (Cmd.info "serve" ~exits:Cli.exits
       ~doc:
         "Serve a replicated application over sharded, batched repeated set \
          agreement: Zipfian closed-loop load, per-shard backpressure, and a \
          conformance verdict (validity + k-agreement + linearizability) at the \
          end.  $(b,--stats) prints the per-shard breakdown.  Exits 1 if any shard \
          fails its verdict.")
    Term.(
      const serve $ Cli.memory_backend $ shards $ clients $ ops $ keys $ theta $ seed
      $ app_arg $ batch $ window
      $ Cli.nmk ~n_doc:"Replicas per shard." ~n:4 ~m:1 ~k:1 ()
      $ Cli.obs)

(* ------------------------------------------------------------------ *)
(* The `fig1` subcommand: the paper's Figure 1 and the claims around it
   (experiments E1–E7) with a verdict per row; exits 1 if any verdict
   fails. *)

let fig1 max_n =
  let max_n = Cli.grid_max_n max_n in
  let rows = Lowerbound.Figure1.table ~max_n in
  let failed = List.filter (fun r -> Result.is_error r.Lowerbound.Figure1.verdict) rows in
  Fmt.pr "%a%d rows, %d failed@." Lowerbound.Figure1.pp rows (List.length rows)
    (List.length failed);
  if failed <> [] then exit 1

let fig1_cmd =
  let max_n =
    Arg.(
      value & opt int 9
      & info [ "max-n" ] ~docv:"N"
          ~doc:
            "Largest n of the E1, E3 and E6 sweeps (E3 and E6 also stop at 7); the \
             other rows run at fixed points.")
  in
  Cmd.v
    (Cmd.info "fig1" ~exits:Cli.exits
       ~doc:
         "Reproduce the paper's Figure 1: measured registers against the upper bounds \
          (E1, E3), the Theorem 2 / Theorem 10 constructions against the lower bounds \
          (E2, E6, E4), and the claims checked over several arms: Figure 5 over the \
          atomic and the non-blocking anonymous snapshot (E3b), the DFGR'13 baseline's \
          2(n-k) against Figure 3's n-k+2 (E5), and Figure 3 over each snapshot \
          implementation (E7).  One checked row each; exits 1 if any verdict fails.")
    Term.(const fig1 $ max_n)

(* ------------------------------------------------------------------ *)
(* The `fuzz` subcommand: coverage-guided differential fuzzing of the
   simulator stack (lib/fuzz). *)

let oracle_names = List.map Fuzz.Oracle.name Fuzz.Oracle.all @ [ "all" ]

let fuzz oracle_s budget seed corpus_in corpus_out =
  let budget = Cli.positive "--budget" budget in
  Option.iter (Cli.check_output "--corpus-out") corpus_out;
  let judges =
    (if String.lowercase_ascii oracle_s = "all" then Fuzz.Oracle.all
     else [ Cli.lookup "oracle" Fuzz.Oracle.of_string oracle_s ~valid:oracle_names ])
    |> List.map (fun o -> (o, Fuzz.Oracle.check o))
  in
  let replay =
    match Option.map (fun path -> (path, Fuzz.Corpus.load path)) corpus_in with
    | None -> []
    | Some (_, Error e) -> Cli.usage_error "--corpus-in: %s" e
    | Some (path, Ok seeds) ->
      Fmt.pr "replaying %d corpus seed(s) from %s@." (List.length seeds) path;
      seeds
  in
  let outcomes = Fuzz.Driver.campaign ~replay ~judges ~budget ~seed () in
  List.iter
    (fun (o : Fuzz.Driver.outcome) ->
      Fmt.pr "%a@." Fuzz.Driver.pp_stats o.stats;
      Option.iter (Fmt.pr "%a@." Fuzz.Driver.pp_witness) o.witness)
    outcomes;
  (* the campaign's final corpus is the largest: corpora only grow *)
  let corpus =
    List.fold_left
      (fun c (o : Fuzz.Driver.outcome) -> if o.stats.corpus_size > List.length c then o.corpus else c)
      [] outcomes
  in
  Option.iter
    (fun path ->
      Result.iter_error (Cli.usage_error "--corpus-out: %s") (Fuzz.Corpus.save path corpus);
      Fmt.pr "corpus (%d entries) written to %s@." (List.length corpus) path)
    corpus_out;
  exit (if List.exists (fun (o : Fuzz.Driver.outcome) -> o.witness <> None) outcomes then 1 else 0)

let fuzz_mutants budget seed =
  let budget = Cli.positive "--budget" budget in
  let results = Fuzz.Oracle.mutant_sweep ~budget ~seed in
  let ok =
    List.fold_left
      (fun ok (r : Fuzz.Oracle.mutant_result) ->
        Fmt.pr "%-28s %s  %s@." r.Fuzz.Oracle.mutant
          (if r.Fuzz.Oracle.caught then "caught " else "MISSED ")
          r.Fuzz.Oracle.detail;
        ok && r.Fuzz.Oracle.caught)
      true results
  in
  exit (if ok then 0 else 1)

let fuzz_cmd, fuzz_cmds =
  let oracle =
    Arg.(
      value & opt string "all"
      & info [ "oracle" ]
          ~doc:
            ("Differential oracle to judge inputs with: "
            ^ String.concat " | " oracle_names ^ "."))
  in
  let budget =
    Arg.(
      value & opt int 200
      & info [ "budget" ] ~doc:"Inputs to generate and judge (executions).")
  in
  let seed =
    Arg.(
      value & opt int 0
      & info [ "seed" ]
          ~doc:
            "Campaign seed.  A campaign is deterministic in (oracle, budget, \
             seed): re-running reproduces the same witness.")
  in
  let corpus_in =
    Arg.(
      value
      & opt (some string) None
      & info [ "corpus-in" ] ~docv:"FILE"
          ~doc:
            "Replay a previous campaign's corpus file before generating: \
             seeds consume budget, earn coverage, and the interesting ones \
             re-enter the corpus so mutation builds on them.  This is how CI \
             persists fuzz progress across runs (cache keyed on the \
             generator version).")
  in
  let corpus_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "corpus-out" ] ~docv:"FILE"
          ~doc:"Write the final corpus (credit | program | schedule) to FILE.")
  in
  let mutants =
    Cmd.v
      (Cmd.info "mutants" ~exits:Cli.exits
         ~doc:
           "Run the seeded-mutant regression sweep instead of fuzzing: every \
            analyzer and conformance mutant must be caught within the budget.  \
            Exits 1 if one is missed.")
      Term.(const fuzz_mutants $ budget $ seed)
  in
  let cmds = [ mutants ] in
  ( Cmd.group
      ~default:Term.(const fuzz $ oracle $ budget $ seed $ corpus_in $ corpus_out)
      (Cmd.info "fuzz" ~exits:Cli.exits
         ~doc:
           "Coverage-guided differential fuzzing of the simulator stack: random \
            protocols + schedules, coverage feedback from state keys and analyzer \
            footprints, and joint 1-minimal shrinking of any divergence.  Exits 1 \
            with a replayable witness on divergence.")
      cmds,
    cmds )

let subcommands =
  [ explore_cmd; protocol_cmd; conform_cmd; analyze_cmd; serve_cmd; fuzz_cmd; fig1_cmd ]

let cmd =
  let trace = Arg.(value & flag & info [ "trace"; "t" ] ~doc:"Print the full trace.") in
  let diagram =
    Arg.(value & flag & info [ "diagram"; "d" ] ~doc:"Print a space-time diagram.")
  in
  let sets =
    Arg.(
      value & flag
      & info [ "cov-sets" ]
          ~doc:
            "Record the covered/written register sets themselves in the trace on \
             every event, not just their sizes (heavier).")
  in
  let events =
    Arg.(
      value
      & opt (some string) None
      & info [ "events" ] ~docv:"FILE"
          ~doc:
            "Stream the run's event log to $(docv) as JSONL, one event per line: the \
             replayable record of the run.")
  in
  Cmd.group
    ~default:Term.(const run $ Cli.run $ trace $ diagram $ Cli.obs $ sets $ events)
    (Cmd.info "sa_run" ~exits:Cli.exits
       ~doc:
         "Run m-obstruction-free k-set agreement in the simulator, model-check it with \
          `explore', or audit the native layer with `conform'.  $(b,--stats) prints \
          the run's Shm.Analysis counts and propose latencies")
    subcommands

(* cmdliner answers [GROUP WORD --help] with GROUP's help and exit 0 even
   when WORD names none of GROUP's commands (exactly or as a unique
   prefix), or when WORD follows the options of GROUP's default run,
   which takes no positional word.  A line is cut after such a word, so
   it fails the same way with or without --help: one unknown-command or
   too-many-arguments error, exit 2.  To find a stray word among a
   default run's options, each group lists the options of its default
   run that take no value ([None]: the group has no default run); every
   other option takes the next word unless its value is glued to it. *)
let argv =
  let groups = [ (conform_cmd, (conform_cmds, None)); (fuzz_cmd, (fuzz_cmds, Some [])) ] in
  let flags = [ "--trace"; "-t"; "--diagram"; "-d"; "--stats"; "--cov-sets" ] in
  let upto i = Array.sub Sys.argv 0 (i + 1) in
  let rec stray flags i =
    if i >= Array.length Sys.argv then Sys.argv
    else
      let w = Sys.argv.(i) in
      if not (String.starts_with ~prefix:"-" w) then upto i
      else if
        List.mem w ("--help" :: flags)
        || String.contains w '='
        || (String.length w > 2 && w.[1] <> '-')
      then stray flags (i + 1)
      else stray flags (i + 2)
  in
  let rec cut i (cmds, flags) =
    let w = if i < Array.length Sys.argv then Sys.argv.(i) else "-" in
    let named p = List.filter (fun c -> p (Cmd.name c)) cmds in
    match (named (String.equal w), named (String.starts_with ~prefix:w)) with
    | _ when String.starts_with ~prefix:"-" w -> (
      match flags with Some flags -> stray flags i | None -> Sys.argv)
    | [ c ], _ | [], [ c ] -> (
      match List.assq_opt c groups with Some group -> cut (i + 1) group | None -> Sys.argv)
    | _ -> upto i
  in
  cut 1 (subcommands, Some flags)

let () = exit (match Cmd.eval ~argv cmd with c when c = Cmd.Exit.cli_error -> 2 | c -> c)
