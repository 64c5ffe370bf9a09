(* The experiment harness: the measured side of the paper's evaluation.

   Figure 1 and the claims around it are checked row by row by
   `sa_run fig1` (Lowerbound.Figure1); this harness writes its
   upper-bound rows as JSON and runs the experiments on the
   verification stack and the serving layer (DESIGN.md and
   EXPERIMENTS.md index them, E1–E20).  Every table here has its own CI
   step, and tools/lint.sh (rule 11) keeps it that way.

   Every table is one row of [experiments] at the bottom: its id, its
   row producer, and the floors `check` gates it on.  Run main.exe with
   no valid command for the usage line and the ids. *)

open Agreement
open Lowerbound

let section title = Fmt.pr "@.=== %s ===@." title

(* ------------------------------------------------------------------ *)
(* Bench history: every `table` run appends one JSONL entry (schema
   version, git rev, rows) to BENCH_history.jsonl, the repo's perf
   trajectory.  `diff` compares the last two runs of an experiment;
   `check` re-runs the gated experiments and gates their rows against
   the floors in the [experiments] table (machine-independent ratios
   and verdicts), writing nothing. *)

let history_path = "BENCH_history.jsonl"

(* Obs.History is subprocess-free by design; resolving the revision is
   the harness's job.  CI exposes GITHUB_SHA; locally ask git. *)
let git_rev () =
  match Sys.getenv_opt "GITHUB_SHA" with
  | Some s when String.length s >= 7 -> String.sub s 0 7
  | Some s -> s
  | None -> (
    try
      let ic = Unix.open_process_in "git rev-parse --short HEAD 2>/dev/null" in
      let line = try input_line ic with End_of_file -> "unknown" in
      match Unix.close_process_in ic with Unix.WEXITED 0 -> line | _ -> "unknown"
    with _ -> "unknown")

(* [f ()] and its wall time in milliseconds, by the monotonic clock. *)
let timed f =
  let t0 = Obs.Trace.now_ns () in
  let r = f () in
  (r, float_of_int (Obs.Trace.now_ns () - t0) /. 1e6)

(* Linearizability-checker throughput from a conform run's metrics:
   (ops, checker ns, ops graded per second of checker time — the
   checker sees every completed op of every history). *)
let checker_throughput metrics =
  let counter name = Obs.Metrics.Counter.value (Obs.Metrics.counter metrics name) in
  let ops = counter "conform.ops" and check_ns = counter "conform.check_ns" in
  (ops, check_ns,
   if check_ns = 0 then 0. else float_of_int ops /. (float_of_int check_ns /. 1e9))

let point_fields ~n ~m ~k =
  [ ("n", Obs.Json.Int n); ("m", Obs.Json.Int m); ("k", Obs.Json.Int k) ]

(* The latency columns [spans]/[span_p50]/[span_p99] of the step
   latencies of every propose (Shm.Analysis) of the runs observed. *)
let span_fields latencies =
  let h = Obs.Metrics.Histogram.of_list latencies in
  [
    ("spans", Obs.Json.Int (List.length latencies));
    ("span_p50", Obs.Json.Float (Obs.Metrics.Histogram.p50 h));
    ("span_p99", Obs.Json.Float (Obs.Metrics.Histogram.p99 h));
  ]

(* ------------------------------------------------------------------ *)
(* E1 and E3: Figure 1's upper-bound rows (Lowerbound.Figure1) as one
   JSON document, each row naming its experiment; `sa_run fig1` prints
   the whole table, the lower-bound constructions included, with its
   verdicts.                                                           *)

let fig1_json ~smoke:_ =
  section "E1, E3  Figure 1 upper bounds: min(n+2m-k, n) and (m+1)(n-k)+m^2+1 registers";
  let rows =
    Figure1.table ~max_n:9
    |> List.filter_map (fun ({ params = p; _ } as r : Figure1.row) ->
           match r.measured with
           | Figure1.Registers { bound; written; steps; latencies } ->
             Some
               (Obs.Json.Obj
                  ((("experiment", Obs.Json.String (Figure1.experiment_name r.experiment))
                   :: point_fields ~n:p.n ~m:p.m ~k:p.k)
                  @ [ ("bound", Obs.Json.Int bound); ("measured", Obs.Json.Int written);
                      ("ok", Obs.Json.Bool (Result.is_ok r.verdict));
                      ("steps", Obs.Json.Int steps) ]
                  @ span_fields latencies))
           | _ -> None)
  in
  Fmt.pr "%d points; the table with verdicts: sa_run fig1@." (List.length rows);
  rows

(* ------------------------------------------------------------------ *)
(* E13: exploration engines — naive enumeration vs DPOR vs DPOR with   *)
(* state caching, at equal depth, on the Figure 3 one-shot.  The       *)
(* headline number: DPOR+cache explores orders of magnitude fewer      *)
(* states than the naive engine with the same verdict.                 *)

let explore_table () =
  section
    "E13 Exploration engines on Figure 3 one-shot: naive vs dpor vs dpor+cache at equal \
     depth";
  let engines =
    [
      ("naive", Spec.Modelcheck.Naive);
      ("dpor", Spec.Modelcheck.Dpor { cache = false; jobs = 1 });
      ("dpor+cache", Spec.Modelcheck.Dpor { cache = true; jobs = 1 });
    ]
  in
  (* (case label, n, k, r override, depth); r = None means the correct
     n+2m−k budget.  Depths chosen so naive stays tractable; the
     starved case needs depth 14 for its concurrency-only violation. *)
  let cases =
    [
      ("correct", 3, 1, None, 8);
      ("correct", 3, 1, None, 10);
      ("starved-r3", 3, 1, Some 3, 14);
    ]
  in
  Fmt.pr "%-12s %-6s %-12s %-10s %-10s %-8s %-8s %-10s %-10s@." "case" "depth" "engine"
    "explored" "leaves" "hits" "pruned" "verdict" "wall ms";
  let rows = ref [] in
  List.iter
    (fun (case, n, k, r, depth) ->
      let p = Params.make ~n ~m:1 ~k in
      let r = Option.value r ~default:(Params.r_oneshot p) in
      let inputs =
        Shm.Exec.oneshot_inputs (Array.init n (fun pid -> Shm.Value.int (pid + 1)))
      in
      let check = Spec.Properties.check_safety ~k in
      let naive_explored = ref 0 in
      List.iter
        (fun (name, engine) ->
          let outcome, wall_ms =
            timed (fun () ->
                Spec.Modelcheck.run ~engine ~depth ~inputs ~check (Instances.oneshot ~r p))
          in
          let s = Spec.Modelcheck.stats_of outcome in
          let verdict, ce_len =
            match outcome with
            | Spec.Modelcheck.Ok_bounded _ -> ("ok", None)
            | Spec.Modelcheck.Counterexample { schedule; _ } ->
              ("violation", Some (List.length schedule))
          in
          if name = "naive" then naive_explored := s.Spec.Modelcheck.explored;
          let reduction =
            float_of_int !naive_explored /. float_of_int s.Spec.Modelcheck.explored
          in
          rows :=
            Obs.Json.Obj
              (point_fields ~n ~m:1 ~k
              @ [
                  ("case", Obs.Json.String case);
                  ("registers", Obs.Json.Int r);
                  ("engine", Obs.Json.String name);
                  ("depth", Obs.Json.Int depth);
                  ("explored", Obs.Json.Int s.Spec.Modelcheck.explored);
                  ("leaves", Obs.Json.Int s.Spec.Modelcheck.leaves);
                  ("cache_hits", Obs.Json.Int s.Spec.Modelcheck.cache_hits);
                  ("pruned", Obs.Json.Int s.Spec.Modelcheck.pruned);
                  ("verdict", Obs.Json.String verdict);
                  ( "ce_len",
                    match ce_len with Some l -> Obs.Json.Int l | None -> Obs.Json.Null );
                  ("reduction_vs_naive", Obs.Json.Float reduction);
                  ("wall_ms", Obs.Json.Float wall_ms);
                ])
            :: !rows;
          Fmt.pr "%-12s %-6d %-12s %-10d %-10d %-8d %-8d %-10s %-10.1f@." case depth name
            s.Spec.Modelcheck.explored s.Spec.Modelcheck.leaves
            s.Spec.Modelcheck.cache_hits s.Spec.Modelcheck.pruned verdict wall_ms)
        engines)
    cases;
  List.rev !rows

(* ------------------------------------------------------------------ *)
(* E19: run-time conditional independence for DPOR — the sleep-set     *)
(* refinement (Spec.Modelcheck.cond_independent, decided from the two *)
(* poised ops and the current memory) vs the dynamic-footprint         *)
(* baseline, same engine and depth per case.  Two case families:      *)
(*                                                                     *)
(* - the E13 oneshot grid (correct + starved), kept for verdict        *)
(*   identity and as an honest negative result: Figure 3 writes        *)
(*   pid-tagged pairs and scans everything, so its conflicts are       *)
(*   almost never conditionally independent — the refinement holds     *)
(*   verdicts and prunes ~nothing there;                               *)
(* - first-order protocols with redundancy (constant and re-written    *)
(*   registers — equal same-register writes and no-op writes), where   *)
(*   conditional independence carries real weight.                     *)
(*                                                                     *)
(* The gate is the aggregate explored-state ratio (base/refined),     *)
(* verdict identity — a refinement that changes any verdict is         *)
(* unsound, not fast — and the exact explored totals, which are        *)
(* deterministic: any drift in the relation or the engine moves them.  *)

(* (base, refined) explored totals, --smoke and full *)
let indep_pinned_totals ~smoke = if smoke then (2722, 2047) else (9326, 7193)

let indep_table ~smoke =
  section
    "E19 Run-time conditional independence (Spec.Modelcheck.cond_independent): \
     dpor+cache baseline vs dpor+cache with ~refine:true, on the E13 grid \
     and on redundancy-bearing first-order protocols";
  let oneshot_cases =
    if smoke then
      [ ("correct", 3, 1, None, 8); ("starved-r3", 3, 1, Some 3, 10) ]
    else
      [
        ("correct", 3, 1, None, 8);
        ("correct", 3, 1, None, 10);
        ("starved-r3", 3, 1, Some 3, 14);
      ]
  in
  (* Every process runs the same text, so constant stores collide only
     with equal values — exactly what the WW-equal and no-op-write
     rules license the engine to commute. *)
  let proto_cases =
    if smoke then
      [
        ("proto-const", "r3 n3 : W0<-7; L2[W1<-7; R0]; D last", 12);
        ("proto-noop", "r2 n3 : W0<-3; L3[W0<-3; R0]; D last", 12);
      ]
    else
      [
        ("proto-const", "r3 n3 : W0<-7; L2[W1<-7; R0]; D last", 14);
        ("proto-noop", "r2 n3 : W0<-3; L3[W0<-3; R0]; D last", 14);
        ("proto-scan", "r2 n3 : W0<-4; S0+2; L2[W1<-4; S0+2]; D 4", 14);
      ]
  in
  Fmt.pr "%-12s %-6s %-10s %-10s %-10s %-10s %-10s %-10s@." "case" "depth" "arm"
    "explored" "pruned" "refined" "verdict" "wall ms";
  let rows = ref [] in
  let total_base = ref 0 and total_refined = ref 0 in
  let verdicts_match = ref true in
  let engine = Spec.Modelcheck.Dpor { cache = true; jobs = 1 } in
  (* One case: run both arms at equal depth, record per-arm rows, fold
     the explored counts and verdicts into the table-wide gate. *)
  let run_case ~case ~depth ~inputs ~check ~fields mk_config =
    let arms = [ ("base", false); ("refined", true) ] in
    let base_explored = ref 0 in
    let base_verdict = ref "" in
    List.iter
      (fun (arm, refine) ->
        let metrics = Obs.Metrics.create () in
        let outcome, wall_ms =
          timed (fun () ->
              Spec.Modelcheck.run ~engine ~depth ~inputs ~check ~refine ~metrics
                (mk_config ()))
        in
        let s = Spec.Modelcheck.stats_of outcome in
        let refined_count =
          Obs.Metrics.Counter.value (Obs.Metrics.counter metrics "explore.refined")
        in
        let verdict =
          match outcome with
          | Spec.Modelcheck.Ok_bounded _ -> "ok"
          | Spec.Modelcheck.Counterexample _ -> "violation"
        in
        (if arm = "base" then begin
           base_explored := s.Spec.Modelcheck.explored;
           total_base := !total_base + s.Spec.Modelcheck.explored
         end
         else total_refined := !total_refined + s.Spec.Modelcheck.explored);
        (* verdict identity is checked per case: both arms must agree *)
        if arm = "base" then base_verdict := verdict
        else if !base_verdict <> verdict then verdicts_match := false;
        rows :=
          Obs.Json.Obj
            (fields
            @ [
                ("bench", Obs.Json.String "indep-dpor");
                ("case", Obs.Json.String case);
                ("depth", Obs.Json.Int depth);
                ("arm", Obs.Json.String arm);
                ("explored", Obs.Json.Int s.Spec.Modelcheck.explored);
                ("pruned", Obs.Json.Int s.Spec.Modelcheck.pruned);
                ("refined", Obs.Json.Int refined_count);
                ("verdict", Obs.Json.String verdict);
                ( "states_ratio",
                  if arm = "refined" && s.Spec.Modelcheck.explored > 0 then
                    Obs.Json.Float
                      (float_of_int !base_explored
                      /. float_of_int s.Spec.Modelcheck.explored)
                  else Obs.Json.Null );
                ("wall_ms", Obs.Json.Float wall_ms);
              ])
          :: !rows;
        Fmt.pr "%-12s %-6d %-10s %-10d %-10d %-10d %-10s %-10.1f@." case depth
          arm s.Spec.Modelcheck.explored s.Spec.Modelcheck.pruned refined_count
          verdict wall_ms)
      arms
  in
  List.iter
    (fun (case, n, k, r, depth) ->
      let p = Params.make ~n ~m:1 ~k in
      let r = Option.value r ~default:(Params.r_oneshot p) in
      let inputs =
        Shm.Exec.oneshot_inputs (Array.init n (fun pid -> Shm.Value.int (pid + 1)))
      in
      run_case ~case ~depth ~inputs
        ~check:(Spec.Properties.check_safety ~k)
        ~fields:(point_fields ~n ~m:1 ~k @ [ ("registers", Obs.Json.Int r) ])
        (fun () -> Instances.oneshot ~r p))
    oneshot_cases;
  List.iter
    (fun (case, text, depth) ->
      let prog =
        match Analyze.Ir.parse text with
        | Ok p -> p
        | Error msg -> Fmt.failwith "E19 protocol %s: %s" case msg
      in
      let inputs = Runner.proto_inputs in
      (* agreement-only: these protocols decide constants, so
         validity (output ∈ inputs) is vacuously false and would stop
         exploration at the first leaf; k-agreement is the verdict that
         exercises the full bounded state space *)
      let check_agreement config =
        match Spec.Properties.agreement_errors ~k:1 config with
        | [] -> Ok ()
        | e :: _ -> Error e
      in
      run_case ~case ~depth ~inputs ~check:check_agreement
        ~fields:
          [
            ("protocol", Obs.Json.String (Analyze.Ir.to_string prog));
            ("n", Obs.Json.Int prog.Shm.Vm.n);
            ("registers", Obs.Json.Int prog.Shm.Vm.registers);
          ]
        (fun () -> Shm.Vm.config prog))
    proto_cases;
  let ratio =
    if !total_refined = 0 then 1.0
    else float_of_int !total_base /. float_of_int !total_refined
  in
  rows :=
    Obs.Json.Obj
      [
        ("bench", Obs.Json.String "indep-total");
        ("explored_base", Obs.Json.Int !total_base);
        ("explored_refined", Obs.Json.Int !total_refined);
        ("states_ratio", Obs.Json.Float ratio);
        ("verdict_match", Obs.Json.Float (if !verdicts_match then 1.0 else 0.0));
        ( "totals_match",
          Obs.Json.Float
            (if (!total_base, !total_refined) = indep_pinned_totals ~smoke then 1.0
             else 0.0) );
      ]
    :: !rows;
  Fmt.pr "total: base %d, refined %d, ratio %.3f, verdicts %s@." !total_base
    !total_refined ratio
    (if !verdicts_match then "identical" else "DIVERGED");
  List.rev !rows

(* ------------------------------------------------------------------ *)
(* E14: native conformance harness — linearizability-checker           *)
(* throughput and native op latency under each chaos profile.          *)

let conform_table () =
  section
    "E14 Native conformance (lib/conform): op latency and checker throughput per chaos \
     profile (4 domains x 16 ops, 150 histories)";
  Fmt.pr "%-10s %-8s %-10s %-12s %-12s %-12s %-12s %-14s %-10s@." "profile" "iters"
    "ops" "upd p50 ns" "upd p99 ns" "scan p50 ns" "scan p99 ns" "check ops/s" "wall ms";
  let rows = ref [] in
  Conform.Chaos.all_profiles
  |> List.iter (fun profile ->
         let metrics = Obs.Metrics.create () in
         let cfg =
           {
             Conform.Harness.domains = 4;
             components = 4;
             ops = 16;
             profile;
             seed = 42;
             iters = 150;
           }
         in
         let outcome, wall_ms =
           timed (fun () -> Conform.Harness.run_snapshot ~metrics ~sut:Conform.Sut.real cfg)
         in
         let counter name =
           Obs.Metrics.Counter.value (Obs.Metrics.counter metrics name)
         in
         let hist name = Obs.Metrics.histogram metrics name in
         let ops, check_ns, check_ops_per_s = checker_throughput metrics in
         let violations = counter "conform.violations" in
         let upd = hist "conform.update_ns" and scn = hist "conform.scan_ns" in
         let ok = match outcome with Conform.Harness.Pass _ -> true | _ -> false in
         rows :=
           Obs.Json.Obj
             [
               ("object", Obs.Json.String "snapshot");
               ("impl", Obs.Json.String Conform.Sut.real.Conform.Sut.name);
               ("profile", Obs.Json.String (Conform.Chaos.profile_name profile));
               ("domains", Obs.Json.Int cfg.Conform.Harness.domains);
               ("components", Obs.Json.Int cfg.Conform.Harness.components);
               ("ops_per_domain", Obs.Json.Int cfg.Conform.Harness.ops);
               ("iters", Obs.Json.Int cfg.Conform.Harness.iters);
               ("ops", Obs.Json.Int ops);
               ("pending", Obs.Json.Int (counter "conform.crashes"));
               ("violations", Obs.Json.Int violations);
               ("linearizable", Obs.Json.Bool ok);
               ("update_p50_ns", Obs.Json.Float (Obs.Metrics.Histogram.p50 upd));
               ("update_p99_ns", Obs.Json.Float (Obs.Metrics.Histogram.p99 upd));
               ("scan_p50_ns", Obs.Json.Float (Obs.Metrics.Histogram.p50 scn));
               ("scan_p99_ns", Obs.Json.Float (Obs.Metrics.Histogram.p99 scn));
               ("check_ns_total", Obs.Json.Int check_ns);
               ("check_ops_per_s", Obs.Json.Float check_ops_per_s);
               ("wall_ms", Obs.Json.Float wall_ms);
             ]
           :: !rows;
         Fmt.pr "%-10s %-8d %-10d %-12.0f %-12.0f %-12.0f %-12.0f %-14.0f %-10.1f@."
           (Conform.Chaos.profile_name profile)
           cfg.Conform.Harness.iters ops
           (Obs.Metrics.Histogram.p50 upd)
           (Obs.Metrics.Histogram.p99 upd)
           (Obs.Metrics.Histogram.p50 scn)
           (Obs.Metrics.Histogram.p99 scn)
           check_ops_per_s wall_ms;
         if not ok then
           Fmt.pr "  !! unexpected violation on the real implementation@.");
  List.rev !rows

(* ------------------------------------------------------------------ *)
(* Same-binary speed comparisons (E16, E17, E20): every timed floor
   gates a ratio of medians over [trials] runs of each arm, so one
   disturbed run cannot flip a verdict.                                *)

let trials = 5

(* An arm of a comparison: its name, the fields that describe it, and
   one trial of its fixed workload, which returns how many units
   (steps, states, commands) it did. *)
type arm = { name : string; fields : (string * Obs.Json.t) list; work : unit -> int }

(* Runs [reference] and [candidate] alternately, [trials] pairs, so slow
   drift (frequency scaling, a noisy neighbour) falls on both arms.  An
   arm's figure is the median of its per-second rates, with their IQR;
   the candidate's [ratio_vs_reference] is the ratio of the medians.
   [count] names the field of units per trial, [rate] the per-second
   field.  Prints one line per arm; returns the rows, reference first. *)
let compare_arms ~bench ~count ~rate reference candidate =
  let pairs =
    List.init trials (fun _ ->
        let r = timed reference.work in
        (r, timed candidate.work))
  in
  (* the [q]th quartile of [xs] (2 = the median), at rank q(n-1)/4:
     exact for 5 trials *)
  let quartile xs q =
    let a = Array.of_list (List.sort compare xs) in
    a.(q * (Array.length a - 1) / 4)
  in
  let summary runs =
    let rates = List.map (fun (units, ms) -> 1000. *. float_of_int units /. ms) runs in
    (fst (List.hd runs), quartile rates 2, quartile rates 3 -. quartile rates 1)
  in
  let ((_, ref_rate, _) as r) = summary (List.map fst pairs)
  and ((_, cand_rate, _) as c) = summary (List.map snd pairs) in
  let row arm (units, median, iqr) ratio =
    Fmt.pr "%-18s %-10s %14.0f %12.0f %8.2f@." bench arm.name median iqr ratio;
    Obs.Json.Obj
      ((("bench", Obs.Json.String bench) :: ("arm", Obs.Json.String arm.name) :: arm.fields)
      @ [
          (count, Obs.Json.Int units);
          ("trials", Obs.Json.Int trials);
          (rate, Obs.Json.Float median);
          (rate ^ "_iqr", Obs.Json.Float iqr);
          ("ratio_vs_reference", Obs.Json.Float ratio);
        ])
  in
  Fmt.pr "%-18s %-10s %14s %12s %8s@." "bench" "arm" "median/s" "iqr/s" "ratio";
  let ref_row = row reference r 1.0 in
  [ ref_row; row candidate c (cand_rate /. ref_rate) ]

(* ------------------------------------------------------------------ *)
(* E16: simulator hot-path performance — the journaled memory backend  *)
(* and incremental state keys vs the persistent-map + full-MD5-digest  *)
(* reference, measured in the same run on the Figure 3 one-shot        *)
(* (n=4, m=1, k=1).  Schema in EXPERIMENTS.md §E16.                    *)

(* Interpreter stepping, exploration-style: every step also updates the
   state hash and derives the node's cache key, exactly the per-node
   work of the engines' DFS.  [full] keys by the audited MD5 digest
   (the old hot path), otherwise by the incremental key.  Returns the
   steps taken over [iters] runs to quiescence. *)
let interp_arm ~config ~inputs ~full ~iters () =
  let has_input pid inst = Option.is_some (inputs ~pid ~instance:inst) in
  let steps = ref 0 and sink = ref 0 in
  for _ = 1 to iters do
    let config = ref (config ()) in
    let n = Shm.Config.n !config in
    let hash = ref (Spec.Statehash.create ~audit:full !config) in
    let quiescent = ref false in
    while not !quiescent do
      let stepped = ref false in
      for pid = 0 to n - 1 do
        if Shm.Config.runnable !config ~has_input pid then (
          let before = !config in
          let config', ev = Shm.Config.advance ~inputs before pid in
          let hash' = Spec.Statehash.record !hash ~before config' ev in
          (sink :=
             !sink
             +
             if full then String.length (Spec.Statehash.full_key hash' config')
             else Spec.Statehash.key_hash (Spec.Statehash.key hash'));
          config := config';
          hash := hash';
          stepped := true;
          incr steps)
      done;
      if not !stepped then quiescent := true
    done
  done;
  ignore (Sys.opaque_identity !sink);
  !steps

(* --smoke (CI): same arms and schema, small iteration counts. *)
let perf_table ~smoke =
  section
    (Fmt.str "E16 Simulator hot path: journaled + incremental keys vs persistent + \
              full digests (Figure 3, n=4 m=1 k=1%s)"
       (if smoke then ", smoke" else ""));
  let p = Params.make ~n:4 ~m:1 ~k:1 in
  let n = p.Params.n in
  let inputs = Shm.Exec.oneshot_inputs (Array.init n (fun pid -> Shm.Value.int (pid + 1))) in
  let dpor = Spec.Modelcheck.Dpor { cache = true; jobs = 1 } in
  let explored outcome = (Spec.Modelcheck.stats_of outcome).Spec.Modelcheck.explored in
  (* Reference arm = persistent backend + audited MD5 digests +
     full-digest key (the old hot path); new arm = journaled backend +
     incremental key.  [size] is the workload's iterations or depth. *)
  let hot_path ~bench ~count ~rate size work =
    let arm name backend full =
      {
        name;
        fields =
          [
            ("backend", Obs.Json.String (Shm.Memory.backend_name backend));
            ("keying", Obs.Json.String (if full then "full-digest" else "incremental"));
            size;
          ];
        work = work backend full;
      }
    in
    compare_arms ~bench ~count ~rate
      (arm "reference" Shm.Memory.Persistent true)
      (arm "new" Shm.Memory.Journaled false)
  in
  (* -- simulator stepping *)
  let sim_iters = if smoke then 200 else 2_000 in
  let sim_rows =
    hot_path ~bench:"sim-steps" ~count:"steps" ~rate:"steps_per_s"
      ("iters", Obs.Json.Int sim_iters)
      (fun backend full ->
        interp_arm ~config:(fun () -> Instances.oneshot ~backend p) ~inputs ~full
          ~iters:sim_iters)
  in
  (* -- DPOR: same engine, old vs new cache key and backend.  States
     per second over a fixed-depth exploration of the same instance.
     This measures the exploration core — per-node state hashing, cache
     lookups, footprints, successor construction on each backend — so
     frontier completion is excluded ([completion_steps:0]): that cost
     is plain simulator stepping, identical in both arms, and the
     sim-steps rows above already measure it end to end. *)
  let dpor_depth = if smoke then 9 else 12 in
  let dpor_rows =
    hot_path ~bench:"dpor-states" ~count:"explored" ~rate:"states_per_s"
      ("depth", Obs.Json.Int dpor_depth)
      (fun backend full () ->
        explored
          (Spec.Modelcheck.run ~engine:dpor ~depth:dpor_depth
             ~key:(if full then `Full else `Incremental)
             ~completion_steps:0 ~inputs
             ~check:(Spec.Properties.check_safety ~k:1)
             (Instances.oneshot ~backend p)))
  in
  (* -- E20: the bytecode vm vs the free-monad interpreter on the same
     first-order workload.  The reference arm is the PR-5 winner —
     journaled backend + incremental keys — driving the free-monad
     form of the protocol with per-step key maintenance; the vm arm
     executes the compiled form (key maintenance happens inside
     [Vm.step]).  Same workload, schedule, and key recipe, so the
     ratio isolates engine cost: free-monad dispatch + closure
     allocation + pointer chasing vs a match on an int opcode over a
     flat int slice.  Methodology in EXPERIMENTS.md §E20 and
     docs/PERFORMANCE.md. *)
  (* The workload is a collect loop over 62 registers — the paper's
     space bound (m+1)(n-k)+m^2+1 at n=10, m=4, k=1 — because that is
     the shape the exhaustive Figure-5 sweeps actually execute:
     repeated full-array scans punctuated by writes.  Scans are where
     the engines differ most (the interpreter allocates a view and
     hashes every component per scan; the vm reads one slot and does
     O(1) key work), so the register width is the paper's, not a toy
     value that would understate the gap. *)
  let proto : Shm.Vm.proto =
    {
      Shm.Vm.registers = 62;
      n = 4;
      steps =
        [
          Shm.Vm.Write (0, Shm.Vm.Input);
          Shm.Vm.Loop
            ( 12,
              [
                Shm.Vm.Scan (0, 62);
                Shm.Vm.Scan (0, 62);
                Shm.Vm.Scan (0, 62);
                Shm.Vm.Write (1, Shm.Vm.Last);
              ] );
          Shm.Vm.Decide Shm.Vm.Last;
        ];
    }
  in
  let vn = proto.Shm.Vm.n in
  let vm_iters = if smoke then 300 else 3_000 in
  let proto_vm_arm () =
    let e = Shm.Vm.env (Shm.Vm.compile proto) ~inputs:Runner.proto_inputs in
    let st = Shm.Vm.make_state e in
    let steps = ref 0 and sink = ref 0 in
    for _ = 1 to vm_iters do
      Shm.Vm.init e st 0;
      let quiescent = ref false in
      while not !quiescent do
        let stepped = ref false in
        for pid = 0 to vn - 1 do
          if Shm.Vm.runnable e st 0 pid then begin
            Shm.Vm.step e st 0 pid;
            sink := !sink + Shm.Vm.key_hash e st 0;
            stepped := true;
            incr steps
          end
        done;
        if not !stepped then quiescent := true
      done
    done;
    ignore (Sys.opaque_identity !sink);
    !steps
  in
  let vm_compare ~bench ~count ~rate size ~interp ~vm =
    let arm name engine work =
      {
        name;
        fields =
          [
            ("engine", Obs.Json.String engine);
            ("workload", Obs.Json.String (Analyze.Ir.to_string proto));
            size;
          ];
        work;
      }
    in
    compare_arms ~bench ~count ~rate (arm "reference" "interp" interp) (arm "vm" "vm" vm)
  in
  let vm_rows =
    vm_compare ~bench:"vm-sim-steps" ~count:"steps" ~rate:"steps_per_s"
      ("iters", Obs.Json.Int vm_iters)
      ~interp:
        (interp_arm
           ~config:(fun () -> Shm.Vm.config ~backend:Shm.Memory.Journaled proto)
           ~inputs:Runner.proto_inputs ~full:false ~iters:vm_iters)
      ~vm:proto_vm_arm
  in
  (* -- vm DPOR: reduced exploration of the same protocol, interpreter
     state (heap configurations on the journaled backend + incremental
     keys) vs the vm state (arena slots, batched expansion, keys read
     off the slice), both through the one exploration core.  The check always passes so both arms
     sweep the full reduced space; completion is excluded as above. *)
  let vm_dpor_depth = if smoke then 10 else 13 in
  let vm_dpor_rows =
    vm_compare ~bench:"vm-dpor-states" ~count:"explored" ~rate:"states_per_s"
      ("depth", Obs.Json.Int vm_dpor_depth)
      ~interp:(fun () ->
        explored
          (Spec.Modelcheck.run ~engine:dpor ~depth:vm_dpor_depth ~key:`Incremental
             ~completion_steps:0 ~inputs:Runner.proto_inputs
             ~check:(fun _ -> Ok ())
             (Shm.Vm.config ~backend:Shm.Memory.Journaled proto)))
      ~vm:(fun () ->
        explored
          (Spec.Modelcheck.run_vm ~engine:dpor ~depth:vm_dpor_depth ~completion_steps:0
             ~inputs:Runner.proto_inputs
             ~check:(fun ~inputs:_ ~outputs:_ -> Ok ())
             proto))
  in
  sim_rows @ dpor_rows @ vm_rows @ vm_dpor_rows

(* ------------------------------------------------------------------ *)
(* E15: static analyzer — abstract footprints vs paper bounds vs       *)
(* dynamically measured registers, plus the mutation tests.            *)

let analyze_table () =
  section
    "E15 Static analyzer: abstract footprint <= paper bound, dynamic subset \
     of static (n <= 6), mutants rejected";
  let rows, wall_ms = timed (fun () -> Analyze.Report.sweep ~max_n:6 ()) in
  Fmt.pr "%a@." Analyze.Report.pp_header ();
  List.iter (fun r -> Fmt.pr "%a@." Analyze.Report.pp_row r) rows;
  let bad = Analyze.Report.violations rows in
  Fmt.pr "%d rows, %d violations, %.0f ms@." (List.length rows)
    (List.length bad) wall_ms;
  let p = Params.make ~n:4 ~m:1 ~k:2 in
  let verdicts =
    List.map
      (fun (mu : Analyze.Mutants.mutant) ->
        let rejected = Analyze.Mutants.rejected mu p in
        Fmt.pr "mutant %-20s at %s: %s@." mu.Analyze.Mutants.name
          (Params.to_string p)
          (if rejected then "rejected" else "ACCEPTED (analyzer failure)");
        (mu, rejected))
      Analyze.Mutants.all
  in
  Analyze.Report.bench_rows rows ~p verdicts

(* E8b: Figure 3's steps to quiescence as n grows (m = k = 1), over the
   space-optimal snapshot.                                             *)

let steps_vs_n () =
  section "E8b Steps to quiescence vs n (m=1, k=1, solo-burst schedule)";
  Fmt.pr "%-4s %-12s %-12s@." "n" "steps" "regs";
  let rows = ref [] in
  for n = 3 to 12 do
    let p = Params.make ~n ~m:1 ~k:1 in
    let impl = if Params.r_oneshot p <= n then Instances.Atomic else Instances.Sw_based in
    let span = Shm.Analysis.create ~n:p.n ~registers:0 in
    let result =
      Runner.run_oneshot ~impl ~sink:(Shm.Analysis.feed span)
        ~sched:(Shm.Schedule.quantum_round_robin ~quantum:1500 n)
        ~max_steps:6_000_000 p
    in
    rows :=
      Obs.Json.Obj
        (point_fields ~n ~m:1 ~k:1
        @ [
            ("steps", Obs.Json.Int result.Shm.Exec.steps);
            ("registers", Obs.Json.Int (Runner.registers_used result));
          ]
        @ span_fields (Shm.Analysis.snapshot span).latencies)
      :: !rows;
    Fmt.pr "%-4d %-12d %-12d@." n result.Shm.Exec.steps (Runner.registers_used result)
  done;
  List.rev !rows

(* ------------------------------------------------------------------ *)
(* E17: the serving layer (lib/service).  Three sections, one schema:
   - service-scaling: closed-loop throughput/latency over 1, 2, 4 and
     8 shards, all pumped by the calling domain (the scaling curve);
   - service-throughput: same-binary batched (batch_max 16) vs
     reference (batch_max 1) arms on one shard — the floor-gated
     machine-independent ratio;
   - service-verdict: a crash-chaos run whose per-shard histories are
     graded by the Conform linearizability/k-agreement oracles ("ok"
     is 1.0 or 0.0, and floor-gated to 1.0). *)

let service_table ~smoke =
  section
    (Fmt.str "E17: set-agreement-as-a-service — sharded batched serving%s"
       (if smoke then ", smoke" else ""));
  let params = Agreement.Params.make ~n:4 ~m:1 ~k:1 in
  let clients = if smoke then 48 else 192 in
  let ops = if smoke then 4 else 12 in
  let keys = 1024 in
  let theta = 0.9 in
  let seed = 0x5e17 in
  let rows = ref [] in
  (* one closed-loop run of the counter app *)
  let loadrun ~shards ~batch_max =
    let server =
      Service.Server.create ~batch_max ~window:64 ~app:Service.App.counter ~history:false
        ~shards params
    in
    (server,
     Service.Loadgen.run server
       { Service.Loadgen.clients; ops_per_client = ops; keys; theta; seed })
  in
  let totals server =
    List.fold_left
      (fun (slots, cmds) (s : Service.Shard.stats) ->
        (slots + s.Service.Shard.slots, cmds + s.Service.Shard.committed))
      (0, 0) (Service.Server.stats server)
  in
  (* scaling curve over shards *)
  Fmt.pr "%-8s %-14s %-12s %-12s %-8s@." "shards" "cmds/s" "p50 us" "p99 us"
    "slots";
  List.iter
    (fun shards ->
      let server, report = loadrun ~shards ~batch_max:16 in
      let slots, cmds = totals server in
      Fmt.pr "%-8d %-14.0f %-12.1f %-12.1f %-8d@." shards
        report.Service.Loadgen.throughput_cps
        (report.Service.Loadgen.p50_ns /. 1e3)
        (report.Service.Loadgen.p99_ns /. 1e3)
        slots;
      rows :=
        Obs.Json.Obj
          [
            ("bench", Obs.Json.String "service-scaling");
            ("shards", Obs.Json.Int shards);
            ("clients", Obs.Json.Int clients);
            ("commands", Obs.Json.Int cmds);
            ("slots", Obs.Json.Int slots);
            ("batch_max", Obs.Json.Int 16);
            ("window", Obs.Json.Int 64);
            ("theta", Obs.Json.Float theta);
            ("throughput_cps", Obs.Json.Float report.Service.Loadgen.throughput_cps);
            ("p50_ns", Obs.Json.Float report.Service.Loadgen.p50_ns);
            ("p99_ns", Obs.Json.Float report.Service.Loadgen.p99_ns);
            ("stalls", Obs.Json.Int report.Service.Loadgen.stalls);
            ("registers", Obs.Json.Int (Service.Server.registers_used server));
          ]
        :: !rows)
    [ 1; 2; 4; 8 ];
  (* batched vs reference: the same binary, one shard; the floor gates
     the machine-independent ratio *)
  let throughput_arm name batch_max =
    {
      name;
      fields = [ ("batch_max", Obs.Json.Int batch_max) ];
      work = (fun () -> (snd (loadrun ~shards:1 ~batch_max)).Service.Loadgen.ops);
    }
  in
  rows :=
    List.rev_append
      (compare_arms ~bench:"service-throughput" ~count:"commands" ~rate:"throughput_cps"
         (throughput_arm "reference" 1) (throughput_arm "batched" 16))
      !rows;
  (* chaos verdict: a crash-profile run on the register app, graded by
     the Conform oracles per shard *)
  let shards = 4 in
  let server =
    Service.Server.create ~batch_max:4 ~window:16 ~app:Service.App.register
      ~history:true ~shards params
  in
  let rng = Shm.Rng.create seed in
  let rounds = if smoke then 16 else 48 in
  for round = 1 to rounds do
    for client = 0 to 15 do
      let cmd =
        if Shm.Rng.bool rng then Service.App.read
        else
          Universal.Machines.write
            (Shm.Value.pair (Shm.Value.int client) (Shm.Value.int round))
      in
      ignore
        (Service.Server.try_submit server
           ~key:(Shm.Value.int (Shm.Rng.int rng keys))
           ~tag:client cmd)
    done;
    ignore (Service.Server.pump server);
    (* fail-stop a replica on some shard every few rounds *)
    if round mod (rounds / 4) = 0 then
      ignore
        (Service.Server.crash_replica server
           ~shard:(Shm.Rng.int rng shards)
           ~pid:(Shm.Rng.int rng params.Agreement.Params.n))
  done;
  Service.Server.drain server;
  let verdict = Service.Server.verdict server in
  let _, chaos_cmds = totals server in
  let crashed =
    List.fold_left
      (fun acc (s : Service.Shard.stats) ->
        acc + (params.Agreement.Params.n - s.Service.Shard.alive))
      0 (Service.Server.stats server)
  in
  (match verdict with
  | Ok () ->
    Fmt.pr "chaos verdict: ok (%d commands, %d shards, %d crashed replicas)@."
      chaos_cmds shards crashed
  | Error errs ->
    Fmt.pr "chaos verdict: MISMATCH@.";
    List.iter (fun e -> Fmt.pr "  %s@." e) errs);
  rows :=
    Obs.Json.Obj
      [
        ("bench", Obs.Json.String "service-verdict");
        ("arm", Obs.Json.String "chaos");
        ("shards", Obs.Json.Int shards);
        ("commands", Obs.Json.Int chaos_cmds);
        ("crashed_replicas", Obs.Json.Int crashed);
        ("ok", Obs.Json.Float (match verdict with Ok () -> 1.0 | Error _ -> 0.0));
      ]
    :: !rows;
  List.rev !rows

(* ------------------------------------------------------------------ *)
(* E18: coverage-guided fuzzing (lib/fuzz) — execs/s and the coverage
   curve per oracle, plus the seeded-mutant regression sweep.  The
   gated metrics are machine-independent verdicts (clean campaign,
   every mutant caught) and the deterministic coverage-bit count; the
   throughput column is informational.  Schema in EXPERIMENTS.md §E18. *)

let fuzz_table ~smoke =
  let budget = if smoke then 100 else 600 in
  let mutant_budget = if smoke then 200 else 400 in
  let seed = 0x5eed in
  section
    (Fmt.str
       "E18 Coverage-guided fuzzing (lib/fuzz): one %d-exec campaign, every oracle, seed %d%s"
       budget seed
       (if smoke then ", smoke" else ""));
  Fmt.pr "%-14s %-8s %-10s %-12s %-10s %-10s %-12s %-10s@." "oracle" "execs"
    "interest" "corpus" "cov bits" "diverge" "execs/s" "wall ms";
  (* one shared campaign judged by every oracle: wall_ms and
     execs_per_s are the campaign's, the same on each row *)
  let outcomes, wall_ms =
    timed (fun () ->
        Fuzz.Driver.campaign ~replay:[]
          ~judges:(List.map (fun o -> (o, Fuzz.Oracle.check o)) Fuzz.Oracle.all)
          ~budget ~seed ())
  in
  let execs = List.fold_left (fun m (o : Fuzz.Driver.outcome) -> max m o.stats.execs) 0 outcomes in
  let execs_per_s = if wall_ms <= 0. then 0. else 1000. *. float_of_int execs /. wall_ms in
  let rows = ref [] in
  List.iter
    (fun (outcome : Fuzz.Driver.outcome) ->
      let s = outcome.stats in
      let curve =
        Obs.Json.Arr
          (List.map
             (fun (x, b) ->
               Obs.Json.Obj [ ("exec", Obs.Json.Int x); ("bits", Obs.Json.Int b) ])
             s.curve)
      in
      rows :=
        Obs.Json.Obj
          [
            ("bench", Obs.Json.String "fuzz-oracle");
            ("oracle", Obs.Json.String (Fuzz.Oracle.name s.oracle));
            ("budget", Obs.Json.Int s.budget);
            ("seed", Obs.Json.Int s.seed);
            ("execs", Obs.Json.Int s.execs);
            ("interesting", Obs.Json.Int s.interesting);
            ("corpus_size", Obs.Json.Int s.corpus_size);
            ("coverage_bits", Obs.Json.Int s.coverage_bits);
            ("coverage_curve", curve);
            ("divergences", Obs.Json.Int s.divergences);
            ("execs_per_s", Obs.Json.Float execs_per_s);
            ("wall_ms", Obs.Json.Float wall_ms);
            ("ok", Obs.Json.Float (if s.divergences = 0 then 1.0 else 0.0));
          ]
        :: !rows;
      Fmt.pr "%-14s %-8d %-10d %-12d %-10d %-10d %-12.0f %-10.1f@."
        (Fuzz.Oracle.name s.oracle) s.execs s.interesting s.corpus_size s.coverage_bits
        s.divergences execs_per_s wall_ms;
      match outcome.witness with
      | None -> ()
      | Some w -> Fmt.pr "  !! %a@." Fuzz.Driver.pp_witness w)
    outcomes;
  let results, wall_ms =
    timed (fun () -> Fuzz.Oracle.mutant_sweep ~budget:mutant_budget ~seed:42)
  in
  let caught =
    List.length (List.filter (fun r -> r.Fuzz.Oracle.caught) results)
  in
  let total = List.length results in
  rows :=
    Obs.Json.Obj
      [
        ("bench", Obs.Json.String "fuzz-mutants");
        ("budget", Obs.Json.Int mutant_budget);
        ("seed", Obs.Json.Int 42);
        ("mutants", Obs.Json.Int total);
        ("caught", Obs.Json.Int caught);
        ( "caught_ratio",
          Obs.Json.Float
            (if total = 0 then 1.0 else float_of_int caught /. float_of_int total)
        );
        ( "witness_sizes",
          Obs.Json.Arr
            (List.map
               (fun r ->
                 Obs.Json.Obj
                   [
                     ("mutant", Obs.Json.String r.Fuzz.Oracle.mutant);
                     ("caught", Obs.Json.Bool r.Fuzz.Oracle.caught);
                     ("witness_size", Obs.Json.Int r.Fuzz.Oracle.witness_size);
                   ])
               results) );
        ("wall_ms", Obs.Json.Float wall_ms);
      ]
    :: !rows;
  Fmt.pr "mutants: %d/%d caught in %.1f ms@." caught total wall_ms;
  List.rev !rows

(* ------------------------------------------------------------------ *)
(* History subcommands: diff, check.                                   *)

let load_history () =
  match Obs.History.load history_path with
  | Ok entries -> entries
  | Error e ->
    Fmt.epr "%s@." e;
    exit 2

(* `diff [experiment]`: metric drift between the last two recorded runs
   of an experiment (default: perf). *)
let diff_cmd experiment =
  let runs =
    load_history ()
    |> List.filter (fun (e : Obs.History.entry) ->
           e.Obs.History.experiment = experiment && e.Obs.History.kind = "run")
  in
  match List.rev runs with
  | cur :: base :: _ ->
    Fmt.pr "%s: %a -> %a@." experiment Obs.History.pp_entry base
      Obs.History.pp_entry cur;
    (match Obs.History.diff base cur with
    | [] -> Fmt.pr "no shared metric changed@."
    | deltas -> List.iter (fun d -> Fmt.pr "%a@." Obs.History.pp_delta d) deltas)
  | _ ->
    Fmt.epr "need at least two %S run entries in %s (run `bench table %s` twice)@."
      experiment history_path experiment;
    exit 2

(* The baseline: floors on the machine-independent speedup ratios of
   E16 (same-binary reference vs new arms), the PR-5 targets; `check`
   enforces them. *)
let perf_floors =
  [
    {
      Obs.History.selector =
        [ ("bench", "sim-steps"); ("arm", "new") ];
      metric = "ratio_vs_reference";
      min = 5.0;
    };
    {
      Obs.History.selector =
        [ ("bench", "dpor-states"); ("arm", "new") ];
      metric = "ratio_vs_reference";
      min = 3.0;
    };
    (* E20: the bytecode engine must stay >=5x the PR-5 journal +
       incremental-key arm on the shared collect workload (measured
       7-8x; the floor is the acceptance bar), and the vm DPOR driver
       must keep a real margin over interpreted DPOR (measured
       1.9-2.6x; floored conservatively against scheduler noise). *)
    {
      Obs.History.selector =
        [ ("bench", "vm-sim-steps"); ("arm", "vm") ];
      metric = "ratio_vs_reference";
      min = 5.0;
    };
    {
      Obs.History.selector =
        [ ("bench", "vm-dpor-states"); ("arm", "vm") ];
      metric = "ratio_vs_reference";
      min = 1.3;
    };
  ]

(* Floors for E17: the batching speedup is a same-binary ratio (so it
   holds across hardware), and the chaos verdict must be clean — a
   history that stops linearizing is a regression like any other. *)
let service_floors =
  [
    {
      Obs.History.selector =
        [ ("bench", "service-throughput"); ("arm", "batched") ];
      metric = "ratio_vs_reference";
      min = 2.0;
    };
    {
      Obs.History.selector = [ ("bench", "service-verdict"); ("arm", "chaos") ];
      metric = "ok";
      min = 1.0;
    };
  ]

(* Floors for E18: verdict floors are exact (a clean campaign and a
   full mutant catch are both 1.0 by construction, on any machine);
   the coverage floor is a conservative bound on the deterministic
   bit count at the smoke budget — a generator or coverage regression
   that guts feedback shows up as a collapse here. *)
let fuzz_floors =
  List.map
    (fun oracle ->
      {
        Obs.History.selector =
          [ ("bench", "fuzz-oracle"); ("oracle", Fuzz.Oracle.name oracle) ];
        metric = "ok";
        min = 1.0;
      })
    Fuzz.Oracle.all
  @ [
      {
        Obs.History.selector =
          [ ("bench", "fuzz-oracle"); ("oracle", "analyzer") ];
        metric = "coverage_bits";
        min = 500.0;
      };
      {
        Obs.History.selector = [ ("bench", "fuzz-mutants") ];
        metric = "caught_ratio";
        min = 1.0;
      };
    ]

(* Floors for E19: the state reduction is a same-binary ratio of
   explored-state counts (machine-independent), verdict identity is
   exact — the refinement must never flip a verdict — and so are the
   explored totals ([indep_pinned_totals]). *)
let indep_floors =
  [
    {
      Obs.History.selector = [ ("bench", "indep-total") ];
      metric = "states_ratio";
      min = 1.1;
    };
    {
      Obs.History.selector = [ ("bench", "indep-total") ];
      metric = "verdict_match";
      min = 1.0;
    };
    {
      Obs.History.selector = [ ("bench", "indep-total") ];
      metric = "totals_match";
      min = 1.0;
    };
  ]

(* ------------------------------------------------------------------ *)
(* The experiment table.  [run ~smoke] prints the experiment and returns
   its rows (--smoke: CI-sized iteration counts, same arms and schema);
   the driver writes them to [file] and appends them to the history. *)

type experiment = {
  id : string;  (* `table <id>`; the history experiment *)
  file : string;  (* BENCH_*.json *)
  run : smoke:bool -> Obs.Json.t list;
  floors : Obs.History.floor list;  (* what `check` gates the rows on *)
}

let experiments =
  let table ?(floors = []) id file run = { id; file; run; floors } in
  let always f ~smoke:_ = f () in
  [
    table "fig1-upper" "BENCH_fig1.json" fig1_json;
    table "explore" "BENCH_explore.json" (always explore_table);
    table "indep" "BENCH_indep.json" ~floors:indep_floors indep_table;
    table "conform" "BENCH_conform.json" (always conform_table);
    table "analyze" "BENCH_analyze.json" (always analyze_table);
    table "perf" "BENCH_perf.json" ~floors:perf_floors perf_table;
    table "service" "BENCH_service.json" ~floors:service_floors service_table;
    table "fuzz" "BENCH_fuzz.json" ~floors:fuzz_floors fuzz_table;
    table "steps-vs-n" "BENCH_steps_vs_n.json" (always steps_vs_n);
  ]

let ids = List.map (fun e -> e.id) experiments

let run_experiment ~smoke e =
  let rows = e.run ~smoke in
  Obs.History.write_document ~experiment:e.id ~path:e.file rows;
  Obs.History.append ~path:history_path
    (Obs.History.make ~ts:(Unix.time ()) ~rev:(git_rev ()) ~smoke ~experiment:e.id rows);
  Fmt.pr "wrote %s (%d rows; history: %s)@." e.file (List.length rows) history_path

let gated = List.filter (fun e -> e.floors <> []) experiments

(* `check [--smoke] [--fault]`: run each gated experiment and gate its
   rows against its [floors]; it writes no file.  Exit 1 on any
   violation.  --fault
   synthetically regresses every gated metric (divides it by 100)
   before checking — CI uses it to prove the gate actually fails. *)
let check_experiment ~smoke ~fault e =
  let floors = e.floors in
  let rows = e.run ~smoke in
  let rows =
    if not fault then rows
    else
      List.map
        (function
          | Obs.Json.Obj fields ->
            Obs.Json.Obj
              (List.map
                 (fun (k, v) ->
                   match v with
                   | Obs.Json.Float x
                     when List.exists
                            (fun (f : Obs.History.floor) -> f.Obs.History.metric = k)
                            floors ->
                     (k, Obs.Json.Float (x /. 100.))
                   | _ -> (k, v))
                 fields)
          | row -> row)
        rows
  in
  if fault then Fmt.pr "--fault: gated metrics synthetically regressed 100x@.";
  let verdicts = Obs.History.check_floors ~floors rows in
  List.iter (fun v -> Fmt.pr "%a@." Obs.History.pp_verdict v) verdicts;
  verdicts

let check_cmd ~smoke ~fault () =
  let verdicts = List.concat_map (check_experiment ~smoke ~fault) gated in
  let bad = List.filter Obs.History.violated verdicts in
  if bad <> [] then begin
    Fmt.pr "bench check: FAIL (%d of %d floors violated)@." (List.length bad)
      (List.length verdicts);
    exit 1
  end;
  Fmt.pr "bench check: ok (%d floors)@." (List.length verdicts)

let () =
  (* --smoke anywhere on the line switches to CI-sized iteration counts
     (same arms, same schema); --fault makes `check` regress the gated
     metrics synthetically. *)
  let smoke = Array.mem "--smoke" Sys.argv and fault = Array.mem "--fault" Sys.argv in
  let argv =
    List.filter (fun a -> a <> "--smoke" && a <> "--fault") (Array.to_list Sys.argv)
  in
  match argv with
  | [ _ ] | [ _; "all" ] -> List.iter (run_experiment ~smoke) experiments
  | [ _; "table"; id ] -> (
    match List.find_opt (fun e -> e.id = id) experiments with
    | Some e -> run_experiment ~smoke e
    | None ->
      Fmt.epr "unknown table %S; available: %a@." id Fmt.(list ~sep:(any " ") string) ids;
      exit 2)
  | [ _; "diff" ] -> diff_cmd "perf"
  | [ _; "diff"; experiment ] -> diff_cmd experiment
  | [ _; "check" ] -> check_cmd ~smoke ~fault ()
  | _ ->
    Fmt.epr
      "usage: main.exe [all | table <id> | diff [<experiment>] | check [--smoke] \
       [--fault]]@.tables: %a@."
      Fmt.(list ~sep:(any " ") string)
      ids;
    exit 2
