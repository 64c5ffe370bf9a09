(* Tests for the native conformance harness (lib/conform): the
   Spec.Linearize witness mode and pending-operation handling it rests
   on, the recorder's merge, and — the point of the exercise — mutation
   smoke tests: deliberately broken snapshot implementations must be
   rejected within a bounded seeded run, with a shrunk witness that
   still fails on recheck.  The real implementation must pass the same
   harness under every chaos profile exercised here. *)

open Helpers

let ev ~pid ~start ~finish op = { Spec.Linearize.pid; op; start; finish }
let upd i v = Spec.Linearize.Update { i; v }
let scn view = Spec.Linearize.Scan { view = Array.of_list view }

(* ---- Linearize: witness mode ---- *)

(* A legal 2-component history: the witness exists, contains every
   event exactly once, and respects real time. *)
let witness_mode_legal () =
  let events =
    [
      ev ~pid:0 ~start:0 ~finish:1 (upd 0 (vi 1));
      ev ~pid:1 ~start:2 ~finish:5 (scn [ vi 1; Shm.Value.bot ]);
      ev ~pid:0 ~start:3 ~finish:4 (upd 1 (vi 2));
      ev ~pid:1 ~start:6 ~finish:7 (scn [ vi 1; vi 2 ]);
    ]
  in
  match Spec.Linearize.witness ~components:2 events with
  | None -> Alcotest.fail "legal history rejected"
  | Some order ->
    Alcotest.(check int) "every event linearized" (List.length events)
      (List.length order);
    List.iter
      (fun e -> Alcotest.(check bool) "event from the history" true (List.mem e events))
      order;
    (* real time: if e1 finished before e2 started, e1 linearizes first *)
    let arr = Array.of_list order in
    Array.iteri
      (fun i e1 ->
        Array.iteri
          (fun j e2 ->
            if i > j then
              Alcotest.(check bool)
                (Fmt.str "real-time order: %a before %a" Spec.Linearize.pp_event e2
                   Spec.Linearize.pp_event e1)
                false
                (e1.Spec.Linearize.finish < e2.Spec.Linearize.start))
          arr)
      arr

(* New/old inversion: a later scan returns an older state. *)
let witness_mode_inversion () =
  let events =
    [
      ev ~pid:0 ~start:0 ~finish:1 (upd 0 (vi 1));
      ev ~pid:0 ~start:2 ~finish:3 (upd 0 (vi 2));
      ev ~pid:1 ~start:4 ~finish:5 (scn [ vi 2 ]);
      ev ~pid:1 ~start:6 ~finish:7 (scn [ vi 1 ]);
    ]
  in
  Alcotest.(check bool) "inversion rejected" false
    (Spec.Linearize.check ~components:1 events)

(* ---- Linearize: pending operations (crash completion points) ---- *)

(* A scan observes a value whose writer crashed before responding: only
   admissible if the pending update is allowed to take effect. *)
let pending_update_explains_scan () =
  let pending = [ ev ~pid:0 ~start:0 ~finish:max_int (upd 0 (vi 7)) ] in
  let completed = [ ev ~pid:1 ~start:5 ~finish:6 (scn [ vi 7 ]) ] in
  Alcotest.(check bool) "pending update linearized" true
    (Spec.Linearize.check_partial ~components:1 ~pending completed);
  Alcotest.(check bool) "without the pending op the scan is inexplicable" false
    (Spec.Linearize.check ~components:1 completed)

(* A pending update may also never take effect: scans that saw only ⊥
   stay legal. *)
let pending_update_droppable () =
  let pending = [ ev ~pid:0 ~start:0 ~finish:max_int (upd 0 (vi 7)) ] in
  let completed =
    [
      ev ~pid:1 ~start:1 ~finish:2 (scn [ Shm.Value.bot ]);
      ev ~pid:1 ~start:3 ~finish:4 (scn [ vi 7 ]);
    ]
  in
  (* effect between the scans *)
  Alcotest.(check bool) "effect point enumerated" true
    (Spec.Linearize.check_partial ~components:1 ~pending completed);
  (* or never: both scans see ⊥ *)
  let only_bot = [ ev ~pid:1 ~start:1 ~finish:2 (scn [ Shm.Value.bot ]) ] in
  Alcotest.(check bool) "never-took-effect also legal" true
    (Spec.Linearize.check_partial ~components:1 ~pending only_bot)

(* A pending update must not linearize before its invocation. *)
let pending_respects_invocation () =
  let pending = [ ev ~pid:0 ~start:10 ~finish:max_int (upd 0 (vi 7)) ] in
  let completed = [ ev ~pid:1 ~start:1 ~finish:2 (scn [ vi 7 ]) ] in
  Alcotest.(check bool) "scan before pending invocation cannot see it" false
    (Spec.Linearize.check_partial ~components:1 ~pending completed)

(* Pending scans constrain nothing — they are dropped wholesale. *)
let pending_scan_ignored () =
  let pending = [ ev ~pid:0 ~start:0 ~finish:max_int (scn [ vi 99 ]) ] in
  let completed = [ ev ~pid:1 ~start:1 ~finish:2 (scn [ Shm.Value.bot ]) ] in
  Alcotest.(check bool) "pending scan's impossible view is irrelevant" true
    (Spec.Linearize.check_partial ~components:1 ~pending completed)

(* ---- Recorder ---- *)

let recorder_merges_sorted () =
  let r = Conform.Recorder.create ~domains:2 in
  let h0 = Conform.Recorder.handle r ~pid:0 in
  let h1 = Conform.Recorder.handle r ~pid:1 in
  Conform.Recorder.completed h0 ~start:10 ~finish:12 (upd 0 (vi 1));
  Conform.Recorder.completed h1 ~start:3 ~finish:5 (upd 1 (vi 2));
  Conform.Recorder.completed h0 ~start:20 ~finish:21 (scn [ vi 1; vi 2 ]);
  Conform.Recorder.pending h1 ~start:30 (upd 0 (vi 3));
  let completed, pending = Conform.Recorder.history r in
  Alcotest.(check int) "all ops recorded" 4 (Conform.Recorder.ops_recorded r);
  Alcotest.(check (list int)) "completed sorted by invocation" [ 3; 10; 20 ]
    (List.map (fun e -> e.Spec.Linearize.start) completed);
  match pending with
  | [ p ] ->
    Alcotest.(check int) "pending keeps its start" 30 p.Spec.Linearize.start;
    Alcotest.(check bool) "pending finish is +inf" true
      (p.Spec.Linearize.finish = max_int)
  | l -> Alcotest.failf "expected 1 pending op, got %d" (List.length l)

(* ---- Chaos plumbing ---- *)

let chaos_profile_names () =
  List.iter
    (fun p ->
      match Conform.Chaos.profile_of_string (Conform.Chaos.profile_name p) with
      | Some p' -> Alcotest.(check bool) "round-trips" true (p = p')
      | None -> Alcotest.failf "profile %s does not parse back" (Conform.Chaos.profile_name p))
    Conform.Chaos.all_profiles;
  Alcotest.(check bool) "unknown profile rejected" true
    (Conform.Chaos.profile_of_string "tempest" = None)

(* ---- Mutation smoke tests ---- *)

let mutant_config seed =
  { Conform.Harness.default_config with seed; iters = 400; ops = 12 }

(* A mutant run must fail within the iteration budget, and the shrunk
   witness must be a genuine sub-history that still fails the checker —
   not a by-product of the shrinking machinery. *)
let assert_mutant_rejected ~seed sut =
  let cfg = mutant_config seed in
  match Conform.Harness.run_snapshot ~sut cfg with
  | Conform.Harness.Pass _ ->
    Alcotest.failf "mutant %s survived %d iterations" sut.Conform.Sut.name cfg.iters
  | Conform.Harness.Fail v ->
    Alcotest.(check bool) "witness non-empty" true (v.Conform.Harness.shrunk <> []);
    Alcotest.(check bool) "witness no longer than the history" true
      (List.length v.Conform.Harness.shrunk <= List.length v.Conform.Harness.completed);
    List.iter
      (fun e ->
        Alcotest.(check bool) "witness event from the recorded history" true
          (List.mem e v.Conform.Harness.completed))
      v.Conform.Harness.shrunk;
    (* the shrunk witness independently re-checks as non-linearizable *)
    Alcotest.(check bool) "shrunk witness still fails" false
      (Spec.Linearize.check_partial ~components:cfg.Conform.Harness.components
         ~pending:v.Conform.Harness.pending v.Conform.Harness.shrunk);
    (* and the replay seed is the one the harness advertises *)
    Alcotest.(check int) "replayable iteration seed"
      (Conform.Harness.iter_seed ~seed:cfg.Conform.Harness.seed
         ~iter:v.Conform.Harness.iter)
      v.Conform.Harness.iter_seed

let single_collect_rejected seed =
  assert_mutant_rejected ~seed Conform.Sut.single_collect

let torn_update_rejected seed = assert_mutant_rejected ~seed Conform.Sut.torn_update

(* Every registered mutant is flagged as such and known to [by_name]. *)
let mutant_registry () =
  Alcotest.(check bool) "real is not a mutant" false Conform.Sut.real.Conform.Sut.mutant;
  List.iter
    (fun s ->
      Alcotest.(check bool) (s.Conform.Sut.name ^ " flagged") true s.Conform.Sut.mutant;
      match Conform.Sut.by_name s.Conform.Sut.name with
      | Some s' -> Alcotest.(check string) "by_name finds it" s.Conform.Sut.name s'.Conform.Sut.name
      | None -> Alcotest.failf "mutant %s not found by name" s.Conform.Sut.name)
    Conform.Sut.mutants

(* ---- The real implementation passes ---- *)

let real_passes ~profile ~iters seed =
  let cfg =
    { Conform.Harness.default_config with profile; seed; iters; ops = 12 }
  in
  match Conform.Harness.run_snapshot ~sut:Conform.Sut.real cfg with
  | Conform.Harness.Pass { iters = i; ops } ->
    Alcotest.(check int) "all iterations ran" iters i;
    Alcotest.(check bool) "operations recorded" true (ops > 0)
  | Conform.Harness.Fail v ->
    Alcotest.failf "real implementation rejected:@.%a" Conform.Harness.pp_violation v

let real_passes_calm seed = real_passes ~profile:Conform.Chaos.Calm ~iters:30 seed

let real_passes_chaos seed =
  real_passes ~profile:Conform.Chaos.Yields ~iters:15 seed;
  real_passes ~profile:Conform.Chaos.Stalls ~iters:8 seed;
  real_passes ~profile:Conform.Chaos.Crashes ~iters:15 seed

(* ---- Metrics export ---- *)

let metrics_exported seed =
  let metrics = Obs.Metrics.create () in
  let cfg = { Conform.Harness.default_config with seed; iters = 5; ops = 10 } in
  (match Conform.Harness.run_snapshot ~metrics ~sut:Conform.Sut.real cfg with
  | Conform.Harness.Pass _ -> ()
  | Conform.Harness.Fail v ->
    Alcotest.failf "real implementation rejected:@.%a" Conform.Harness.pp_violation v);
  let counter name = Obs.Metrics.Counter.value (Obs.Metrics.counter metrics name) in
  Alcotest.(check int) "conform.iters" 5 (counter "conform.iters");
  Alcotest.(check int) "one check per iteration" 5 (counter "conform.checks");
  Alcotest.(check bool) "ops counted" true (counter "conform.ops" > 0);
  Alcotest.(check bool) "check time accumulated" true (counter "conform.check_ns" > 0);
  Alcotest.(check int) "no violations" 0 (counter "conform.violations");
  let hist name = Obs.Metrics.Histogram.count (Obs.Metrics.histogram metrics name) in
  Alcotest.(check bool) "update latencies observed" true (hist "conform.update_ns" > 0);
  Alcotest.(check bool) "scan latencies observed" true (hist "conform.scan_ns" > 0)

(* ---- Agreement under chaos ---- *)

let agreement_under_crashes seed =
  let params = Agreement.Params.make ~n:3 ~m:1 ~k:1 in
  match
    Conform.Harness.run_agreement ~params ~profile:Conform.Chaos.Crashes ~seed
      ~iters:15 ()
  with
  | Conform.Harness.Agree_pass { iters; decided; crashed } ->
    Alcotest.(check int) "all instances ran" 15 iters;
    Alcotest.(check int) "every proposer decided or crashed" (15 * 3)
      (decided + crashed)
  | Conform.Harness.Agree_fail { error; _ } ->
    Alcotest.failf "native agreement violated safety under chaos: %s" error

(* The harness owns the native spans: every propose, crashed or not, is
   one conform "propose" span under its iteration's span, and none is
   left open. *)
let agreement_spans_under_crashes () =
  let n = 3 and iters = 4 in
  let params = Agreement.Params.make ~n ~m:1 ~k:1 in
  let tr = Obs.Trace.create () in
  (match
     Obs.Trace.with_attached tr (fun () ->
         Conform.Harness.run_agreement ~params ~profile:Conform.Chaos.Crashes ~seed:7
           ~iters ())
   with
  | Conform.Harness.Agree_pass _ -> ()
  | Conform.Harness.Agree_fail { error; _ } ->
    Alcotest.failf "native agreement violated safety under chaos: %s" error);
  let spans = Obs.Trace.spans tr in
  let named name = List.filter (fun (s : Obs.Trace.span) -> s.name = name) spans in
  let iterations = List.map (fun (s : Obs.Trace.span) -> s.id) (named "iteration") in
  let proposes = named "propose" in
  Alcotest.(check int) "one iteration span per instance" iters (List.length iterations);
  Alcotest.(check int) "one propose span per process per instance" (n * iters)
    (List.length proposes);
  List.iter
    (fun (s : Obs.Trace.span) ->
      Alcotest.(check string) "propose cat" "conform" s.cat;
      Alcotest.(check bool) "parented to an iteration span" true (List.mem s.parent iterations))
    proposes;
  Alcotest.(check int) "no span left open" 0 (Obs.Trace.open_count tr)

let suite =
  [
    test "linearize witness: legal history, order respects real time" witness_mode_legal;
    test "linearize witness: new/old inversion rejected" witness_mode_inversion;
    test "pending update explains an orphan scan" pending_update_explains_scan;
    test "pending update may take effect late or never" pending_update_droppable;
    test "pending update cannot linearize before invocation" pending_respects_invocation;
    test "pending scans are dropped without loss" pending_scan_ignored;
    test "recorder merges per-domain buffers sorted" recorder_merges_sorted;
    test "chaos profile names round-trip" chaos_profile_names;
    test "mutant registry: flags and lookup" mutant_registry;
    seeded_slow_test "mutation smoke: single-collect scan rejected" single_collect_rejected;
    seeded_slow_test "mutation smoke: torn two-step update rejected" torn_update_rejected;
    seeded_slow_test "real snapshot passes conformance (calm)" real_passes_calm;
    seeded_slow_test "real snapshot passes conformance (chaos profiles)" real_passes_chaos;
    seeded_slow_test "conform counters and latency histograms exported" metrics_exported;
    seeded_slow_test "native agreement safe under crash chaos" agreement_under_crashes;
    test "native agreement: one conform propose span per call" agreement_spans_under_crashes;
  ]
