(* Regression tests for the pseudocode errata found by executing the
   paper (EXPERIMENTS.md, "pseudocode errata").

   The erratum: Figure 3 line 13, read literally, assigns pref ←
   value(s[j1]) even when that value already equals pref; two stale
   copies of a halted process's pair then trap a solo process in the
   adopt branch forever, so the algorithm is not even 1-obstruction-
   free as printed.  The repair (fall through to the i increment when
   the assignment would not change pref) is the reading Lemma 5's proof
   assumes, and restores termination. *)

open Helpers
open Agreement

(* Build the poisoned scenario directly: registers pre-loaded with two
   identical stale pairs of a dead process whose value equals the solo
   runner's own preference. *)
let poisoned_config ~program_of =
  let p = Params.make ~n:3 ~m:1 ~k:2 in
  let r = Params.r_oneshot p in
  (* n=3, m=1, k=2: r = 4 *)
  let procs =
    Array.init 3 (fun pid ->
        program_of ~m:1 ~pid ~api:(Snapshot.Atomic.make ~off:0 ~len:r))
  in
  let config = Shm.Config.create ~registers:r ~procs () in
  (* p1 runs briefly and "dies", leaving copies of its pair around: we
     simulate the stale state by running p1 for a few iterations. *)
  let config, _ = Shm.Config.invoke config 1 (vi 7) in
  let rec steps config k = if k = 0 then config else steps (fst (Shm.Config.step config 1)) (k - 1) in
  (* p1: 3 iterations = writes (7, id1) at components 0, 1, 2 *)
  let config = steps config 6 in
  config

let run_solo_p0 config =
  let inputs ~pid ~instance = if pid = 0 && instance = 1 then Some (vi 7) else None in
  Shm.Exec.run ~sched:(Shm.Schedule.solo 0) ~inputs ~max_steps:5_000 config

(* Under the literal rule, p0 — whose own input 7 equals the stale
   pairs' value — spins forever in the adopt branch. *)
let literal_rule_livelocks () =
  let config = poisoned_config ~program_of:(fun ~m ~pid ~api -> Oneshot.program_paper_literal ~m ~pid ~api) in
  let res = run_solo_p0 config in
  (match res.Shm.Exec.stopped with
  | Shm.Exec.Fuel_exhausted -> ()
  | Shm.Exec.All_quiescent ->
    Alcotest.fail "literal adoption rule unexpectedly terminated");
  Alcotest.(check int) "p0 never decided" 0
    (Spec.Properties.completed_ops res.Shm.Exec.config 0)

(* Under the repaired rule, the same scenario terminates. *)
let repaired_rule_terminates () =
  let config = poisoned_config ~program_of:(fun ~m ~pid ~api -> Oneshot.program ~m ~pid ~api) in
  let res = run_solo_p0 config in
  (match res.Shm.Exec.stopped with
  | Shm.Exec.All_quiescent -> ()
  | Shm.Exec.Fuel_exhausted -> Alcotest.fail "repaired rule failed to terminate");
  Alcotest.(check int) "p0 decided" 1 (Spec.Properties.completed_ops res.Shm.Exec.config 0);
  match Spec.Properties.check_safety ~k:2 res.Shm.Exec.config with
  | Ok () -> ()
  | Error e -> Alcotest.failf "safety: %s" e

(* The literal rule also livelocks under the original discovery
   scenario: an m-bounded schedule of the full system (seed 12 was the
   first found; sweep a few to be robust to dynamics changes). *)
let literal_rule_fails_m_bounded () =
  let failing = ref 0 in
  for seed = 0 to 19 do
    let p = Params.make ~n:5 ~m:2 ~k:2 in
    let r = Params.r_oneshot p in
    let procs =
      Array.init 5 (fun pid ->
          Oneshot.program_paper_literal ~m:2 ~pid
            ~api:(Snapshot.Atomic.make ~off:0 ~len:r))
    in
    let config = Shm.Config.create ~registers:r ~procs () in
    let inputs = Shm.Exec.oneshot_inputs (Array.init 5 (fun pid -> vi (pid + 1))) in
    let sched = Shm.Schedule.m_bounded ~seed ~m:2 ~prefix:40 5 in
    let res = Shm.Exec.run ~sched ~inputs ~max_steps:100_000 config in
    if res.Shm.Exec.stopped = Shm.Exec.Fuel_exhausted then incr failing
  done;
  Alcotest.(check bool)
    (Printf.sprintf "literal rule diverges on some m-bounded seeds (%d/20)" !failing)
    true (!failing > 0)

(* Same sweep under the repaired rule: every run terminates (this is
   test_oneshot's m-bounded test, repeated here as the erratum's
   other half). *)
let repaired_rule_passes_m_bounded () =
  for seed = 0 to 19 do
    let p = Params.make ~n:5 ~m:2 ~k:2 in
    let sched = Shm.Schedule.m_bounded ~seed ~m:2 ~prefix:40 5 in
    let result = Runner.run_oneshot ~sched p in
    match result.Shm.Exec.stopped with
    | Shm.Exec.All_quiescent -> ()
    | Shm.Exec.Fuel_exhausted -> Alcotest.failf "seed %d diverged" seed
  done

(* Safety is identical under both rules (the erratum is liveness-only):
   random schedules, both rules, checker agrees. *)
let both_rules_equally_safe () =
  for seed = 0 to 19 do
    let p = Params.make ~n:4 ~m:1 ~k:2 in
    let r = Params.r_oneshot p in
    [ Oneshot.program; Oneshot.program_paper_literal ]
    |> List.iter (fun program_of ->
           let procs =
             Array.init 4 (fun pid ->
                 program_of ~m:1 ~pid ~api:(Snapshot.Atomic.make ~off:0 ~len:r))
           in
           let config = Shm.Config.create ~registers:r ~procs () in
           let inputs = Shm.Exec.oneshot_inputs (Array.init 4 (fun pid -> vi pid)) in
           let res =
             Shm.Exec.run ~sched:(Shm.Schedule.random ~seed 4) ~inputs
               ~max_steps:30_000 config
           in
           match Spec.Properties.check_safety ~k:2 res.Shm.Exec.config with
           | Ok () -> ()
           | Error e -> Alcotest.failf "seed %d: %s" seed e)
  done

(* Both adoption rules on hand-built views, as the loop calls them:
   [own] is the pair just written at component [i] (here 3, of r = 4),
   [pref] the preference in it.  They differ only where the minimum
   duplicated pair's value already equals [pref]: the repaired rule
   falls through (None), the literal one "adopts" it again. *)
let adopt_rules_on_views () =
  let pair pref pid = Oneshot.pair ~pref:(vi pref) ~pid in
  let bot = Shm.Value.bot in
  let opt = Alcotest.(option value) in
  let case name ~pref ~view ~repaired ~literal =
    let pref = vi pref in
    let own = Oneshot.pair ~pref ~pid:0 in
    let view = Array.of_list (view @ [ own ]) in
    Alcotest.check opt (name ^ ": repaired") repaired (Oneshot.adopt_check ~pref ~own ~i:3 view);
    Alcotest.check opt (name ^ ": literal") literal
      (Oneshot.adopt_check_paper_literal ~pref ~own ~i:3 view)
  in
  case "stale duplicates of pref" ~pref:7 ~view:[ pair 7 1; pair 7 1; pair 7 1 ] ~repaired:None
    ~literal:(Some (vi 7));
  case "a duplicate of another value" ~pref:5 ~view:[ pair 9 2; pair 7 1; pair 7 1 ]
    ~repaired:(Some (vi 7)) ~literal:(Some (vi 7));
  case "own pair visible elsewhere" ~pref:5 ~view:[ pair 5 0; pair 7 1; pair 7 1 ] ~repaired:None
    ~literal:None;
  case "a bot elsewhere" ~pref:5 ~view:[ bot; pair 7 1; pair 7 1 ] ~repaired:None ~literal:None;
  case "no duplicate" ~pref:5 ~view:[ pair 7 1; pair 8 2; pair 9 3 ] ~repaired:None ~literal:None

let suite =
  [
    test "literal adoption rule livelocks on stale pairs" literal_rule_livelocks;
    test "repaired rule terminates on the same scenario" repaired_rule_terminates;
    test "literal rule diverges under m-bounded schedules" literal_rule_fails_m_bounded;
    test "repaired rule terminates under the same schedules" repaired_rule_passes_m_bounded;
    test "both rules are equally safe (erratum is liveness-only)" both_rules_equally_safe;
    test "adopt_check ~own: repaired and literal rules on views" adopt_rules_on_views;
  ]
