(* Tests for schedulers and the execution runner. *)

open Helpers
open Shm

(* A counter process: reads register pid, increments, writes back, [ops]
   times, then outputs the final value. *)
let counter ~reg ~ops =
  Program.await (fun _ ->
      let rec go left last =
        if left = 0 then Program.yield last Program.stop
        else
          Program.read reg (fun v ->
              let x = match Value.view v with Value.Int i -> i | _ -> 0 in
              Program.write reg (vi (x + 1)) (fun () -> go (left - 1) (vi (x + 1))))
      in
      go ops Value.bot)

let run_counters ~sched ~n ~ops =
  let procs = Array.init n (fun pid -> counter ~reg:pid ~ops) in
  let config = Config.create ~registers:n ~procs () in
  Exec.run ~sched ~inputs:(Exec.oneshot_inputs (Array.make n (vi 0))) ~max_steps:100_000
    config

let round_robin_runs_all () =
  let res = run_counters ~sched:(Schedule.round_robin 3) ~n:3 ~ops:5 in
  (match res.Exec.stopped with
  | Exec.All_quiescent -> ()
  | Exec.Fuel_exhausted -> Alcotest.fail "should quiesce");
  Alcotest.(check int) "everyone outputs" 3 (List.length (Config.outputs res.Exec.config));
  List.iter
    (fun (_, _, v) -> check_value "counted to 5" (vi 5) v)
    (Config.outputs res.Exec.config)

let solo_runs_only_one () =
  let res = run_counters ~sched:(Schedule.solo 1) ~n:3 ~ops:4 in
  let outs = Config.outputs res.Exec.config in
  Alcotest.(check int) "only p1 output" 1 (List.length outs);
  (match outs with
  | [ (1, 1, v) ] -> check_value "p1 counted" (vi 4) v
  | _ -> Alcotest.fail "unexpected outputs");
  check_value "p0 register untouched" Value.bot (Memory.read (Config.mem res.Exec.config) 0)

let only_restricts_to_set () =
  let res = run_counters ~sched:(Schedule.only [ 0; 2 ]) ~n:3 ~ops:3 in
  let outs = List.map (fun (pid, _, _) -> pid) (Config.outputs res.Exec.config) in
  Alcotest.(check (list int)) "only 0 and 2 ran" [ 0; 2 ] (List.sort compare outs)

let random_is_reproducible () =
  let r1 = run_counters ~sched:(Schedule.random ~seed:11 3) ~n:3 ~ops:5 in
  let r2 = run_counters ~sched:(Schedule.random ~seed:11 3) ~n:3 ~ops:5 in
  Alcotest.(check int) "same step count" r1.Exec.steps r2.Exec.steps;
  let r3 = run_counters ~sched:(Schedule.random ~seed:12 3) ~n:3 ~ops:50 in
  let r4 = run_counters ~sched:(Schedule.random ~seed:13 3) ~n:3 ~ops:50 in
  (* different seeds almost surely diverge in trace; weak check on steps
     alone can collide, so compare write interleaving via memory history *)
  ignore r3;
  ignore r4

let quantum_round_robin_bursts () =
  (* with quantum >= 2*ops each process finishes in one burst: outputs
     appear in pid order *)
  let res = run_counters ~sched:(Schedule.quantum_round_robin ~quantum:100 3) ~n:3 ~ops:4 in
  let order = List.map (fun (pid, _, _) -> pid) (Config.outputs res.Exec.config) in
  Alcotest.(check (list int)) "pid order" [ 0; 1; 2 ] order

let m_bounded_respects_survivors () =
  (* after the prefix, only the chosen m processes step: with prefix 0,
     exactly m processes produce outputs *)
  let res =
    run_counters ~sched:(Schedule.m_bounded ~seed:3 ~m:2 ~prefix:0 4) ~n:4 ~ops:3
  in
  Alcotest.(check int) "two survivors finish" 2
    (List.length (Config.outputs res.Exec.config))

let crashes_stop_processes () =
  let sched =
    Schedule.with_crashes ~crashes:[ (0, 0); (1, 0) ] (Schedule.round_robin 3)
  in
  let res = run_counters ~sched ~n:3 ~ops:3 in
  let outs = List.map (fun (pid, _, _) -> pid) (Config.outputs res.Exec.config) in
  Alcotest.(check (list int)) "only p2 survives" [ 2 ] outs

let alternating_switches_groups () =
  let res =
    run_counters ~sched:(Schedule.alternating ~burst:2 [ [ 0 ]; [ 1 ] ]) ~n:2 ~ops:6
  in
  (match res.Exec.stopped with
  | Exec.All_quiescent -> ()
  | Exec.Fuel_exhausted -> Alcotest.fail "should quiesce");
  Alcotest.(check int) "both finish" 2 (List.length (Config.outputs res.Exec.config))

let fuel_exhaustion_reported () =
  let spin =
    Program.await (fun _ ->
        let rec go () = Program.read 0 (fun _ -> go ()) in
        go ())
  in
  let config = Config.create ~registers:1 ~procs:[| spin |] () in
  let res =
    Exec.run ~sched:(Schedule.solo 0)
      ~inputs:(Exec.oneshot_inputs [| vi 0 |])
      ~max_steps:100 config
  in
  match res.Exec.stopped with
  | Exec.Fuel_exhausted -> Alcotest.(check int) "steps = fuel" 100 res.Exec.steps
  | Exec.All_quiescent -> Alcotest.fail "spinner cannot quiesce"

let trace_recording () =
  let res =
    let procs = [| counter ~reg:0 ~ops:2 |] in
    let config = Config.create ~registers:1 ~procs () in
    Exec.run ~record:true ~sched:(Schedule.solo 0)
      ~inputs:(Exec.oneshot_inputs [| vi 0 |])
      ~max_steps:100 config
  in
  (* invoke + (read+write)*2 + output = 6 events *)
  Alcotest.(check int) "event count" 6 (List.length res.Exec.trace);
  match res.Exec.trace with
  | Event.Invoke _ :: Event.Did_read _ :: Event.Did_write _ :: _ -> ()
  | _ -> Alcotest.fail "unexpected trace shape"

let repeated_inputs_finite () =
  Alcotest.(check bool) "instance 1 available" true
    (Option.is_some (Exec.repeated_inputs ~rounds:2 (fun _ i -> vi i) ~pid:0 ~instance:1));
  Alcotest.(check bool) "instance 3 exhausted" true
    (Option.is_none (Exec.repeated_inputs ~rounds:2 (fun _ i -> vi i) ~pid:0 ~instance:3))

(* Replay of a pid list: out-of-range and unrunnable entries are
   skipped, and the schedule ends with the list (and stays ended). *)
let replay_skips_and_ends () =
  let sched = Schedule.replay ~n:3 [ -1; 0; 3; 1; 2; 7; 0 ] in
  let runnable pid = pid <> 1 in
  let picks = List.init 4 (fun step -> sched.Schedule.next ~step ~runnable) in
  Alcotest.(check (list (option int))) "picks" [ Some 0; Some 2; Some 0; None ] picks;
  (* under Exec.run: invoke p0, invoke p1, p0 reads; then the list ends *)
  let res = run_counters ~sched:(Schedule.replay ~n:2 [ 0; 5; 1; 0; -3 ]) ~n:2 ~ops:1 in
  Alcotest.(check int) "three steps" 3 res.Exec.steps;
  match res.Exec.stopped with
  | Exec.All_quiescent -> ()
  | Exec.Fuel_exhausted -> Alcotest.fail "exhausted list should end the run"

let suite =
  [
    test "round-robin runs everyone to completion" round_robin_runs_all;
    test "solo runs exactly one process" solo_runs_only_one;
    test "only restricts the process set" only_restricts_to_set;
    test "random schedules are reproducible by seed" random_is_reproducible;
    test "quantum round-robin runs in bursts" quantum_round_robin_bursts;
    test "m-bounded scheduler honors survivor set" m_bounded_respects_survivors;
    test "crash adversary stops processes" crashes_stop_processes;
    test "alternating groups both progress" alternating_switches_groups;
    test "fuel exhaustion reported" fuel_exhaustion_reported;
    test "trace recording captures all events" trace_recording;
    test "repeated inputs are finite" repeated_inputs_finite;
    test "replay skips bad pids and ends with the list" replay_skips_and_ends;
  ]
