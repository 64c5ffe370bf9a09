(* Unit tests for the Figure 4 repeated algorithm. *)

open Helpers
open Agreement

let run ?impl ?sched ?rounds ?input_fn p =
  Runner.run_repeated ?impl ?sched ?rounds ?input_fn p

(* Plain round-robin can livelock legitimately (all n processes run
   forever in lockstep, and n > m, so m-obstruction-freedom promises
   nothing); quantum round-robin gives each process solo bursts long
   enough that obstruction-freedom forces every operation to finish. *)
let bursty n = Shm.Schedule.quantum_round_robin ~quantum:300 n

(* Each instance decides; all instances safe; every process finishes
   all rounds under bursty round-robin. *)
let basic_three_rounds () =
  let p = Params.make ~n:4 ~m:1 ~k:2 in
  let result = run ~sched:(bursty 4) ~rounds:3 p in
  assert_all_done ~ops:3 result;
  assert_safe ~k:2 result;
  for inst = 1 to 3 do
    let outs = distinct_outputs result ~instance:inst in
    Alcotest.(check bool)
      (Printf.sprintf "instance %d decided" inst)
      true
      (List.length outs >= 1)
  done

let all_params_safe () =
  for n = 2 to 6 do
    for k = 1 to n - 1 do
      for m = 1 to k do
        let p = Params.make ~n ~m ~k in
        let result = run ~sched:(bursty n) ~rounds:3 p in
        assert_all_done ~ops:3 result;
        assert_safe ~k result
      done
    done
  done

let random_schedules_safe () =
  let p = Params.make ~n:5 ~m:2 ~k:3 in
  for seed = 0 to 29 do
    let result = run ~rounds:4 ~sched:(Shm.Schedule.random ~seed 5) p in
    assert_safe ~k:3 result
  done

(* m-obstruction-freedom for the repeated task: survivors complete all
   their rounds even though the others froze mid-instance. *)
let m_bounded_survivors_finish () =
  for seed = 0 to 19 do
    let p = Params.make ~n:5 ~m:2 ~k:2 in
    let sched = Shm.Schedule.m_bounded ~seed ~m:2 ~prefix:60 5 in
    let result = run ~rounds:3 ~sched p in
    (match result.Shm.Exec.stopped with
    | Shm.Exec.All_quiescent -> ()
    | Shm.Exec.Fuel_exhausted -> Alcotest.failf "seed %d: survivors stuck" seed);
    assert_safe ~k:2 result
  done

(* Instances are independent: instance 2's outputs come from instance
   2's inputs even though instance 1 used disjoint values. *)
let instances_independent () =
  let p = Params.make ~n:4 ~m:2 ~k:2 in
  let input_fn pid instance = vi ((1000 * instance) + pid) in
  let result = run ~rounds:3 ~input_fn ~sched:(Shm.Schedule.random ~seed:7 4) p in
  assert_safe ~k:2 result;
  Spec.Properties.by_instance result.Shm.Exec.config
  |> List.iter (fun (inst, _, outs) ->
         outs
         |> List.iter (fun v ->
                let i = Shm.Value.to_int v in
                Alcotest.(check int)
                  (Printf.sprintf "output of instance %d is from its domain" inst)
                  inst (i / 1000)))

(* The history shortcut: a process lagging behind adopts outputs from a
   fast process's history rather than re-running old instances.  We
   force p0 to lag by running others first for many rounds solo-ish. *)
let laggard_catches_up () =
  let p = Params.make ~n:3 ~m:1 ~k:1 in
  (* Phase 1: only p1, p2 run (5 rounds each); then p0 runs alone. *)
  let sched = Shm.Schedule.eventually_only ~seed:5 ~survivors:[ 0 ] ~prefix:0 3 in
  (* First let p1 finish everything via a custom two-phase schedule:
     run p1 solo to quiescence, then p0. *)
  let config = Instances.repeated p in
  let inputs = Shm.Exec.repeated_inputs ~rounds:5 (fun pid i -> vi ((10 * i) + pid)) in
  let res1 =
    Shm.Exec.run ~sched:(Shm.Schedule.solo 1) ~inputs ~max_steps:100_000 config
  in
  (* p1 finished its 5 rounds alone. *)
  Alcotest.(check int) "p1 did 5 ops" 5
    (Spec.Properties.completed_ops res1.Shm.Exec.config 1);
  let res2 =
    Shm.Exec.run ~sched ~inputs ~max_steps:100_000 res1.Shm.Exec.config
  in
  Alcotest.(check int) "p0 did 5 ops" 5
    (Spec.Properties.completed_ops res2.Shm.Exec.config 0);
  (* Consensus (k=1): p0 must output exactly p1's decisions. *)
  assert_safe ~k:1 res2;
  for inst = 1 to 5 do
    let outs = distinct_outputs res2 ~instance:inst in
    Alcotest.(check int) (Printf.sprintf "instance %d: single value" inst) 1
      (List.length outs)
  done

(* Repeated consensus (m = k = 1): the headline special case. *)
let repeated_consensus () =
  for seed = 0 to 9 do
    let p = Params.make ~n:4 ~m:1 ~k:1 in
    let sched = Shm.Schedule.m_bounded ~seed ~m:1 ~prefix:50 4 in
    let result = run ~rounds:4 ~sched p in
    assert_safe ~k:1 result;
    match result.Shm.Exec.stopped with
    | Shm.Exec.All_quiescent -> ()
    | Shm.Exec.Fuel_exhausted -> Alcotest.failf "seed %d: no progress" seed
  done

(* Space: never writes outside the r = n+2m−k components. *)
let registers_within_bound () =
  for n = 3 to 6 do
    for k = 1 to n - 1 do
      for m = 1 to k do
        let p = Params.make ~n ~m ~k in
        let result = run ~rounds:3 ~sched:(Shm.Schedule.random ~seed:(7 * n) n) p in
        let used = Runner.registers_used result in
        if used > Params.r_oneshot p then
          Alcotest.failf "%s: used %d > %d" (Params.to_string p) used (Params.r_oneshot p)
      done
    done
  done

(* A fourth field that is not a history chain, or a chain whose oldest
   link is not [[]], is an encoding bug: it raises
   [Invalid_argument "Repeated.decode: …"], never an assertion. *)
let malformed_history_rejected () =
  let entry history = Shm.Value.list [ vi 7; vi 0; vi 3; history ] in
  let decoded_history v =
    Option.map (fun tu -> Repeated.history_to_list tu.Repeated.history) (Repeated.decode v)
  in
  let rejects name v =
    match decoded_history v with
    | exception Invalid_argument msg ->
      Alcotest.(check bool)
        (Printf.sprintf "%s: %S names Repeated.decode" name msg)
        true
        (String.starts_with ~prefix:"Repeated.decode: " msg)
    | _ -> Alcotest.failf "%s: decoded" name
  in
  rejects "int history" (entry (vi 5));
  rejects "list history" (entry (Shm.Value.list [ vi 1; vi 2 ]));
  rejects "chain ending in an int" (entry (Shm.Value.pair (Shm.Value.pair (vi 9) (vi 1)) (vi 2)));
  rejects "chain ending in a list" (entry (Shm.Value.pair (Shm.Value.list [ vi 1 ]) (vi 2)));
  Alcotest.(check (option (list value)))
    "a well-formed chain decodes" (Some [ vi 1; vi 2 ])
    (decoded_history (entry (Repeated.history_of_list [ vi 1; vi 2 ])))

let suite =
  [
    test "three rounds, n=4 m=1 k=2" basic_three_rounds;
    test "safe for all (n,m,k), n<=6, 3 rounds" all_params_safe;
    test "safe under random schedules" random_schedules_safe;
    test "m-bounded survivors finish all rounds" m_bounded_survivors_finish;
    test "instances are independent" instances_independent;
    test "laggard adopts history of fast process" laggard_catches_up;
    test "repeated consensus m=k=1" repeated_consensus;
    test "stays within n+2m-k registers" registers_within_bound;
    test "malformed history rejected by decode" malformed_history_rejected;
  ]
