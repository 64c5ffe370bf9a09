(* Committee election with one-shot k-set agreement.

   n nodes must elect a small committee: every node proposes itself and
   learns one committee member; k-Agreement caps the committee at k
   members, Validity makes every member a real candidate, and
   m-obstruction-freedom guarantees election completes whenever
   contention drops to m nodes.  This is the classic use of set
   agreement as a weakening of leader election (k = 1 would elect a
   unique leader but costs consensus).

   The demo elects committees under increasingly hostile schedules and
   shows the committee never exceeds k, while its size varies with how
   contended the election was.

   Run with:  dune exec examples/committee_election.exe *)

open Agreement

let n = 8
let m = 2
let k = 3

let candidate pid = Shm.Value.str (Printf.sprintf "node-%d" pid)

let elect ~sched_name sched =
  let params = Params.make ~n ~m ~k in
  let inputs = Array.init n candidate in
  let result =
    Runner.run_oneshot ~impl:(Instances.space_optimal_impl params) ~sched ~inputs
      ~max_steps:1_000_000 params
  in
  let committee =
    Spec.Properties.distinct_values (Runner.outputs_of_instance result ~instance:1)
  in
  Fmt.pr "%-28s committee {%a} (size %d <= k=%d), %d steps@." sched_name
    Fmt.(list ~sep:(any ", ") Shm.Value.pp)
    committee (List.length committee) k result.Shm.Exec.steps;
  (match Spec.Properties.check_safety ~k result.Shm.Exec.config with
  | Ok () -> ()
  | Error e -> Fmt.pr "  ELECTION BROKEN: %s@." e);
  committee

let () =
  let params = Params.make ~n ~m ~k in
  Fmt.pr "electing <=%d of %d nodes using %d registers (paper bound min(n+2m-k,n)=%d)@."
    k n
    (Params.registers_upper params)
    (Params.registers_upper params);
  (* calm: nodes run mostly alone -> tiny committees *)
  let c1 = elect ~sched_name:"calm (solo bursts):" (Shm.Schedule.quantum_round_robin ~quantum:500 n) in
  (* contended start, then m nodes remain: m-obstruction-freedom kicks in *)
  let c2 =
    elect ~sched_name:"contended then settles:"
      (Shm.Schedule.m_bounded ~seed:42 ~m ~prefix:300 n)
  in
  let c3 =
    elect ~sched_name:"two camps (alternating):"
      (Shm.Schedule.alternating ~burst:2 [ [ 0; 1; 2; 3 ]; [ 4; 5; 6; 7 ] ])
  in
  (* nodes crash mid-election *)
  let c4 =
    elect ~sched_name:"crashy:"
      (Shm.Schedule.with_crashes
         ~crashes:[ (0, 20); (5, 35) ]
         (Shm.Schedule.quantum_round_robin ~quantum:300 n))
  in
  (* racing bursts: contention splits the committee (still <= k) *)
  let c5 =
    elect ~sched_name:"racing bursts:"
      (Shm.Schedule.bursty_random ~seed:71 (List.init n Fun.id))
  in
  let sizes = List.map List.length [ c1; c2; c3; c4; c5 ] in
  Fmt.pr "all five elections valid; committee sizes %a@."
    Fmt.(list ~sep:(any ", ") int)
    sizes
