(* Quickstart: solve one instance of m-obstruction-free k-set agreement
   among n processes and inspect the outcome.

   Run with:  dune exec examples/quickstart.exe *)

let () =
  (* 6 processes, at most 3 different decisions, progress guaranteed
     whenever at most 2 processes run concurrently. *)
  let params = Agreement.Params.make ~n:6 ~m:2 ~k:3 in
  Fmt.pr "k-set agreement %s: snapshot components r = n+2m-k = %d@."
    (Agreement.Params.to_string params)
    (Agreement.Params.r_oneshot params);

  (* Each process proposes 10*(pid+1); the scheduler interleaves all six
     processes at random, then lets two of them finish. *)
  let inputs = Array.init 6 (fun pid -> Shm.Value.int (10 * (pid + 1))) in
  let sched = Shm.Schedule.m_bounded ~seed:2024 ~m:2 ~prefix:100 6 in
  let result = Agreement.Runner.run_oneshot ~sched ~inputs params in

  (* Outputs, instance by instance. *)
  Spec.Properties.by_instance result.Shm.Exec.config
  |> List.iter (fun (inst, ins, outs) ->
         Fmt.pr "instance %d: inputs {%a} -> outputs {%a}@." inst
           Fmt.(list ~sep:(any ", ") Shm.Value.pp)
           (Spec.Properties.distinct_values ins)
           Fmt.(list ~sep:(any ", ") Shm.Value.pp)
           (Spec.Properties.distinct_values outs));

  (* The checker confirms Validity and k-Agreement. *)
  (match Spec.Properties.check_safety ~k:3 result.Shm.Exec.config with
  | Ok () -> Fmt.pr "safety: OK (validity + 3-agreement)@."
  | Error e -> Fmt.pr "safety VIOLATED: %s@." e);
  Fmt.pr "steps: %d, registers written: %d@." result.Shm.Exec.steps
    (Agreement.Runner.registers_used result)
