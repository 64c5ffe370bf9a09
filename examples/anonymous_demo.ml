(* Anonymous set agreement (Figure 5) and the Section 5 lower bound.

   Part 1 runs the anonymous repeated algorithm — identical program text
   for every process, no identifiers anywhere — over the honest
   non-blocking anonymous snapshot, including the starvation scenario
   register H exists for: a laggard that never wins the snapshot still
   finishes by reading H.

   Part 2 runs the clone-based lower-bound construction against a
   register-starved anonymous one-shot instance and shows the process
   count matching the ⌈(k+1)/m⌉(m + (r²−r)/2) threshold of Theorem 10.

   Run with:  dune exec examples/anonymous_demo.exe *)

open Agreement

let () =
  (* Part 1: Figure 5 over the non-blocking anonymous snapshot. *)
  let p = Params.make ~n:4 ~m:2 ~k:2 in
  Fmt.pr "anonymous repeated %s: r = (m+1)(n-k)+m^2 = %d components + register H@."
    (Params.to_string p) (Params.r_anonymous p);
  let result =
    Runner.run_anonymous ~anonymous_collect:true ~rounds:3
      ~sched:(Shm.Schedule.quantum_round_robin ~quantum:2500 4)
      ~max_steps:3_000_000 p
  in
  Spec.Properties.by_instance result.Shm.Exec.config
  |> List.iter (fun (inst, _, outs) ->
         Fmt.pr "  instance %d: outputs {%a}@." inst
           Fmt.(list ~sep:(any ", ") Shm.Value.pp)
           (Spec.Properties.distinct_values outs));
  (match Spec.Properties.check_safety ~k:2 result.Shm.Exec.config with
  | Ok () -> Fmt.pr "  safety: OK@."
  | Error e -> Fmt.pr "  safety VIOLATED: %s@." e);

  (* Part 2: the clone construction of Section 5. *)
  Fmt.pr "@.anonymous lower bound: gluing solo runs with clones@.";
  let starved_r = 3 in
  let k = 1 in
  let c = k + 1 in
  let slots = c * (1 + ((starved_r * starved_r) - starved_r) / 2) in
  Fmt.pr "  starved one-shot: r=%d, k=%d -> theorem needs n >= %d processes@." starved_r
    k slots;
  let p = Params.make ~n:slots ~m:1 ~k in
  let outcome =
    Lowerbound.Clones.attack ~params:p ~registers:starved_r ~slots
      ~make_config:(fun ~registers ~slots ->
        Instances.anonymous_oneshot ~r:registers ~slots p)
  in
  Fmt.pr "  %a@." Lowerbound.Clones.pp_outcome outcome;
  match outcome with
  | Lowerbound.Clones.Violation { config; _ } ->
    (match Spec.Properties.check_safety ~k config with
    | Error e -> Fmt.pr "  checker: %s@." e
    | Ok () -> Fmt.pr "  checker found nothing?! (bug)@.")
  | _ -> ()
