(* A replicated state machine and a k-branch ledger, both built with
   the Universal library on top of repeated set agreement — the
   application the paper's introduction motivates (Herlihy's universal
   construction [8]).

   Part 1: consensus underneath (k = 1) — a replicated counter whose
   replicas provably agree, forever, in min(n+1, n) = n registers.

   Part 2: k = 2 underneath — a 2-branch ledger where slots may commit
   two alternative commands; we print which replica follows which
   branch.

   Run with:  dune exec examples/universal_log.exe *)

open Universal

let counter =
  {
    Rsm.init = 0;
    apply =
      (fun s cmd ->
        match Shm.Value.view cmd with
        | Shm.Value.Pair (tag, x)
          when (match Shm.Value.view tag with Shm.Value.Str "add" -> true | _ -> false) ->
          s + Shm.Value.to_int x
        | _ -> s);
  }

let add pid slot = Shm.Value.pair (Shm.Value.str "add") (Shm.Value.int ((10 * slot) + pid))

let () =
  (* Part 1: replicated counter over consensus. *)
  let p = Agreement.Params.make ~n:5 ~m:1 ~k:1 in
  Fmt.pr "replicated counter: n=5 clients, consensus slots, %d registers total@."
    (Agreement.Params.registers_upper p);
  let run = Rsm.replicate p counter ~commands:add ~slots:8 in
  (match Rsm.agreement_log run with
  | Some log ->
    Fmt.pr "agreed log (%d slots): %a@." (List.length log)
      Fmt.(list ~sep:(any ", ") Shm.Value.pp)
      log
  | None -> Fmt.pr "replicas diverged?! (bug)@.");
  List.iter
    (fun (r : int Rsm.replica) -> Fmt.pr "  replica %d: state = %d@." r.Rsm.pid r.Rsm.state)
    run.Rsm.replicas;
  Fmt.pr "steps: %d, registers written: %d, quiescent: %b@.@." run.Rsm.steps
    run.Rsm.registers run.Rsm.quiescent;

  (* Part 2: 2-branch ledger under a contention-heavy schedule. *)
  let p2 = Agreement.Params.make ~n:4 ~m:2 ~k:2 in
  Fmt.pr "2-branch ledger: n=4 clients, k=2 slots, %d registers@."
    (Agreement.Params.registers_upper p2);
  let result =
    Agreement.Runner.run_repeated
      ~impl:(Agreement.Instances.space_optimal_impl p2)
      ~rounds:5
      ~sched:(Shm.Schedule.m_bounded ~seed:11 ~m:2 ~prefix:120 4)
      ~input_fn:(fun pid slot -> add pid slot)
      ~max_steps:2_000_000 p2
  in
  let infos = Ledger.slot_infos result.Shm.Exec.config in
  List.iter (fun i -> Fmt.pr "  %a@." Ledger.pp_slot i) infos;
  Fmt.pr "max branching: %d (bound k=2)@." (Ledger.max_branching infos);
  match Spec.Properties.check_safety ~k:2 result.Shm.Exec.config with
  | Ok () -> Fmt.pr "ledger integrity: OK@."
  | Error e -> Fmt.pr "ledger integrity VIOLATED: %s@." e
