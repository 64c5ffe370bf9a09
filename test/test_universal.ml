(* Tests of the universal construction (replicated state machines over
   repeated agreement). *)

open Helpers
open Universal

let counter_machine =
  {
    Rsm.init = 0;
    apply =
      (fun s cmd ->
        match Machines.tagged cmd with
        | Some ("add", x) -> s + Shm.Value.to_int x
        | _ -> s);
  }

let add pid slot = Shm.Value.pair (Shm.Value.str "add") (Shm.Value.int ((10 * slot) + pid))

(* Consensus underneath: all replicas converge on one log and state. *)
let consensus_replicas_agree () =
  let p = Agreement.Params.make ~n:4 ~m:1 ~k:1 in
  let run = Rsm.replicate p counter_machine ~commands:add ~slots:5 in
  Alcotest.(check bool) "quiescent" true run.Rsm.quiescent;
  (match Rsm.agreement_log run with
  | Some log -> Alcotest.(check int) "log has 5 slots" 5 (List.length log)
  | None -> Alcotest.fail "replicas diverged under consensus");
  match run.Rsm.replicas with
  | r0 :: rest ->
    List.iter
      (fun (r : int Rsm.replica) ->
        Alcotest.(check int) "same state" r0.Rsm.state r.Rsm.state)
      rest
  | [] -> Alcotest.fail "no replicas"

(* The agreed log only contains proposed commands, slot by slot. *)
let log_is_valid () =
  let p = Agreement.Params.make ~n:3 ~m:1 ~k:1 in
  let run =
    Rsm.replicate ~sched:(Shm.Schedule.quantum_round_robin ~quantum:500 3) p
      counter_machine ~commands:add ~slots:4
  in
  match Rsm.agreement_log run with
  | None -> Alcotest.fail "diverged"
  | Some log ->
    List.iteri
      (fun i cmd ->
        let slot = i + 1 in
        let proposed = List.init 3 (fun pid -> add pid slot) in
        Alcotest.(check bool)
          (Printf.sprintf "slot %d command was proposed" slot)
          true
          (List.exists (Shm.Value.equal cmd) proposed))
      log

(* Space: the whole machine lives in min(n+2m-k, n) registers no matter
   how many commands execute. *)
let constant_space () =
  let p = Agreement.Params.make ~n:4 ~m:1 ~k:1 in
  let short = Rsm.replicate p counter_machine ~commands:add ~slots:2 in
  let long = Rsm.replicate p counter_machine ~commands:add ~slots:12 in
  Alcotest.(check int) "same registers" short.Rsm.registers long.Rsm.registers;
  Alcotest.(check bool) "within bound" true
    (long.Rsm.registers <= Agreement.Params.registers_upper p)

(* k = 2: slots may branch, but never more than k ways, and the number
   of distinct replica views stays bounded. *)
let k_branching_bounded () =
  let p = Agreement.Params.make ~n:4 ~m:2 ~k:2 in
  for seed = 0 to 9 do
    let sched = Shm.Schedule.m_bounded ~seed ~m:2 ~prefix:80 4 in
    let run =
      Rsm.replicate ~sched ~max_steps:2_000_000 p counter_machine ~commands:add ~slots:3
    in
    if run.Rsm.quiescent then begin
      (* branch analysis needs the raw config; recompute via a fresh run
         record by reusing outputs embedded in replicas *)
      let views = Ledger.distinct_views run in
      Alcotest.(check bool) "views bounded" true (views >= 1 && views <= 4)
    end
  done

let ledger_slot_analysis () =
  let p = Agreement.Params.make ~n:4 ~m:2 ~k:2 in
  let result =
    Agreement.Runner.run_repeated ~rounds:3
      ~sched:(Shm.Schedule.quantum_round_robin ~quantum:600 4)
      ~input_fn:(fun pid slot -> add pid slot)
      p
  in
  let infos = Ledger.slot_infos result.Shm.Exec.config in
  Alcotest.(check int) "three slots" 3 (List.length infos);
  Alcotest.(check bool) "branching within k" true (Ledger.max_branching infos <= 2);
  infos
  |> List.iter (fun i ->
         let followers = List.concat_map snd i.Ledger.followers in
         Alcotest.(check int)
           (Printf.sprintf "slot %d: every replica follows a branch" i.Ledger.slot)
           4 (List.length followers))

(* A register-valued machine: key-value store commands. *)
(* A slot renders on one line, as examples/universal_log.ml prints it:
   the pid list joins with a plain ", ", not a break hint that wraps. *)
let ledger_slot_one_line () =
  let cmd = Shm.Value.pair (Shm.Value.str "add") (Shm.Value.int 20) in
  let i = { Ledger.slot = 2; branches = [ cmd ]; followers = [ (cmd, [ 0; 1 ]) ] } in
  let printed = Fmt.str "  %a@." Ledger.pp_slot i in
  Alcotest.(check string) "one line" "  slot 2: (\"add\",20) <- {0, 1}\n" printed

let kv_machine () =
  let machine =
    {
      Rsm.init = [];
      apply =
        (fun s cmd ->
          match Machines.tagged cmd with
          | Some (key, v) -> (key, v) :: List.remove_assoc key s
          | None -> s);
    }
  in
  let commands pid slot =
    Shm.Value.pair (Shm.Value.str (Printf.sprintf "key%d" (slot mod 2))) (vi pid)
  in
  let p = Agreement.Params.make ~n:3 ~m:1 ~k:1 in
  let run = Rsm.replicate p machine ~commands ~slots:6 in
  match run.Rsm.replicas with
  | r :: _ ->
    Alcotest.(check int) "two keys" 2 (List.length r.Rsm.state);
    (match Rsm.agreement_log run with
    | Some _ -> ()
    | None -> Alcotest.fail "diverged")
  | [] -> Alcotest.fail "no replicas"

(* ---- the machine catalog ---- *)

let queue_machine () =
  let p = Agreement.Params.make ~n:3 ~m:1 ~k:1 in
  (* pid 0 enqueues, pid 1 dequeues, pid 2 enqueues *)
  let commands pid slot =
    if pid = 1 then Machines.deq else Machines.enq (vi ((10 * slot) + pid))
  in
  let run = Rsm.replicate p Machines.fifo_queue ~commands ~slots:6 in
  match (Rsm.agreement_log run, run.Rsm.replicas) with
  | Some log, r :: _ ->
    Alcotest.(check int) "six commands" 6 (List.length log);
    let st = r.Rsm.state in
    (* conservation: enqueued = still queued + dequeued (minus ⊥s) *)
    let enqueued =
      List.length
        (List.filter
           (fun c -> match Machines.tagged c with Some ("enq", _) -> true | _ -> false)
           log)
    in
    let real_deqs =
      List.length
        (List.filter (fun v -> not (Shm.Value.equal v Shm.Value.bot)) st.Machines.dequeued)
    in
    Alcotest.(check int) "conservation" enqueued
      (List.length st.Machines.items + real_deqs);
    (* FIFO: dequeued values appear in enqueue order *)
    let enq_order =
      List.filter_map
        (fun c -> match Machines.tagged c with Some ("enq", v) -> Some v | _ -> None)
        log
    in
    let deq_values =
      List.filter (fun v -> not (Shm.Value.equal v Shm.Value.bot)) st.Machines.dequeued
    in
    let rec is_prefix xs ys =
      match (xs, ys) with
      | [], _ -> true
      | x :: xs', y :: ys' -> Shm.Value.equal x y && is_prefix xs' ys'
      | _ :: _, [] -> false
    in
    Alcotest.(check bool) "FIFO order" true (is_prefix deq_values enq_order)
  | _ -> Alcotest.fail "queue replication failed"

let bank_never_negative () =
  let p = Agreement.Params.make ~n:4 ~m:1 ~k:1 in
  let commands pid slot =
    if (pid + slot) mod 2 = 0 then Machines.deposit (5 + pid)
    else Machines.withdraw (7 + slot)
  in
  let run = Rsm.replicate p Machines.bank ~commands ~slots:8 in
  run.Rsm.replicas
  |> List.iter (fun (r : int Rsm.replica) ->
         Alcotest.(check bool)
           (Printf.sprintf "replica %d balance >= 0" r.Rsm.pid)
           true (r.Rsm.state >= 0));
  match Rsm.agreement_log run with
  | Some _ -> ()
  | None -> Alcotest.fail "bank replicas diverged"

let lww_register_machine () =
  let p = Agreement.Params.make ~n:3 ~m:1 ~k:1 in
  let commands pid slot = Machines.write (vi ((100 * slot) + pid)) in
  let run = Rsm.replicate p Machines.register ~commands ~slots:4 in
  match (Rsm.agreement_log run, run.Rsm.replicas) with
  | Some log, r :: _ ->
    (* final state is the last committed write *)
    let last =
      match List.rev log with
      | c :: _ -> (
        match Shm.Value.view c with Shm.Value.Pair (_, v) -> v | _ -> Shm.Value.bot)
      | _ -> Shm.Value.bot
    in
    check_value "last write wins" last r.Rsm.state
  | _ -> Alcotest.fail "register replication failed"

(* --- edge cases --- *)

(* slots = 0: nothing to decide, the run quiesces immediately with
   empty logs and pristine state. *)
let zero_slots () =
  let p = Agreement.Params.make ~n:3 ~m:1 ~k:1 in
  let run = Rsm.replicate p counter_machine ~commands:add ~slots:0 in
  Alcotest.(check bool) "quiescent" true run.Rsm.quiescent;
  List.iter
    (fun (r : int Rsm.replica) ->
      Alcotest.(check int) "empty log" 0 (List.length r.Rsm.log);
      Alcotest.(check int) "initial state" 0 r.Rsm.state)
    run.Rsm.replicas;
  match Rsm.agreement_log run with
  | Some [] -> ()
  | Some _ -> Alcotest.fail "zero slots produced a non-empty log"
  | None -> Alcotest.fail "zero slots diverged"

(* A single replica is not a legal system: the paper's standing
   assumption is 1 ≤ m ≤ k < n, so n = 1 admits no valid k. *)
let single_replica_rejected () =
  Alcotest.check_raises "n = 1 is rejected"
    (Invalid_argument "Params.make: need n > 1, got n=1") (fun () ->
      ignore (Agreement.Params.make ~n:1 ~m:1 ~k:1));
  (* n = 2 is the smallest replicated service; it works end to end *)
  let p = Agreement.Params.make ~n:2 ~m:1 ~k:1 in
  let run = Rsm.replicate p counter_machine ~commands:add ~slots:3 in
  Alcotest.(check bool) "n=2 quiesces" true run.Rsm.quiescent;
  match Rsm.agreement_log run with
  | Some log -> Alcotest.(check int) "3 slots" 3 (List.length log)
  | None -> Alcotest.fail "n=2 consensus diverged"

(* The incremental stepper decides the same slots replicate does: fold
   step_slot and compare safety, decisions, and the space bill. *)
let stepper_slot_at_a_time () =
  let p = Agreement.Params.make ~n:4 ~m:1 ~k:1 in
  let stepper = ref (Rsm.Stepper.create p) in
  for slot = 1 to 6 do
    let outcome =
      Rsm.Stepper.step_slot !stepper ~proposals:(fun pid -> Some (add pid slot))
    in
    Alcotest.(check bool) "slot quiesced" true outcome.Rsm.Stepper.quiescent;
    Alcotest.(check int) "all replicas decided"
      p.Agreement.Params.n
      (List.length outcome.Rsm.Stepper.decisions);
    (* consensus: every decision in the slot is the same proposed value *)
    (match outcome.Rsm.Stepper.decisions with
    | [] -> Alcotest.fail "no decisions"
    | (_, v) :: rest ->
      List.iter (fun (_, v') -> check_value "consensus" v v') rest;
      Alcotest.(check bool) "validity" true
        (List.exists (fun pid -> Shm.Value.equal v (add pid slot))
           (List.init p.Agreement.Params.n Fun.id)));
    stepper := outcome.Rsm.Stepper.stepper
  done;
  Alcotest.(check int) "6 slots decided" 6 (Rsm.Stepper.slot !stepper);
  (match Spec.Properties.check_safety ~k:1 (Rsm.Stepper.config !stepper) with
  | Ok () -> ()
  | Error e -> Alcotest.failf "safety: %s" e);
  let bound = min (p.Agreement.Params.n + (2 * p.Agreement.Params.m) - p.Agreement.Params.k) p.Agreement.Params.n in
  Alcotest.(check bool) "registers within min(n+2m-k, n)" true
    (Rsm.Stepper.registers_used !stepper <= bound)

(* Flat cost per slot: a slot allocates as much at instance 1,000 as at
   instance 1, so nothing in the stepper, the configuration or Figure
   4's entries grows with the number of slots decided.  Allocation is
   counted rather than timed, so the bound holds on any host. *)
let stepper_flat_slot_cost () =
  let p = Agreement.Params.make ~n:4 ~m:1 ~k:1 in
  let slots = 1000 in
  let words = Array.make (slots + 1) 0. in
  let stepper = ref (Rsm.Stepper.create p) in
  for slot = 1 to slots do
    let before = Gc.minor_words () in
    let outcome =
      Rsm.Stepper.step_slot !stepper ~proposals:(fun pid -> Some (add pid slot))
    in
    words.(slot) <- Gc.minor_words () -. before;
    if not outcome.Rsm.Stepper.quiescent then Alcotest.failf "slot %d stuck" slot;
    stepper := outcome.Rsm.Stepper.stepper
  done;
  let mean lo hi =
    Array.fold_left ( +. ) 0. (Array.sub words lo (hi - lo + 1)) /. float_of_int (hi - lo + 1)
  in
  let first = mean 1 100 and last = mean 901 1000 in
  if last > 1.02 *. first then
    Alcotest.failf "minor words per slot grew %.0f -> %.0f (ratio %.3f > 1.02)" first last
      (last /. first)

(* A replica that proposes nothing sits the slot out; the rest decide
   under a schedule restricted to the proposers. *)
let stepper_sitting_out () =
  let p = Agreement.Params.make ~n:3 ~m:1 ~k:1 in
  let live = [ 0; 2 ] in
  let outcome =
    Rsm.Stepper.step_slot
      ~sched:(Shm.Schedule.alternating ~burst:800 (List.map (fun p -> [ p ]) live))
      (Rsm.Stepper.create p)
      ~proposals:(fun pid -> if List.mem pid live then Some (vi (pid + 1)) else None)
  in
  Alcotest.(check bool) "quiesced without pid 1" true outcome.Rsm.Stepper.quiescent;
  Alcotest.(check int) "both proposers decided" 2
    (List.length outcome.Rsm.Stepper.decisions);
  Alcotest.(check bool) "pid 1 decided nothing" true
    (not (List.mem_assoc 1 outcome.Rsm.Stepper.decisions))

(* Differential: a slot's decisions are the [Config.outputs] records of
   its instance, in completion order.  The oracle is the pass over
   every output that the stepper made before it collected decisions
   from the run.  Pid 3 sits out from slot 20 on, and slot 40 runs
   under lockstep round-robin until its step budget runs out, so slot
   41 also finishes instance 40 for the processes caught mid-way. *)
let stepper_decisions_match_outputs () =
  let p = Agreement.Params.make ~n:4 ~m:1 ~k:1 in
  let oracle config instance =
    Shm.Config.outputs config
    |> List.filter_map (fun (pid, inst, v) ->
           if inst = instance then Some (pid, v) else None)
  in
  let decision = Alcotest.(pair int (testable Shm.Value.pp Shm.Value.equal)) in
  let stepper = ref (Rsm.Stepper.create ~max_steps_per_slot:3_000 p) in
  let fuel_outs = ref 0 and decided_in_40 = ref 0 in
  for slot = 1 to 60 do
    let live = if slot >= 20 then [ 0; 1; 2 ] else [ 0; 1; 2; 3 ] in
    let sched =
      if slot = 40 then Shm.Schedule.round_robin 4
      else Shm.Schedule.alternating ~burst:800 (List.map (fun p -> [ p ]) live)
    in
    let outcome =
      Rsm.Stepper.step_slot ~sched !stepper ~proposals:(fun pid ->
          if List.mem pid live then Some (add pid slot) else None)
    in
    stepper := outcome.Rsm.Stepper.stepper;
    if not outcome.Rsm.Stepper.quiescent then incr fuel_outs;
    if slot = 40 then decided_in_40 := List.length outcome.Rsm.Stepper.decisions;
    Alcotest.(check (list decision))
      (Printf.sprintf "slot %d decisions" slot)
      (oracle (Rsm.Stepper.config !stepper) slot)
      outcome.Rsm.Stepper.decisions;
    if slot >= 20 then
      Alcotest.(check bool) "pid 3 sat out" false
        (List.mem_assoc 3 outcome.Rsm.Stepper.decisions)
  done;
  Alcotest.(check int) "exactly slot 40 ran out of fuel" 1 !fuel_outs;
  Alcotest.(check bool) "instance 40 finished after its slot" true
    (List.length (oracle (Rsm.Stepper.config !stepper) 40) > !decided_in_40)

(* Every Figure 4 entry written is (pref, pid, t, history) where
   history is exactly the writer's outputs for instances 1..t-1: the
   history value the program carries between steps never drifts from
   the one [encode] would build.  Short solo bursts make processes lag,
   so some of them take the line-15 shortcut (adopting the history of
   an entry from a higher instance); the test counts those from the
   scanned views and requires at least one. *)
let fig4_entries_carry_history () =
  let p = Agreement.Params.make ~n:4 ~m:1 ~k:1 in
  let n = p.Agreement.Params.n in
  let r = Agreement.Params.r_oneshot p in
  let mem = Array.make r Shm.Value.bot in
  let instance = Array.make n 0 in
  let outputs = Array.make n [] in
  let scanned = Array.make n (0, [||]) in
  let writes = ref 0 and shortcuts = ref 0 in
  let sink = function
    | Shm.Event.Invoke { pid; instance = i; _ } -> instance.(pid) <- i
    | Shm.Event.Did_write { pid; reg; value } ->
      incr writes;
      mem.(reg) <- value;
      let tu =
        match Agreement.Repeated.decode value with
        | Some tu -> tu
        | None -> Alcotest.fail "wrote ⊥"
      in
      let name = Printf.sprintf "p%d entry at instance %d" pid instance.(pid) in
      Alcotest.(check (list Helpers.value)) name (List.rev outputs.(pid))
        (Agreement.Repeated.history_to_list tu.Agreement.Repeated.history);
      check_value name
        (Agreement.Repeated.encode { tu with Agreement.Repeated.id = pid; t = instance.(pid) })
        value
    | Shm.Event.Did_scan { pid; off; len } ->
      scanned.(pid) <- (instance.(pid), Array.sub mem off len)
    | Shm.Event.Output { pid; instance = i; value } ->
      let t, view = scanned.(pid) in
      if t = i && Agreement.Repeated.find_higher ~t:i view <> None then incr shortcuts;
      outputs.(pid) <- value :: outputs.(pid)
    | Shm.Event.Did_read _ -> ()
  in
  let result =
    Agreement.Runner.run_repeated ~impl:Agreement.Instances.Atomic ~sink
      ~sched:(Shm.Schedule.quantum_round_robin ~quantum:150 n)
      ~rounds:30 ~max_steps:5_000_000 ~input_fn:add p
  in
  Alcotest.(check bool) "quiescent" true (result.Shm.Exec.stopped = Shm.Exec.All_quiescent);
  Alcotest.(check bool) "entries were written" true (!writes > 0);
  Alcotest.(check bool) "the line-15 shortcut ran" true (!shortcuts > 0)

let suite =
  [
    test "consensus replicas agree on log and state" consensus_replicas_agree;
    test "zero slots quiesce with empty logs" zero_slots;
    test "single replica rejected; n=2 smallest service" single_replica_rejected;
    test "stepper decides slot at a time" stepper_slot_at_a_time;
    test "stepper lets replicas sit a slot out" stepper_sitting_out;
    test "replicated FIFO queue: conservation + order" queue_machine;
    test "replicated bank never goes negative" bank_never_negative;
    test "replicated LWW register" lww_register_machine;
    test "agreed log contains only proposed commands" log_is_valid;
    test "space is constant in the number of commands" constant_space;
    test "k=2 branching stays bounded" k_branching_bounded;
    test "ledger slot analysis" ledger_slot_analysis;
    test "key-value store machine" kv_machine;
    test "stepper decisions equal the instance's outputs" stepper_decisions_match_outputs;
    test "Figure 4 entries carry the writer's decided history" fig4_entries_carry_history;
    test "ledger slot prints on one line" ledger_slot_one_line;
    test "stepper allocates the same per slot at slot 1000" stepper_flat_slot_cost;
  ]
