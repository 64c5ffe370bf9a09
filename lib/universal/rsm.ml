(* A universal construction: replicated state machines from repeated
   agreement.

   This is the application the paper's introduction motivates repeated
   set agreement with (Herlihy's universal construction [8]): a sequence
   of independent agreement instances, one per command slot.  With k = 1
   (consensus) every replica applies the same command sequence and the
   replicated object is linearizable; the space cost of the agreement
   layer is the paper's min(n+2m−k, n) registers *total*, independent of
   how many commands are executed.

   With k > 1 the construction degrades gracefully into a k-branching
   machine (see Ledger): each slot commits at most k alternative
   commands, and each replica follows one committed branch.  This is the
   object k-set agreement is "universal" for.

   The machine is a pure fold over decided commands; replication runs
   the Figure 4 algorithm underneath. *)

open Shm

type 'state machine = {
  init : 'state;
  apply : 'state -> Value.t -> 'state;  (* apply one committed command *)
}

type 'state replica = {
  pid : int;
  log : Value.t list;     (* commands this replica learned, slot order *)
  state : 'state;         (* init folded over log *)
}

type 'state run = {
  replicas : 'state replica list;
  steps : int;
  registers : int;        (* registers the agreement layer wrote *)
  quiescent : bool;
}

(* Outputs of process [pid], in instance order — the branch this replica
   follows. *)
let log_of config pid =
  Config.outputs config
  |> List.filter_map (fun (p, inst, v) -> if p = pid then Some (inst, v) else None)
  |> List.sort (fun (a, _) (b, _) -> compare a b)
  |> List.map snd

(* [replicate params machine ~commands ~slots] runs [slots] instances of
   repeated agreement; process pid proposes [commands pid slot] for each
   slot and applies the decided command.  Uses the default solo-burst
   schedule unless [sched] is given. *)
let replicate ?sched ?(max_steps = 5_000_000) (params : Agreement.Params.t) machine
    ~commands ~slots =
  let n = params.Agreement.Params.n in
  let sched =
    match sched with
    | Some s -> s
    | None -> Schedule.quantum_round_robin ~quantum:800 n
  in
  let impl = Agreement.Instances.space_optimal_impl params in
  let result =
    Agreement.Runner.run_repeated ~impl ~sched ~rounds:slots ~max_steps
      ~input_fn:(fun pid slot -> commands pid slot)
      params
  in
  let config = result.Exec.config in
  let replicas =
    List.init n (fun pid ->
        let log = log_of config pid in
        { pid; log; state = List.fold_left machine.apply machine.init log })
  in
  {
    replicas;
    steps = result.Exec.steps;
    registers = Agreement.Runner.registers_used result;
    quiescent = result.Exec.stopped = Exec.All_quiescent;
  }

(* Incremental slot-at-a-time stepping.  A stepper owns a repeated
   (Figure 4) configuration and advances it one agreement instance per
   call.  Because configurations are persistent, "advance" is just
   re-running [Exec.run] on the stored config with the inputs window
   widened by one instance: processes offered no proposal for the new
   slot simply stay idle, and the run quiesces once every proposer has
   decided.  This is the serving layer's engine: a shard holds one
   stepper and feeds it one batch per slot, forever, in min(n+2m−k, n)
   registers total. *)
module Stepper = struct
  type t = {
    params : Agreement.Params.t;
    config : Config.t;
    slot : int;   (* instances decided so far; next instance is slot+1 *)
    steps : int;  (* simulator steps across all slots *)
    max_steps_per_slot : int;
  }

  type outcome = {
    stepper : t;
    decisions : (int * Value.t) list;  (* (pid, decided), completion order *)
    quiescent : bool;
  }

  let create ?impl ?backend ?(max_steps_per_slot = 2_000_000)
      (params : Agreement.Params.t) =
    let impl =
      match impl with
      | Some i -> i
      | None -> Agreement.Instances.space_optimal_impl params
    in
    let config = Agreement.Instances.repeated ~impl ?backend params in
    { params; config; slot = 0; steps = 0; max_steps_per_slot }

  let slot t = t.slot
  let config t = t.config
  let steps t = t.steps
  let params t = t.params
  let registers_used t = Memory.num_written (Config.mem t.config)

  let step_slot ?sched t ~proposals =
    let n = t.params.Agreement.Params.n in
    let sched =
      match sched with
      | Some s -> s
      | None -> Schedule.quantum_round_robin ~quantum:800 n
    in
    let instance = t.slot + 1 in
    let inputs ~pid ~instance:i =
      if i = instance then proposals pid else None
    in
    (* The slot's decisions are the run's own [Output] events for this
       instance, collected as they happen; reading them back from
       [Config.outputs] would walk the outputs of every earlier slot. *)
    let decided = ref [] in
    let sink = function
      | Event.Output { pid; instance = i; value } when i = instance ->
        decided := (pid, value) :: !decided
      | Event.Output _ | Event.Invoke _ | Event.Did_read _ | Event.Did_write _
      | Event.Did_scan _ -> ()
    in
    let result =
      Exec.run ~sink ~sched ~inputs ~max_steps:t.max_steps_per_slot t.config
    in
    let config = result.Exec.config in
    let decisions = List.rev !decided in
    let stepper =
      { t with config; slot = instance; steps = t.steps + result.Exec.steps }
    in
    { stepper; decisions; quiescent = result.Exec.stopped = Exec.All_quiescent }
end

(* With consensus underneath, all replicas must agree on the whole log;
   [agreement_log] returns it (and None if replicas diverged — possible
   only if k > 1 or the layer below is broken). *)
let agreement_log run =
  match run.replicas with
  | [] -> Some []
  | r0 :: rest ->
    if
      List.for_all
        (fun r -> List.length r.log = List.length r0.log
                  && List.for_all2 Value.equal r.log r0.log)
        rest
    then Some r0.log
    else None
