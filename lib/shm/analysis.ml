(* Execution statistics: aggregates over one run.

   Printed by `sa_run --stats` and used by tests that assert structural facts about executions — e.g.
   that a solo run touches every component, or that crash survivors
   account for all late steps.

   The accumulator also times every propose: the latency of a propose
   is the number of steps of the whole system from its Invoke to its
   Output (the step clock is [total_steps]), so contention and
   starvation show up directly, which per-process step totals cannot
   express.  A process has at most one pending invocation.

   Aggregation is streaming: an [acc] folds events one at a time in
   O(n + registers) memory, so it can sit behind an [Exec.run ?sink]
   observer on multi-million-step schedules.  [of_trace] is the same
   fold over an in-memory list. *)

type t = {
  steps_per_process : int array;   (* shared-memory + response steps *)
  writes_per_register : int array;
  reads_per_register : int array;  (* scans count one read per covered register *)
  invocations : int;
  outputs : int;
  reads : int;
  writes : int;
  scans : int;
  total_steps : int;
  latencies : int list;  (* completed proposes, in completion order *)
  pending : int;
}

type acc = {
  n : int;
  registers : int;
  steps : int array;
  writes : int array;
  reads : int array;
  mutable a_invocations : int;
  mutable a_outputs : int;
  mutable a_reads : int;
  mutable a_writes : int;
  mutable a_scans : int;
  mutable a_total : int;
  pending_step : int array;  (* step of the pending Invoke, or -1 *)
  pending_instance : int array;
  mutable a_latencies : int list;  (* reversed *)
}

let create ~n ~registers =
  if n < 0 then invalid_arg "Analysis.create: n must be non-negative";
  if registers < 0 then invalid_arg "Analysis.create: registers must be non-negative";
  {
    n;
    registers;
    steps = Array.make n 0;
    writes = Array.make registers 0;
    reads = Array.make registers 0;
    a_invocations = 0;
    a_outputs = 0;
    a_reads = 0;
    a_writes = 0;
    a_scans = 0;
    a_total = 0;
    pending_step = Array.make n (-1);
    pending_instance = Array.make n 0;
    a_latencies = [];
  }

let feed acc ev =
  acc.a_total <- acc.a_total + 1;
  let pid = Event.pid ev in
  let tracked = pid >= 0 && pid < acc.n in
  if tracked then acc.steps.(pid) <- acc.steps.(pid) + 1;
  match ev with
  | Event.Invoke { instance; _ } ->
    acc.a_invocations <- acc.a_invocations + 1;
    if tracked then begin
      acc.pending_step.(pid) <- acc.a_total - 1;
      acc.pending_instance.(pid) <- instance
    end
  | Event.Output { instance; _ } ->
    acc.a_outputs <- acc.a_outputs + 1;
    (* an Output with no matching Invoke (a replayed suffix) is not timed *)
    if tracked && acc.pending_step.(pid) >= 0 && acc.pending_instance.(pid) = instance
    then begin
      acc.a_latencies <- (acc.a_total - acc.pending_step.(pid)) :: acc.a_latencies;
      acc.pending_step.(pid) <- -1
    end
  | Event.Did_write { reg; _ } ->
    acc.a_writes <- acc.a_writes + 1;
    if reg >= 0 && reg < acc.registers then acc.writes.(reg) <- acc.writes.(reg) + 1
  | Event.Did_read { reg; _ } ->
    acc.a_reads <- acc.a_reads + 1;
    if reg >= 0 && reg < acc.registers then acc.reads.(reg) <- acc.reads.(reg) + 1
  | Event.Did_scan { off; len; _ } ->
    acc.a_scans <- acc.a_scans + 1;
    for r = max 0 off to min (off + len) acc.registers - 1 do
      acc.reads.(r) <- acc.reads.(r) + 1
    done

let snapshot acc =
  {
    steps_per_process = Array.copy acc.steps;
    writes_per_register = Array.copy acc.writes;
    reads_per_register = Array.copy acc.reads;
    invocations = acc.a_invocations;
    outputs = acc.a_outputs;
    reads = acc.a_reads;
    writes = acc.a_writes;
    scans = acc.a_scans;
    total_steps = acc.a_total;
    latencies = List.rev acc.a_latencies;
    pending = Array.fold_left (fun c s -> if s >= 0 then c + 1 else c) 0 acc.pending_step;
  }

let of_trace ~n ~registers trace =
  let acc = create ~n ~registers in
  List.iter (feed acc) trace;
  snapshot acc

(* Processes that took at least one step. *)
let active_processes t =
  Array.to_list t.steps_per_process
  |> List.mapi (fun pid s -> (pid, s))
  |> List.filter (fun (_, s) -> s > 0)
  |> List.map fst

(* Contention metric: the write-count imbalance across registers —
   max writes / mean writes over written registers (1.0 = perfectly
   even).  Register-efficient algorithms cycle evenly.  When no
   register was written (empty trace, read-only run, registers = 0)
   there is no imbalance to report: 0. by convention, never NaN. *)
let write_skew t =
  let written = Array.to_list t.writes_per_register |> List.filter (fun w -> w > 0) in
  match written with
  | [] -> 0.
  | _ ->
    let total = List.fold_left ( + ) 0 written in
    let mean = float_of_int total /. float_of_int (List.length written) in
    float_of_int (List.fold_left max 0 written) /. mean

let pp ppf (t : t) =
  Fmt.pf ppf
    "@[<v>steps/process: %a@,writes/register: %a@,invocations: %d, outputs: %d@,\
     reads: %d, writes: %d, scans: %d@,total steps: %d, write skew: %.2f@]"
    Fmt.(array ~sep:(any " ") int)
    t.steps_per_process
    Fmt.(array ~sep:(any " ") int)
    t.writes_per_register t.invocations t.outputs t.reads t.writes t.scans
    t.total_steps (write_skew t)
