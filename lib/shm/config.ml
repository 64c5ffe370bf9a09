(* Configurations: the global state of the simulated system.

   A configuration is a pure value — persistent memory plus one program
   per process plus the input/output record — so executions can branch:
   the Theorem 2 adversary repeatedly clones a configuration, explores a
   fragment, and discards or splices it.

   [inputs] and [outputs] are accumulated in reverse chronological
   order; they are all the property checkers need (Validity and
   k-Agreement are predicates on In_i / Out_i). *)

type t = {
  mem : Memory.t;
  procs : Program.t array;
  instance : int array;                     (* completed+current invocation count *)
  pc : int array;                           (* ops performed in the current invocation *)
  inputs : (int * int * Value.t) list;      (* (pid, instance, input), reversed *)
  outputs : (int * int * Value.t) list;     (* (pid, instance, output), reversed *)
}

let create ?backend ~registers ~procs () =
  {
    mem = Memory.create ?backend registers;
    procs = Array.copy procs;
    instance = Array.make (Array.length procs) 0;
    pc = Array.make (Array.length procs) 0;
    inputs = [];
    outputs = [];
  }

let n t = Array.length t.procs

let mem t = t.mem

(* Detach the memory's journal family (no-op on persistent memories) so
   this configuration can be owned by another domain. *)
let unshare t = { t with mem = Memory.unshare t.mem }

let proc t pid = t.procs.(pid)

let instance t pid = t.instance.(pid)

let pc t pid = t.pc.(pid)

let inputs t = List.rev t.inputs

let outputs t = List.rev t.outputs

(* A process is runnable when it is poised to take a step, or idle with
   an invocation available (decided by the caller via [has_input]). *)
let runnable t ~has_input pid =
  match t.procs.(pid) with
  | Program.Stop -> false
  | Program.Await _ -> has_input pid (t.instance.(pid) + 1)
  | Program.Op _ | Program.Yield _ -> true

(* Footprint of the step process [pid] would take next.  For an idle
   process the next step is the invocation itself, which touches no
   shared memory; same for halted processes (which take no step at
   all).  Everything else is the poised head's footprint. *)
let footprint t pid = Program.footprint t.procs.(pid)

(* Invoke the next operation of an idle process with input [v]. *)
let invoke t pid v =
  match t.procs.(pid) with
  | Program.Await k ->
    let inst = t.instance.(pid) + 1 in
    let procs = Array.copy t.procs in
    procs.(pid) <- k v;
    let instance = Array.copy t.instance in
    instance.(pid) <- inst;
    let pc = Array.copy t.pc in
    pc.(pid) <- 0;
    let t = { t with procs; instance; pc; inputs = (pid, inst, v) :: t.inputs } in
    (t, Event.Invoke { pid; instance = inst; input = v })
  | Program.Stop | Program.Op _ | Program.Yield _ ->
    invalid_arg (Fmt.str "Config.invoke: p%d is not idle" pid)

(* Perform one step of an active process.  This is the simulator's
   innermost loop (every explored node and every frontier completion
   goes through it), so each branch builds its successor configuration
   in one allocation instead of stacking a process-array copy and a
   functional update. *)
let step t pid =
  (* [with_proc] is the shared-memory-op path: it also advances the
     process's program point (its op counter), the stable identity the
     static analyzer's IR points line up with. *)
  let with_proc t p mem =
    let procs = Array.copy t.procs in
    procs.(pid) <- p;
    let pc = Array.copy t.pc in
    pc.(pid) <- t.pc.(pid) + 1;
    { t with procs; mem; pc }
  in
  match t.procs.(pid) with
  | Program.Stop -> invalid_arg (Fmt.str "Config.step: p%d halted" pid)
  | Program.Await _ -> invalid_arg (Fmt.str "Config.step: p%d idle" pid)
  | Program.Yield (v, rest) ->
    let inst = t.instance.(pid) in
    let procs = Array.copy t.procs in
    procs.(pid) <- rest;
    let t = { t with procs; outputs = (pid, inst, v) :: t.outputs } in
    (t, Event.Output { pid; instance = inst; value = v })
  | Program.Op (Program.Read r, k) ->
    let v = Memory.read t.mem r in
    let t = with_proc t (k (Program.RVal v)) (Memory.count_read t.mem 1) in
    (t, Event.Did_read { pid; reg = r; value = v })
  | Program.Op (Program.Write (r, v), k) ->
    let t = with_proc t (k Program.RUnit) (Memory.write t.mem r v) in
    (t, Event.Did_write { pid; reg = r; value = v })
  | Program.Op (Program.Scan (off, len), k) ->
    let vec = Memory.scan t.mem ~off ~len in
    let t = with_proc t (k (Program.RVec vec)) (Memory.count_read t.mem len) in
    (t, Event.Did_scan { pid; off; len })

(* The stepping rule every engine shares, so a pid schedule means the
   same thing everywhere: invoke an idle process with its next input,
   otherwise perform its poised step. *)
let advance ~inputs t pid =
  match t.procs.(pid) with
  | Program.Await _ -> (
    let instance = t.instance.(pid) + 1 in
    match inputs ~pid ~instance with
    | Some v -> invoke t pid v
    | None ->
      invalid_arg
        (Fmt.str "Config.advance: p%d has no input for instance %d" pid instance))
  | Program.Stop -> invalid_arg (Fmt.str "Config.advance: p%d halted" pid)
  | Program.Op _ | Program.Yield _ -> step t pid

(* ---- solo-burst patches ---- *)

(* The net effect of a run of steps of one process, as much of it as
   the configuration records: the process's final program, instance
   count and op counter; the last value of each register it wrote; its
   step counts; the i/o records it appended, newest first (the order
   [inputs]/[outputs] are kept in). *)
type patch = {
  pid : int;
  program : Program.t;
  p_instance : int;
  p_pc : int;
  writes : (int * Value.t) list;
  write_steps : int;
  read_steps : int;
  new_inputs : (int * int * Value.t) list;
  new_outputs : (int * int * Value.t) list;
}

let patch_of ~before after pid ~wrote =
  (* the records are append-only: [after]'s list ends in [before]'s *)
  let rec appended l stop =
    if l == stop then [] else match l with r :: tl -> r :: appended tl stop | [] -> []
  in
  let mem = after.mem in
  {
    pid;
    program = after.procs.(pid);
    p_instance = after.instance.(pid);
    p_pc = after.pc.(pid);
    writes = List.map (fun r -> (r, Memory.read mem r)) (List.sort_uniq Int.compare wrote);
    write_steps = Memory.write_count mem - Memory.write_count before.mem;
    read_steps = Memory.read_count mem - Memory.read_count before.mem;
    new_inputs = appended after.inputs before.inputs;
    new_outputs = appended after.outputs before.outputs;
  }

(* Every patch in one pass: one copy of each per-process array. *)
let apply t = function
  | [] -> t
  | patches ->
    let procs = Array.copy t.procs and instance = Array.copy t.instance in
    let pc = Array.copy t.pc in
    let t =
      List.fold_left
        (fun t p ->
          procs.(p.pid) <- p.program;
          instance.(p.pid) <- p.p_instance;
          pc.(p.pid) <- p.p_pc;
          {
            t with
            mem =
              Memory.patch t.mem p.writes ~write_steps:p.write_steps ~read_steps:p.read_steps;
            inputs = p.new_inputs @ t.inputs;
            outputs = p.new_outputs @ t.outputs;
          })
        t patches
    in
    { t with procs; instance; pc }

(* Clone support for the anonymous lower bound (Section 5): slot [to_]
   takes on the exact local state of [from_].  In an anonymous system a
   clone that shadows a process step-for-step (reading the same values,
   writing the same values immediately after) has, at every moment, the
   same local state as the original; installing that state directly is
   operationally indistinguishable from having run the clone alongside,
   because the shadow's reads are invisible and its writes duplicate
   values already present.  See DESIGN.md, substitution on clones. *)
let clone_proc t ~from_ ~to_ =
  let procs = Array.copy t.procs in
  procs.(to_) <- t.procs.(from_);
  let instance = Array.copy t.instance in
  instance.(to_) <- t.instance.(from_);
  let pc = Array.copy t.pc in
  pc.(to_) <- t.pc.(from_);
  { t with procs; instance; pc }

(* Install an explicit program into a slot; the lower-bound machinery
   uses this to plant a clone paused at an earlier point of a process's
   execution (a snapshot of its local state at that point). *)
let plant t ~slot program ~instance:inst =
  let procs = Array.copy t.procs in
  procs.(slot) <- program;
  let instance = Array.copy t.instance in
  instance.(slot) <- inst;
  (* a planted program is a snapshot of unknown progress; its op
     counter restarts rather than inheriting the slot's old count *)
  let pc = Array.copy t.pc in
  pc.(slot) <- 0;
  { t with procs; instance; pc }

(* Splice helper for the lower-bound constructions: a block write by
   process set [writers] to registers [regs] (each process performs the
   single write it is poised to do).  Fails if some process is not
   poised to write. *)
let block_write t writers =
  List.fold_left
    (fun (t, evs) pid ->
      match Program.poised_write (proc t pid) with
      | Some _ ->
        let t, ev = step t pid in
        (t, ev :: evs)
      | None ->
        invalid_arg (Fmt.str "Config.block_write: p%d is not poised to write" pid))
    (t, []) writers

let pp ppf t =
  Fmt.pf ppf "@[<v>memory:@,%a@,procs:@," Memory.pp t.mem;
  Array.iteri
    (fun pid p ->
      let status =
        if Program.is_halted p then "halted"
        else if Program.is_idle p then "idle"
        else
          match Program.poised_op p with
          | Some op -> Fmt.str "poised: %a" Program.pp_op op
          | None -> "active"
      in
      Fmt.pf ppf "p%d (#%d): %s@," pid t.instance.(pid) status)
    t.procs;
  Fmt.pf ppf "@]"
