(** Configurations: the global state of the simulated system.

    A configuration is a pure value — persistent memory plus one
    program per process plus the input/output record — so executions
    branch freely: the Theorem 2 adversary clones a configuration,
    explores a fragment, and discards or splices it. *)

type t

(** [create ?backend ~registers ~procs ()] is the initial
    configuration: all registers ⊥, process [pid] running
    [procs.(pid)].  [backend] selects the memory representation
    (default: the process-wide one, {!Memory.set_default}). *)
val create : ?backend:Memory.backend -> registers:int -> procs:Program.t array -> unit -> t

val n : t -> int
val mem : t -> Memory.t

(** Detach the memory from its journal family so this configuration can
    be handed to another domain (see {!Memory.unshare}). *)
val unshare : t -> t
val proc : t -> int -> Program.t

(** Number of invocations process [pid] has begun (0 initially). *)
val instance : t -> int -> int

(** [pc t pid] is the number of shared-memory operations (reads, writes
    and scans) process [pid] has performed in its current invocation —
    a stable program-point identity: the step a process is poised at is
    its [pc]-th operation since the last invoke.  Resets to [0] on
    {!invoke} and {!plant}; {!clone_proc} copies it with the local
    state. *)
val pc : t -> int -> int

(** All invocations [(pid, instance, input)], chronological. *)
val inputs : t -> (int * int * Value.t) list

(** All outputs [(pid, instance, output)], chronological. *)
val outputs : t -> (int * int * Value.t) list

(** [runnable t ~has_input pid]: poised at a step, or idle with an
    invocation available according to [has_input pid next_instance]. *)
val runnable : t -> has_input:(int -> int -> bool) -> int -> bool

(** Memory footprint of the step process [pid] would take next (empty
    for idle and halted processes — invoking is a local step).  Lets
    the exploration engine decide step independence without executing. *)
val footprint : t -> int -> Program.footprint

(** Invoke the next operation of an idle process with the given input.
    Raises [Invalid_argument] if the process is not idle. *)
val invoke : t -> int -> Value.t -> t * Event.t

(** Perform one step of an active process.  Raises [Invalid_argument]
    on idle or halted processes. *)
val step : t -> int -> t * Event.t

(** [advance ~inputs t pid] is the stepping rule every engine shares:
    {!invoke} an idle process with [inputs ~pid ~instance] for its next
    instance, otherwise {!step} it.  Raises [Invalid_argument] for a
    halted process or an idle one with no input. *)
val advance :
  inputs:(pid:int -> instance:int -> Value.t option) -> t -> int -> t * Event.t

(** {1 Solo-burst patches}

    The net effect of a run of steps of one process, replayable onto
    another configuration in which that process has the same local
    state and instance and the memory the same contents (the DPOR
    leaf completion's burst summaries, {!Spec.Counterex}). *)

type patch

(** [patch_of ~before after pid ~wrote]: [pid]'s final program,
    instance and {!pc}, the last value of each register in [wrote] (the
    registers its steps wrote, repeats allowed), its write and read
    step counts, and the i/o records it appended.  Precondition:
    [after] was reached from [before] by steps of [pid] alone.
    O(registers written + records appended). *)
val patch_of : before:t -> t -> int -> wrote:int list -> patch

(** [apply t patches] applies the patches in order.  When each patch's
    process starts in [t] (or after the patches before it) from the
    same local state, instance and memory contents as in the
    configuration it was taken from, the result equals what stepping
    would have reached: memory contents, written set, step counters,
    programs, instances, program points, and the i/o records in order. *)
val apply : t -> patch list -> t

(** {1 Lower-bound machinery support} *)

(** [clone_proc t ~from_ ~to_]: slot [to_] takes on the exact local
    state of [from_].  Legitimate in anonymous systems, where a clone
    shadowing a process step-for-step has the same local state at every
    moment (see the Section 5 construction). *)
val clone_proc : t -> from_:int -> to_:int -> t

(** [plant t ~slot program ~instance]: install an explicit program
    (a snapshot of some process's earlier local state) into a slot. *)
val plant : t -> slot:int -> Program.t -> instance:int -> t

(** [block_write t writers]: each process of [writers] performs the
    single write it is poised at — the paper's block write.  Raises
    [Invalid_argument] if some process is not poised at a write. *)
val block_write : t -> int list -> t * Event.t list

val pp : Format.formatter -> t -> unit
