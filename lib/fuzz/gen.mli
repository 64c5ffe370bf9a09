(** Sized random-protocol generation: well-formed, loop-free and
    bounded-loop {!Shm.Program.t} terms as first-order data.

    A fuzz input is a {!program} — a step list every process runs
    plus a register budget — and a pid {!schedule}.  Both are plain
    data, so the corpus can mutate them ({!Corpus}), the shrinker can
    drop pieces of them ({!Driver}), and a textual rendering replays
    them exactly.  Programs are well-formed {e by construction}:

    - every register index is in [0, registers) and every scan range
      fits ([off + len <= registers]), so {!Shm.Vm.validate} accepts
      them and the lint's out-of-bounds rule can never fire;
    - iteration is bounded ([Loop] carries a constant count, bodies are
      decide-free), so every process halts within {!flat_length} shared
      steps of solo execution;
    - a [Decide] compiles to [Yield] followed by [Stop] — output is the
      last visible action, so the write-after-decide lint cannot fire
      either — and {!generate} guarantees a trailing [Decide]. *)

(** The step language is {!Shm.Vm.proto} (also the static analyzer's
    subject, {!Analyze.Ir}): every generated protocol is directly a
    dataflow/optimizer subject.  Re-exported so its fields read as
    [p.Gen.steps]; [n] processes all run [steps], with distinct
    inputs. *)
type program = Shm.Vm.proto = { registers : int; n : int; steps : Shm.Vm.step list }

type schedule = int list
(** pids in intended step order; unrunnable entries are skipped *)

(** Bumped when generation, mutation or the textual form changes
    shape; corpus files carry it and CI keys its corpus cache on it. *)
val version : string

(** {1 Generation} *)

type sizes = {
  max_registers : int;  (** register budget drawn from [1 .. max] *)
  max_procs : int;  (** processes drawn from [2 .. max] *)
  max_steps : int;  (** top-level steps drawn from [1 .. max] *)
  max_loop : int;  (** loop count drawn from [2 .. max] *)
  max_sched : int;  (** schedule length drawn from [n .. max] *)
}

val default_sizes : sizes

(** [generate ?sizes rng] draws a fresh well-formed program.  All
    randomness comes from [rng], so generation is replayable. *)
val generate : ?sizes:sizes -> Shm.Rng.t -> program

(** [gen_schedule rng ~n] draws a pid schedule over [0 .. n-1]. *)
val gen_schedule : Shm.Rng.t -> n:int -> schedule

(** {1 Structure} *)

(** Shared-memory ops of one solo execution (loop bodies multiplied by
    their counts) — the solo-termination fuel bound. *)
val flat_length : program -> int

(** {1 Execution} *)

(** [run ?backend program schedule] replays the schedule
    ({!Shm.Schedule.replay}) from the initial configuration with
    {!Agreement.Runner.proto_inputs} and records the trace.
    Deterministic. *)
val run :
  ?backend:Shm.Memory.backend ->
  program ->
  schedule ->
  Shm.Exec.result

(** {1 Schedule rendering}

    Programs render and parse through {!Analyze.Ir}. *)

val schedule_to_string : schedule -> string

(** Inverse of {!schedule_to_string} (space-separated pids). *)
val schedule_of_string : string -> (schedule, string) result
