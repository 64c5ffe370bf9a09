(** Bytecode compiler and arena execution engine for first-order
    protocols.

    First-order protocols — the step-list language shared by the
    fuzzer and the static analyzer ([Analyze.Ir] and [Fuzz.Gen] use
    the types below directly) — admit two executable forms:

    - {!to_program} compiles to the free monad, executed by
      [Exec.run] — the reference semantics;
    - {!compile} lowers to a flat array of int-coded instructions,
      executed by {!step}/{!drive}/{!run} over a mutable slice of one
      flat [int array] — the fast engine.

    The two are event-equivalent by contract: same events in the same
    order, same final memory and i/o records, same step counts — the
    contract {!diff} states.  The fuzzer's [vm] oracle and the QCheck
    equivalence suite enforce it on random protocols; [docs/PERFORMANCE.md] documents the
    bytecode format and the arena layout.

    The engine maintains the exploration state key incrementally
    inside {!step}, derived from the machine state itself (registers,
    per-process control state, i/o records) rather than from the
    observation history [Spec.Statehash] folds.  Because the step
    language has no data-dependent control flow, the future of a
    configuration is a function of its state alone — so hashing state
    is sound for the DPOR cache and strictly coarser than the
    interpreter's key: states reached by equivalent interleavings
    collide by construction, which is exactly the pruning the cache
    wants.  {!key} is four loads and DPOR over vm states
    ([Spec.Modelcheck.run_vm]) never hashes a full configuration. *)

(** {1 The first-order protocol language} *)

type src = Const of int | Input | Last

type step =
  | Read of int
  | Write of int * src
  | Scan of int * int
  | Loop of int * step list
  | Decide of src

type proto = { registers : int; n : int; steps : step list }

(** {1 Reference semantics: compilation to the free monad}

    CPS over the step list, threading the process's "last observation"
    (⊥ until the first read; a scan observes its first component).
    Loops unroll at compile time.  A mid-list [Decide] halts the
    process (the tail is dead code); a step list without [Decide]
    halts without an output. *)

val to_program : proto -> pid:int -> Program.t

(** [config p] is the initial configuration running [to_program p] on
    every process. *)
val config : ?backend:Memory.backend -> proto -> Config.t

(** {1 Bytecode} *)

(** Compiled form: flat instruction array plus the value side table.
    Immutable once {!env} has encoded its inputs, so a [code] can be
    shared read-only across domains. *)
type code

(** The static checks the interpreter performs lazily, done once: at
    least one process, a non-negative register count, every register
    access and scan range in bounds and every loop count non-negative —
    dead loop bodies included.  [Error] names the first offence.
    [Analyze.Ir.parse] accepts such protocols (the analyzer lints
    them); everything that executes one checks here first. *)
val validate : proto -> (unit, string) result

(** Lowers a protocol; raises [Invalid_argument] when {!validate}
    returns [Error]. *)
val compile : proto -> code

(** {1 Execution environment and state}

    An {!env} fixes code and the pre-encoded invocation inputs; a state is a slice of {!state_words} ints inside any
    [int array] the caller owns (an arena).  All engine entry points
    address the slice as [(st, base)]; snapshotting a configuration is
    one [Array.blit]. *)

type env

(** [env c ~inputs] pre-encodes [inputs ~pid ~instance:1] for every
    process: a vm run is one round, and later instances are never
    requested. *)
val env : code -> inputs:(pid:int -> instance:int -> Value.t option) -> env

val proto_env : env -> proto

(** Size of one state slice, in ints. *)
val state_words : env -> int

(** [init e st base] formats [st.(base .. base+state_words-1)] as the
    initial configuration (all registers ⊥, all processes idle). *)
val init : env -> int array -> int -> unit

(** A fresh single-state arena, initialized — convenience for callers
    that run one configuration ({!run}, the bench loops). *)
val make_state : env -> int array

(** {1 Inspection} *)

val runnable : env -> int array -> int -> int -> bool
val quiescent : env -> int array -> int -> bool

(** Footprint of the step [pid] would take next, allocation-free:
    [(reads_off, reads_len, write_reg)], with [-1] for "none".
    Invoke and decide steps are local: [(-1, 0, -1)]. *)
val poised_footprint : env -> int array -> int -> int -> int * int * int

(** True iff [pid]'s next step touches no shared memory (invoke or
    decide) — the DPOR ample-set test. *)
val poised_local : env -> int array -> int -> int -> bool

(** The incrementally-maintained state key: commutative salted sums
    over the register file ([k_mem]), the per-process control state
    ([k_locals]), and the invocation/output records ([k_in]/[k_out]).
    Equal states always produce equal keys — the equivalence suite
    pins determinism and convergence; unequal states collide only with
    hash probability, same as any key. *)
type key = { k_mem : int; k_locals : int; k_in : int; k_out : int }

val key : env -> int array -> int -> key

(** [key_words e st base k] writes {!key}'s four components, in field
    order, to [k.(0..3)] — allocation-free, for the DPOR state cache. *)
val key_words : env -> int array -> int -> int array -> unit

(** One final mix over the four components, computed straight off the
    slice — allocation-free, for per-step use (the bench loops, cache
    probes). *)
val key_hash : env -> int array -> int -> int

(** {1 Stepping} *)

(** [step e st base pid] performs [pid]'s next step in place: invoke if
    idle (raising [Invalid_argument] if no input remains, as
    [Exec.run] does), otherwise the poised instruction.  Transparent
    control instructions (loop bookkeeping) run as part of the step,
    consuming no scheduler steps — the interpreter unrolls loops at
    compile time.  Allocation-free. *)
val step : env -> int array -> int -> int -> unit

(** {1 Driving whole executions} *)

(** Decoded terminal state: memory contents as [Value.t]s, the written
    set and counters (the paper's space/step measures), and the i/o
    records.  [inputs]/[outputs] are in (instance, pid) order — the
    chronological interleaving is not retained; compare them as
    multisets, which is all the property checkers inspect. *)
type final = {
  memory : Value.t array;
  written : int list;
  num_written : int;
  write_count : int;
  read_count : int;
  inputs : (int * int * Value.t) list;
  outputs : (int * int * Value.t) list;
}

val snapshot : env -> int array -> int -> final

(** [(inputs, outputs)] of {!snapshot}, without decoding the rest of
    the slice — all a property check reads. *)
val io :
  env -> int array -> int -> (int * int * Value.t) list * (int * int * Value.t) list

(** Event-free in-place driver mirroring [Exec.run]'s loop (fuel check
    before each scheduler probe): returns steps taken and why it
    stopped. *)
val drive :
  env -> int array -> int -> sched:Schedule.t -> max_steps:int -> int * Exec.stop_reason

type vresult = {
  steps : int;
  stopped : Exec.stop_reason;
  trace : Event.t list;  (** chronological; empty unless [record] *)
  final : final;
}

(** [run ~sched e] drives a fresh state to quiescence or [max_steps]
    (default 1,000,000), mirroring [Exec.run]'s contract. *)
val run :
  ?record:bool -> ?sink:(Event.t -> unit) -> ?max_steps:int -> sched:Schedule.t -> env ->
  vresult

(** {1 Comparing runs} *)

(** An interpreter run as the same summary ([inputs]/[outputs] stay
    chronological). *)
val of_exec : Exec.result -> vresult

(** [diff a b] is the first divergence between two runs, or [None]:
    step count, stop reason, trace (event by event), final memory,
    written set, the three counters, then the invocation and output
    records compared as multisets.  The message names the field.  The
    one run comparison: the engine, backend and determinism
    differentials all use it. *)
val diff : vresult -> vresult -> string option
