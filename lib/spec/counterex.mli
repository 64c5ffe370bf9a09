(** The common counterexample type of the exploration stack.

    Every engine that can exhibit a safety violation — {!Modelcheck}
    (naive exhaustive and the {!Explore} core) and {!Stress} — reports
    it as this one type, so the shrinker ({!Shrink}) and the CLI
    reproduce and minimize violations from any source the same way.
    Processes are deterministic, so the pid schedule alone pins down
    the whole execution.  The frontier-completion rule every engine and
    [replay] share is here too, with its constants ({!quantum},
    {!completion_steps}), its vm form ({!complete_vm}) and its memoized
    form for the DPOR engine ({!complete_check}). *)

type t = {
  schedule : int list;  (** pids, in step order *)
  error : string;       (** what the property checker reported *)
  config : Shm.Config.t;  (** the configuration the checker rejected *)
}

val pp : Format.formatter -> t -> unit

(** [step_pid ~inputs config pid] is {!Shm.Config.advance} (the
    stepping rule every engine shares) when [pid] is runnable, and
    [config] unchanged for halted and input-starved processes. *)
val step_pid :
  inputs:(pid:int -> instance:int -> Shm.Value.t option) ->
  Shm.Config.t ->
  int ->
  Shm.Config.t

(** [run_schedule ~inputs config pids] folds {!step_pid} over the pids
    in [0..n-1], skipping the rest: the one re-execution of a schedule
    (counterexamples, stolen DPOR nodes, {!replay}). *)
val run_schedule :
  inputs:(pid:int -> instance:int -> Shm.Value.t option) ->
  Shm.Config.t ->
  int list ->
  Shm.Config.t

(** {1 The completion rule} *)

(** The rule's quantum (2000) and default budget in steps (50,000). *)
val quantum : int

val completion_steps : int

(** Drive a configuration to quiescence deterministically — the
    frontier-completion rule of the model checkers: quantum round-robin
    with {!quantum} from pid 0 ({!Shm.Schedule.quantum_pick}), for at
    most [max_steps] steps.  Returns the final configuration and the
    steps taken. *)
val complete :
  inputs:(pid:int -> instance:int -> Shm.Value.t option) ->
  max_steps:int ->
  Shm.Config.t ->
  Shm.Config.t * int

(** {!complete} in place over the vm state at [base]: the vm engine's
    leaf completion.  Returns the steps taken. *)
val complete_vm : Shm.Vm.env -> int array -> int -> max_steps:int -> int

(** {1 Memoized completion} *)

(** A completion memo: a direct-mapped table from ({!Statehash.inert_key},
    cursor) at the first step of a burst to the steps the completion
    from there took to end [Ok].  Flat (6 ints per slot), it starts
    small and doubles up to 2{^16} slots.  Beside it, and on whenever
    it is, a table of solo-burst summaries keyed by (pid, the pid's
    {!Statehash.observation}, its instance, the memory sum), holding
    each burst's {!Shm.Config.patch}, length and change to the inert
    key; it starts and grows the same way.  Mutable and
    unsynchronized: one per domain. *)
type memo

val memo : unit -> memo

(** Lookups answered so far. *)
val memo_hits : memo -> int

(** Entries stored (occupied slots). *)
val memo_entries : memo -> int

(** Bursts answered from a summary so far. *)
val summary_hits : memo -> int

(** [complete_check ?memo ~inputs ~max_steps ~check config] is
    [check (complete ~inputs ~max_steps config)].  With
    [memo = (m, hash)], where [hash] is [config]'s {!Statehash.t}, it
    looks up [m] at the first step of every burst after the first, for
    as long as every process that has stepped is inert (so the key is
    defined); the first burst, at [config] itself, is neither looked up
    nor stored, since a leaf's own key almost never recurs.  A hit
    whose stored length fits the remaining budget is [Ok] with no
    further stepping and no [check] call.  A run that ends [Ok] without
    running out of fuel stores every key it looked up; a violation or a
    run out of fuel stores nothing.

    At the first burst, and after a memo miss at a later one, the burst
    is looked up among the summaries.  A summary that fits the
    remaining budget stands in for the burst: its
    steps are counted, its pid is treated as inert, the inert key moves
    by the stored change, and its patch is applied only when the
    configuration is needed (before a real step, at quiescence for
    [check], or at fuel), so the configuration [check] sees equals the
    stepped one.  A miss steps the burst and stores its summary if it
    ends with its pid inert inside one quantum and the budget.  A run
    that used a summary and fails [check] is re-run without the memo
    and reports that run's verdict, so every [Error] comes from a real
    completion and [check].

    Sound under the state cache's contract ([check] depends only on
    memory, instance counts and the i/o records as multisets) plus four
    facts: an inert process never steps again, so its local state is
    invisible to the rest of the run; a burst start is a memoryless
    scheduler state; a solo burst depends only on its process's local
    state and instance, the memory and that process's inputs; only
    quiesced [Ok] results that fit the budget and bursts that end inert
    are stored (see [docs/EXPLORATION.md]). *)
val complete_check :
  ?memo:memo * Statehash.t ->
  inputs:(pid:int -> instance:int -> Shm.Value.t option) ->
  max_steps:int ->
  check:(Shm.Config.t -> (unit, string) result) ->
  Shm.Config.t ->
  (unit, string) result

(** [replay ?completion_steps ~inputs ~check config schedule] re-runs
    the schedule from [config] with {!run_schedule} (skipping pids out
    of range or not runnable when their turn comes), completes when
    [completion_steps] is given, and re-checks.  [Some (error, final)]
    iff the property still fails. *)
val replay :
  ?completion_steps:int ->
  inputs:(pid:int -> instance:int -> Shm.Value.t option) ->
  check:(Shm.Config.t -> (unit, string) result) ->
  Shm.Config.t ->
  int list ->
  (string * Shm.Config.t) option
