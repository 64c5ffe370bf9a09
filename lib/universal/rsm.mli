(** A universal construction: replicated state machines from repeated
    agreement — the application the paper's introduction motivates
    (Herlihy [8]).  With k = 1 every replica applies the same command
    sequence; with k > 1 the construction degrades gracefully into a
    k-branching machine (see {!Ledger}).  The agreement layer's space
    cost is min(n+2m−k, n) registers total, independent of the number
    of commands executed. *)

type 'state machine = {
  init : 'state;
  apply : 'state -> Shm.Value.t -> 'state;  (** apply one committed command *)
}

type 'state replica = {
  pid : int;
  log : Shm.Value.t list;  (** commands this replica learned, slot order *)
  state : 'state;          (** [init] folded over [log] *)
}

type 'state run = {
  replicas : 'state replica list;
  steps : int;
  registers : int;   (** registers the agreement layer wrote *)
  quiescent : bool;
}

(** [replicate params machine ~commands ~slots] runs [slots] instances
    of repeated agreement over the space-optimal snapshot choice;
    process [pid] proposes [commands pid slot] and applies what was
    decided.  Default schedule: solo bursts (guaranteed termination). *)
val replicate :
  ?sched:Shm.Schedule.t ->
  ?max_steps:int ->
  Agreement.Params.t ->
  'state machine ->
  commands:(int -> int -> Shm.Value.t) ->
  slots:int ->
  'state run

(** Incremental slot-at-a-time stepping: a persistent handle on a
    repeated (Figure 4) configuration that advances one agreement
    instance per call.  This is the serving layer's engine
    ({!Service.Shard}): the instance space is unbounded in time but the
    register footprint stays min(n+2m−k, n) — {!Stepper.registers_used}
    is constant across slots.

    Time per slot is flat too, apart from one O(t) term per decision:
    a slot costs its simulator steps, each independent of the slot
    number t, plus, for every process that decides, the append of its
    t-th output to the history that Figure 4 stores in its entries
    (and the interning of that longer history).  The slot's decisions
    are collected from the run's events, not from the outputs of all
    earlier slots. *)
module Stepper : sig
  type t

  (** One slot's result: the advanced stepper, the slot's decisions as
      [(pid, decided)] pairs in completion order, and whether the run
      quiesced ([false] means the per-slot step budget ran out with
      proposers still undecided — the slot must be treated as stuck). *)
  type outcome = {
    stepper : t;
    decisions : (int * Shm.Value.t) list;
    quiescent : bool;
  }

  (** [create params] builds a fresh repeated-agreement instance space.
      Defaults: the space-optimal snapshot choice, the default memory
      backend, a 2M-step budget per slot. *)
  val create :
    ?impl:Agreement.Instances.impl ->
    ?backend:Shm.Memory.backend ->
    ?max_steps_per_slot:int ->
    Agreement.Params.t ->
    t

  (** Slots decided so far; the next [step_slot] runs instance
      [slot t + 1]. *)
  val slot : t -> int

  (** The underlying configuration (for conformance checking). *)
  val config : t -> Shm.Config.t

  (** Simulator steps consumed across all slots so far. *)
  val steps : t -> int

  (** Registers the agreement layer has written — the space measure;
      stays ≤ min(n+2m−k, n) no matter how many slots have run. *)
  val registers_used : t -> int

  (** [step_slot t ~proposals] runs one more agreement instance.
      [proposals pid] is the value pid proposes for this slot, or
      [None] to sit the slot out (a crashed or idle replica — pair
      with a schedule over the live pids so the run can quiesce).
      Default schedule: solo bursts over all n processes. *)
  val step_slot :
    ?sched:Shm.Schedule.t -> t -> proposals:(int -> Shm.Value.t option) -> outcome
end

(** The common log when all replicas agree (always, under k = 1);
    [None] if replicas diverged. *)
val agreement_log : 'state run -> Shm.Value.t list option
