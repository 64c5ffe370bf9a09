(** One shard: a bounded command queue in front of one
    repeated-agreement instance space ({!Universal.Rsm.Stepper}).

    Each call to {!run_slot} drains up to [batch_max] queued commands,
    packs them into one {!Batch} proposal, decides one agreement slot
    with every live replica proposing that batch, applies the committed
    commands to the application state, and resolves their tickets.
    [window] bounds in-flight commands: {!try_admit} refuses above it —
    the shard's backpressure.

    A shard lives on one domain: the caller admits commands and steps
    it (through {!Server.pump}), and every call below runs there. *)

type t

type stats = {
  shard : int;
  slots : int;       (** agreement slots decided *)
  committed : int;   (** commands committed *)
  steps : int;       (** simulator steps across all slots *)
  registers : int;   (** registers written — stays ≤ min(n+2m−k, n) *)
  alive : int;       (** live replicas *)
  pending : int;     (** in-flight commands *)
  stuck : bool;
}

(** [create ~id ~batch_max ~window params ~app ()] builds an idle
    shard over the space-optimal snapshot choice, scheduling each slot
    as 800-step solo bursts.  Defaults: 2M steps per slot, history
    recording on.  Raises [Invalid_argument] if [batch_max <= 0] or
    [window < batch_max]. *)
val create :
  ?max_steps_per_slot:int ->
  ?history:bool ->
  id:int ->
  batch_max:int ->
  window:int ->
  Agreement.Params.t ->
  app:App.t ->
  unit ->
  t

val id : t -> int

(** Admit a ticket unless the in-flight window is full or the shard is
    stuck. *)
val try_admit : t -> Session.ticket -> bool

(** In-flight commands right now. *)
val pending : t -> int

(** Fail-stop a replica from the next slot on: it no longer proposes
    and is never scheduled again.  Refuses (returns [false]) to crash
    the last live replica. *)
val crash_replica : t -> int -> bool

(** Decide one slot over whatever is queued (up to [batch_max]
    commands) and return the tickets it resolved, in batch order; [[]]
    if the queue was empty or the shard is stuck.  A slot that runs out
    of steps or decides a non-batch value makes the shard stuck: its
    batch and every ticket still queued behind it resolve [Failed], and
    all of them are returned, the batch first, then the rest in queue
    order. *)
val run_slot : t -> Session.ticket list

val stats : t -> stats
val is_stuck : t -> bool

(** The underlying configuration, for
    {!Conform.Rsm_history.check_agreement}. *)
val config : t -> Shm.Config.t

(** Application state after every committed command. *)
val app_state : t -> Shm.Value.t

(** Committed commands, oldest first. *)
val log : t -> Shm.Value.t list

(** Per-command records (when history recording is on), oldest first —
    feed {!Conform.Rsm_history.check_register}. *)
val history : t -> Conform.Rsm_history.record list

val records_history : t -> bool
