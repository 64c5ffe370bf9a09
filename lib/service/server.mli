(** The serving facade: route, admit, decide, reply.

    A server owns [shards] independent repeated-agreement instance
    spaces.  Clients submit [(key, command)] pairs; the key routes to a
    shard ({!Sharding}), the command joins that shard's next batch, one
    agreement slot decides the batch, and the ticket resolves with the
    application's reply.  Total shared-memory cost:
    [shards × min(n+2m−k, n)] registers, independent of how many
    commands are ever served.

    The caller drives progress with {!pump} on its own domain, so a
    seeded run is fully deterministic. *)

type t

(** [create ~shards params] builds an idle server whose shards are
    built as in {!Shard.create}.  Defaults: batches of ≤ 16 commands
    per slot, a 64-command in-flight window per shard, the register
    app, history recording on.  Raises
    [Invalid_argument] if [shards <= 0], [batch_max <= 0] or
    [window < batch_max].

    [seed] has no effect, and [domains] must be [0] (anything else
    raises [Invalid_argument]); both remain only for callers written
    against the earlier worker-pool API. *)
val create :
  ?batch_max:int ->
  ?window:int ->
  ?max_steps_per_slot:int ->
  ?history:bool ->
  ?app:App.t ->
  ?seed:int ->
  ?domains:int ->
  shards:int ->
  Agreement.Params.t ->
  t

val app_name : t -> string

(** Submit without blocking; [None] when the target shard's window is
    full (backpressure). *)
val try_submit : t -> key:Shm.Value.t -> ?tag:int -> Shm.Value.t -> Session.ticket option

(** Decide one slot on every shard with queued commands; returns the
    tickets resolved, in shard order then batch order ([[]] when
    nothing was queued).  A shard whose slot gets stuck fails and
    returns its whole queue too, as in {!Shard.run_slot}. *)
val pump : t -> Session.ticket list

(** {!pump} until no shard decides anything. *)
val drain : t -> unit

(** Fail-stop replica [pid] of one shard from its next slot on;
    [false] if it was already dead or the last one standing. *)
val crash_replica : t -> shard:int -> pid:int -> bool

val stats : t -> Shard.stats list
val shard : t -> int -> Shard.t

(** Registers written across all shards — the space bill of the whole
    service. *)
val registers_used : t -> int

(** Grade every shard with the conformance oracles: validity +
    k-agreement of the layer below always; register linearizability of
    the recorded command history when the app is the register, over
    each shard's first 400 commands (the Wing–Gong search is
    exponential in overlap). *)
val verdict : t -> (unit, string list) result
