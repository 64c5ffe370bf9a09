(** The exploration core: bounded DPOR over heap configurations.

    One reduction: local steps form singleton persistent (ample) sets;
    sleep sets are int masks; a state cache ({!Cache}) keeps at most 8
    (remaining depth, sleep set) entries per {!Statehash} key and skips
    a revisit only when some entry had at least the current remaining
    depth and a sleep set contained in the current one; one frontier
    stack is popped freshest first, and the first violation ends the
    search.  {!Modelcheck.run} is the front door.  Caveats of
    bounded-depth reduction are documented in [docs/EXPLORATION.md]. *)

(** Sleep sets are int masks: at most 62 processes. *)
val max_procs : int

(** The state cache: one flat int-array table from four-word keys to
    capped lists of (remaining depth, sleep set) entries, found through
    an index of tagged key ids.  It never
    evicts a key, so its hit decisions are those of an unbounded map. *)
module Cache : sig
  type t

  (** [create slots]: room for [slots] keys and entries (a power of
      two) before the first doubling. *)
  val create : int -> t

  (** [covered t k0 k1 k2 k3 ~remaining ~sleep] looks the visit up
      under the key (k0, k1, k2, k3): [true] iff some entry has at
      least [remaining] and a sleep mask inside [sleep].  On [false] it
      files the visit first in the key's list and keeps the newest 8. *)
  val covered : t -> int -> int -> int -> int -> remaining:int -> sleep:int -> bool

  (** The key's tag: 31 bits of its hash, kept in the index beside the
      key id.  A key's probe chain starts at the tag's low bits. *)
  val tag : int -> int -> int -> int -> int
end

type stats = {
  explored : int;    (** nodes visited (interior + frontier) *)
  leaves : int;      (** frontier states given a verdict *)
  max_depth : int;
  cache_hits : int;  (** nodes short-circuited by the state cache *)
  pruned : int;      (** branches pruned by sleep sets *)
  refined : int;     (** sleep retentions owed to a refinement alone *)
  memo_hits : int;   (** leaves answered by a completion memo, unchecked *)
  summary_hits : int;  (** completion bursts answered by a summary, unstepped *)
}

(** [explore.nodes], [.leaves], [.cache_hits], [.sleep_pruned],
    [.refined], [.completion_memo_hits] and
    [.completion_summary_hits] counters. *)
val export_metrics : Obs.Metrics.t -> stats -> unit

(** The refinement behind [Modelcheck.run ~refine:true]; documented
    as {!Modelcheck.cond_independent}. *)
val cond_independent : Shm.Memory.t -> Shm.Program.op -> Shm.Program.op -> bool

(** [explore ~depth ~cache ~key ~refine ~inputs ~completion_steps
    ~prof ~check config] explores one representative schedule per
    equivalence class up to [depth] steps, depth first, completes each
    frontier configuration (budget [completion_steps]) and applies
    [check]; it returns the counters plus the first violation found,
    re-executed from [config] and completed.  The options are those of
    {!Modelcheck.run}: [cache] turns on the state cache and, with a
    completion budget, the completion memo; [key] picks the cache key;
    [refine] lets {!cond_independent} pairs join sleep sets; [prof]
    receives the phase breakdown.  An exception raised by [check] or
    [inputs] ends the search and propagates.

    An {!Obs.Trace} collector attached at the call receives the
    [explore] span (closed before an exception propagates), a
    [violation] instant and, every 64 nodes, the exploration series:
    the register-coverage counter tracks, then [nodes], [frontier],
    [cache hits] and [sleep hits] (one timestamp per sample).

    Raises [Invalid_argument] on a negative depth or more than
    {!max_procs} processes. *)
val explore :
  depth:int ->
  cache:bool ->
  key:[ `Incremental | `Full ] ->
  refine:bool ->
  inputs:(pid:int -> instance:int -> Shm.Value.t option) ->
  completion_steps:int ->
  prof:Obs.Prof.t option ->
  check:(Shm.Config.t -> (unit, string) result) ->
  Shm.Config.t ->
  stats * Counterex.t option
