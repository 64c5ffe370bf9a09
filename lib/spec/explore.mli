(** The exploration core: bounded DPOR over an abstract state
    representation.

    One reduction, written once: local steps form singleton persistent
    (ample) sets; sleep sets are int masks; a state cache keeps at most
    8 (remaining depth, sleep set) entries per key and skips a revisit
    only when some entry had at least the current remaining depth and a
    sleep set contained in the current one; one frontier stack is
    popped [batch] nodes at a time, freshest first, and the first
    violation ends the search.  {!Modelcheck} instantiates it over heap
    configurations and over bytecode-vm arena slots.  Caveats of
    bounded-depth reduction are documented in [docs/EXPLORATION.md]. *)

(** Whether two poised steps may be reordered in the current state:
    [Independent] by footprints, [Refined] only by a conditional
    refinement (counted in [stats.refined]). *)
type commute = Conflict | Independent | Refined

(** Sleep sets are int masks: at most 62 processes. *)
val max_procs : int

(** A state representation.  [env] is one run's read-only context;
    [dom] the search's mutable context (completion memo, arena); [t] a
    node's state, built and read through that [dom]. *)
module type STATE = sig
  type env
  type dom
  type t
  type key

  (** Nodes popped from the frontier at once and processed back to
      back, freshest first. *)
  val batch : int

  val n : env -> int

  (** Called once per search, before the root is built. *)
  val dom : env -> dom

  val root : dom -> t
  val runnable : dom -> t -> int -> bool

  (** The poised step touches no shared memory. *)
  val poised_local : dom -> t -> int -> bool

  (** [commutes d t q p]: may [q]'s and [p]'s poised steps be swapped
      in [t] without changing the resulting state? *)
  val commutes : dom -> t -> int -> int -> commute

  (** Step (or invoke) [pid]; [prof] receives the instance's own
      phases. *)
  val child : dom -> prof:Obs.Prof.t option -> t -> int -> t

  val key : dom -> t -> key

  (** The node is done; its storage may be reused. *)
  val release : dom -> t -> unit

  (** The verdict on the frontier state: complete it, then check it —
      or answer from a completion memo. *)
  val leaf : dom -> t -> (unit, string) result

  (** Leaves {!leaf} has answered from a completion memo (0 for a
      representation without one). *)
  val memo_hits : dom -> int

  (** Completion bursts {!leaf} has answered from a summary (0 for a
      representation without them). *)
  val summary_hits : dom -> int

  (** The reported artifact for a violating schedule (in step order). *)
  val counterexample : env -> int list -> string -> Counterex.t

  (** Emit instance counter tracks at a sampling point. *)
  val sample : Obs.Trace.t -> dom -> t -> unit
end

type stats = {
  explored : int;    (** nodes visited (interior + frontier) *)
  leaves : int;      (** frontier states given a verdict by [STATE.leaf] *)
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

(** Phase brackets for [STATE.child]: [start prof] is a clock mark
    (0 when not profiling); [lap prof phase t0] charges the time since
    [t0] to [phase] and returns a new mark.  Allocation-free. *)
val start : Obs.Prof.t option -> int

val lap : Obs.Prof.t option -> Obs.Prof.phase -> int -> int

module Make (S : STATE) : sig
  (** [explore ~depth ~cache env] explores one representative
      schedule per equivalence class up to [depth] steps, depth first,
      and returns the counters plus the first violation found.  An
      exception raised by a [STATE] function ends the search and
      propagates.

      Observability (off by default, zero-cost when absent): [metrics]
      receives {!export_metrics}; [prof] the phase breakdown; an
      {!Obs.Trace} collector attached at the call receives the
      [explore] span (closed before an exception propagates), a
      [violation] instant and, every 64 nodes, the exploration series:
      counter tracks [nodes], [frontier], [cache hits] and [sleep hits]
      (one timestamp per sample) beside {!STATE.sample}'s.

      Raises [Invalid_argument] on a negative depth or more than
      {!max_procs} processes. *)
  val explore :
    depth:int ->
    cache:bool ->
    ?metrics:Obs.Metrics.t ->
    ?prof:Obs.Prof.t ->
    S.env ->
    stats * Counterex.t option
end
