(** Bounded model checking: one front door over the naive reference
    engine and the exploration core.

    Configurations are pure values and processes deterministic, so the
    only nondeterminism is the schedule; exploring all schedules up to
    a depth bound covers every reachable configuration prefix.  Each
    frontier configuration is driven to quiescence deterministically
    and the property evaluated there — a proof (up to the bound) rather
    than a sample, with minimal counterexample schedules.

    {!exhaustive} is the reference engine (literal enumeration); {!run}
    additionally dispatches to {!Explore} (partial-order reduction +
    state caching). *)

type stats = Explore.stats = {
  explored : int;    (** nodes visited (interior + frontier) *)
  leaves : int;      (** frontier configurations given a verdict *)
  max_depth : int;
  cache_hits : int;  (** [Dpor] only; 0 for [Naive] *)
  pruned : int;      (** sleep-set prunes; [Dpor] only *)
  refined : int;     (** sleep retentions owed to [~refine:true] alone *)
  memo_hits : int;
      (** leaves answered by the completion memo, with no completion
          run to the end and no [check] call; [Dpor] with the cache
          only *)
  summary_hits : int;
      (** completion bursts answered by a solo-burst summary instead
          of stepped; [Dpor] with the cache only *)
}

type outcome =
  | Ok_bounded of stats
  | Counterexample of {
      schedule : int list;  (** pids, in step order, up to the frontier *)
      error : string;
      config : Shm.Config.t;
      stats : stats;
    }

val pp_outcome : Format.formatter -> outcome -> unit

(** The counterexample (if any) as the stack's common currency, ready
    for {!Counterex.replay} and {!Shrink.minimize}. *)
val counterex_of : outcome -> Counterex.t option

(** [exhaustive ~depth ~inputs ~check config] explores every schedule
    of length ≤ depth, completes each frontier (budget
    [completion_steps], default {!Counterex.completion_steps}), and
    applies [check]; stops at the first violation. *)
val exhaustive :
  depth:int ->
  inputs:(pid:int -> instance:int -> Shm.Value.t option) ->
  ?completion_steps:int ->
  check:(Shm.Config.t -> (unit, string) result) ->
  Shm.Config.t ->
  outcome

(** [cond_independent mem a b]: do the poised ops [a] and [b] of two
    processes, whose footprints collide, still commute to the identical
    configuration from memory [mem]?  Two rules, decided at run time in
    O(1): same-register writes of equal values, and a no-op write
    (re-storing the value the register holds) against a read of that
    register or a scan covering it.  Footprint-dead writes do not
    qualify: unequal unobservable writes still differ in memory.
    [false] means "not proved", never "proved dependent"; probing [mem]
    counts no access. *)
val cond_independent : Shm.Memory.t -> Shm.Program.op -> Shm.Program.op -> bool

(** {1 Engine dispatch} *)

type engine =
  | Naive  (** literal enumeration — the reference semantics *)
  | Dpor of { cache : bool; jobs : int }
      (** the exploration core with optional state caching.  It runs
          on one domain: [jobs] must be 1.  The field remains because
          the end-to-end benchmark ([bench/e2e]) builds this record;
          it goes when that benchmark next changes. *)

val engine_name : engine -> string

val stats_of : outcome -> stats

(** [run ~engine …] checks with the chosen engine; same contract and
    outcome type as {!exhaustive}.  When [metrics] is given, the final
    counters are exported into it ({!Explore.export_metrics}, both
    engines).  The remaining options apply to [Dpor] only: [key]
    selects the state-cache key (default [`Incremental]; [`Full] is the
    full MD5 digest of the canonical form, the audited reference path,
    filed as four 32-bit words — both induce the same partition up to
    hash collision);
    [refine] (default [false]) also lets {!cond_independent} pairs
    join sleep sets (never ample sets); [prof] receives the phase
    breakdown.

    With [Dpor { cache = true; _ }] and [completion_steps > 0],
    the search also memoizes frontier completions
    ({!Counterex.complete_check}): [check] runs only on the leaves the
    memo cannot answer, and a memo-answered leaf counts in
    [stats.memo_hits]; a completion burst answered from the memo's
    solo-burst summaries counts in [stats.summary_hits].  The memo
    never answers a violation, and a violation after a summary is
    re-run without it, so counterexamples and their errors are those
    of a real completion;
    [Naive] and [cache = false] run every completion.

    Raises [Invalid_argument] for [Dpor] on more than
    {!Explore.max_procs} processes or [jobs <> 1]. *)
val run :
  engine:engine ->
  depth:int ->
  ?key:[ `Incremental | `Full ] ->
  inputs:(pid:int -> instance:int -> Shm.Value.t option) ->
  ?completion_steps:int ->
  ?refine:bool ->
  ?metrics:Obs.Metrics.t ->
  ?prof:Obs.Prof.t ->
  check:(Shm.Config.t -> (unit, string) result) ->
  Shm.Config.t ->
  outcome
