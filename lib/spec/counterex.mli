(** The common counterexample type of the exploration stack.

    Every engine that can exhibit a safety violation — {!Modelcheck}
    (naive exhaustive and the {!Explore} core) and {!Stress} — reports
    it as this one type, so the shrinker ({!Shrink}) and the CLI
    reproduce and minimize violations from any source the same way.
    Processes are deterministic, so the pid schedule alone pins down
    the whole execution. *)

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

(** Drive a configuration to quiescence deterministically (long solo
    bursts) — the frontier-completion rule of the model checkers. *)
val complete :
  inputs:(pid:int -> instance:int -> Shm.Value.t option) ->
  max_steps:int ->
  Shm.Config.t ->
  Shm.Config.t

(** [replay ?completion_steps ~inputs ~check config schedule] re-runs
    the schedule from [config] under {!Shm.Schedule.replay} (skipping
    pids that are not runnable when their turn comes), completes when
    [completion_steps] is given, and re-checks.  [Some (error, final)]
    iff the property still fails. *)
val replay :
  ?completion_steps:int ->
  inputs:(pid:int -> instance:int -> Shm.Value.t option) ->
  check:(Shm.Config.t -> (unit, string) result) ->
  Shm.Config.t ->
  int list ->
  (string * Shm.Config.t) option
