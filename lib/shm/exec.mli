(** The execution runner: drives a configuration under a scheduler.

    Invocation policy: when the scheduler picks an idle process, the
    runner invokes that process's next operation using [inputs] — a
    pure function from (pid, instance) to the input value, or [None]
    when the process has no further operations. *)

type stop_reason =
  | All_quiescent   (** no process is runnable: every live process finished *)
  | Fuel_exhausted  (** [max_steps] reached with runnable processes left *)

type result = {
  config : Config.t;
  steps : int;
  stopped : stop_reason;
  trace : Event.t list;  (** chronological; empty unless [record] *)
}

(** [run ~sched ~inputs config] drives [config] until quiescence or
    [max_steps] (default 1,000,000).  With [record:true] the full event
    trace is kept.  [sink] is called on every event as it happens, so
    observers run in O(1) memory however long the schedule (e.g.
    {!Analysis.feed}, or [Obs.Jsonl.sink_to_channel]; several observers
    compose as one closure calling each).
    [probe] additionally sees the step index and the configuration
    {e after} the event — the hook coverage timelines use
    ([Obs.Coverage.probe]); absent, it costs nothing per step. *)
val run :
  ?record:bool ->
  ?sink:(Event.t -> unit) ->
  ?probe:(step:int -> Event.t -> Config.t -> unit) ->
  ?max_steps:int ->
  sched:Schedule.t ->
  inputs:(pid:int -> instance:int -> Value.t option) ->
  Config.t ->
  result

(** {1 Convenience input functions} *)

(** One-shot: process [pid] proposes [values.(pid)] exactly once. *)
val oneshot_inputs : Value.t array -> pid:int -> instance:int -> Value.t option

(** Repeated: [rounds] instances; instance [i] of [pid] proposes
    [f pid i]. *)
val repeated_inputs :
  rounds:int -> (int -> int -> Value.t) -> pid:int -> instance:int -> Value.t option

val pp_trace : Format.formatter -> Event.t list -> unit
