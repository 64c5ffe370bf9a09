(** High-level run helpers: one call from parameters to a finished
    execution, for tests, examples and the bench harness. *)

(** Default inputs: pid+1 in instance 1, 100·instance + pid later, so
    instances have disjoint input domains. *)
val default_input : pid:int -> instance:int -> Shm.Value.t

(** Run the one-shot algorithm (Figure 3).  Defaults: atomic snapshot,
    round-robin schedule, inputs pid+1, 200k step budget.  [sink]
    observes every event as it happens and [record] keeps the in-memory
    trace, both as in {!Shm.Exec.run}. *)
val run_oneshot :
  ?record:bool ->
  ?impl:Instances.impl ->
  ?r:int ->
  ?sched:Shm.Schedule.t ->
  ?sink:(Shm.Event.t -> unit) ->
  ?max_steps:int ->
  ?inputs:Shm.Value.t array ->
  Params.t ->
  Shm.Exec.result

(** Run the repeated algorithm (Figure 4) for [rounds] instances. *)
val run_repeated :
  ?impl:Instances.impl ->
  ?sched:Shm.Schedule.t ->
  ?sink:(Shm.Event.t -> unit) ->
  ?max_steps:int ->
  ?rounds:int ->
  ?input_fn:(int -> int -> Shm.Value.t) ->
  Params.t ->
  Shm.Exec.result

(** Run the DFGR'13 baseline over an atomic snapshot, process pid
    proposing pid+1.  Defaults: round-robin schedule, 200k step
    budget. *)
val run_baseline :
  ?sched:Shm.Schedule.t ->
  ?max_steps:int ->
  Params.t ->
  Shm.Exec.result

(** Run the anonymous repeated algorithm (Figure 5). *)
val run_anonymous :
  ?r:int ->
  ?anonymous_collect:bool ->
  ?seed:int ->
  ?sched:Shm.Schedule.t ->
  ?sink:(Shm.Event.t -> unit) ->
  ?max_steps:int ->
  ?rounds:int ->
  ?input_fn:(int -> int -> Shm.Value.t) ->
  Params.t ->
  Shm.Exec.result

(** {1 First-order protocols, either engine}

    A first-order protocol ({!Shm.Vm.proto} — the language shared by
    the fuzzer and the analyzer) runs under two engines: the
    free-monad interpreter (the reference) and the bytecode vm
    ({!Shm.Vm}).  {!run_proto} drives either under the same schedule
    and inputs and returns the engine-neutral summary, so callers —
    the bench harness, [sa_run protocol --engine] — switch engines without
    changing anything else; {!Shm.Vm.diff} compares two results. *)

type engine = Interp | Vm

val engine_name : engine -> string

(** ["interp"]/["interpreter"] or ["vm"]/["bytecode"]. *)
val engine_of_string : string -> engine option

(** One invocation per process with {!default_input}, none after —
    the fuzzer's input space, so [sa_run protocol] and the
    fuzz oracles judge the same runs. *)
val proto_inputs : pid:int -> instance:int -> Shm.Value.t option

(** [run_proto p] runs [p] to quiescence (or [max_steps], default
    200k) under [engine] (default [Interp]) with {!proto_inputs}.
    Default schedule: round-robin.  [backend] selects the interpreter's
    memory representation (the vm's state is always flat). *)
val run_proto :
  ?engine:engine ->
  ?backend:Shm.Memory.backend ->
  ?record:bool ->
  ?sched:Shm.Schedule.t ->
  ?max_steps:int ->
  Shm.Vm.proto ->
  Shm.Vm.vresult

(** Outputs of one instance, with multiplicity, in completion order. *)
val outputs_of_instance : Shm.Exec.result -> instance:int -> Shm.Value.t list

(** Registers actually written during the run — the space measure. *)
val registers_used : Shm.Exec.result -> int
