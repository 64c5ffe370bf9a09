(** Conditional independence of shared-memory steps, and the [flow/*]
    lint rules.

    Refines {!Spec.Explore}'s footprint-disjointness relation with pairs
    that commute {e in the current state} although their footprints
    collide: same-register writes of equal values, and no-op writes
    (re-storing the value the register already holds) against reads or
    scans of that register.  Every accepted pair is justified by state
    identity — both orders yield the same configuration — which is the
    soundness condition for the sleep-set filter and exactly what the
    QCheck commutation property checks.  Dead-register writes do {e
    not} qualify (unequal unobservable writes still differ in memory);
    they feed {!lint} and {!Optim} instead.

    docs/ANALYSIS.md §"Dataflow and independence" states the argument
    and its caveats. *)

(** Static certificates derived by the dataflow engine. *)
type facts = {
  const_regs : (int * Shm.Value.t) list;
      (** registers whose every write stores this one value *)
  dead_regs : int list;
      (** written but never read — lint/optimizer only, never the
          independence relation *)
  redundant : int list;
      (** read/scan points whose observation is never consumed *)
  widened : bool;  (** value analysis hit a cap; value claims dropped *)
}

(** No certificates; the conditional (state-probing) rules still apply. *)
val empty : facts

val of_dataflow : Dataflow.t -> facts
val of_prog : ?inputs:Shm.Value.t list -> Shm.Vm.proto -> facts

(** Facts for an arbitrary free-monad configuration, from the abstract
    footprint ({!Absint}) and the lowered point trees ({!Ir.lower});
    claims are dropped (and [widened] set) when either analysis
    truncates. *)
val of_config : Shm.Config.t -> facts

(** [refine ~mem a b]: do the poised ops [a] and [b] (of different
    processes) commute to the identical configuration in the state
    whose memory is [mem]?  [false] means "not proved", never "proved
    dependent".  O(1); probing [mem] is side-effect free. *)
type refinement = mem:Shm.Memory.t -> Shm.Program.op -> Shm.Program.op -> bool

val refinement : ?facts:facts -> unit -> refinement

(** The [flow/dead-register-write] (warning), [flow/redundant-scan]
    (warning) and [flow/constant-register] (info) diagnostics, each
    with a shortest entry path as witness. *)
val lint : Dataflow.t -> Lint.diag list

val pp_facts : Format.formatter -> facts -> unit
