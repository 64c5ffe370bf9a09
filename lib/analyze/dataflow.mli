(** Classic dataflow analyses over the protocol CFG ({!Ir.cfg}).

    One run covers all [n] processes of a symmetric protocol: the
    per-register collecting store (an {!Absdom}, shared with the
    abstract interpreter) is fed by the CFG's writes under every
    process's input, so its value sets over-approximate every
    interleaving.  Forward: per-point [last] value sets (joint fixpoint
    with the store), sharpened by a must-self-written pass that lets a
    read drop ⊥.  Backward: [last]-liveness.

    Value-set facts ({!const_regs}, {!folded_value}) are sound only
    when {!field-widened} is false; syntactic facts ([last]-liveness,
    read/write sets, {!dead_regs}, {!redundant_points}) are exact on
    the CFG regardless.  docs/ANALYSIS.md §"Dataflow and independence"
    states the arguments. *)

module IntSet = Absint.IntSet

(** A small set of concrete values with a widening cap; [capped] means
    membership is incomplete. *)
type vset = { vals : Shm.Value.t list; capped : bool }

type t = {
  prog : Shm.Vm.proto;
  cfg : Ir.cfg;
  inputs : Shm.Value.t list;  (** possible invocation inputs, all pids *)
  reg_values : Shm.Value.t list array;
      (** collected per-register value sets, ⊥ first *)
  read_regs : IntSet.t;  (** registers some reachable point reads or scans *)
  write_regs : IntSet.t;  (** registers some reachable point writes *)
  last_in : vset array;  (** per point: possible [last] values on entry *)
  may_write_bot : bool array;  (** per register: some write may store ⊥ *)
  last_live_out : bool array;
      (** per point: the current [last] may still be consumed *)
  widened : bool;  (** some value set hit its cap — value facts degrade *)
  passes : int;
}

(** [analyze prog] runs all analyses to fixpoint, with
    {!Agreement.Runner.default_input} for every pid at instance 1 as
    the inputs — the model under which generated protocols execute. *)
val analyze : Shm.Vm.proto -> t

(** {1 Derived facts} *)

(** Registers whose every write provably stores one same value (and
    that value).  Empty when {!field-widened}. *)
val const_regs : t -> (int * Shm.Value.t) list

(** Registers written by some process but read or scanned by none —
    their writes are unobservable. *)
val dead_regs : t -> int list

(** Reachable read/scan points whose observation is never consumed
    (plus zero-length scans), in point order. *)
val redundant_points : t -> int list

(** At a [W<-last] or [D last] point: the provably-unique value it
    stores, if the analysis can name it.  [None] when {!field-widened}. *)
val folded_value : t -> int -> Shm.Value.t option

val pp : Format.formatter -> t -> unit

(** The derived facts on three lines: {!const_regs}, {!dead_regs},
    {!redundant_points}, and whether the analysis widened. *)
val pp_facts : Format.formatter -> t -> unit
