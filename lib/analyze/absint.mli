(** Abstract interpretation of {!Shm.Program.t} — footprints without a
    scheduler.

    The interpreter drives every process of a configuration through the
    abstract-step hooks of {!Shm.Program}, fabricating operation
    results from a shared collecting memory ({!Absdom}): reads branch
    over the register's collected value set, scans branch over
    representative views, branches are joined by accumulating into the
    same summary, and loops are widened by a configurable depth bound.
    Processes are re-explored in rounds until the collecting memory and
    the footprints reach a joint fixpoint (or the pass budget runs
    out), so values written by one process flow into the views of every
    other — the abstraction of an arbitrary interleaving.

    The result is a {b sound over-approximation of the reachable
    read/write footprint up to the analysis bounds}: every register
    some execution within the widening depth touches is in the
    footprint.  docs/ANALYSIS.md states the argument and its
    bounded-depth caveat precisely. *)

module IntSet : Set.S with type elt = int and type t = Set.Make(Int).t

(** A chronological path to an event of interest: one line per step,
    e.g. ["p0: invoke 1"; "p0: write R0 := (1,0)"]. *)
type witness = string list

(** An explored path, kept unrendered; {!write_witness} renders it. *)
type path

type budgets = {
  max_depth : int;  (** ops along one explored path (the widening bound) *)
  max_forks : int;  (** choice points allowed to branch per path *)
  branch_width : int;  (** alternatives explored per branching choice *)
  exhaustive_cap : int;
      (** scans enumerate the full view product when it has at most
          this many views (and [branch_width] allows them) *)
  max_steps_per_pass : int;  (** interpreted ops per process per pass *)
  max_passes : int;  (** joint fixpoint rounds *)
  set_cap : int;  (** per-register value-set widening cap *)
}

(** Bounds scaled to the instance: depth covers a full solo completion
    of every algorithm in the registry (about [8·registers + 8·n²] ops,
    see docs/ANALYSIS.md), narrow branching otherwise. *)
val budgets_for : registers:int -> n:int -> budgets

(** [exhaustive ~registers ~n] — wide budgets under which the analysis
    of small loop-free programs is exact (the property-test regime:
    every read and every scan view is enumerated, forks unbounded for
    practical purposes). *)
val exhaustive : registers:int -> n:int -> budgets

type process_summary = {
  pid : int;
  reads : IntSet.t;  (** registers some explored path reads or scans *)
  writes : IntSet.t;  (** registers some explored path writes *)
  write_witness : (int * path) list;
      (** first path per written register, one entry each *)
  oob : (string * witness) list;
      (** accesses outside [0, registers): offending op and path *)
  write_after_decide : witness option;
      (** first write between a Yield and the next Await/Stop *)
  yields : int;  (** Yield heads seen across all explored paths *)
  halted : bool;  (** some path reached Stop *)
  truncated : bool;  (** some path hit the depth or step budget *)
  aborted : (string * witness) list;
      (** paths killed by an exception from the program's own code
          (abstract views can violate decode invariants no single
          execution breaks) — informational, not an error *)
}

type summary = {
  registers : int;  (** allocated registers of the configuration *)
  per_process : process_summary array;
  reads : IntSet.t;  (** union over processes *)
  writes : IntSet.t;  (** union over processes *)
  dead : IntSet.t;  (** allocated but in no process's write footprint *)
  converged : bool;  (** joint fixpoint reached within [max_passes] *)
  widened : bool;  (** some register hit the value-set cap *)
  passes : int;
  steps : int;  (** total interpreted ops *)
  lookups : int;  (** read and scan alternatives asked of the domain *)
  recomputes : int;  (** lookups the domain's cache could not answer *)
}

(** [analyze config] explores every process of [config].  [inputs]
    lists the possible invocation inputs per (pid, instance) — default
    the singleton {!Agreement.Runner.default_input} — and [rounds]
    (default 1) bounds invocations per process. *)
val analyze :
  ?budgets:budgets ->
  ?inputs:(pid:int -> instance:int -> Shm.Value.t list) ->
  ?rounds:int ->
  Shm.Config.t ->
  summary

(** Witness path for a write to register [r], if any process has one:
    the first such path of the lowest such pid, rendered on each call. *)
val write_witness : summary -> int -> witness option

val pp_witness : Format.formatter -> witness -> unit
