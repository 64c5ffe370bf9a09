(** First-order protocol IR and control-flow graphs of program points.

    The step-list language is {!Shm.Vm.proto}, shared with the fuzzer
    and the bytecode engine, so the dataflow analyses and the protocol
    optimizer apply to every generated protocol exactly.

    A {e program point} is one operation occurrence (read, write, scan
    or decide).  Points are numbered in emission order; at run time a
    process poised at its [k]-th operation since invoking sits at a
    point whose unrolled index is [k] — the [Shm.Config.pc] bridge
    between dynamic steps and static points. *)

val step_to_string : Shm.Vm.step -> string

(** One-line replay form, e.g. ["r3 n2 : R0; W1<-in; L2[R1]; D last"]. *)
val to_string : Shm.Vm.proto -> string

(** Inverse of {!to_string} (used by corpus files and [sa_run
    protocol]); errors mention the offending offset. *)
val parse : string -> (Shm.Vm.proto, string) result

(** {1 Control-flow graphs} *)

(** A point's operation — a loop-free projection of {!Shm.Vm.step}. *)
type pop =
  | PRead of int
  | PWrite of int * Shm.Vm.src
  | PScan of int * int
  | PDecide of Shm.Vm.src

type point = {
  op : pop;
  succs : int list;  (** control-flow successors, sorted *)
}

type cfg = {
  points : point array;  (** indexed by point id; entry is point 0 *)
  reachable : bool array;
      (** points reachable from the entry (code after a [Decide] is
          emitted but unreachable) *)
}

(** Flatten a program into its CFG: one point per operation occurrence
    (loop bodies once, with a back edge when the count admits a second
    iteration), [Decide] terminal. *)
val cfg_of_prog : Shm.Vm.proto -> cfg

val pop_to_string : pop -> string
val pp_cfg : Format.formatter -> cfg -> unit
