(** Process programs as a free monad over shared-memory operations.

    A process is a pure value of type {!t}: the head constructor is the
    step the process is poised to perform, and continuations produce
    the rest of the program.  This representation gives the model the
    three properties the paper's proofs need:

    - determinism: the next step is a function of the local state;
    - clonability: configurations are persistent values, so the
      Theorem 2 adversary can branch executions and splice fragments;
    - poised-step inspection: "process q is poised to write register R"
      (the covering argument) is a pattern match on the head. *)

type op =
  | Read of int                 (** read one register *)
  | Write of int * Value.t      (** write one register *)
  | Scan of int * int           (** atomic scan: offset, length *)

type res =
  | RUnit
  | RVal of Value.t
  | RVec of Value.t array

type t =
  | Stop                        (** halted: takes no more steps *)
  | Op of op * (res -> t)       (** poised at a shared-memory step *)
  | Yield of Value.t * t
      (** respond to the current operation with an output value — step
          kind (4) of the paper's model *)
  | Await of (Value.t -> t)
      (** idle: waits for the next invocation, which carries the input *)

(** {1 Smart constructors} *)

val read : int -> (Value.t -> t) -> t
val write : int -> Value.t -> (unit -> t) -> t
val scan : off:int -> len:int -> (Value.t array -> t) -> t
val yield : Value.t -> t -> t
val await : (Value.t -> t) -> t
val stop : t

val pp_op : Format.formatter -> op -> unit

(** {1 Poised-step inspection} *)

val poised_op : t -> op option

(** {1 Step independence}

    Decided on the poised heads, without executing them and without
    allocating.  A step's footprint is the registers it reads and
    writes: one for a read or a write, the range of a scan.
    {!Spec.Explore} builds its independence relation on these tests. *)

(** The poised step touches no shared memory: a [Yield], [Await] or
    [Stop] head, or a zero-length scan.  Such a step commutes with
    every step of every other process. *)
val is_local : t -> bool

(** [commute p q]: the poised steps of [p] and [q], taken by
    {e different} processes, commute — neither writes a register the
    other reads, writes or scans, so performing them in either order
    reaches the same memory state and observes the same values. *)
val commute : t -> t -> bool

(** [poised_write p] is [Some r] iff the head step is a write to [r]. *)
val poised_write : t -> int option

(** {1 Abstract stepping}

    Hooks for driving a program without a memory — the static analyzer
    ({!Analyze.Absint}) fabricates the result of each operation and
    observes the continuation.  [feed] validates the result shape
    against the poised operation ([Read] expects [RVal], [Write]
    expects [RUnit], [Scan] expects an [RVec] of the scanned length)
    and returns [None] on a mismatch or a non-[Op] head.  The applied
    continuation may itself raise on value encodings no real execution
    produces; callers catch. *)

val feed : t -> res -> t option

(** [feed] specialized per operation kind. *)
val feed_read : t -> Value.t -> t option

val feed_write_ack : t -> t option
val feed_scan : t -> Value.t array -> t option

(** Split a [Yield] head into the output value and the rest. *)
val take_yield : t -> (Value.t * t) option

(** Apply an [Await] head to an invocation input. *)
val start : t -> Value.t -> t option

val is_idle : t -> bool
val is_halted : t -> bool
