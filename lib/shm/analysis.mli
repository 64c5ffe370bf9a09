(** Execution statistics: per-process steps, per-register reads and
    writes, event counts by kind, and the step latency of every propose
    — what [sa_run --stats] prints and what tests assert structural
    facts with.

    Aggregation is streaming: an {!acc} folds events one at a time in
    O(n + registers) memory, so it can sit behind an [Exec.run ?sink]
    observer on multi-million-step schedules, and {!of_trace} is the
    same fold over a recorded trace. *)

type t = {
  steps_per_process : int array;
  writes_per_register : int array;
  reads_per_register : int array;  (** scans count one read per register *)
  invocations : int;
  outputs : int;
  reads : int;  (** read events *)
  writes : int;  (** write events *)
  scans : int;  (** scan events *)
  total_steps : int;  (** every event, i.e. scheduler decisions *)
  latencies : int list;
      (** per completed propose, in completion order: the steps of the
          whole system from its [Invoke] to its [Output] inclusive *)
  pending : int;  (** invocations with no output yet *)
}

(** {1 Streaming accumulation} *)

(** A mutable accumulator; feed it events, snapshot at any point. *)
type acc

(** Raises [Invalid_argument] on negative [n] or [registers]; both may
    be 0 (events for out-of-range pids or registers still count toward
    [total_steps] but are not attributed or timed).  A process has at
    most one pending invocation: a second [Invoke] restarts its clock. *)
val create : n:int -> registers:int -> acc

(** Fold one event into the accumulator — usable directly as an
    [Exec.run ?sink] observer. *)
val feed : acc -> Event.t -> unit

(** The statistics so far; the accumulator keeps accepting events. *)
val snapshot : acc -> t

(** [of_trace ~n ~registers trace] = feed every event, snapshot.  Safe
    on an empty trace and on [registers = 0]. *)
val of_trace : n:int -> registers:int -> Event.t list -> t

(** {1 Derived statistics} *)

(** Processes that took at least one step. *)
val active_processes : t -> int list

(** Write imbalance across written registers: max/mean (1.0 = even);
    0. when no register was written — never NaN. *)
val write_skew : t -> float

val pp : Format.formatter -> t -> unit
