(** Coverage feedback over the repo's existing instrumentation.

    A fuzz input's {e signature} is a set of abstract coverage bits
    drawn from three observation channels, each of which already exists
    for another purpose:

    - {b state keys} — the {!Spec.Statehash} incremental key after
      every step of the replayed schedule (bucketed): an input that
      drives the simulator through configurations no earlier input
      reached contributes new bits;
    - {b analyzer footprint} — the per-process read/write cells of the
      {!Analyze.Absint} summary plus its dead/converged/widened shape:
      an input whose static footprint differs is structurally new;
    - {b lint rules} — the rule ids {!Analyze.Lint.check} fires.

    Signatures are deterministic for a (program, schedule) pair and
    independent of the memory backend (keys hash contents, not
    representation), so corpus replay from a seed is stable. *)

type t
(** a signature: a set of coverage bits *)

(** [signature program schedule] replays the schedule (journaled
    backend) threading the state hash, runs the bounded abstract
    interpreter, and folds both into bits. *)
val signature : Gen.program -> Gen.schedule -> t

val cardinal : t -> int
val equal : t -> t -> bool

(** {1 Accumulation} *)

type acc
(** a growing union of every signature seen — the fuzzer's map: a
    72 KiB bitmap over the bucket space and a running count *)

val acc_create : unit -> acc
val acc_cardinal : acc -> int

(** [add acc t] unions [t] in; returns how many bits were new, in time
    linear in [cardinal t].  An input is {e interesting} iff this is
    positive. *)
val add : acc -> t -> int
