(** The protocol optimizer: dataflow-certified rewrites of {!Shm.Vm.proto}.

    Three rewrite families — constant folding ([W<-last] / [D last]
    with a provable singleton integer value), redundant-scan collapse
    (reads/scans whose observation is never consumed, and zero-length
    scans), and dead-register elimination (writes no process ever
    reads) — iterated to a fixpoint.

    The correctness statement is {e simulation}, not per-schedule
    output equality (dropping an op shifts later ops relative to a
    fixed schedule): running the original under any schedule and
    feeding the optimized program the results of the kept operations
    yields identical visible behaviour.  [Fuzz.Oracle]'s [optim]
    oracle enforces this on random protocols via {!kept_mask};
    docs/ANALYSIS.md states the per-rewrite observability arguments. *)

(** What happened to each step.  [Fold] keeps an op but rewrites its
    source to a provably-equal constant; [Eloop] recurses. *)
type edit =
  | Keep of Shm.Vm.step
  | Fold of Shm.Vm.step * Shm.Vm.step
  | Drop of Shm.Vm.step
  | Eloop of int * edit list

type result = {
  original : Shm.Vm.proto;
  optimized : Shm.Vm.proto;
  edits : edit list;  (** the final changing iteration's edits *)
  kept : bool list;
      (** composed keep-mask over the original's {e executed} op
          sequence (loops unrolled, cut at the first decide); decides
          and outputs are not positions — only reads, writes, scans *)
  folded : int;  (** sources rewritten to constants *)
  dropped : int;  (** executed ops eliminated *)
  iterations : int;  (** 0 when the program was already optimal *)
}

(** [optimize prog] — analyses and rewrites until nothing changes (or
    an iteration cap), with {!Dataflow.analyze}'s default inputs. *)
val optimize : Shm.Vm.proto -> result

(** The composed unrolled keep-mask (the [kept] field). *)
val kept_mask : result -> bool list

val pp : Format.formatter -> result -> unit
