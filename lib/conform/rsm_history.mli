(** Adapter from serving-layer ({!Service}) command histories to the
    existing checkers.

    A shard of the serving layer records one {!record} per committed
    command: the command value, the reply the application produced, and
    the command's real-time interval (submission to completion, in
    monotonic nanoseconds).  This module grades those histories with
    the same oracles the conformance harness uses: {!Spec.Linearize}
    for per-object linearizability and {!Spec.Properties} for the
    agreement layer underneath. *)

type record = {
  cmd : Shm.Value.t;    (** the submitted command, a [("tag", arg)] pair *)
  reply : Shm.Value.t;  (** what the application replied on commit *)
  start : int;          (** monotonic ns at submission *)
  finish : int;         (** monotonic ns at completion *)
}

(** [check_register records] is [Ok ()] iff every record is a register
    command and the history linearizes as a single atomic register
    (initial value ⊥).  Wing–Gong search underneath: intended for
    histories of at most a few hundred operations. *)
val check_register : record list -> (unit, string) result

(** Grade the agreement layer below a shard: validity and k-agreement
    of every decided instance, straight from the configuration's
    recorded input/output relation ({!Spec.Properties.check_safety}). *)
val check_agreement : k:int -> Shm.Config.t -> (unit, string) result
