(** The executable anonymous lower-bound construction (Section 5,
    Lemma 9 / Theorem 10), for singleton groups (m = 1).

    Glues together per-group solo executions of a register-starved
    anonymous one-shot algorithm: clone processes — planted snapshots
    of a group's local state at its last write to each register —
    perform block writes that reset the registers between fragments, so
    each group runs exactly its solo execution and outputs its own
    input: k+1 distinct outputs in one one-shot instance.  The process
    count needed matches Theorem 10's ⌈(k+1)/m⌉(m + (r²−r)/2) threshold
    exactly, and the construction fails safely (out of clone slots)
    below it or against well-provisioned algorithms. *)

type outcome =
  | Violation of {
      outputs : Shm.Value.t list;
      config : Shm.Config.t;
      clones_used : int;
      registers_written : int list;  (** the common sequence R₁, R₂, … *)
    }
  | Out_of_slots of { clones_used : int; slots : int; round : int }
  | Prefix_mismatch of { group : int; expected : int; got : int }
      (** groups' register sequences diverged (Lemma 9 would re-choose
          the value sets) *)
  | Stuck of string

val pp_outcome : Format.formatter -> outcome -> unit

(** [attack ~params ~registers ~slots ~make_config]: run the gluing
    against an anonymous one-shot system with [registers] registers and
    [slots] process slots (k+1 group mains + clone room).  A group whose
    solo advance runs 200,000 steps without reaching a new register or
    an output leaves the attack [Stuck]. *)
val attack :
  params:Agreement.Params.t ->
  registers:int ->
  slots:int ->
  make_config:(registers:int -> slots:int -> Shm.Config.t) ->
  outcome
