(** Guarded execution: run processes while watching for a step that
    would write outside an allowed register set — the primitive of the
    Figure 2 construction (proof of Theorem 2).  The escaping process
    is returned still {e poised} at the offending write, exactly what
    the construction needs to add it to the block-writer set. *)

type escape = {
  config : Shm.Config.t;  (** state with [pid] poised at the write *)
  pid : int;
  reg : int;
}

type outcome =
  | Escaped of escape
  | Stopped of Shm.Config.t    (** the [stop] predicate became true *)
  | Quiescent of Shm.Config.t  (** nothing runnable for the scheduler *)
  | Fuel of Shm.Config.t       (** step budget exhausted *)

(** [run ~allowed ~inputs ~sched ~max_steps ~stop config]: drive under
    [sched]; before every write, check its target against [allowed];
    evaluate [stop] between steps (default: never). *)
val run :
  allowed:(int -> bool) ->
  inputs:(pid:int -> instance:int -> Shm.Value.t option) ->
  sched:Shm.Schedule.t ->
  max_steps:int ->
  ?stop:(Shm.Config.t -> bool) ->
  Shm.Config.t ->
  outcome
