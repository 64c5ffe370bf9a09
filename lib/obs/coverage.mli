(** Register-coverage timelines — the paper's view of an execution.

    A register is {e covered} when some process is poised to write it
    (the covering argument); it is {e written} once some write to it
    has occurred ([Memory.written_set], the space measure).  This
    module turns those two sets, observed per event, into trace
    counter tracks and instants. *)

val num_covered : Shm.Config.t -> int
val num_written : Shm.Config.t -> int

(** Counter-track names used by {!probe}. *)
val track_covered : string

val track_written : string

(** [probe tr ~step ev config] records the coverage state after [ev]:
    counter samples on both tracks, an instant per write, and — with
    [~sets:true] — an instant carrying the covered/written sets
    themselves. *)
val probe :
  ?sets:bool -> Trace.t -> step:int -> Shm.Event.t -> Shm.Config.t -> unit

(** {!probe} bound to the ambient collector: [None] when no collector
    is attached, so callers can hoist the hook out of the hot loop. *)
val ambient_probe :
  ?sets:bool -> unit -> (step:int -> Shm.Event.t -> Shm.Config.t -> unit) option
