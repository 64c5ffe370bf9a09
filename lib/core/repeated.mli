(** Figure 4: repeated m-obstruction-free k-set agreement over the same
    r = n + 2m − k component snapshot as Figure 3.

    Entries are tuples (pref, id, t, history); persistent locals i, t
    and history survive across Propose invocations.  A process decides
    instance t only when every entry is a tuple of instance exactly t
    and at most m distinct tuples are present — or by adopting the
    history of a process seen in a higher instance (line 15's
    shortcut). *)

(** [history] is a snoc chain of outputs: [Value.list []] when empty,
    [Value.pair prev w] for [prev] followed by [w].  An instance-t
    entry's chain holds t − 1 outputs. *)
type tuple = { pref : Shm.Value.t; id : int; t : int; history : Shm.Value.t }

(** O(1): the chain is stored as it is. *)
val encode : tuple -> Shm.Value.t

(** [None] on ⊥; O(1).  Raises [Invalid_argument "Repeated.decode: …"]
    on non-tuple junk and on a fourth field that is not a chain. *)
val decode : Shm.Value.t -> tuple option

(** The chain of a list of outputs, oldest first. *)
val history_of_list : Shm.Value.t list -> Shm.Value.t

(** The outputs of a chain, oldest first.  Raises [Invalid_argument
    "Repeated.decode: …"] on a link that is neither a pair nor [[]]. *)
val history_to_list : Shm.Value.t -> Shm.Value.t list

(** Line 15: the entry of the highest instance > t, if any. *)
val find_higher : t:int -> Shm.Value.t array -> tuple option

(** Line 17: [Some w] iff the view decides instance [t] with output
    [w]. *)
val decide_check : m:int -> t:int -> Shm.Value.t array -> Shm.Value.t option

(** Line 22 (with the Figure 3 erratum repair): [Some w] iff the
    process adopts [w].  [own] is the entry the process wrote to
    component [i], as {!encode} built it, and [pref] the preference it
    holds. *)
val adopt_check :
  pref:Shm.Value.t ->
  own:Shm.Value.t ->
  i:int ->
  t:int ->
  Shm.Value.t array ->
  Shm.Value.t option

(** The full process program: one [Await] per Propose, forever. *)
val program : m:int -> pid:int -> api:Snapshot.Snap_api.t -> Shm.Program.t
