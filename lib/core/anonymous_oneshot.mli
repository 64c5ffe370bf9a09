(** One-shot anonymous m-obstruction-free k-set agreement: Figure 5
    specialized to a single instance, as Section 6's closing remark
    describes — no register H, no watcher thread, entries are bare
    preference values.  Uses r = (m+1)(n−k) + m² components. *)

(** [Some w] iff the view decides (all components non-⊥, ≤ m distinct
    values), with the most frequent value [w]. *)
val decide_check : m:int -> Shm.Value.t array -> Shm.Value.t option

(** The process program — identical for every process. *)
val program : params:Params.t -> api:Snapshot.Snap_api.t -> Shm.Program.t
