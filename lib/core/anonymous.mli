(** Figure 5: anonymous m-obstruction-free repeated k-set agreement
    with r = (m+1)(n−k) + m² snapshot components plus one register H.

    No identifiers anywhere: entries are (pref, t, history), and every
    process runs the same program text.  Each Propose races two
    threads — the set-agreement loop and a watcher of H, where fast
    processes publish their histories — interleaved fairly at
    shared-memory-step granularity ([par]); the first to output wins
    the operation.  The watcher is what keeps starving processes live
    over the merely non-blocking anonymous snapshot. *)

type tuple = { pref : Shm.Value.t; t : int; history : Shm.Value.t list }

val encode : tuple -> Shm.Value.t
val decode : Shm.Value.t -> tuple option

(** The process program.  [h_reg] is the index of register H.  The same
    program text serves every process; the only per-process distinction
    is the freshness seed hidden inside an anonymous snapshot [api],
    which the algorithm itself never observes. *)
val program :
  params:Params.t -> api:Snapshot.Snap_api.t -> h_reg:int -> Shm.Program.t
