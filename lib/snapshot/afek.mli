(** Single-writer atomic snapshot of Afek, Attiya, Dolev, Gafni,
    Merritt and Shavit (JACM 1993), unbounded-sequence-number version,
    over n single-writer registers with embedded-view helping.

    Register [off+p] is written only by process [p].  A scan either
    completes a clean double collect or borrows the embedded view of a
    register observed with three distinct sequence numbers (that
    writer's whole update, including its embedded scan, ran within our
    interval).  Wait-free: at most 2n+1 collects. *)

(** [scan ~off ~n k] passes the atomic data view (n segments) to [k]. *)
val scan : off:int -> n:int -> (Shm.Value.t array -> Shm.Program.t) -> Shm.Program.t

(** [update ~off ~n ~pid ~seq data k] installs [data] as process
    [pid]'s segment (performing the embedded scan first) and passes the
    new sequence number to [k]. *)
val update :
  off:int ->
  n:int ->
  pid:int ->
  seq:int ->
  Shm.Value.t ->
  (int -> Shm.Program.t) ->
  Shm.Program.t
