(** Non-blocking multi-writer snapshot by double collect.

    Each component register holds a (unique tag, value) pair; a scan
    repeatedly collects all components until two consecutive collects
    are identical, and then linearizes between them.  Updates are
    single writes.  Scans are only non-blocking — a concurrent writer
    can starve a scanner, which is exactly the behaviour Figure 5's
    register H exists to mask. *)

(** [make ~off ~len ~pid ()] tags writes with (pid, local sequence
    number).  [max_retries] makes a scan fail loudly after that many
    unequal double collects (surfacing livelock in tests); default is
    to retry forever. *)
val make : off:int -> len:int -> pid:int -> ?max_retries:int -> unit -> Snap_api.t

(** [make_anonymous ~off ~len ~seed] draws tags from a per-process
    deterministic PRNG stream plus a local sequence number: identical
    program text for every process, fresh tags with overwhelming
    probability — the practical realization of Guerraoui–Ruppert [7]
    anonymous snapshots (DESIGN.md, substitution 5).  Its scans retry
    forever. *)
val make_anonymous : off:int -> len:int -> seed:int -> Snap_api.t

val footprint : len:int -> Snap_api.footprint
