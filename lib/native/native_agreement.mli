(** Figure 3 on real multicore shared memory: the same decide/adopt
    predicates as the simulator (Agreement.Oneshot), executed by OCaml 5
    domains over {!Native_snapshot}, with randomized exponential backoff
    as the contention manager — the paper's own framing of how
    obstruction-free algorithms make progress in practice. *)

type t

(** Allocate the shared object: n+2m−k atomics. *)
val create : params:Agreement.Params.t -> t

val registers : t -> int

(** One process's Propose(v); call from its own domain.  [seed] feeds
    only the backoff jitter.  [chaos] fires once per algorithm
    iteration; the conformance harness injects disturbances (or aborts,
    by raising) through it, and brackets the call in its own
    ["propose"] span. *)
val propose :
  ?chaos:(unit -> unit) -> t -> pid:int -> seed:int -> Shm.Value.t -> Shm.Value.t

(** Run a full one-shot instance: one domain per process, process [pid]
    proposing [inputs.(pid)].  Returns the object and the decisions in
    pid order. *)
val run_instance :
  ?seed:int -> params:Agreement.Params.t -> Shm.Value.t array -> t * Shm.Value.t array
