(** A real shared-memory snapshot over OCaml 5 atomics: the
    double-collect construction of Snapshot.Double_collect, executed on
    hardware instead of the simulator.  Entries are immutable values in
    [Atomic.t] cells — exactly the MWMR atomic registers of the paper's
    model.  Non-blocking. *)

type t

(** [create ~components] allocates the shared object (one atomic per
    component — the space story is the same as the simulator's). *)
val create : components:int -> t

val components : t -> int

(** Per-process handle, carrying the local freshness counter. *)
type handle

val handle : t -> pid:int -> handle

(** Atomic store of [v] into component [i]. *)
val update : handle -> int -> Shm.Value.t -> unit

(** Non-blocking scan: retries until a clean double collect, with a
    [Domain.cpu_relax] between attempts; [on_collect] is called after
    every collect — inside the double-collect window, where the
    conformance harness injects chaos stalls. *)
val scan : ?on_collect:(int -> unit) -> handle -> Shm.Value.t array
