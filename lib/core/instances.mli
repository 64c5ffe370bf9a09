(** Assembling runnable system configurations: algorithm × snapshot
    implementation × (possibly overridden) register budget.

    The [r] overrides exist for the lower-bound experiments: running
    the Figure 3/4 machinery with fewer components than n+2m−k voids
    its correctness argument, and the Theorem 2 adversary then exhibits
    executions with more than k outputs. *)

type impl =
  | Atomic          (** components are registers, scans atomic (the paper's model) *)
  | Double_collect  (** honest register-level non-blocking snapshot *)
  | Sw_based        (** wait-free snapshot from n single-writer registers *)

val impl_name : impl -> string

val registers_for : impl -> r:int -> n:int -> int

(** The space-optimal choice of Theorem 7's proof: {!Atomic} when
    n+2m−k ≤ n, {!Sw_based} otherwise — achieving min(n+2m−k, n). *)
val space_optimal_impl : Params.t -> impl

(** One-shot system (Figure 3). *)
val oneshot :
  ?r:int -> ?impl:impl -> ?backend:Shm.Memory.backend -> Params.t -> Shm.Config.t

(** Repeated system (Figure 4). *)
val repeated :
  ?r:int -> ?impl:impl -> ?backend:Shm.Memory.backend -> Params.t -> Shm.Config.t

(** DFGR'13 baseline system (one-shot, m = 1, 2(n−k) registers). *)
val baseline :
  ?impl:impl -> ?backend:Shm.Memory.backend -> Params.t -> Shm.Config.t

(** Anonymous one-shot system (no H, no watcher) over an atomic
    snapshot.  [slots] allocates extra identical process slots for the
    clone machinery of the Section 5 lower bound. *)
val anonymous_oneshot : ?r:int -> ?slots:int -> Params.t -> Shm.Config.t

(** Anonymous repeated system (Figure 5): r components + register H.
    With [anonymous_collect] the snapshot is the non-blocking anonymous
    double collect; otherwise scans are atomic. *)
val anonymous :
  ?r:int ->
  ?anonymous_collect:bool ->
  ?seed:int ->
  ?backend:Shm.Memory.backend ->
  Params.t ->
  Shm.Config.t
