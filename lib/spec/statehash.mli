(** Canonical hashing of configurations, for exploration-time state
    caching — maintained incrementally across steps.

    A process's local state is an OCaml closure, so it cannot be
    hashed structurally — but processes are deterministic, so the local
    state is a function of the initial program and the sequence of
    values the process has consumed.  A value of type {!t} threads one
    observation hash per process over exactly those observations and
    maintains the combined state {!key} (memory contents, observation
    hashes and instance counters, i/o record multisets) incrementally:
    O(1) per step, O(len) for scans — no full-configuration digest per
    explored node.

    The key never merges states that behave differently except by hash
    collision; it may fail to merge states that do behave the same (a
    missed cache hit, never a missed behaviour).  Bookkeeping (step
    counters, the written-register set) is excluded on purpose, and the
    i/o records are multiset-hashed, so schedules that differ only in
    the order of independent steps produce equal keys.  Collisions are
    audited against the original full MD5 digest, kept available behind
    [~audit:true] ({!repr}/{!full_key}).  Caveats are documented in
    [docs/EXPLORATION.md]. *)

type t

(** The flat incremental state key: memory, local states and the two
    i/o multisets, one commutative hash sum each. *)
type key = private { k_mem : int; k_locals : int; k_in : int; k_out : int }

val key_equal : key -> key -> bool
val key_hash : key -> int
val pp_key : Format.formatter -> key -> unit

(** Fresh hashes for a starting configuration (no observations yet;
    memory, instances, and i/o records are folded from the
    configuration itself).  With [~audit:true] the per-process MD5
    digests of the original implementation are maintained alongside,
    enabling {!repr} and {!full_key}. *)
val create : ?audit:bool -> Shm.Config.t -> t

(** [record t ~before after ev] folds the event into the stepping
    process's observation hash and updates the state key.  [before] and
    [after] are the configurations around the step ([before] supplies
    the overwritten register value, [after] the scan result vectors;
    scans do not change memory). *)
val record : t -> before:Shm.Config.t -> Shm.Config.t -> Shm.Event.t -> t

(** The incrementally maintained canonical key — O(1). *)
val key : t -> key

(** [observation t pid]: [pid]'s observation hash, which with its
    instance determines its local state.  With [pid], its instance and
    the memory sum [k_mem] it keys the leaf completion's solo-burst
    summaries ({!Counterex.complete_check}). *)
val observation : t -> int -> int

(** [shift k ~mem ~locals ~inp ~out] adds a change to each component
    of [k].  Every component is a sum of summands, so the change a run
    of steps makes to one key (the differences of its fields) is the
    change it makes to the key of any state it changes the same way.
    O(1). *)
val shift : key -> mem:int -> locals:int -> inp:int -> out:int -> key

(** [inert_key t ~has_input config] is the key of [config] with every
    {e inert} process's local state forgotten.  Inert means not
    runnable: halted, or idle with no input for its next instance
    ([has_input pid instance] is false), so the process never steps
    again.  Each inert process contributes one constant summand per
    (pid, instance); every other process contributes its observation
    hash in [t].  Precondition: [config] was reached from [t]'s
    configuration by steps of processes that are all inert in [config]
    (so the non-inert ones have not stepped and [t]'s hashes are
    theirs).  Memory and the i/o multisets are recomputed from
    [config]: O(registers + records).  The frontier-completion memo
    ({!Counterex.complete_check}) is keyed by it. *)
val inert_key : t -> has_input:(int -> int -> bool) -> Shm.Config.t -> key

(** [leaf_key t ~live config] is {!inert_key} of [config] when
    [config] is the configuration [t] hashes (no step since) and bit
    [pid] of [live] is set iff [pid] is runnable there: memory and the
    i/o multisets are read from {!key}, so it costs O(processes). *)
val leaf_key : t -> live:int -> Shm.Config.t -> key

(** The uncompressed canonical form behind {!full_key} — exposed so
    tests can certify the incremental keys partition an enumerated
    state space exactly as the full canonical forms do.  Requires
    [create ~audit:true]. *)
val repr : t -> Shm.Config.t -> string

(** MD5 of {!repr}: the original full-digest cache key (the perf
    benchmark's reference arm).  Requires [create ~audit:true]. *)
val full_key : t -> Shm.Config.t -> Digest.t
