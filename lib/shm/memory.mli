(** Shared register memory with exact space accounting.

    The interface is persistent whichever backend is selected: [write]
    returns a new memory and leaves the old one readable, so
    configurations can be cloned and replayed — the Theorem 2 adversary
    depends on this.  The space measure reported by the experiments is
    {!num_written}: an algorithm "uses" a register iff some execution
    writes it. *)

type t

(** How register contents are represented.

    - [Persistent] — a persistent map; the obviously-correct reference.
    - [Journaled] — a flat array shared by a version family plus an
      undo journal (Conchon–Filliâtre persistent arrays): O(1) writes,
      O(1) reads on the current version, amortized O(1) rollback under
      the explorers' depth-first push/pop access pattern.  A version
      family must be owned by one domain at a time; use {!unshare}
      before handing a memory to another domain. *)
type backend = Persistent | Journaled

val backend_name : backend -> string

(** Recognizes ["persistent"]/["map"] and ["journal"]/["journaled"]. *)
val backend_of_string : string -> backend option

(** Process-wide default backend used by {!create} when no explicit
    [?backend] is given.  Initially [Journaled]; set once at startup
    (e.g. from [sa_run --memory-backend]). *)
val set_default : backend -> unit

(** [create ?backend size] allocates registers [0 .. size-1], all
    holding ⊥. *)
val create : ?backend:backend -> int -> t

(** The backend this memory was created with. *)
val backend : t -> backend

val size : t -> int

(** [read t r] is the current value of register [r].  Bounds-checked. *)
val read : t -> int -> Value.t

(** [write t r v] is the memory after the write; [t] is unchanged. *)
val write : t -> int -> Value.t -> t

(** [scan t ~off ~len] is an atomic multi-read of [len] consecutive
    registers starting at [off] — the primitive behind atomic snapshot
    objects. *)
val scan : t -> off:int -> len:int -> Value.t array

(** [unshare t] detaches [t] from its journal family so the result can
    be owned by a different domain.  O(size); the identity on
    [Persistent] memories. *)
val unshare : t -> t

(** [count_read t n] bumps the read counter by [n] (bookkeeping only). *)
val count_read : t -> int -> t

(** [patch t writes ~write_steps ~read_steps] is [t] after the writes
    [(r, v)], in order, with the step counters advanced by
    [write_steps] and [read_steps] instead of one write per entry: the
    net effect of a run of steps ({!Config.apply}). *)
val patch : t -> (int * Value.t) list -> write_steps:int -> read_steps:int -> t

(** {1 Space and step accounting} *)

(** Registers written at least once. *)
val written_set : t -> Set.Make(Int).t

(** |{!written_set}| — the paper's space measure. *)
val num_written : t -> int

val write_count : t -> int
val read_count : t -> int

val pp : Format.formatter -> t -> unit
