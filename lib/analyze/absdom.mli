(** The abstract value domain of the static analyzer.

    A register's abstract value is the {e set} of concrete values any
    execution explored so far may have stored there (collecting
    semantics), always including ⊥ — joins deliberately forget which
    interleaving produced a value, so a set over-approximates every
    schedule that writes only collected values.  Sets are widened by a
    size cap: once a register collects more than [set_cap] distinct
    values, further values are dropped and the memory is marked
    {!widened} — the analyzer reports the cap in its soundness caveat
    (see docs/ANALYSIS.md).

    The memory is shared, mutable and monotone: it only ever grows, and
    {!version} bumps on every growth, which is what the joint fixpoint
    iteration of {!Absint} watches.

    Cache invariant: a register's read alternatives are rebuilt only
    when that register's set grows (or a different [width] is asked
    for), and the views of a scanned range [(off, len)] only when a
    register of the range grows (or a different [exhaustive_cap] is
    asked for).  Between growths every query is a lookup, and every
    answer equals what a fresh memory fed the same {!add}s returns. *)

type t

(** [create ~registers ~set_cap] — all registers start as \{⊥\}. *)
val create : registers:int -> set_cap:int -> t

(** Bumped every time any register's set grows. *)
val version : t -> int

(** Some register hit the widening cap: value coverage is incomplete. *)
val widened : t -> bool

(** [add t r v]: join [v] into register [r]'s set.  Out-of-range
    registers are ignored (the access itself is diagnosed by the
    interpreter). *)
val add : t -> int -> Shm.Value.t -> unit

(** All collected values of register [r], ⊥ first, then insertion
    order (most recent last).  The list is shared with later calls;
    lists are immutable, so this exposes nothing a caller can change. *)
val values : t -> int -> Shm.Value.t list

(** Most recently collected value of [r]; ⊥ if nothing was written. *)
val latest : t -> int -> Shm.Value.t

(** Number of distinct values collected for [r] (including ⊥). *)
val cardinal : t -> int -> int

(** Calls to {!read_alternatives} and {!scan_views} so far. *)
val lookups : t -> int

(** How many of those {!lookups} rebuilt their answer instead of
    reading it from the cache. *)
val recomputes : t -> int

(** {1 Read and scan alternatives}

    What a fabricated operation result may be.  When the concrete
    possibilities are few, the enumeration is exhaustive (and the
    analysis of loop-free programs over such registers is exact);
    otherwise a bounded set of representative templates is explored —
    the documented precision/soundness trade of the bounded analysis. *)

(** Alternatives for a single read of [r], the preferred (no-fork)
    alternative first.  When [r] holds at most [width] values: all of
    them, latest first, then the rest in insertion order (⊥ first).
    Otherwise: latest, ⊥, first-written, then the remaining values most
    recent first — deduplicated and truncated to [width]. *)
val read_alternatives : t -> width:int -> int -> Shm.Value.t list

(** Alternatives for a scan of [off..off+len-1].  Exhaustive product
    enumeration when it has at most [exhaustive_cap] views; otherwise
    deterministic templates — latest-everywhere, written-prefix (models
    a half-finished block of writes), uniform-[just_wrote] (models the
    scanner running solo after its own write), value-diverse (cycles
    each register through its set), all-⊥ — deduplicated and truncated
    to [width].  The preferred alternative is first.  Every returned
    array is fresh: a caller may mutate it without changing any later
    answer. *)
val scan_views :
  t ->
  width:int ->
  exhaustive_cap:int ->
  ?just_wrote:Shm.Value.t ->
  off:int ->
  len:int ->
  unit ->
  Shm.Value.t array list
