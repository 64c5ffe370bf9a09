(** Deterministic SplitMix64 pseudo-random generator.

    Every randomized schedule in the simulator draws from this PRNG so
    that runs are reproducible from a single integer seed, independent
    of the OCaml stdlib [Random] state. *)

type t

(** [create seed] returns a fresh generator. *)
val create : int -> t

(** The raw 64-bit output stream. *)
val next_int64 : t -> int64

(** [pure_step state] is one SplitMix64 step as a pure function —
    returns the output and the advanced state.  Used where PRNG state
    must be a persistent value (programs that the lower-bound machinery
    clones). *)
val pure_step : int64 -> int64 * int64

(** [int t bound] is uniform in [\[0, bound)].  Raises
    [Invalid_argument] if [bound <= 0]. *)
val int : t -> int -> int

val bool : t -> bool

(** Derive an independent stream (per-process local randomness). *)
val split : t -> t

(** In-place Fisher–Yates shuffle. *)
val shuffle : t -> 'a array -> unit

(** Uniform element of a non-empty list. *)
val pick : t -> 'a list -> 'a
