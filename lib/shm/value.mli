(** Universal register value type.

    Every simulated register holds a value of this single type, so
    configurations are first-class, comparable, printable data.  The
    paper's algorithms store tuples such as [(pref, id)] (Figure 3) or
    [(pref, id, t, history)] (Figure 4); encode them with {!pair} and
    {!list}.

    Values are immutable and carry a precomputed structural hash:
    {!hash} is O(1).  Constructors allocate one node and probe no
    table, so equal values built apart are physically distinct;
    {!share} is the one way to make them the same block.  Construct
    values only through the functions below and inspect them through
    {!view}. *)

type t

(** One level of structure.  Children are full values; recurse with
    {!view}. *)
type view =
  | Bot  (** the initial value ⊥ of every register *)
  | Int of int
  | Str of string
  | Pair of t * t
  | List of t list

(** Head constructor and children of a value — the pattern-matching
    window.  O(1): no copying below the first level. *)
val view : t -> view

(** {1 Constructors} *)

val bot : t
val int : int -> t
val str : string -> t
val pair : t -> t -> t
val list : t list -> t

(** [share v] is the current domain's canonical copy of [v]: every
    value shared in one domain that is {!equal} to [v] is this same
    block, kept in a per-domain weak set.  Only [v]'s own node is
    looked up, so share a deep child first when it is compared too.
    Call it only where processes build equal values apart and compare
    them often (Figure 5's anonymous entries); it costs one table
    probe. *)
val share : t -> t

(** [tuple vs] encodes a small tuple; a singleton list is the value
    itself, anything else a {!List}. *)
val tuple : t list -> t

(** {1 Comparison and printing} *)

(** Structural equality; matches the paper's tuple equality.  A
    pointer test first (O(1) on one block, e.g. two {!share}d copies),
    then a stored-hash test that rejects unequal values without any
    traversal; equal values built apart are walked down to their
    physically shared children. *)
val equal : t -> t -> bool

(** The precomputed structural hash.  O(1); agrees with {!equal}
    ([equal a b] implies [hash a = hash b]) and is deterministic across
    runs and domains (it never depends on physical identity). *)
val hash : t -> int

(** The hash mixer behind {!hash}, exposed for derived incremental
    hashes (e.g. state keys): [mix h k] folds [k] into accumulator [h]
    with SplitMix-style avalanching.  Deterministic across runs. *)
val mix : int -> int -> int

(** A total order consistent with {!equal} ([compare a b = 0] iff
    [equal a b]; used for sorting and deduplication — the order itself
    is arbitrary but fixed). *)
val compare : t -> t -> int

val pp : Format.formatter -> t -> unit
val to_string : t -> string

(** {1 Accessors}

    These fail loudly ([Invalid_argument]) on encoding bugs. *)

val is_bot : t -> bool
val to_int : t -> int

(** First component of a {!Pair}. *)
val fst : t -> t

(** Second component of a {!Pair}. *)
val snd : t -> t

(** Elements of a {!List}. *)
val to_list : t -> t list
