(** Deterministic, seed-replayable in-memory corpus.

    The corpus owns the fuzzer's randomness: one {!Shm.Rng.t} seeded at
    {!create} drives generation, entry selection, and mutation, so two
    corpora with the same seed propose byte-identical input sequences
    ([--seed] replays a whole campaign).  Entries carry the coverage
    credit they earned when admitted; {!next} is biased toward entries
    with more credit (they sit in productive regions of the input
    space) and falls back to fresh generation.

    Mutation operators preserve {!Gen} well-formedness: register
    indices are drawn or renumbered within the entry's own budget, and
    scan ranges are re-fitted.  {!Oracle} and the tests rely on this
    closure property. *)

type entry = {
  program : Gen.program;
  schedule : Gen.schedule;
  credit : int;  (** new coverage bits contributed when admitted *)
}

type t

(** [create ~seed ()] — an empty corpus with its own PRNG. *)
val create : seed:int -> unit -> t

val size : t -> int
val entries : t -> entry list

(** Next input to try: a fresh generated pair when the corpus is empty
    (and with a fixed small probability always), otherwise a mutation
    of a credit-biased pick. *)
val next : t -> Gen.program * Gen.schedule

(** Admit an input that earned coverage ([credit > 0]); inputs with no
    new bits are dropped. *)
val record : t -> Gen.program -> Gen.schedule -> credit:int -> unit

(** {1 Corpus files}

    One [credit | program | schedule] line per entry, in the {!Gen}
    text forms; [#] lines and blank lines are comments.  This is how a
    campaign's corpus persists across runs ([sa_run fuzz --corpus-out],
    [--corpus-in]). *)

(** Write [entries] to [path]; [Error] carries the system message. *)
val save : string -> entry list -> (unit, string) result

(** Read the inputs of a corpus file.  A line that does not parse — a
    stale cache from an older generator grammar, a torn last line — is
    skipped and reported through [warn] (default: a line on stderr), so
    a damaged corpus degrades a campaign instead of failing it.
    [Error] only when the file cannot be read. *)
val load :
  ?warn:(string -> unit) -> string -> ((Gen.program * Gen.schedule) list, string) result

(** {1 Mutation operators} (exposed for the closure tests) *)

(** Splice: head of [a] + tail of [b]; registers is the max of the two
    (indices of both stay in bounds). *)
val splice : Shm.Rng.t -> Gen.program -> Gen.program -> Gen.program

(** Insert one freshly drawn step at a random position. *)
val insert_step : Shm.Rng.t -> Gen.program -> Gen.program

(** Delete one random top-level step (identity on 1-step programs). *)
val delete_step : Shm.Rng.t -> Gen.program -> Gen.program

(** Renumber: apply a random register permutation to every access
    (footprint-shape preserving, bounds preserving). *)
val renumber : Shm.Rng.t -> Gen.program -> Gen.program

(** Mutate a schedule: splice/insert/delete pid entries over the
    program's own process count. *)
val mutate_schedule : Shm.Rng.t -> n:int -> Gen.schedule -> Gen.schedule
