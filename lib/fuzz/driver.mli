(** The budgeted fuzz loop.

    [run ~oracle ~budget ~seed ()] draws [budget] inputs from a
    seed-deterministic {!Corpus}, admits the interesting ones by
    {!Coverage} feedback, and judges each with the chosen {!Oracle}.
    On the first divergence the loop stops and shrinks the failing
    (program, schedule) pair {e jointly} — top-level program steps and
    schedule entries share one index space fed to
    {!Spec.Shrink.minimize_generic} — to a 1-minimal witness: removing
    any single remaining program step or schedule entry makes the
    divergence disappear.

    Everything is deterministic in (oracle, budget, seed, sizes):
    re-running the same campaign reproduces the same witness, which is
    what the printed replay line relies on. *)

type witness = {
  program : Gen.program;  (** shrunk *)
  schedule : Gen.schedule;  (** shrunk *)
  oracle : Oracle.kind;
  message : string;  (** the divergence, as re-judged on the shrunk pair *)
  seed : int;
  found_at : int;  (** exec index of the original divergence (1-based) *)
  shrink_replays : int;
  shrink_removed : int;  (** program steps + schedule entries removed *)
}

type stats = {
  oracle : Oracle.kind;
  seed : int;
  budget : int;
  execs : int;  (** inputs judged (≤ budget; < on early divergence) *)
  interesting : int;  (** inputs that earned new coverage bits *)
  corpus_size : int;
  coverage_bits : int;  (** accumulated distinct bits *)
  curve : (int * int) list;
      (** (exec index, cumulative bits) at each coverage increase *)
  divergences : int;  (** 0 or 1 — the loop stops at the first *)
}

type outcome = {
  stats : stats;
  corpus : Corpus.entry list;
  witness : witness option;
}

(** [?replay] — corpus seeds (from a previous campaign's
    [--corpus-out] file) judged {e before} any generation.  They
    consume budget, earn coverage, and the interesting ones enter the
    live corpus so mutation builds on them — this is how
    [sa_run fuzz --corpus-in] persists progress across CI runs.  A
    witness found with a non-empty [replay] needs the same seed list
    to reproduce. *)
val run :
  ?sizes:Gen.sizes ->
  ?replay:(Gen.program * Gen.schedule) list ->
  oracle:Oracle.kind -> budget:int -> seed:int -> unit -> outcome

(** Same, against an arbitrary judgement — the tests inject synthetic
    divergences to pin 1-minimality of the joint index space.  [kind]
    only labels the witness. *)
val shrink_with :
  check:(Gen.program -> Gen.schedule -> string option) ->
  kind:Oracle.kind -> seed:int -> found_at:int ->
  Gen.program -> Gen.schedule -> witness option

(** The command that reproduces the witness deterministically. *)
val replay_line : witness -> string

val pp_witness : Format.formatter -> witness -> unit
val pp_stats : Format.formatter -> stats -> unit
