(** The budgeted fuzz loop.

    [campaign] draws [budget] inputs from a seed-deterministic
    {!Corpus}, admits the interesting ones by {!Coverage} feedback, and
    hands each to every live judge: coverage never reads a verdict, so
    each input is drawn, signed and credited once however many judges
    there are.  On a judge's first divergence the failing (program,
    schedule) pair is shrunk {e jointly} — top-level program steps and
    schedule entries share one index space fed to
    {!Spec.Shrink.minimize_generic} — to a 1-minimal witness: removing
    any single remaining program step or schedule entry makes the
    divergence disappear.  That judge then leaves the campaign.

    Each judge's outcome is deterministic in (oracle, budget, seed) and
    equals that of a campaign the judge runs alone: re-running
    reproduces the same witness, which is what the printed replay line
    relies on. *)

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
  divergences : int;  (** 0 or 1 — a judge leaves at its first *)
}

type outcome = {
  stats : stats;
  corpus : Corpus.entry list;
  witness : witness option;
}

(** One campaign judged by every [(kind, check)] of [judges]: one
    outcome per judge, in order, snapshotted at the exec where it
    diverged or else at the end.  The loop ends when the budget is
    spent or no judge is left.

    [replay] — corpus seeds (from a previous campaign's [--corpus-out]
    file) judged {e before} any generation.  They consume budget, earn
    coverage, and the interesting ones enter the live corpus so
    mutation builds on them; this is how [sa_run fuzz --corpus-in]
    persists progress across CI runs.  A witness found with a non-empty
    [replay] needs the same seed list to reproduce. *)
val campaign :
  replay:(Gen.program * Gen.schedule) list ->
  judges:(Oracle.kind * (Gen.program -> Gen.schedule -> string option)) list ->
  budget:int -> seed:int -> unit -> outcome list

(** [campaign] with the one judge [(oracle, Oracle.check oracle)]. *)
val run :
  ?replay:(Gen.program * Gen.schedule) list ->
  oracle:Oracle.kind -> budget:int -> seed:int -> unit -> outcome

(** Joint 1-minimal shrink of a pair that fails [check]; [None] iff it
    does not.  [kind] only labels the witness. *)
val shrink_with :
  check:(Gen.program -> Gen.schedule -> string option) ->
  kind:Oracle.kind -> seed:int -> found_at:int ->
  Gen.program -> Gen.schedule -> witness option

(** The command that reproduces the witness deterministically. *)
val replay_line : witness -> string

val pp_witness : Format.formatter -> witness -> unit
val pp_stats : Format.formatter -> stats -> unit
