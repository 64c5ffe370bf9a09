(** Differential oracles: what counts as a divergence.

    Each oracle is a deterministic judgement on a (program, schedule)
    pair — [None] means the input passed, [Some msg] names the
    divergence.  Determinism matters twice over: the fuzz campaign is
    replayable from its seed, and the shrinker needs "still fails" to
    be a stable predicate while it deletes steps.

    - {!Analyzer} — soundness of {!Analyze.Absint} against the
      simulator: no dynamic write may land outside the static write
      footprint computed under {!Analyze.Absint.exhaustive} budgets
      (truncated analyses are skipped — no exactness claim there).
    - {!Backend} — the {!Shm.Memory} backends are observationally
      equal: persistent and journaled runs of the same input must
      produce identical traces, final register contents, write sets,
      and safety verdicts.
    - {!Linearize} — {!Spec.Linearize}'s boolean and witness modes
      agree ([witness = Some _] iff [check = true], and the partial
      variants likewise), on the run's own history and on a
      deterministically corrupted copy.
    - {!Determinism} — re-running the same input reproduces the trace
      byte-for-byte, and {!Shm.Config.unshare} preserves observable
      memory.
    - {!Indep} — exploring with the run-time conditional-independence
      refinement ([Spec.Modelcheck.run ~refine:true], which adds
      {!Spec.Modelcheck.cond_independent} pairs to sleep sets) reaches
      the same verdict kind as the dynamic-footprint baseline, and
      never explores {e more} states.
    - {!Optim} — simulation equivalence of [Analyze.Optim]: running
      the original under the schedule and feeding the optimized
      program the results of exactly the kept operations yields
      identical visible behaviour (op shapes, registers, written
      values, outputs).  Dropping an op shifts later ops against a
      fixed schedule, so standalone output equality is deliberately
      not the statement — simulation is.
    - {!Vm} — the bytecode engine ({!Shm.Vm}) is event-equivalent to
      the free-monad interpreter under the same cursor schedule: same
      step count, stop reason, trace, final memory, written set, and
      i/o records (as multisets).  Programs [Shm.Vm.compile] rejects
      statically (out-of-bounds registers, negative loop counts —
      mutation can produce both) carry no equivalence claim and pass
      vacuously, like truncated analyses under {!Analyzer}. *)

type kind = Analyzer | Backend | Linearize | Determinism | Indep | Optim | Vm

val all : kind list
val name : kind -> string
val of_string : string -> kind option

(** [check kind program schedule] — [Some message] iff the oracle sees
    a divergence. *)
val check : kind -> Gen.program -> Gen.schedule -> string option

(** {1 Seeded-mutant regression}

    The known-broken artefacts the suite keeps honest: every
    {!Analyze.Mutants} mutant must be rejected by the analyzer, and
    every {!Conform.Sut} mutant must be caught by the conformance
    checker, within a fixed (budget, seed). *)

type mutant_result = {
  mutant : string;
  caught : bool;
  witness_size : int;  (** shrunk witness length (conform) or static excess (analyze) *)
  detail : string;
}

(** [mutant_sweep ~budget ~seed] runs every seeded mutant through its
    oracle.  [budget] bounds conformance iterations. *)
val mutant_sweep : budget:int -> seed:int -> mutant_result list
