(** Seeded broken protocols — the analyzer's mutation tests.

    Each mutant is a deliberately miswritten variant of a registry
    algorithm that concrete testing under friendly schedules does not
    catch, but the static analyzer must reject with a witness path:

    - {!oob_oneshot}: Figure-3-style one-shot agreement that, on the
      rare interleaving "my scan shows a foreign pair while some
      component is still ⊥", records a note in a scratch register
      {e beyond the paper bound}.  Under a sequential (large-quantum
      round-robin) schedule the branch never fires — the first process
      fills every component before anyone else moves — so dynamic
      register counts stay within the bound; the abstract interpreter
      reaches the branch and the static footprint exceeds the bound.

    - {!pid_leak_anonymous}: an anonymous one-shot protocol whose
      second and later writes embed the process id in the written
      value.  No register count ever changes — the bug is invisible to
      the space measure — but the lockstep anonymity lint rejects it:
      two processes fed identical inputs and identical scan results
      write different values. *)

type mutant = {
  name : string;
  description : string;
  anonymous : bool;
  rounds : int;
  bound : Agreement.Params.t -> int;  (** the bound the honest algorithm obeys *)
  config : Agreement.Params.t -> Shm.Config.t;
}

val oob_oneshot : mutant
val pid_leak_anonymous : mutant
val all : mutant list

(** What the analyzer says about a mutant at [p]: the summary and the
    diagnostics, exactly as {!Lint.check} under the mutant's own
    anonymity flag. *)
val check : mutant -> Agreement.Params.t -> Absint.summary * Lint.diag list

(** A mutant is rejected iff its static write footprint exceeds
    [bound] or some lint error fires. *)
val rejected : mutant -> Agreement.Params.t -> bool
