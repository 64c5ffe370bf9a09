(** Well-formedness lints with machine-readable diagnostics.

    Every finding carries a stable rule id, a severity, a one-line
    message and a witness path (chronological step descriptions leading
    to the offending event).  Gate decisions look only at {!errors};
    warnings and infos are advisory.

    Rules:
    - [space/out-of-bounds] ({e error}) — a read, write or scan range
      outside the allocated registers, from the abstract interpreter.
    - [decide/write-after-decide] ({e error}) — a shared write between
      a [Yield] and the next [Await]/[Stop]: output must be the last
      visible action of an operation.
    - [loop/unbounded-solo] ({e error}) — run {e solo} (the m ≥ 1
      obstruction-free case every algorithm must satisfy), a process
      fails to output within the widening fuel: no [Yield]/[Stop]
      reached.  Checked by exact concrete interpretation, not
      abstraction.
    - [anon/pid-dependent-value] ({e error}, anonymous algorithms
      only) — lockstep differential execution of two processes fed
      identical inputs and identical operation results diverges in a
      visible action (operation shape, written value, or output): some
      shared value's construction depends on the process identity.
    - [absint/path-abandoned] ({e info}) — an explored path died in the
      program's own decode logic under an abstract value mix.
    - [absint/widened] ({e warning}) — value sets hit the widening cap;
      value coverage (not register coverage) is incomplete.

    First-order protocols get the [flow/*] rules instead ({!flow}),
    from their {!Dataflow} facts. *)

type severity = Error | Warning | Info

type diag = {
  rule : string;
  severity : severity;
  message : string;
  witness : Absint.witness;
}

val severity_name : severity -> string
val errors : diag list -> diag list
val pp_diag : Format.formatter -> diag -> unit

(** Lockstep differential execution of processes 0 and 1, both
    proposing 1 and fed identical fabricated results, for at most twice
    the solo-termination fuel; diagnoses [anon/pid-dependent-value].
    Configurations with fewer than two processes trivially pass. *)
val anonymity : ?rounds:int -> Shm.Config.t -> diag list

(** The [flow/dead-register-write] (warning), [flow/redundant-scan]
    (warning) and [flow/constant-register] (info) diagnostics of a
    protocol's dataflow facts, each with a shortest entry path as
    witness. *)
val flow : Dataflow.t -> diag list

(** All applicable rules: abstract interpretation (or reuse [summary]),
    the diagnostics derivable from its summary (out-of-bounds,
    write-after-decide, abandoned paths, widening), concrete solo
    termination (each process runs solo, proposing
    {!Agreement.Runner.default_input}, for 4x the abstract widening
    depth per invocation), and — when [anonymous] — the anonymity
    check.  Returns the summary used and the diagnostics. *)
val check :
  ?budgets:Absint.budgets ->
  ?rounds:int ->
  ?summary:Absint.summary ->
  anonymous:bool ->
  Shm.Config.t ->
  Absint.summary * diag list
