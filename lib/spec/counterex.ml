(* The common counterexample currency of the exploration stack.

   Every engine that can exhibit a safety violation — the naive
   exhaustive checker, the DPOR engine, the randomized stress harness —
   reports it as a value of this one type: the pid schedule that
   produced it, the checker's error message, and the final
   configuration.  The schedule is the replayable artifact: processes
   are deterministic, so a pid sequence pins down the entire execution,
   and [replay] reproduces (and re-grades) the violation from the
   initial configuration alone.  The shrinker (Spec.Shrink) works
   exclusively through [replay], so anything reported here can be
   minimized. *)

open Shm

type t = {
  schedule : int list;  (* pids, in step order *)
  error : string;       (* what the property checker reported *)
  config : Config.t;    (* the configuration the checker rejected *)
}

let pp ppf { schedule; error; _ } =
  Fmt.pf ppf "schedule [%s]: %s"
    (String.concat " " (List.map string_of_int schedule))
    error

(* One step of [pid] under the single stepping rule every engine
   shares ([Config.advance]), so "schedule" means the same thing
   everywhere; halted and input-starved processes are left unchanged. *)
let step_pid ~inputs config pid =
  let has_input pid instance = Option.is_some (inputs ~pid ~instance) in
  if Config.runnable config ~has_input pid then fst (Config.advance ~inputs config pid)
  else config

(* Drive [config] to quiescence deterministically (long solo bursts),
   the completion rule of the model checkers. *)
let complete ~inputs ~max_steps config =
  let n = Config.n config in
  let sched = Schedule.quantum_round_robin ~quantum:2000 n in
  (Exec.run ~sched ~inputs ~max_steps config).Exec.config

(* Tolerant replay ([Schedule.replay]): steps the schedule's pids in
   order, skipping any pid that is not currently runnable (shrinking
   removes steps, which can strand later ones), optionally completes,
   then re-checks.  Some (error, config) iff the property still fails.
   Tolerance matters for minimization: a candidate schedule with a
   stranded step is simply a shorter schedule, not an invalid one. *)
let replay ?completion_steps ~inputs ~check config schedule =
  let sched = Schedule.replay ~n:(Config.n config) schedule in
  let max_steps = List.length schedule + 1 in
  let final = (Exec.run ~sched ~inputs ~max_steps config).Exec.config in
  let final =
    match completion_steps with
    | Some max_steps -> complete ~inputs ~max_steps final
    | None -> final
  in
  match check final with Ok () -> None | Error error -> Some (error, final)
