(* Seeded chaos injection for native runs.

   A plan is a profile plus a seed; every domain derives its own
   deterministic PRNG stream from (seed, pid), so the *decisions* of
   the chaos layer — when to storm, how long to stall, when to crash —
   replay exactly from the seed.  (Physical timing of course does not
   replay; the seed pins down the disturbance plan, which in practice
   re-provokes the same class of interleaving.)

   Two kinds of injection point:

   - [point]: called at instrumentation points inside operations (the
     double-collect window, between a torn update's two stores, per
     propose iteration).  Never raises; it may burn a yield storm
     (cpu_relax bursts, which on OCaml 5 also services safepoints) or a
     long busy-wait stall — the "process paused mid-operation for an
     adversarial amount of time" schedules of the paper's model.

   - [crash_point]: called by the harness around an operation's effect;
     may raise {!Crashed} to model a mid-operation process crash.  The
     harness records the operation as pending and stops that domain,
     exactly a crash in the wait-free model. *)

type profile = Calm | Yields | Stalls | Crashes | Mixed

exception Crashed

let profile_name = function
  | Calm -> "calm"
  | Yields -> "yields"
  | Stalls -> "stalls"
  | Crashes -> "crashes"
  | Mixed -> "mixed"

let all_profiles = [ Calm; Yields; Stalls; Crashes; Mixed ]

let profile_of_string s =
  List.find_opt (fun p -> profile_name p = s) all_profiles

type plan = { profile : profile; seed : int }

let plan profile ~seed = { profile; seed }

type handle = { profile : profile; rng : Shm.Rng.t }

let handle { profile; seed } ~pid =
  { profile; rng = Shm.Rng.create (seed + (0x9e3779b9 * (pid + 1))) }

let yield_storm rng =
  (* 1 in 4: a burst of 1–256 cpu_relax's — enough to slide the domain
     off its intended interleaving without dominating the run *)
  if Shm.Rng.int rng 4 = 0 then
    for _ = 1 to 1 + Shm.Rng.int rng 256 do
      Domain.cpu_relax ()
    done

(* Busy-wait for [ns] nanoseconds: a stall must not release the domain
   (Unix.sleepf would let the scheduler tidy everything up and hide the
   interleaving we are trying to provoke). *)
let busy_wait_ns ns =
  let deadline = Obs.Trace.now_ns () + ns in
  while Obs.Trace.now_ns () < deadline do
    Domain.cpu_relax ()
  done

let long_stall rng =
  (* 1 in 32: freeze mid-operation for 20–520 µs — several orders of
     magnitude longer than an update/scan, so every other domain runs
     many operations over the stalled one's open interval *)
  if Shm.Rng.int rng 32 = 0 then busy_wait_ns (20_000 + Shm.Rng.int rng 500_000)

let point h =
  match h.profile with
  | Calm | Crashes -> ()
  | Yields -> yield_storm h.rng
  | Stalls -> long_stall h.rng
  | Mixed ->
    yield_storm h.rng;
    long_stall h.rng

let crash_point h =
  match h.profile with
  | Calm | Yields | Stalls -> ()
  | Crashes | Mixed ->
    (* ~1 crash per few hundred crash points: most iterations complete,
       some histories carry genuinely pending operations *)
    if Shm.Rng.int h.rng 400 = 0 then raise Crashed
