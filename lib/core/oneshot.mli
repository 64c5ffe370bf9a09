(** Figure 3: one-shot m-obstruction-free k-set agreement over a
    snapshot object with r = n + 2m − k components.

    Processes store (pref, id) pairs, scan, and either decide (≤ m
    distinct pairs, no ⊥ — output the smallest-index duplicated pair's
    value), adopt a duplicated pair's value, or advance their location.
    One pseudocode erratum is repaired; see the [adopt_check] comment
    in the implementation and EXPERIMENTS.md, "pseudocode errata". *)

(** The (pref, id) pair as stored in the snapshot. *)
val pair : pref:Shm.Value.t -> pid:int -> Shm.Value.t

(** Lines 9–10: [Some w] iff the view decides, with output [w]. *)
val decide_check : m:int -> Shm.Value.t array -> Shm.Value.t option

(** Lines 11–13 (with the erratum repair): [Some w] iff the process
    adopts [w ≠ pref].  [own] is the pair the process wrote to
    component [i], as {!pair} built it, and [pref] the preference in
    it. *)
val adopt_check :
  pref:Shm.Value.t -> own:Shm.Value.t -> i:int -> Shm.Value.t array -> Shm.Value.t option

(** Lines 11–13 exactly as printed: [Some w] for the value of the
    minimum duplicated pair, even when [w = pref] (the erratum; see
    {!program_paper_literal}).  Same arguments as {!adopt_check}. *)
val adopt_check_paper_literal :
  pref:Shm.Value.t -> own:Shm.Value.t -> i:int -> Shm.Value.t array -> Shm.Value.t option

(** The full one-shot process program: await one invocation, run
    Propose, halt. *)
val program : m:int -> pid:int -> api:Snapshot.Snap_api.t -> Shm.Program.t

(** The program under the paper's literal adoption rule — livelocks on
    stale duplicated pairs; used by the erratum regression test. *)
val program_paper_literal :
  m:int -> pid:int -> api:Snapshot.Snap_api.t -> Shm.Program.t
