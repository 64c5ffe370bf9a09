(* The general Lemma 9 / Theorem 10 construction, for group size m ≥ 1.

   Section 5's proof glues c = ⌈(k+1)/m⌉ executions α(V₁)..α(V_c) — each
   by a disjoint group of m processes outputting its m values — into one
   execution where all cm ≥ k+1 values are output, using clones to reset
   the registers between fragments.  This module executes that gluing:

   1. Search one α execution for the first group (Alpha.search records
      its schedule).  Anonymity makes the same schedule, pid-renamed,
      the isomorphic α for every other group — which also guarantees
      Lemma 9's common register-sequence requirement by construction.
   2. Interleave the groups round by round: in round j each group, after
      a clone block write restoring R₁..R_{j−1} to its own last-written
      values, replays its schedule up to the first write of a new
      register (the fragments are verified step-by-step against the
      recording; any divergence aborts loudly).
   3. When every group's replay completes, instance 1 has ⌈(k+1)/m⌉·m
      distinct outputs — a k-Agreement violation certified by the
      checker.

   As in the m = 1 special case (Clones), "a clone paused just before
   the last write to register x" is realized by planting the writer's
   saved local state into a fresh slot (see Config.clone_proc's
   equivalence argument).  The slot budget matches the theorem's
   ⌈(k+1)/m⌉(m + (r²−r)/2) count. *)

open Shm

type outcome =
  | Violation of {
      outputs : Value.t list;
      config : Config.t;
      clones_used : int;
      registers_written : int list;
    }
  | Out_of_slots of { clones_used : int; slots : int; round : int }
  | Alpha_failed of string    (* no α execution found by the search *)
  | Diverged of string        (* replay left the recorded execution *)
  | Stuck of string

let pp_outcome ppf = function
  | Violation { outputs; clones_used; registers_written; _ } ->
    Fmt.pf ppf "VIOLATION: %d distinct outputs (%a) using %d clones over registers %a"
      (List.length outputs)
      Fmt.(list ~sep:(any ", ") Value.pp)
      outputs clones_used
      Fmt.(list ~sep:(any ", ") int)
      registers_written
  | Out_of_slots { clones_used; slots; round } ->
    Fmt.pf ppf
      "construction failed: out of clone slots (%d used of %d, round %d) — algorithm \
       resisted"
      clones_used slots round
  | Alpha_failed msg -> Fmt.pf ppf "no alpha execution found: %s" msg
  | Diverged msg -> Fmt.pf ppf "replay diverged from the recording: %s" msg
  | Stuck msg -> Fmt.pf ppf "construction stuck: %s" msg

type group = {
  members : int list;
  mutable cursor : Alpha.step list;          (* remaining schedule *)
  mutable snapshots : (int * (Program.t * int)) list;
      (* register -> poised state of its last writer (latest first) *)
}

let alpha_tries = 3000
let max_steps = 30_000

let attack ~params ~registers ~slots ~make_config =
  let m = params.Agreement.Params.m and k = params.Agreement.Params.k in
  let c = (k + m) / m in
  (* group ℓ occupies slots ℓm .. ℓm+m−1; member i proposes 1000ℓ + i *)
  let member l i = (l * m) + i in
  let value l i = Value.int ((1000 * (l + 1)) + i) in
  let inputs ~pid ~instance =
    if instance = 1 && pid < c * m then
      Some (value (pid / m) (pid mod m))
    else None
  in
  (* Phase 1: one recorded α for group 0, on a pristine branch. *)
  let fresh = (make_config ~registers ~slots : Config.t) in
  match
    Alpha.search ~max_steps ~tries:alpha_tries
      ~procs:(List.init m (member 0))
      ~values:(List.init m (value 0))
      fresh
  with
  | None -> Alpha_failed (Fmt.str "no %d-output execution within %d tries" m alpha_tries)
  | Some alpha ->
    (* Phase 2: the glued run. *)
    let groups =
      List.init c (fun l ->
          let rename pid = member l (pid - member 0 0) in
          { members = List.init m (member l);
            cursor = Alpha.map_pids rename alpha.Alpha.schedule;
            snapshots = [] })
    in
    let next_slot = ref (c * m) in
    let clones_used = ref 0 in
    let exception Stop of outcome in
    let plant_reset config g ~older ~round =
      List.fold_left
        (fun config reg ->
          match List.assoc_opt reg g.snapshots with
          | None ->
            raise (Stop (Stuck (Fmt.str "no snapshot for R%d" reg)))
          | Some (prog, inst) ->
            if !next_slot >= slots then
              raise (Stop (Out_of_slots { clones_used = !clones_used; slots; round }));
            let slot = !next_slot in
            incr next_slot;
            incr clones_used;
            let config = Config.plant config ~slot prog ~instance:inst in
            fst (Config.step config slot))
        config older
    in
    (* Replay group [g] until its next step would write a register not
       in [discovered]; returns the poised new register, or None when
       the schedule is exhausted. *)
    let rec advance config g ~discovered =
      match g.cursor with
      | [] -> (config, None)
      | (Alpha.Move (pid, Some (Program.Write (reg, _))) as step) :: rest ->
        (* snapshot the poised writer before the write executes *)
        g.snapshots <- (reg, (Config.proc config pid, Config.instance config pid))
                       :: List.remove_assoc reg g.snapshots;
        if List.mem reg discovered then begin
          let config = Alpha.replay_step ~inputs config step in
          g.cursor <- rest;
          advance config g ~discovered
        end
        else (config, Some reg)
      | step :: rest ->
        let config = Alpha.replay_step ~inputs config step in
        g.cursor <- rest;
        advance config g ~discovered
    in
    (try
       let rec rounds config ~discovered ~round =
         let live = List.filter (fun g -> g.cursor <> []) groups in
         if live = [] then begin
           let outputs =
             Config.outputs config
             |> List.filter_map (fun (_, inst, v) -> if inst = 1 then Some v else None)
             |> Spec.Properties.distinct_values
           in
           if List.length outputs > k then
             Violation
               {
                 outputs;
                 config;
                 clones_used = !clones_used;
                 registers_written = List.rev discovered;
               }
           else Stuck (Fmt.str "only %d distinct outputs" (List.length outputs))
         end
         else begin
           let older = match discovered with [] -> [] | _ :: tl -> List.rev tl in
           let config, new_regs =
             List.fold_left
               (fun (config, new_regs) g ->
                 let config =
                   if round = 0 then config else plant_reset config g ~older ~round
                 in
                 match advance config g ~discovered with
                 | config, Some reg -> (config, reg :: new_regs)
                 | config, None -> (config, new_regs))
               (config, []) live
           in
           match new_regs with
           | [] -> rounds config ~discovered ~round:(round + 1)
           | r0 :: rest ->
             List.iter
               (fun r ->
                 if r <> r0 then
                   raise
                     (Stop
                        (Diverged
                           (Fmt.str "groups poised at different registers R%d/R%d" r0 r))))
               rest;
             rounds config ~discovered:(r0 :: discovered) ~round:(round + 1)
         end
       in
       let config = (make_config ~registers ~slots : Config.t) in
       rounds config ~discovered:[] ~round:0
     with
    | Stop o -> o
    | Alpha.Replay_diverged msg -> Diverged msg)
