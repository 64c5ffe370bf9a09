(* The executable anonymous lower-bound construction (Section 5,
   Lemma 9 / Theorem 10), for groups of size m = 1.

   Idea of the paper's proof: in an anonymous system, fix for every
   input-value set V an execution α(V) by m processes that outputs all
   of V (Lemma 1), and let R(V) be the sequence of distinct registers it
   writes, in first-write order.  If an algorithm used only r registers,
   one could find c = ⌈(k+1)/m⌉ disjoint sets V₁..V_c whose α's share
   the same register sequence, and glue the α's together so that each is
   invisible to the others: clones paused before the last write to each
   register perform block writes that reset the registers between
   fragments.  The glued execution outputs cm ≥ k+1 values — a
   contradiction — unless n < ⌈(k+1)/m⌉(m + (r²−r)/2), i.e. unless
   r > √(m(n/k − 2)).

   This module *executes* that gluing against a register-starved
   anonymous algorithm, with singleton groups (m = 1, so α(Vℓ) is just a
   solo run and Lemma 1 is deterministic):

   - the "clone paused just before ℓ's last write to register x" is
     realized by saving process ℓ's local program state whenever it is
     poised to write x, and planting that state into a fresh process
     slot when the block write is due (Config.plant; see the equivalence
     argument in Config.clone_proc's comment — anonymity makes the
     planted slot indistinguishable from a literal step-shadowing
     clone);
   - the induction over the common register prefix is run forward:
     round j lets every group advance to the point where it is poised to
     write its (j+1)-st distinct register, after a clone block write has
     restored registers R₁..R_{j−1} to that group's own last values.

   Every group therefore runs exactly its solo execution α(Vℓ) and
   outputs its own input: k+1 distinct outputs in a one-shot k-set
   agreement — certified by the checker.  Against an algorithm with
   enough registers the construction runs out of clone slots, matching
   the theorem's process-count threshold. *)

open Shm

type outcome =
  | Violation of {
      outputs : Value.t list;    (* distinct outputs of the one instance *)
      config : Config.t;
      clones_used : int;
      registers_written : int list;  (* the common sequence R₁, R₂, ... *)
    }
  | Out_of_slots of { clones_used : int; slots : int; round : int }
      (* ran out of clone room: expected against well-provisioned
         algorithms, whose register count beats the √(m(n/k−2)) bound *)
  | Prefix_mismatch of { group : int; expected : int; got : int }
      (* groups' register sequences diverged (Lemma 9 would re-choose
         the value sets; with our deterministic algorithms the solo
         schedules align and this does not occur) *)
  | Stuck of string

(* Drive group [pid] solo, taking poised-write snapshots, until it is
   poised at a register outside [discovered] or outputs.  Returns the
   updated configuration, snapshots, and what stopped us. *)
let advance ~inputs config pid ~discovered ~snapshots ~max_steps =
  let rec go config snapshots steps =
    if steps > max_steps then `Stuck
    else
      match Config.proc config pid with
      | Program.Await _ ->
        let inst = Config.instance config pid + 1 in
        (match inputs ~pid ~instance:inst with
        | Some v ->
          let config, _ = Config.invoke config pid v in
          go config snapshots (steps + 1)
        | None -> `Stuck)
      | Program.Stop -> `Decided (config, snapshots)
      | Program.Yield _ ->
        let config, _ = Config.step config pid in
        `Decided (config, snapshots)
      | Program.Op (Program.Write (reg, _), _) as prog ->
        let snapshots = (reg, (prog, Config.instance config pid)) :: snapshots in
        if List.mem reg discovered then
          let config, _ = Config.step config pid in
          go config snapshots (steps + 1)
        else `Poised (config, snapshots, reg)
      | Program.Op ((Program.Read _ | Program.Scan _), _) ->
        let config, _ = Config.step config pid in
        go config snapshots (steps + 1)
  in
  go config snapshots 0

(* Latest snapshot of [group] poised at [reg], if any. *)
let snapshot_for snapshots reg =
  List.find_opt (fun (r, _) -> r = reg) snapshots |> Option.map snd

let max_steps = 200_000

let attack ~params ~registers ~slots ~make_config =
  let k = params.Agreement.Params.k in
  let c = k + 1 in
  (* group ℓ = process slot ℓ, proposing value 1000 + ℓ *)
  let inputs ~pid ~instance =
    if instance = 1 && pid < c then Some (Value.int (1000 + pid)) else None
  in
  let config = (make_config ~registers ~slots : Config.t) in
  let next_slot = ref c in
  let clones_used = ref 0 in
  let exception Stop_attack of outcome in
  (* Clone block write: restore [discovered] minus the group's poised
     register to the group's own last-written values. *)
  let block_reset config snapshots ~group ~upto =
    List.fold_left
      (fun config reg ->
        match snapshot_for snapshots reg with
        | None ->
          (* The common-prefix property of Lemma 9 says every live group
             has written every earlier register; a gap means the chosen
             executions do not share a register sequence. *)
          raise
            (Stop_attack (Prefix_mismatch { group; expected = reg; got = -1 }))
        | Some (prog, inst) ->
          if !next_slot >= slots then
            raise
              (Stop_attack
                 (Out_of_slots
                    { clones_used = !clones_used; slots; round = List.length upto }));
          let slot = !next_slot in
          incr next_slot;
          incr clones_used;
          let config = Config.plant config ~slot prog ~instance:inst in
          fst (Config.step config slot))
      config upto
  in
  try
    (* Every group is poised at its first write after a write-free
       prefix; groups that decide drop out. *)
    let rec round config ~discovered ~live =
      (* live: (group, snapshots) assoc of undecided groups *)
      match live with
      | [] ->
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
      | _ ->
        (* One induction step: each live group resets and advances. *)
        (* Block writes restore R₁..R_{j−1}; the group's own poised write
           re-establishes R_j (the newest discovered register), so it is
           excluded from the reset. *)
        let older = match discovered with [] -> [] | _ :: tl -> List.rev tl in
        let config, live', new_regs =
          List.fold_left
            (fun (config, live', new_regs) (g, snapshots) ->
              let config = block_reset config snapshots ~group:g ~upto:older in
              match
                advance ~inputs config g ~discovered ~snapshots ~max_steps
              with
              | `Decided (config, _) -> (config, live', new_regs)
              | `Poised (config, snapshots, reg) ->
                (config, (g, snapshots) :: live', (g, reg) :: new_regs)
              | `Stuck ->
                raise (Stop_attack (Stuck (Fmt.str "group %d made no progress" g))))
            (config, [], []) live
        in
        (match new_regs with
        | [] -> round config ~discovered ~live:(List.rev live')
        | (_, r0) :: rest ->
          (* Lemma 9 alignment: every still-live group must be poised at
             the same new register. *)
          List.iter
            (fun (g, r) ->
              if r <> r0 then
                raise (Stop_attack (Prefix_mismatch { group = g; expected = r0; got = r })))
            rest;
          round config ~discovered:(r0 :: discovered) ~live:(List.rev live'))
    in
    let live = List.init c (fun g -> (g, [])) in
    round config ~discovered:[] ~live
  with Stop_attack o -> o

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
  | Prefix_mismatch { group; expected; got } ->
    Fmt.pf ppf "register sequences diverged at group %d (R%d vs R%d)" group expected got
  | Stuck msg -> Fmt.pf ppf "construction stuck: %s" msg
