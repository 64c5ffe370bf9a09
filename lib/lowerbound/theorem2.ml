(* The executable Theorem 2 adversary.

   Given a (supposed) m-obstruction-free repeated k-set agreement system
   over [registers] registers, this module runs the Figure 2
   construction: it builds the execution

     C0 --α1--> D1 --γ1--> (spliced) --β1--> C1 --α2--> D2 ... --γc-->

   where each αj drives a group Qj until its writes are confined to a
   covered set Aj, βj is a block write to Aj by the poised processes Pj
   (obliterating every trace of the spliced γj), and each γj makes the
   group output |Qj| distinct values in one common fresh instance T.
   Summed over the c = ⌈(k+1)/m⌉ groups that is k+1 distinct outputs in
   instance T — a k-Agreement violation.

   Against an algorithm with r ≤ n+m−k−1 registers the construction
   succeeds (there are enough processes to cover every register).
   Against a correct algorithm (r ≥ n+2m−k) it must fail, and it fails
   in the predicted way: the covered set grows until no replacement
   process q' is available (Out_of_processes) — which is exactly the
   counting step of the proof.

   Deviations from the paper's (non-constructive) proof are listed in
   DESIGN.md (substitutions 3 and 4): bounded δ/γ search, and a fixed
   fresh instance T = icap+1 rather than the a-posteriori s+1.  Any
   Violation this module reports is independently certified: the final
   configuration's output record is checked by Spec.Properties. *)

open Shm

type group = {
  index : int;          (* j *)
  final_q : int list;   (* Qj at loop exit: the spliced-fragment runners *)
  pset : int list;      (* Pj: block writers, in poise order *)
  aset : int list;      (* Aj: covered registers *)
}

type outcome =
  | Violation of {
      instance : int;             (* the attacked instance T *)
      outputs : Value.t list;     (* distinct outputs of instance T *)
      config : Config.t;          (* final configuration of the execution *)
      groups : group list;
    }
  | Out_of_processes of { group : int; aset_size : int; groups_built : int }
      (* the construction ran out of replacement processes — the
         expected outcome against algorithms with enough registers *)
  | Gamma_failed of { group : int; reason : string }
      (* the bounded Lemma 1 search gave up *)

let pp_outcome ppf = function
  | Violation { instance; outputs; _ } ->
    Fmt.pf ppf "VIOLATION: instance %d decided %d distinct values: %a" instance
      (List.length outputs)
      Fmt.(list ~sep:(any ", ") Value.pp)
      outputs
  | Out_of_processes { group; aset_size; groups_built } ->
    Fmt.pf ppf
      "construction failed: out of processes at group %d (|A|=%d, %d groups built) — \
       algorithm resisted"
      group aset_size groups_built
  | Gamma_failed { group; reason } ->
    Fmt.pf ppf "construction failed: gamma search for group %d: %s" group reason

(* Inputs of the attacked execution: arbitrary distinct values for the
   ordinary instances, and — in the fresh instance T — each process
   proposes a value derived from its own id, so that distinct deciders
   certify distinct group outputs. *)
let attack_inputs ~icap ~pid ~instance =
  if instance <= icap then Some (Value.int ((instance * 1000) + pid))
  else if instance = icap + 1 then Some (Value.int (1_000_000 + pid))
  else None

let delta_steps = 30_000

let attack ~params ~registers ~make_config ?(icap = 20) ?(gamma_tries = 1500) () =
  let { Agreement.Params.n; m; k } = params in
  let c = (k + m) / m in
  (* c = ⌈(k+1)/m⌉ since m ≤ k: (k+1+m-1)/m = (k+m)/m *)
  let t = icap + 1 in
  let inputs ~pid ~instance = attack_inputs ~icap ~pid ~instance in
  let all_pids = List.init n Fun.id in
  (* [frozen] are processes whose future steps are already spoken for:
     members of completed groups' final Q sets (their γ was spliced). *)
  let config = (make_config ~registers : Config.t) in
  let exception Stop of outcome in
  let pick_fresh ~avoid ~count ~group =
    let avail = List.filter (fun p -> not (List.mem p avoid)) all_pids in
    if List.length avail < count then
      raise (Stop (Out_of_processes { group; aset_size = 0; groups_built = group - 1 }))
    else List.filteri (fun i _ -> i < count) avail
  in
  try
    let rec build_group j config frozen groups =
      if j > c then (config, List.rev groups, frozen)
      else begin
        let size = if j = 1 then k + 1 - ((c - 1) * m) else m in
        let q0 = pick_fresh ~avoid:frozen ~count:size ~group:j in
        let last = j = c in
        (* The Figure 2 loop: grow (A, P) until the γ probe stays
           confined; the last group is unrestricted. *)
        let rec cover config qset pset aset =
          let allowed reg = last || List.mem reg aset in
          match
            Gamma.build ~allowed ~inputs ~max_steps:delta_steps ~t ~procs:qset
              ~tries:gamma_tries config
          with
          | Gamma.Ok_gamma config' ->
            (config', { index = j; final_q = qset; pset = List.rev pset; aset })
          | Gamma.Failed reason -> raise (Stop (Gamma_failed { group = j; reason }))
          | Gamma.Escape e ->
            (* δ committed: e.pid is poised at register e.reg ∉ A.  Add
               the register to A, move the process to P, bring in a
               fresh replacement. *)
            let aset = e.Explore.reg :: aset in
            let pset = e.Explore.pid :: pset in
            let qset' = List.filter (fun p -> p <> e.Explore.pid) qset in
            let avoid = frozen @ qset' @ pset in
            (match pick_fresh ~avoid ~count:1 ~group:j with
            | [ q' ] -> cover e.Explore.config (q' :: qset') pset aset
            | _ -> assert false
            | exception Stop (Out_of_processes _) ->
              raise
                (Stop
                   (Out_of_processes
                      { group = j; aset_size = List.length aset; groups_built = j - 1 })))
        in
        let config, group = cover config q0 [] [] in
        (* βj: the block write by Pj obliterates the γj traces (skipped
           for the last group, which runs at the end of the execution). *)
        let config =
          if last then config
          else fst (Config.block_write config group.pset)
        in
        build_group (j + 1) config (frozen @ group.final_q) (group :: groups)
      end
    in
    let config, groups, _ = build_group 1 config [] [] in
    let outputs =
      Gamma.distinct_at config ~procs:all_pids ~t
    in
    if List.length outputs > k then Violation { instance = t; outputs; config; groups }
    else
      Gamma_failed
        {
          group = c;
          reason =
            Fmt.str "only %d distinct outputs at instance %d" (List.length outputs) t;
        }
  with Stop outcome -> outcome
