(* Checkers for the three properties of repeated k-set agreement
   (Section 2.1 of the paper), evaluated on finished configurations:

   - Validity:     ∀i, Out_i(α) ⊆ In_i(α)
   - k-Agreement:  ∀i, |Out_i(α)| ≤ k
   - m-Obstruction-Freedom is a liveness property; it is checked by the
     runner-level helpers below (every process completed its operations
     in a run whose scheduler eventually ran at most m processes). *)

open Shm

let distinct_values vs =
  List.fold_left (fun acc v -> if List.exists (Value.equal v) acc then acc else v :: acc) [] vs
  |> List.rev

(* Instance -> (inputs, outputs), in instance order.  Works on bare
   (pid, instance, value) record lists so both execution engines can
   use it: the interpreter's [Config.t] carries the lists directly,
   the vm decodes them from its i/o log ([Shm.Vm.final]).  The
   checkers only inspect multisets per instance, so record order does
   not matter (the Statehash contract); within an instance the records
   keep their list order.

   One pass: each side is stably sorted by instance, then the two
   sorted lists are walked together, one group per instance. *)
let by_instance_io ~inputs ~outputs =
  let by_inst = List.stable_sort (fun (_, a, _) (_, b, _) -> Int.compare a b) in
  (* the values of the leading records of instance [i], and the rest *)
  let rec take i acc = function
    | (_, j, v) :: rest when j = i -> take i (v :: acc) rest
    | rest -> (List.rev acc, rest)
  in
  let rec walk acc ins outs =
    match (ins, outs) with
    | [], [] -> List.rev acc
    | (_, i, _) :: _, [] | [], (_, i, _) :: _ -> group acc i ins outs
    | (_, a, _) :: _, (_, b, _) :: _ -> group acc (min a b) ins outs
  and group acc i ins outs =
    let ins_i, ins = take i [] ins in
    let outs_i, outs = take i [] outs in
    walk ((i, ins_i, outs_i) :: acc) ins outs
  in
  walk [] (by_inst inputs) (by_inst outputs)

let by_instance config =
  by_instance_io ~inputs:(Config.inputs config) ~outputs:(Config.outputs config)

(* The checkers below read a grouping built once by [by_instance_io]. *)

let validity_of groups =
  List.concat_map
    (fun (inst, ins, outs) ->
      distinct_values outs
      |> List.filter_map (fun v ->
             if List.exists (Value.equal v) ins then None
             else
               Some
                 (Fmt.str "instance %d: output %a is not an input (inputs: %a)" inst
                    Value.pp v
                    Fmt.(list ~sep:(any ", ") Value.pp)
                    ins)))
    groups

let validity_errors config = validity_of (by_instance config)

let agreement_of ~k groups =
  List.filter_map
    (fun (inst, _, outs) ->
      let d = distinct_values outs in
      if List.length d <= k then None
      else
        Some
          (Fmt.str "instance %d: %d distinct outputs > k=%d (%a)" inst
             (List.length d) k
             Fmt.(list ~sep:(any ", ") Value.pp)
             d))
    groups

let agreement_errors ~k config = agreement_of ~k (by_instance config)

(* Safety check: Validity ∧ k-Agreement on every instance. *)
let check_safety_io ~k ~inputs ~outputs =
  let groups = by_instance_io ~inputs ~outputs in
  match validity_of groups @ agreement_of ~k groups with
  | [] -> Ok ()
  | errs -> Error (String.concat "; " errs)

let check_safety ~k config =
  check_safety_io ~k ~inputs:(Config.inputs config) ~outputs:(Config.outputs config)

(* Liveness helper: did process [pid] complete [expected] operations?
   An operation is complete once its output is recorded. *)
let completed_ops config pid =
  List.length (List.filter (fun (p, _, _) -> p = pid) (Config.outputs config))

(* Termination errors for a run that should have quiesced with every
   process finishing [expected pid] operations. *)
let termination_errors ~expected config =
  List.init (Config.n config) (fun pid ->
      let done_ = completed_ops config pid in
      let want = expected pid in
      if done_ >= want then None
      else Some (Fmt.str "p%d completed %d/%d operations" pid done_ want))
  |> List.filter_map Fun.id
