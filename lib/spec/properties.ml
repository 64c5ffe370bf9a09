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
   not matter (the Statehash contract). *)
let by_instance_io ~inputs ~outputs =
  let add map (_, inst, v) side =
    let ins, outs = try List.assoc inst map with Not_found -> ([], []) in
    let entry = match side with `In -> (v :: ins, outs) | `Out -> (ins, v :: outs) in
    (inst, entry) :: List.remove_assoc inst map
  in
  let map = List.fold_left (fun m e -> add m e `In) [] inputs in
  let map = List.fold_left (fun m e -> add m e `Out) map outputs in
  List.sort (fun (a, _) (b, _) -> compare a b) map
  |> List.map (fun (i, (ins, outs)) -> (i, List.rev ins, List.rev outs))

let by_instance config =
  by_instance_io ~inputs:(Config.inputs config) ~outputs:(Config.outputs config)

let validity_errors_io ~inputs ~outputs =
  by_instance_io ~inputs ~outputs
  |> List.concat_map (fun (inst, ins, outs) ->
         distinct_values outs
         |> List.filter_map (fun v ->
                if List.exists (Value.equal v) ins then None
                else
                  Some
                    (Fmt.str "instance %d: output %a is not an input (inputs: %a)" inst
                       Value.pp v
                       Fmt.(list ~sep:comma Value.pp)
                       ins)))

let validity_errors config =
  validity_errors_io ~inputs:(Config.inputs config) ~outputs:(Config.outputs config)

let agreement_errors_io ~k ~inputs ~outputs =
  by_instance_io ~inputs ~outputs
  |> List.filter_map (fun (inst, _, outs) ->
         let d = distinct_values outs in
         if List.length d <= k then None
         else
           Some
             (Fmt.str "instance %d: %d distinct outputs > k=%d (%a)" inst
                (List.length d) k
                Fmt.(list ~sep:comma Value.pp)
                d))

let agreement_errors ~k config =
  agreement_errors_io ~k ~inputs:(Config.inputs config)
    ~outputs:(Config.outputs config)

(* Safety check: Validity ∧ k-Agreement on every instance. *)
let check_safety_io ~k ~inputs ~outputs =
  match
    validity_errors_io ~inputs ~outputs @ agreement_errors_io ~k ~inputs ~outputs
  with
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
