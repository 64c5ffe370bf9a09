(* Branch analysis for k-branching replicated machines (k > 1).

   Each slot of a k-set agreement log may commit up to k alternative
   commands; replicas follow the branch they learned.  This module
   reports the branch structure of a finished run: committed command
   sets per slot, which replicas follow which branch, and the total
   number of distinct replica views. *)

open Shm

type slot_info = {
  slot : int;
  branches : Value.t list;   (* distinct committed commands, ≤ k *)
  followers : (Value.t * int list) list;  (* branch -> replica pids *)
}

let slot_infos config =
  Spec.Properties.by_instance config
  |> List.map (fun (slot, _, _) ->
         let per_replica =
           Config.outputs config
           |> List.filter_map (fun (pid, inst, v) ->
                  if inst = slot then Some (pid, v) else None)
         in
         let branches =
           Spec.Properties.distinct_values (List.map snd per_replica)
         in
         let followers =
           List.map
             (fun b ->
               ( b,
                 per_replica
                 |> List.filter_map (fun (pid, v) ->
                        if Value.equal v b then Some pid else None)
                 |> List.sort compare ))
             branches
         in
         { slot; branches; followers })

(* Replicas holding pairwise-distinct logs (≤ number of leaf branches). *)
let distinct_views (run : 'a Rsm.run) =
  List.fold_left
    (fun acc (r : 'a Rsm.replica) ->
      if
        List.exists
          (fun log ->
            List.length log = List.length r.Rsm.log
            && List.for_all2 Value.equal log r.Rsm.log)
          acc
      then acc
      else r.Rsm.log :: acc)
    [] run.Rsm.replicas
  |> List.length

(* Every slot respects the k bound. *)
let max_branching infos =
  List.fold_left (fun acc i -> max acc (List.length i.branches)) 0 infos

let pp_slot ppf i =
  Fmt.pf ppf "slot %d: %a" i.slot
    Fmt.(
      list ~sep:(any " | ") (fun ppf (b, pids) ->
          pf ppf "%a <- {%a}" Value.pp b (list ~sep:(any ", ") int) pids))
    i.followers
