(* Adapter from serving-layer command histories to the existing
   checkers: per-command records (what was submitted, what was replied,
   the real-time interval) become Spec.Linearize events, and a shard's
   underlying configuration is graded by Spec.Properties.check_safety.

   The register application is the linearizability vehicle: a
   ("write", v) command is an Update of component 0, a ("read", _)
   command is a Scan whose one-component view is the reply the service
   returned.  Any other command shape has no register meaning, so
   [check_register] rejects the history rather than silently skipping
   commands that might have mutated the state. *)

open Shm

type record = {
  cmd : Value.t;
  reply : Value.t;
  start : int;
  finish : int;
}

(* Register reading of one record: [("write", v)] is an update of
   component 0, [("read", _)] is a scan whose view is the reply; [None]
   for any other command shape. *)
let classify r =
  match Value.view r.cmd with
  | Value.Pair (tag, arg) -> (
      match Value.view tag with
      | Value.Str "write" -> Some (Spec.Linearize.Update { i = 0; v = arg })
      | Value.Str "read" -> Some (Spec.Linearize.Scan { view = [| r.reply |] })
      | _ -> None)
  | _ -> None

(* The register events of a history, in record order, with the record
   index as the event pid; records [classify] cannot read are dropped. *)
let events_of_records records =
  List.mapi
    (fun idx r ->
      match classify r with
      | None -> None
      | Some op ->
        Some { Spec.Linearize.pid = idx; op; start = r.start; finish = r.finish })
    records
  |> List.filter_map Fun.id

let check_register records =
  let events = events_of_records records in
  if List.length events <> List.length records then
    Error "history contains a command that is neither a write nor a read"
  else if Spec.Linearize.check ~components:1 events then Ok ()
  else Error "history is not linearizable as a register"

let check_agreement ~k config = Spec.Properties.check_safety ~k config
