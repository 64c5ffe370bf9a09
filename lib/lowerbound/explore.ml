(* Guarded execution: run a set of processes while watching for a step
   that would write outside an allowed register set.

   This is the primitive of the Figure 2 construction (proof of
   Theorem 2): "let δ be an execution fragment starting from Dj by Qj
   until some process q ∈ Qj is poised for the first time to write to a
   register that is not in Aj".  The returned configuration is the one
   in which the escaping process is still *poised* (its write has not
   executed), exactly what the construction needs to add q to the block-
   writer set Pj. *)

open Shm

type escape = {
  config : Config.t;  (* state with [pid] poised at the offending write *)
  pid : int;
  reg : int;
}

type outcome =
  | Escaped of escape
  | Stopped of Config.t    (* the [stop] predicate became true *)
  | Quiescent of Config.t  (* nothing runnable for the scheduler *)
  | Fuel of Config.t       (* step budget exhausted *)

(* [run ~allowed ~inputs ~sched ~max_steps ~stop config] drives [config]
   under [sched]; before every shared-memory write it checks the target
   register against [allowed].  [stop] is evaluated between steps. *)
let run ~allowed ~inputs ~sched ~max_steps ?(stop = fun _ -> false) config =
  let has_input pid inst = Option.is_some (inputs ~pid ~instance:inst) in
  let rec go config step =
    if stop config then Stopped config
    else if step >= max_steps then Fuel config
    else
      let runnable pid = Config.runnable config ~has_input pid in
      match sched.Schedule.next ~step ~runnable with
      | None -> Quiescent config
      | Some pid -> (
        match Program.poised_write (Config.proc config pid) with
        | Some reg when not (allowed reg) -> Escaped { config; pid; reg }
        | _ -> go (fst (Config.advance ~inputs config pid)) (step + 1))
  in
  go config 0
