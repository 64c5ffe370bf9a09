(* High-level run helpers: one call from parameters to a finished
   execution, for tests, examples and the bench harness. *)

open Shm

(* Default inputs: process pid proposes the integer pid+1 in instance 1,
   and 100·instance + pid in later instances, so that instances have
   disjoint input domains (handy when eyeballing traces). *)
let default_input ~pid ~instance =
  if instance = 1 then Value.int (pid + 1) else Value.int ((100 * instance) + pid)

let run_oneshot ?record ?impl ?r ?sched ?sink ?(max_steps = 200_000) ?inputs (p : Params.t) =
  let n = p.Params.n in
  let sched = Option.value sched ~default:(Schedule.round_robin n) in
  let inputs =
    Option.value inputs ~default:(Array.init n (fun pid -> Value.int (pid + 1)))
  in
  let config = Instances.oneshot ?impl ?r p in
  Exec.run ?record ?sink ~sched ~inputs:(Exec.oneshot_inputs inputs) ~max_steps config

let run_repeated ?impl ?sched ?sink ?(max_steps = 500_000) ?(rounds = 3) ?input_fn
    (p : Params.t) =
  let n = p.Params.n in
  let sched = Option.value sched ~default:(Schedule.round_robin n) in
  let input_fn =
    Option.value input_fn ~default:(fun pid instance -> default_input ~pid ~instance)
  in
  let config = Instances.repeated ?impl p in
  Exec.run ?sink ~sched ~inputs:(Exec.repeated_inputs ~rounds input_fn) ~max_steps config

let run_baseline ?sched ?(max_steps = 200_000) (p : Params.t) =
  let n = p.Params.n in
  let sched = Option.value sched ~default:(Schedule.round_robin n) in
  let inputs = Array.init n (fun pid -> Value.int (pid + 1)) in
  let config = Instances.baseline p in
  Exec.run ~sched ~inputs:(Exec.oneshot_inputs inputs) ~max_steps config

let run_anonymous ?r ?anonymous_collect ?seed ?sched ?sink ?(max_steps = 500_000)
    ?(rounds = 1) ?input_fn (p : Params.t) =
  let n = p.Params.n in
  let sched = Option.value sched ~default:(Schedule.round_robin n) in
  let input_fn =
    Option.value input_fn ~default:(fun pid instance -> default_input ~pid ~instance)
  in
  let config = Instances.anonymous ?r ?anonymous_collect ?seed p in
  Exec.run ?sink ~sched ~inputs:(Exec.repeated_inputs ~rounds input_fn) ~max_steps config

(* ------------------------------------------------------------------ *)
(* First-order protocols run under either engine: the free-monad
   interpreter (the reference) or the bytecode vm.  Both see the same
   schedule and inputs; the result is the engine-neutral summary
   ([Vm.vresult], compared by [Vm.diff]). *)

type engine = Interp | Vm

let engine_name = function Interp -> "interp" | Vm -> "vm"

let engine_of_string s =
  match String.lowercase_ascii s with
  | "interp" | "interpreter" -> Some Interp
  | "vm" | "bytecode" -> Some Vm
  | _ -> None

(* One invocation per process, [default_input] — the fuzzer's input
   space, so [sa_run protocol] and the oracles judge the same runs. *)
let proto_inputs ~pid ~instance =
  if instance = 1 then Some (default_input ~pid ~instance) else None

let run_proto ?(engine = Interp) ?backend ?record ?sched ?(max_steps = 200_000)
    (p : Vm.proto) =
  let sched = Option.value sched ~default:(Schedule.round_robin p.Vm.n) in
  match engine with
  | Interp ->
    Vm.of_exec
      (Exec.run ?record ~sched ~inputs:proto_inputs ~max_steps (Vm.config ?backend p))
  | Vm -> Vm.run ?record ~max_steps ~sched (Vm.env (Vm.compile p) ~inputs:proto_inputs)

(* Outputs of instance [i], with multiplicity, in completion order. *)
let outputs_of_instance result ~instance =
  Config.outputs result.Exec.config
  |> List.filter_map (fun (_, inst, v) -> if inst = instance then Some v else None)

(* Registers actually written during the run — the space measure. *)
let registers_used result = Memory.num_written (Config.mem result.Exec.config)
