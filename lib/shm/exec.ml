(* The execution runner: drives a configuration under a scheduler.

   Invocation policy: when the scheduler picks an idle process, the
   runner invokes that process's next operation using [inputs] (a pure
   function from (pid, instance) to the input value, or None when the
   process has no further operations — one-shot tasks return None for
   instance 2). *)

type stop_reason =
  | All_quiescent   (* no process is runnable: every live process finished *)
  | Fuel_exhausted  (* max_steps reached with runnable processes left *)

type result = {
  config : Config.t;
  steps : int;
  stopped : stop_reason;
  trace : Event.t list;  (* chronological; empty unless [record] *)
}

(* [sink] is called on every event as it happens, so observers (metric
   registries, span trackers, JSONL export) run in O(1) memory however
   long the schedule; [record] additionally keeps the in-memory list.

   [probe] is the post-state hook: unlike [sink] it also sees the step
   index and the configuration *after* the event, which is what
   coverage timelines need (which registers are poised-covered now).
   Shm cannot depend on the observability layer, so the hook is a bare
   function — Obs.Coverage supplies one.  Like [sink] it is hoisted
   once per run: absent means one extra [match] at startup and nothing
   per step. *)
let run ?(record = false) ?sink ?probe ?(max_steps = 1_000_000) ~sched ~inputs config =
  let has_input pid inst = Option.is_some (inputs ~pid ~instance:inst) in
  let observe = match sink with Some f -> f | None -> fun _ -> () in
  let observe_config =
    match probe with Some f -> f | None -> fun ~step:_ _ _ -> ()
  in
  (* one [runnable] closure for the whole run, reading the current
     configuration through a cell — the scheduler probes it up to n
     times per step, so a per-step closure shows up in profiles *)
  let cur = ref config in
  let runnable pid = Config.runnable !cur ~has_input pid in
  let rec go config step trace =
    if step >= max_steps then
      { config; steps = step; stopped = Fuel_exhausted; trace = List.rev trace }
    else (
      cur := config;
      match sched.Schedule.next ~step ~runnable with
      | None -> { config; steps = step; stopped = All_quiescent; trace = List.rev trace }
      | Some pid ->
        let config, ev = Config.advance ~inputs config pid in
        observe ev;
        observe_config ~step ev config;
        go config (step + 1) (if record then ev :: trace else trace))
  in
  go config 0 []

(* Convenience input functions. *)

(* One-shot: process [pid] proposes [inputs.(pid)] once. *)
let oneshot_inputs values ~pid ~instance =
  if instance = 1 && pid < Array.length values then Some values.(pid) else None

(* Repeated: [rounds] instances; instance i of pid proposes f pid i. *)
let repeated_inputs ~rounds f ~pid ~instance =
  if instance >= 1 && instance <= rounds then Some (f pid instance) else None

let pp_trace ppf trace =
  Fmt.pf ppf "@[<v>%a@]" (Fmt.list ~sep:Fmt.cut Event.pp) trace
