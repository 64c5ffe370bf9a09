(* One shard: a bounded command queue in front of one repeated-agreement
   instance space (Rsm.Stepper).

   Single domain.  The caller that owns the server admits commands and
   steps every shard itself ([Server.pump]), so no field needs a lock
   and [stats] reads the stepper directly.

   Backpressure.  [window] bounds in-flight commands (admitted, not yet
   committed): [try_admit] refuses above it.  Since a slot commits at
   most [batch_max] commands, the window also bounds how far a client
   can run ahead of the decided log.

   Space.  The stepper's register footprint is min(n+2m−k, n) and does
   not grow with slots — the shard serves forever in constant shared
   memory.  Queue/log/history are local bookkeeping, not registers. *)

open Shm
open Universal

type stats = {
  shard : int;
  slots : int;
  committed : int;
  steps : int;
  registers : int;
  alive : int;
  pending : int;
  stuck : bool;
}

type t = {
  id : int;
  app : App.t;
  batch_max : int;
  window : int;
  queue : Session.ticket Queue.t;
  mutable in_flight : int;
  mutable stepper : Rsm.Stepper.t;
  mutable alive : int list;
  mutable app_state : Value.t;
  mutable committed : int;
  mutable stuck : bool;
  mutable log_rev : Value.t list;
  record_history : bool;
  mutable history_rev : Conform.Rsm_history.record list;
}

let create ?(max_steps_per_slot = 2_000_000) ?(history = true) ~id ~batch_max
    ~window (params : Agreement.Params.t) ~app () =
  if batch_max <= 0 then invalid_arg "Shard.create: batch_max must be positive";
  if window < batch_max then
    invalid_arg "Shard.create: window must be at least batch_max";
  {
    id;
    app;
    batch_max;
    window;
    queue = Queue.create ();
    in_flight = 0;
    stepper = Rsm.Stepper.create ~max_steps_per_slot params;
    alive = List.init params.Agreement.Params.n Fun.id;
    app_state = app.App.init;
    committed = 0;
    stuck = false;
    log_rev = [];
    record_history = history;
    history_rev = [];
  }

let id t = t.id

let try_admit t ticket =
  let ok = (not t.stuck) && t.in_flight < t.window in
  if ok then begin
    t.in_flight <- t.in_flight + 1;
    Queue.push ticket t.queue
  end;
  ok

let pending t = t.in_flight

let crash_replica t pid =
  let crashed = List.mem pid t.alive && List.length t.alive > 1 in
  if crashed then t.alive <- List.filter (fun p -> p <> pid) t.alive;
  crashed

(* Deterministic per-slot schedule: [quantum]-step solo bursts over the
   live pids, rotated by slot number so successive slots favor different
   leaders.  Solo bursts keep termination guaranteed
   (obstruction-freedom), and the rotation point doubles as the
   determinism hook for replay. *)
let quantum = 800

let slot_sched ~alive ~slot =
  let a = Array.of_list alive in
  let len = Array.length a in
  let rot = slot mod len in
  let groups =
    List.init len (fun i -> [ a.((i + rot) mod len) ])
  in
  Schedule.alternating ~burst:quantum groups

(* A stuck shard never runs another slot, so fail the popped batch and
   every ticket queued behind it; returns them all, batch first. *)
let fail_all t batch msg =
  t.stuck <- true;
  let tickets = batch @ List.of_seq (Queue.to_seq t.queue) in
  Queue.clear t.queue;
  List.iter
    (fun (tk : Session.ticket) -> tk.Session.state <- Session.Failed msg)
    tickets;
  t.in_flight <- 0;
  tickets

let commit t tickets cmds =
  let slot = Rsm.Stepper.slot t.stepper in
  let state', replies = Batch.apply_all t.app t.app_state cmds in
  let finish_ns = Obs.Trace.now_ns () in
  let n = List.length cmds in
  t.app_state <- state';
  t.committed <- t.committed + n;
  List.iter2
    (fun (tk : Session.ticket) reply ->
      tk.Session.state <- Session.Done { reply; slot; finish_ns };
      if t.record_history then
        t.history_rev <-
          {
            Conform.Rsm_history.cmd = tk.Session.cmd;
            reply;
            start = tk.Session.submit_ns;
            finish = finish_ns;
          }
          :: t.history_rev)
    tickets replies;
  t.in_flight <- t.in_flight - n;
  t.log_rev <- List.rev_append cmds t.log_rev

let run_slot t =
  if Queue.is_empty t.queue || t.stuck then []
  else begin
    let batch_n = min t.batch_max (Queue.length t.queue) in
    let tickets = List.init batch_n (fun _ -> Queue.pop t.queue) in
    let cmds = List.map (fun (tk : Session.ticket) -> tk.Session.cmd) tickets in
    let proposal = Batch.encode cmds in
    let alive = t.alive in
    let sched = slot_sched ~alive ~slot:(Rsm.Stepper.slot t.stepper) in
    let proposals pid = if List.mem pid alive then Some proposal else None in
    let steps_before = Rsm.Stepper.steps t.stepper in
    let span =
      match Obs.Trace.attached () with
      | None -> None
      | Some tr ->
        Some
          ( tr,
            Obs.Trace.begin_span tr ~cat:"service"
              ~args:
                [
                  ("shard", Obs.Json.Int t.id);
                  ("slot", Obs.Json.Int (Rsm.Stepper.slot t.stepper + 1));
                  ("batch", Obs.Json.Int batch_n);
                ]
              "service.slot" )
    in
    let outcome = Rsm.Stepper.step_slot ~sched t.stepper ~proposals in
    t.stepper <- outcome.Rsm.Stepper.stepper;
    (match span with
    | None -> ()
    | Some (tr, ctx) ->
      let slot_steps = Rsm.Stepper.steps t.stepper - steps_before in
      Obs.Trace.end_span tr ~args:[ ("steps", Obs.Json.Int slot_steps) ] ctx);
    if not outcome.Rsm.Stepper.quiescent then
      fail_all t tickets
        (Printf.sprintf "shard %d: slot %d exhausted its step budget" t.id
           (Rsm.Stepper.slot t.stepper))
    else
      (* All live replicas proposed the same batch, so by validity every
         decision is that batch; take the first and decode defensively. *)
      let decided =
        match outcome.Rsm.Stepper.decisions with
        | (_, v) :: _ -> Batch.decode v
        | [] -> None
      in
      match decided with
      | Some committed when List.length committed = batch_n ->
        commit t tickets committed;
        tickets
      | _ ->
        fail_all t tickets
          (Printf.sprintf "shard %d: slot decided a non-batch value" t.id)
  end

let stats t =
  {
    shard = t.id;
    slots = Rsm.Stepper.slot t.stepper;
    committed = t.committed;
    steps = Rsm.Stepper.steps t.stepper;
    registers = Rsm.Stepper.registers_used t.stepper;
    alive = List.length t.alive;
    pending = t.in_flight;
    stuck = t.stuck;
  }

let config t = Rsm.Stepper.config t.stepper
let app_state t = t.app_state
let log t = List.rev t.log_rev
let history t = List.rev t.history_rev
let records_history t = t.record_history
let is_stuck t = t.stuck
