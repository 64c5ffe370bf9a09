(* Closed-loop load generation with Zipfian key skew.

   One driver simulates [clients] independent clients, each with a fixed
   key (drawn once from the Zipf distribution — hot keys make hot
   shards) and a private command stream.  Closed loop: a client has at
   most one command in flight and submits its next the moment the
   previous one completes.  Everything is derived from one seed, and the
   driver pumps the server itself, so a run is replayable: same seed,
   same keys, same commands, same committed logs. *)

open Shm

module Zipf = struct
  type t = { cdf : float array; rng : Rng.t }

  let pmf ~keys ~theta =
    if keys <= 0 then invalid_arg "Zipf.pmf: keys must be positive";
    let w = Array.init keys (fun i -> 1.0 /. (float_of_int (i + 1) ** theta)) in
    let total = Array.fold_left ( +. ) 0.0 w in
    Array.map (fun x -> x /. total) w

  let create ~keys ~theta ~seed =
    let pmf = pmf ~keys ~theta in
    let cdf = Array.make keys 0.0 in
    let acc = ref 0.0 in
    Array.iteri
      (fun i p ->
        acc := !acc +. p;
        cdf.(i) <- !acc)
      pmf;
    cdf.(keys - 1) <- 1.0;
    { cdf; rng = Rng.create seed }

  let sample t =
    let u = float_of_int (Rng.int t.rng 1_073_741_824) /. 1_073_741_824.0 in
    (* first index with cdf >= u *)
    let lo = ref 0 and hi = ref (Array.length t.cdf - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if t.cdf.(mid) >= u then hi := mid else lo := mid + 1
    done;
    !lo
end

type config = {
  clients : int;
  ops_per_client : int;
  keys : int;
  theta : float;
  seed : int;
}

type report = {
  ops : int;
  wall_ns : int;
  throughput_cps : float;
  p50_ns : float;
  p99_ns : float;
  max_ns : int;
  mean_ns : float;
  stalls : int;
  failed : int;
}

let counter_workload _rng ~client:_ ~op:_ = Universal.Machines.add 1

let register_workload ?(read_pct = 50) () rng ~client ~op =
  if Rng.int rng 100 < read_pct then App.read
  else Universal.Machines.write (Value.pair (Value.int client) (Value.int op))

let default_command server =
  match Server.app_name server with
  | "counter" -> counter_workload
  | _ -> register_workload ()

let run ?command server cfg =
  if cfg.clients <= 0 then invalid_arg "Loadgen.run: clients must be positive";
  if cfg.ops_per_client < 0 then invalid_arg "Loadgen.run: ops_per_client < 0";
  let command =
    match command with Some c -> c | None -> default_command server
  in
  let total = cfg.clients * cfg.ops_per_client in
  let latencies = Obs.Metrics.Histogram.create () in
  let master = Rng.create cfg.seed in
  let zipf = Zipf.create ~keys:(max 1 cfg.keys) ~theta:cfg.theta ~seed:(cfg.seed + 17) in
  let keys = Array.init cfg.clients (fun _ -> Value.int (Zipf.sample zipf)) in
  let rngs = Array.init cfg.clients (fun _ -> Rng.split master) in
  let done_ops = Array.make cfg.clients 0 in
  let completed = ref 0 in
  let committed = ref 0 in
  let stalls = ref 0 in
  let parked = Queue.create () in
  (* The command for op [i] is drawn exactly once — a backpressure
     retry re-submits the same stored command, so the per-client
     command stream is a pure function of the seed. *)
  let submit_next client =
    let op = done_ops.(client) in
    let cmd = command rngs.(client) ~client ~op in
    if Server.try_submit server ~key:keys.(client) ~tag:client cmd = None then begin
      incr stalls;
      Queue.push (client, cmd) parked
    end
  in
  let complete (ticket : Session.ticket) =
    let client = ticket.Session.tag in
    (match Session.latency_ns ticket with
    | Some ns ->
      Obs.Metrics.Histogram.observe latencies ns;
      incr committed
    | None -> ());
    done_ops.(client) <- done_ops.(client) + 1;
    incr completed;
    if done_ops.(client) < cfg.ops_per_client then submit_next client
  in
  let start_ns = Conform.Clock.now_ns () in
  if cfg.ops_per_client > 0 then begin
    for client = 0 to cfg.clients - 1 do
      submit_next client
    done;
    (* A round that resolves no ticket and admits no parked client
       leaves nothing queued on a live shard, and only a stuck shard
       refuses: the loop has reached its fixed point and stops, leaving
       the rest of [total] uncommitted. *)
    let progress = ref true in
    while !progress && !completed < total do
      let resolved = Server.pump server in
      (* Clients parked on backpressure retry before the resolved ones
         resubmit.  Only the pump frees window room, so one retry pass
         per pump admits every parked client that can get in. *)
      let admitted = ref false in
      for _ = 1 to Queue.length parked do
        let client, cmd = Queue.pop parked in
        if Server.try_submit server ~key:keys.(client) ~tag:client cmd = None then
          Queue.push (client, cmd) parked
        else admitted := true
      done;
      List.iter complete resolved;
      progress := resolved <> [] || !admitted
    done
  end;
  let wall_ns = max 1 (Conform.Clock.now_ns () - start_ns) in
  {
    ops = !committed;
    wall_ns;
    throughput_cps = float_of_int !committed /. (float_of_int wall_ns /. 1e9);
    p50_ns = Obs.Metrics.Histogram.p50 latencies;
    p99_ns = Obs.Metrics.Histogram.p99 latencies;
    max_ns = Obs.Metrics.Histogram.max_value latencies;
    mean_ns = Obs.Metrics.Histogram.mean latencies;
    stalls = !stalls;
    failed = total - !committed;
  }
