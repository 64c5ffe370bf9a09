(* The serving layer (lib/service): routing, batching, backpressure,
   load generation, chaos verdicts, and seeded replay.

   The test drives every slot itself ([Server.pump]) on one domain, so
   runs are fully deterministic. *)

open Shm
open Helpers

let params = Agreement.Params.make ~n:4 ~m:1 ~k:1

let submit_all server ~key cmds =
  List.map
    (fun cmd ->
      match Service.Server.try_submit server ~key cmd with
      | Some ticket -> ticket
      | None -> Alcotest.fail "submission refused below the window")
    cmds

(* --- routing --- *)

let test_routing_deterministic () =
  for i = 0 to 99 do
    let key = Value.pair (Value.int i) (Value.str "k") in
    let a = Service.Sharding.shard_of_key ~shards:8 key
    and b = Service.Sharding.shard_of_key ~shards:8 key in
    Alcotest.(check int) "same key, same shard" a b;
    Alcotest.(check bool) "in range" true (a >= 0 && a < 8)
  done

let test_routing_spread () =
  let shards = 8 and keys = 1000 in
  let hits = Array.make shards 0 in
  for i = 0 to keys - 1 do
    let s = Service.Sharding.shard_of_int ~shards i in
    hits.(s) <- hits.(s) + 1
  done;
  Array.iteri
    (fun s h ->
      if h < keys / shards / 4 then
        Alcotest.failf "shard %d starved: %d of %d keys" s h keys)
    hits

(* --- batching --- *)

let test_batch_roundtrip () =
  let cmds = List.init 5 (fun i -> Universal.Machines.add i) in
  let b = Service.Batch.encode cmds in
  Alcotest.(check int) "size" 5 (Service.Batch.size b);
  match Service.Batch.decode b with
  | None -> Alcotest.fail "decode failed"
  | Some cmds' ->
    List.iter2 (check_value "command") cmds cmds';
    Alcotest.(check bool) "non-batch" true (Service.Batch.decode (vi 3) = None)

(* Committing B commands through one slot must equal committing them
   one slot at a time: same log, same application state. *)
let test_batch_equals_slot_at_a_time () =
  let run ~batch_max =
    let server =
      Service.Server.create ~batch_max ~window:32 ~app:Service.App.counter
        ~shards:1 params
    in
    let cmds = List.init 24 (fun i -> Universal.Machines.add (i + 1)) in
    let _tickets = submit_all server ~key:(vi 7) cmds in
    Service.Server.drain server;
    let shard = Service.Server.shard server 0 in
    (Service.Shard.log shard, Service.Shard.app_state shard,
     (Service.Shard.stats shard).Service.Shard.slots)
  in
  let log_b, state_b, slots_b = run ~batch_max:8 in
  let log_1, state_1, slots_1 = run ~batch_max:1 in
  Alcotest.(check int) "batched commits in fewer slots" 3 slots_b;
  Alcotest.(check int) "slot-at-a-time uses one slot per command" 24 slots_1;
  check_value "same final state" state_1 state_b;
  Alcotest.(check int) "same log length" (List.length log_1) (List.length log_b);
  List.iter2 (check_value "same log") log_1 log_b;
  check_value "counter total" (vi 300) state_b

(* The same equivalence against the existing batch-replication path:
   Rsm.replicate with one command per slot reaches the same state. *)
let test_batch_equals_replicate () =
  let cmds = Array.init 10 (fun i -> Universal.Machines.add (i + 1)) in
  let machine =
    { Universal.Rsm.init = 0;
      apply = (fun s c ->
          match Universal.Machines.tagged c with
          | Some ("add", x) -> s + Value.to_int x
          | _ -> s);
    }
  in
  let run =
    Universal.Rsm.replicate params machine
      ~commands:(fun _ slot -> cmds.(slot - 1))
      ~slots:10
  in
  Alcotest.(check bool) "replicate quiesced" true run.Universal.Rsm.quiescent;
  let server =
    Service.Server.create ~batch_max:10 ~window:16 ~app:Service.App.counter
      ~shards:1 params
  in
  let _ = submit_all server ~key:(vi 0) (Array.to_list cmds) in
  Service.Server.drain server;
  let state = Service.Shard.app_state (Service.Server.shard server 0) in
  let expected =
    match Universal.Rsm.agreement_log run with
    | Some log -> List.fold_left machine.Universal.Rsm.apply 0 log
    | None -> Alcotest.fail "consensus replicas diverged"
  in
  check_value "service state = replicate state" (vi expected) state

(* --- backpressure --- *)

let test_backpressure_window () =
  let server =
    Service.Server.create ~batch_max:4 ~window:8 ~app:Service.App.counter
      ~shards:1 params
  in
  let key = vi 1 in
  let cmd = Universal.Machines.add 1 in
  let _admitted = submit_all server ~key (List.init 8 (fun _ -> cmd)) in
  Alcotest.(check bool) "9th refused at window 8" true
    (Service.Server.try_submit server ~key cmd = None);
  ignore (Service.Server.pump server);
  (* one slot committed batch_max = 4 commands: room again, and never
     more than [window] in flight *)
  Alcotest.(check int) "4 still pending" 4
    (Service.Shard.pending (Service.Server.shard server 0));
  Alcotest.(check bool) "admits again after the slot" true
    (Service.Server.try_submit server ~key cmd <> None);
  Service.Server.drain server;
  Alcotest.(check int) "all drained" 0
    (Service.Shard.pending (Service.Server.shard server 0))

(* --- Zipf --- *)

let test_zipf_pmf () =
  let pmf = Service.Loadgen.Zipf.pmf ~keys:64 ~theta:0.0 in
  let sum = Array.fold_left ( +. ) 0.0 pmf in
  Alcotest.(check bool) "sums to 1" true (abs_float (sum -. 1.0) < 1e-9);
  Array.iter
    (fun p -> Alcotest.(check bool) "uniform at theta 0" true (abs_float (p -. (1.0 /. 64.0)) < 1e-9))
    pmf

let test_zipf_skew seed =
  let keys = 50 in
  let z = Service.Loadgen.Zipf.create ~keys ~theta:1.1 ~seed in
  let hits = Array.make keys 0 in
  for _ = 1 to 20_000 do
    let i = Service.Loadgen.Zipf.sample z in
    hits.(i) <- hits.(i) + 1
  done;
  Alcotest.(check bool) "head is hot" true (hits.(0) > 3 * max 1 hits.(20));
  Alcotest.(check bool) "head above uniform" true (hits.(0) > 20_000 / keys);
  (* determinism: same seed, same draws *)
  let a = Service.Loadgen.Zipf.create ~keys ~theta:1.1 ~seed
  and b = Service.Loadgen.Zipf.create ~keys ~theta:1.1 ~seed in
  for _ = 1 to 100 do
    Alcotest.(check int) "deterministic" (Service.Loadgen.Zipf.sample a)
      (Service.Loadgen.Zipf.sample b)
  done

(* --- crash chaos + conform verdict --- *)

let test_crash_chaos_verdict seed =
  let shards = 2 in
  let server =
    Service.Server.create ~batch_max:4 ~window:16 ~app:Service.App.register
      ~shards params
  in
  let rng = Rng.create seed in
  let submit_round round =
    for client = 0 to 7 do
      let key = vi client in
      let cmd =
        if Rng.bool rng then Service.App.read
        else Universal.Machines.write (Value.pair (vi client) (vi round))
      in
      ignore (Service.Server.try_submit server ~key ~tag:client cmd)
    done
  in
  for round = 1 to 24 do
    submit_round round;
    ignore (Service.Server.pump server);
    if round = 8 then
      Alcotest.(check bool) "crash shard 0 pid 1" true
        (Service.Server.crash_replica server ~shard:0 ~pid:1);
    if round = 16 then begin
      ignore (Service.Server.crash_replica server ~shard:0 ~pid:3);
      ignore (Service.Server.crash_replica server ~shard:1 ~pid:0)
    end
  done;
  Service.Server.drain server;
  (match Service.Server.verdict server with
  | Ok () -> ()
  | Error errs -> Alcotest.failf "verdict: %s" (String.concat "; " errs));
  (* the space bill never grows with load: min(n+2m−k, n) per shard *)
  let bound =
    let p = params in
    min (p.Agreement.Params.n + (2 * p.Agreement.Params.m) - p.Agreement.Params.k)
      p.Agreement.Params.n
  in
  List.iter
    (fun (s : Service.Shard.stats) ->
      if s.Service.Shard.registers > bound then
        Alcotest.failf "shard %d wrote %d registers > bound %d" s.Service.Shard.shard
          s.Service.Shard.registers bound;
      Alcotest.(check bool) "served commands" true (s.Service.Shard.committed > 0))
    (Service.Server.stats server)

(* --- seeded replay --- *)

let test_seeded_replay seed =
  let run () =
    let server =
      Service.Server.create ~batch_max:8 ~window:32 ~app:Service.App.register
        ~shards:3 params
    in
    let report =
      Service.Loadgen.run server
        { Service.Loadgen.clients = 12; ops_per_client = 5; keys = 40;
          theta = 0.9; seed }
    in
    let logs =
      List.init 3 (fun i -> Service.Shard.log (Service.Server.shard server i))
    in
    let states =
      List.init 3 (fun i -> Service.Shard.app_state (Service.Server.shard server i))
    in
    (report.Service.Loadgen.ops, logs, states)
  in
  let ops_a, logs_a, states_a = run () in
  let ops_b, logs_b, states_b = run () in
  Alcotest.(check int) "all ops committed" (12 * 5) ops_a;
  Alcotest.(check int) "same ops" ops_a ops_b;
  List.iter2
    (fun la lb ->
      Alcotest.(check int) "same log length" (List.length la) (List.length lb);
      List.iter2 (check_value "same log") la lb)
    logs_a logs_b;
  List.iter2 (check_value "same state") states_a states_b

(* --- backpressure retry --- *)

(* Sixteen clients on one shard with a window of four: most first
   submissions are refused, so the run goes through Loadgen's parked
   retry loop, and must still commit every op, replay identically and
   pass the verdict. *)
let test_backpressure_retry seed =
  let clients = 16 and ops = 3 in
  let run () =
    let server =
      Service.Server.create ~batch_max:4 ~window:4 ~app:Service.App.register
        ~shards:1 params
    in
    let report =
      Service.Loadgen.run server
        { Service.Loadgen.clients; ops_per_client = ops; keys = 64; theta = 0.8; seed }
    in
    (server, report)
  in
  let server_a, report_a = run () in
  let server_b, report_b = run () in
  Alcotest.(check int) "all ops committed" (clients * ops) report_a.Service.Loadgen.ops;
  Alcotest.(check bool) "clients were parked" true (report_a.Service.Loadgen.stalls > 0);
  Alcotest.(check int) "same stalls" report_a.Service.Loadgen.stalls
    report_b.Service.Loadgen.stalls;
  let log server = Service.Shard.log (Service.Server.shard server 0) in
  Alcotest.(check int) "same log length" (List.length (log server_a))
    (List.length (log server_b));
  List.iter2 (check_value "same log") (log server_a) (log server_b);
  match Service.Server.verdict server_a with
  | Ok () -> ()
  | Error errs -> Alcotest.failf "verdict: %s" (String.concat "; " errs)

(* --- history adapter --- *)

let test_rsm_history_adapter () =
  let w v start finish =
    { Conform.Rsm_history.cmd = Universal.Machines.write (vi v); reply = Value.bot;
      start; finish }
  and r v start finish =
    { Conform.Rsm_history.cmd = Service.App.read; reply = vi v; start; finish }
  in
  (match Conform.Rsm_history.check_register [ w 1 0 10; r 1 20 30 ] with
  | Ok () -> ()
  | Error e -> Alcotest.failf "legal history rejected: %s" e);
  (match Conform.Rsm_history.check_register [ w 1 0 10; r 2 20 30 ] with
  | Ok () -> Alcotest.fail "stale read accepted"
  | Error _ -> ());
  match
    Conform.Rsm_history.check_register
      [ { Conform.Rsm_history.cmd = Universal.Machines.add 1; reply = Value.bot;
          start = 0; finish = 1 } ]
  with
  | Ok () -> Alcotest.fail "non-register command accepted"
  | Error _ -> ()

(* --- BENCH history discipline for the service experiment --- *)

let test_history_schema_discipline () =
  let row =
    Obs.Json.Obj
      [ ("bench", Obs.Json.String "service-throughput");
        ("arm", Obs.Json.String "batched");
        ("ratio_vs_reference", Obs.Json.Float 3.0) ]
  in
  let entry = Obs.History.make ~experiment:"service" [ row ] in
  (match Obs.History.entry_of_json (Obs.History.json_of_entry entry) with
  | Ok e ->
    Alcotest.(check string) "experiment survives" "service" e.Obs.History.experiment;
    Alcotest.(check int) "schema pinned" Obs.History.schema_version e.Obs.History.schema
  | Error e -> Alcotest.failf "roundtrip: %s" e);
  let future =
    Obs.History.json_of_entry { entry with Obs.History.schema = Obs.History.schema_version + 1 }
  in
  match Obs.History.entry_of_json future with
  | Ok _ -> Alcotest.fail "future major schema accepted"
  | Error _ -> ()

(* --- a stuck shard ends the load run --- *)

(* With 10 steps per slot the first slot runs out of fuel: both
   clients' first commands fail and the shard turns stuck, so it
   refuses their second commands for good.  The run must stop there
   and say so, not spin on clients parked behind the stuck shard. *)
let test_stuck_shard_ends_run () =
  let server =
    Service.Server.create ~max_steps_per_slot:10 ~shards:1 params
  in
  let report =
    Service.Loadgen.run server
      { Service.Loadgen.clients = 2; ops_per_client = 3; keys = 4; theta = 0.0; seed = 0 }
  in
  Alcotest.(check int) "nothing committed" 0 report.Service.Loadgen.ops;
  Alcotest.(check int) "every op reported failed" 6 report.Service.Loadgen.failed;
  Alcotest.(check bool) "the shard is stuck" true
    (Service.Shard.is_stuck (Service.Server.shard server 0));
  match Service.Server.verdict server with
  | Ok () -> Alcotest.fail "a stuck shard passed the verdict"
  | Error _ -> ()

(* --- a stuck shard fails its whole queue --- *)

(* With one command per batch and 10 steps per slot, the first slot
   runs out of fuel while two more commands wait behind it.  The shard
   can never run another slot, so those two must fail with the first
   instead of staying pending for ever, and [drain] must return. *)
let test_stuck_shard_fails_queue () =
  let server =
    Service.Server.create ~batch_max:1 ~window:4 ~max_steps_per_slot:10
      ~shards:1 params
  in
  let tickets =
    submit_all server ~key:(vi 0)
      (List.init 3 (fun i -> Universal.Machines.write (vi i)))
  in
  Service.Server.drain server;
  List.iteri
    (fun i (tk : Service.Session.ticket) ->
      match tk.Service.Session.state with
      | Service.Session.Failed _ -> ()
      | _ -> Alcotest.failf "ticket %d is not Failed" i)
    tickets;
  Alcotest.(check int) "nothing pending" 0
    (Service.Shard.pending (Service.Server.shard server 0))

let suite =
  [
    test "routing is deterministic" test_routing_deterministic;
    test "routing spreads keys" test_routing_spread;
    test "batch encode/decode roundtrip" test_batch_roundtrip;
    test "batch-decide ≡ slot-at-a-time" test_batch_equals_slot_at_a_time;
    test "service state ≡ Rsm.replicate state" test_batch_equals_replicate;
    test "backpressure bounds the window" test_backpressure_window;
    test "zipf pmf normalizes; theta 0 uniform" test_zipf_pmf;
    seeded_test "zipf skew + determinism" test_zipf_skew;
    seeded_test "crash chaos passes conform verdict" test_crash_chaos_verdict;
    seeded_test "seeded load runs replay identically" test_seeded_replay;
    seeded_test "backpressure retry commits and replays" test_backpressure_retry;
    test "rsm history adapter grades registers" test_rsm_history_adapter;
    test "service history entries keep schema discipline" test_history_schema_discipline;
    test "a stuck shard ends the load run" test_stuck_shard_ends_run;
    test "a stuck shard fails its whole queue" test_stuck_shard_fails_queue;
  ]
