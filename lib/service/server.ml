(* The serving facade: route, admit, decide, reply.

   A server owns [shards] independent repeated-agreement shards; the
   caller drives progress with [pump] on its own domain, so a seeded run
   has no scheduling noise and replays byte for byte. *)

type t = {
  params : Agreement.Params.t;
  app : App.t;
  shards : Shard.t array;
}

let create ?(batch_max = 16) ?(window = 64) ?max_steps_per_slot
    ?(history = true) ?(app = App.register) ?seed:_ ?(domains = 0) ~shards
    (params : Agreement.Params.t) =
  if shards <= 0 then invalid_arg "Server.create: shards must be positive";
  if domains <> 0 then invalid_arg "Server.create: domains must be 0";
  let shards =
    Array.init shards (fun id ->
        Shard.create ?max_steps_per_slot ~history ~id ~batch_max
          ~window params ~app ())
  in
  { params; app; shards }

let app_name t = t.app.App.name

let route t key = Sharding.shard_of_key ~shards:(Array.length t.shards) key

let try_submit t ~key ?(tag = -1) cmd =
  let shard = route t key in
  let ticket =
    Session.make_ticket ~tag ~shard ~cmd ~submit_ns:(Obs.Trace.now_ns ())
  in
  if Shard.try_admit t.shards.(shard) ticket then Some ticket else None

let pump t = List.concat_map Shard.run_slot (Array.to_list t.shards)

let drain t = while pump t <> [] do () done

(* --- control and inspection --- *)

let crash_replica t ~shard ~pid =
  if shard < 0 || shard >= Array.length t.shards then
    invalid_arg "Server.crash_replica: no such shard";
  Shard.crash_replica t.shards.(shard) pid

let stats t = Array.to_list (Array.map Shard.stats t.shards)
let shard t i = t.shards.(i)

let registers_used t =
  Array.fold_left (fun acc s -> acc + (Shard.stats s).Shard.registers) 0 t.shards

(* Verdict: grade every shard with the conformance oracles.  Agreement
   (validity + k-agreement per decided instance) always applies; the
   register linearizability check applies when the app is the register
   and histories were recorded.  [max_ops] caps the Wing–Gong search
   per shard (the checker is exponential in overlap). *)
let max_ops = 400

let verdict t =
  let errors = ref [] in
  let err fmt = Printf.ksprintf (fun s -> errors := s :: !errors) fmt in
  Array.iter
    (fun shard ->
      let id = Shard.id shard in
      (match
         Conform.Rsm_history.check_agreement ~k:t.params.Agreement.Params.k
           (Shard.config shard)
       with
      | Ok () -> ()
      | Error e -> err "shard %d agreement: %s" id e);
      if Shard.is_stuck shard then err "shard %d is stuck" id;
      if t.app.App.name = "register" && Shard.records_history shard then begin
        let records = Shard.history shard in
        let truncated =
          if List.length records > max_ops then List.filteri (fun i _ -> i < max_ops) records
          else records
        in
        match Conform.Rsm_history.check_register truncated with
        | Ok () -> ()
        | Error e -> err "shard %d linearizability: %s" id e
      end)
    t.shards;
  match !errors with [] -> Ok () | es -> Error (List.rev es)
