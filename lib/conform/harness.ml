(* The conformance harness: real multicore histories, checked.

   One iteration = one fresh object + one domain per pid, each running
   a seeded random workload of updates and scans under a chaos plan,
   every operation's invoke/response interval captured by Recorder.
   After the domains join, the merged history goes through the
   Spec.Linearize real-time checker (pending operations from crashes
   handled by completion-point enumeration).  A non-linearizable
   history is a conformance violation: it is shrunk to a 1-minimal
   failing sub-history through the Spec.Shrink ddmin pipeline, with
   event indices as the schedule currency.

   Everything is derived from integer seeds — workload choices, chaos
   decisions, per-iteration seeds — so a violation at iteration i
   replays by re-running with that iteration's seed (physical timing
   varies, but the workload and disturbance plan are pinned). *)

type config = {
  domains : int;
  components : int;
  ops : int;             (* operations per domain *)
  profile : Chaos.profile;
  seed : int;
  iters : int;
}

let default_config =
  { domains = 4; components = 4; ops = 12; profile = Chaos.Calm; seed = 0; iters = 100 }

type violation = {
  iter : int;
  iter_seed : int;        (* replay: run one iteration with this seed *)
  error : string;
  completed : Spec.Linearize.event list;
  pending : Spec.Linearize.event list;
  shrunk : Spec.Linearize.event list;  (* 1-minimal failing sub-history *)
  shrink_replays : int;
}

type outcome =
  | Pass of { iters : int; ops : int }
  | Fail of violation

let pp_violation ppf v =
  Fmt.pf ppf
    "@[<v>iteration %d (seed %d): %s@,\
     history: %d completed + %d pending ops@,\
     shrunk witness (%d ops, 1-minimal, %d checker replays):@,\
     @[<v 2>  %a@]@]"
    v.iter v.iter_seed v.error (List.length v.completed) (List.length v.pending)
    (List.length v.shrunk) v.shrink_replays
    Fmt.(list ~sep:cut Spec.Linearize.pp_event)
    v.shrunk

let pp_outcome ppf = function
  | Pass { iters; ops } ->
    Fmt.pf ppf "conform: OK — %d iterations, %d operations, all histories linearizable"
      iters ops
  | Fail v -> Fmt.pf ppf "@[<v>conform: VIOLATION@,%a@]" pp_violation v

(* Derive the per-iteration seed; a big odd multiplier keeps seeds
   0,1,2,... from producing overlapping per-domain streams. *)
let iter_seed ~seed ~iter = seed + (1_000_003 * iter)

(* --------------------------------------------------------------- *)
(* Snapshot conformance                                             *)

(* One domain's workload: [ops] seeded random operations, ~1/3 scans,
   updates spread over all components with globally unique values
   (unique values make the checker's job unambiguous).  Returns when
   done or when the chaos plan crashes the domain. *)
let snapshot_workload ~cfg ~iseed ~inst ~recorder ~plan pid =
  let hr = Recorder.handle recorder ~pid in
  let hc = Chaos.handle plan ~pid in
  let h = inst.Sut.handle ~pid ~pause:(fun () -> Chaos.point hc) in
  let rng = Shm.Rng.create (iseed + (7919 * (pid + 1))) in
  let counter = ref 0 in
  try
    for _ = 1 to cfg.ops do
      Chaos.point hc;
      if Shm.Rng.int rng 3 = 0 then begin
        (* scan: a crash before the response is observed just drops the
           operation — a pending scan constrains nothing *)
        let t0 = Recorder.now hr in
        Chaos.crash_point hc;
        let view = h.Sut.scan () in
        Chaos.crash_point hc;
        Recorder.completed hr ~start:t0 ~finish:(Recorder.now hr)
          (Spec.Linearize.Scan { view })
      end
      else begin
        incr counter;
        let i = Shm.Rng.int rng cfg.components in
        let v = Shm.Value.int ((1_000_000 * (pid + 1)) + !counter) in
        let op = Spec.Linearize.Update { i; v } in
        let t0 = Recorder.now hr in
        match
          Chaos.crash_point hc;
          h.Sut.update i v;
          Chaos.crash_point hc
        with
        | () -> Recorder.completed hr ~start:t0 ~finish:(Recorder.now hr) op
        | exception Chaos.Crashed ->
          (* the store may or may not have landed: record the update as
             pending so the checker enumerates both completions *)
          Recorder.pending hr ~start:t0 op;
          raise Chaos.Crashed
      end
    done
  with Chaos.Crashed -> ()

(* Shrink a failing history to a 1-minimal sub-history: the schedule
   fed to the ddmin pipeline is the list of completed-event indices,
   and the replay oracle re-checks linearizability of the surviving
   subset (pending ops ride along unshrunk — they only ever make the
   checker more permissive).

   A candidate must stay *closed*: every non-⊥ value some kept scan
   returns must still have its writing update in the candidate (or
   among the pending ops).  Without this, ddmin deletes the updates a
   scan's view refers to and "minimizes" to a vacuous witness — a scan
   of values nobody wrote, failing for a reason the original history
   never exhibited.  Non-closed candidates count as not failing. *)
let closed ~pending sub =
  let written = Hashtbl.create 97 in
  let add e =
    match e.Spec.Linearize.op with
    | Spec.Linearize.Update { v; _ } -> Hashtbl.replace written v ()
    | Spec.Linearize.Scan _ -> ()
  in
  List.iter add pending;
  List.iter add sub;
  List.for_all
    (fun e ->
      match e.Spec.Linearize.op with
      | Spec.Linearize.Update _ -> true
      | Spec.Linearize.Scan { view } ->
        Array.for_all
          (fun v -> Shm.Value.is_bot v || Hashtbl.mem written v)
          view)
    sub

let shrink_history ~components ~pending completed =
  let all = Array.of_list completed in
  let replay idxs =
    let sub = List.map (fun j -> all.(j)) idxs in
    if not (closed ~pending sub) then None
    else
      match Spec.Linearize.witness ~components ~pending sub with
      | Some _ -> None
      | None -> Some "still non-linearizable"
  in
  match
    Spec.Shrink.minimize_generic ~replay (List.init (Array.length all) Fun.id)
  with
  | Some r ->
    (List.map (fun j -> all.(j)) r.Spec.Shrink.schedule, r.Spec.Shrink.g_replays)
  | None -> (completed, 0)  (* unreproducible shrink start: keep the original *)

let observe_latencies ~metrics completed =
  let upd = Obs.Metrics.histogram metrics "conform.update_ns" in
  let scn = Obs.Metrics.histogram metrics "conform.scan_ns" in
  List.iter
    (fun e ->
      let lat = e.Spec.Linearize.finish - e.Spec.Linearize.start in
      match e.Spec.Linearize.op with
      | Spec.Linearize.Update _ -> Obs.Metrics.Histogram.observe upd lat
      | Spec.Linearize.Scan _ -> Obs.Metrics.Histogram.observe scn lat)
    completed

(* Span bracket used by both harnesses: [f] runs inside a span when a
   collector is attached, bare otherwise.  The ctx may have been opened
   on a different domain (the iteration span parents the per-domain
   workload spans — exactly the cross-domain propagation Obs.Trace is
   for). *)
let spanned tr ?parent ~args name f =
  match tr with
  | None -> f ()
  | Some t ->
    let c = Obs.Trace.begin_span t ?parent ~cat:"conform" ~args name in
    Fun.protect ~finally:(fun () -> Obs.Trace.end_span t c) f

let run_snapshot ?(metrics = Obs.Metrics.create ()) ~sut (cfg : config) =
  let tr = Obs.Trace.attached () in
  let iters_c = Obs.Metrics.counter metrics "conform.iters" in
  let ops_c = Obs.Metrics.counter metrics "conform.ops" in
  let checks_c = Obs.Metrics.counter metrics "conform.checks" in
  let check_ns_c = Obs.Metrics.counter metrics "conform.check_ns" in
  let crashes_c = Obs.Metrics.counter metrics "conform.crashes" in
  let violations_c = Obs.Metrics.counter metrics "conform.violations" in
  let shrink_replays_c = Obs.Metrics.counter metrics "conform.shrink_replays" in
  let rec iterate iter =
    if iter >= cfg.iters then
      Pass { iters = cfg.iters; ops = Obs.Metrics.Counter.value ops_c }
    else begin
      let iseed = iter_seed ~seed:cfg.seed ~iter in
      let inst = sut.Sut.create ~components:cfg.components in
      let recorder = Recorder.create ~domains:cfg.domains in
      let plan = Chaos.plan cfg.profile ~seed:iseed in
      let ispan =
        match tr with
        | Some t ->
          Some
            (Obs.Trace.begin_span t ~cat:"conform"
               ~args:[ ("iter", Obs.Json.Int iter); ("seed", Obs.Json.Int iseed) ]
               "iteration")
        | None -> None
      in
      let workers =
        Array.init cfg.domains (fun pid ->
            Domain.spawn (fun () ->
                spanned tr ?parent:ispan
                  ~args:[ ("pid", Obs.Json.Int pid) ]
                  "workload"
                  (fun () -> snapshot_workload ~cfg ~iseed ~inst ~recorder ~plan pid)))
      in
      Array.iter Domain.join workers;
      let completed, pending = Recorder.history recorder in
      Obs.Metrics.Counter.incr iters_c;
      Obs.Metrics.Counter.add ops_c (List.length completed);
      Obs.Metrics.Counter.add crashes_c (List.length pending);
      observe_latencies ~metrics completed;
      let t0 = Obs.Trace.now_ns () in
      let w =
        spanned tr ?parent:ispan
          ~args:[ ("ops", Obs.Json.Int (List.length completed)) ]
          "linearize"
          (fun () -> Spec.Linearize.witness ~components:cfg.components ~pending completed)
      in
      Obs.Metrics.Counter.incr checks_c;
      Obs.Metrics.Counter.add check_ns_c (Obs.Trace.now_ns () - t0);
      (match (tr, ispan) with
      | Some t, Some c -> Obs.Trace.end_span t c
      | _ -> ());
      match w with
      | Some _ -> iterate (iter + 1)
      | None ->
        Obs.Metrics.Counter.incr violations_c;
        let error =
          Fmt.str
            "history of %d ops (+%d pending) is not linearizable as an atomic \
             %d-component snapshot (%s)"
            (List.length completed) (List.length pending) cfg.components
            sut.Sut.name
        in
        let shrunk, shrink_replays =
          shrink_history ~components:cfg.components ~pending completed
        in
        Obs.Metrics.Counter.add shrink_replays_c shrink_replays;
        Fail
          { iter; iter_seed = iseed; error; completed; pending; shrunk; shrink_replays }
    end
  in
  iterate 0

(* --------------------------------------------------------------- *)
(* Agreement conformance: Figure 3 one-shot under chaos             *)

type agreement_violation = { iter : int; iter_seed : int; error : string }

type agreement_outcome =
  | Agree_pass of { iters : int; decided : int; crashed : int }
  | Agree_fail of agreement_violation

let pp_agreement_outcome ppf = function
  | Agree_pass { iters; decided; crashed } ->
    Fmt.pf ppf
      "conform: OK — %d instances, %d decisions (%d crashed proposers), validity and \
       k-agreement hold"
      iters decided crashed
  | Agree_fail { iter; iter_seed; error } ->
    Fmt.pf ppf "conform: VIOLATION@,iteration %d (seed %d): %s" iter iter_seed error

(* Safety of one native instance: validity (every decision is some
   process's input) and k-agreement over the processes that decided.
   Crashed proposers decide nothing — that is a legal crash, not a
   violation (the object is obstruction-free, not wait-free). *)
let check_decisions ~k ~inputs decisions =
  let decided =
    Array.to_list decisions |> List.filter_map (fun d -> d)
  in
  let invalid =
    List.filter (fun d -> not (Array.exists (Shm.Value.equal d) inputs)) decided
  in
  if invalid <> [] then
    Error
      (Fmt.str "validity violated: decision %a is no process's input" Shm.Value.pp
         (List.hd invalid))
  else
    let distinct = Spec.Properties.distinct_values decided in
    if List.length distinct > k then
      Error
        (Fmt.str "%d-agreement violated: %d distinct decisions {%a}" k
           (List.length distinct)
           Fmt.(list ~sep:(any ", ") Shm.Value.pp)
           distinct)
    else Ok ()

let run_agreement ?(metrics = Obs.Metrics.create ()) ~(params : Agreement.Params.t)
    ~profile ~seed ~iters () =
  let iters_c = Obs.Metrics.counter metrics "conform.agreement_iters" in
  let decided_c = Obs.Metrics.counter metrics "conform.agreement_decided" in
  let crashed_c = Obs.Metrics.counter metrics "conform.agreement_crashed" in
  let violations_c = Obs.Metrics.counter metrics "conform.violations" in
  let propose_h = Obs.Metrics.histogram metrics "conform.propose_ns" in
  let tr = Obs.Trace.attached () in
  let n = params.Agreement.Params.n in
  let k = params.Agreement.Params.k in
  let rec iterate iter =
    if iter >= iters then
      Agree_pass
        {
          iters;
          decided = Obs.Metrics.Counter.value decided_c;
          crashed = Obs.Metrics.Counter.value crashed_c;
        }
    else begin
      let iseed = iter_seed ~seed ~iter in
      let t = Native.Native_agreement.create ~params in
      let plan = Chaos.plan profile ~seed:iseed in
      let inputs = Array.init n (fun pid -> Shm.Value.int ((1000 * (iter + 1)) + pid)) in
      let ispan =
        match tr with
        | Some t ->
          Some
            (Obs.Trace.begin_span t ~cat:"conform"
               ~args:[ ("iter", Obs.Json.Int iter); ("seed", Obs.Json.Int iseed) ]
               "iteration")
        | None -> None
      in
      let workers =
        Array.init n (fun pid ->
            Domain.spawn (fun () ->
                spanned tr ?parent:ispan
                  ~args:[ ("pid", Obs.Json.Int pid) ]
                  "propose"
                  (fun () ->
                    let hc = Chaos.handle plan ~pid in
                    let chaos () =
                      Chaos.point hc;
                      Chaos.crash_point hc
                    in
                    let t0 = Obs.Trace.now_ns () in
                    match
                      Native.Native_agreement.propose ~chaos t ~pid ~seed:iseed
                        inputs.(pid)
                    with
                    | w -> Some (w, Obs.Trace.now_ns () - t0)
                    | exception Chaos.Crashed -> None)))
      in
      let results = Array.map Domain.join workers in
      (match (tr, ispan) with
      | Some t, Some c -> Obs.Trace.end_span t c
      | _ -> ());
      Obs.Metrics.Counter.incr iters_c;
      let decisions =
        Array.map
          (function
            | Some (w, lat) ->
              Obs.Metrics.Counter.incr decided_c;
              Obs.Metrics.Histogram.observe propose_h lat;
              Some w
            | None ->
              Obs.Metrics.Counter.incr crashed_c;
              None)
          results
      in
      match check_decisions ~k ~inputs decisions with
      | Ok () -> iterate (iter + 1)
      | Error error ->
        Obs.Metrics.Counter.incr violations_c;
        Agree_fail { iter; iter_seed = iseed; error }
    end
  in
  iterate 0
