(* Tests for the tracing subsystem (Obs.Trace / Obs.Prof /
   Obs.Coverage / Obs.Chrome_trace): cross-domain span propagation
   under real domains, merged-output ordering, the zero-allocation
   detached guard, the coverage timeline, and both export formats. *)

open Helpers

(* ---- spans across real domains ---- *)

(* A span opened on one domain and closed on another must record both
   domains. *)
let span_crosses_domains () =
  let tr = Obs.Trace.create () in
  let c = Obs.Trace.begin_span tr ~cat:"test" "stolen" in
  let d = Domain.spawn (fun () -> Obs.Trace.end_span tr c) in
  Domain.join d;
  match Obs.Trace.find_span tr "stolen" with
  | None -> Alcotest.fail "span not recorded"
  | Some s ->
    Alcotest.(check bool) "closed on another domain" true
      (s.Obs.Trace.close_dom <> s.Obs.Trace.dom);
    Alcotest.(check bool) "duration non-negative" true (s.Obs.Trace.dur_ns >= 0);
    Alcotest.(check int) "nothing left open" 0 (Obs.Trace.open_count tr)

(* Nested spans opened concurrently on several domains: the merged
   output must still put every parent before each of its children
   (spans sort by (start_ns, id); ids are globally monotone). *)
let merged_ordering_under_domains () =
  let tr = Obs.Trace.create () in
  let root = Obs.Trace.begin_span tr ~cat:"test" "root" in
  let worker i =
    let c = Obs.Trace.begin_span tr ~parent:root ~cat:"test" (Fmt.str "child %d" i) in
    for j = 0 to 2 do
      Obs.Trace.with_span tr ~parent:c ~cat:"test" (Fmt.str "grandchild %d.%d" i j)
        (fun _ -> ())
    done;
    Obs.Trace.end_span tr c
  in
  let doms = Array.init 4 (fun i -> Domain.spawn (fun () -> worker i)) in
  Array.iter Domain.join doms;
  Obs.Trace.end_span tr root;
  let spans = Obs.Trace.spans tr in
  Alcotest.(check int) "all spans recorded" 17 (List.length spans);
  Alcotest.(check int) "none open" 0 (Obs.Trace.open_count tr);
  (* position of each id in the merged output *)
  let pos = Hashtbl.create 32 in
  List.iteri (fun i (s : Obs.Trace.span) -> Hashtbl.add pos s.Obs.Trace.id i) spans;
  List.iter
    (fun (s : Obs.Trace.span) ->
      if s.Obs.Trace.parent <> 0 then
        Alcotest.(check bool)
          (Fmt.str "parent of %s precedes it" s.Obs.Trace.name)
          true
          (Hashtbl.find pos s.Obs.Trace.parent < Hashtbl.find pos s.Obs.Trace.id))
    spans

(* Closing twice, or closing a ctx from a different collector, is a
   no-op. *)
let end_span_idempotent () =
  let tr = Obs.Trace.create () in
  let other = Obs.Trace.create ~trace_id:999 () in
  let c = Obs.Trace.begin_span tr "once" in
  Obs.Trace.end_span tr c;
  Obs.Trace.end_span tr c;
  Obs.Trace.end_span other c;
  Alcotest.(check int) "one completed span" 1 (Obs.Trace.span_count tr);
  Alcotest.(check int) "other collector untouched" 0 (Obs.Trace.span_count other)

(* ---- the detached guard allocates nothing ---- *)

(* With no collector attached, the per-event instrumentation cost is
   one atomic load ([enabled]) and phase attribution is two array
   stores ([Prof.add]) — neither may allocate.  Same Gc-measured idiom
   as test_obs's record_paths_allocation_free. *)
let detached_paths_allocation_free () =
  Obs.Trace.detach ();
  Alcotest.(check bool) "detached" false (Obs.Trace.enabled ());
  let p = Obs.Prof.create () in
  let iters = 100_000 in
  let measure name f =
    f 0;
    let before = Gc.minor_words () in
    for i = 1 to iters do
      f i
    done;
    let words = Gc.minor_words () -. before in
    Alcotest.(check bool)
      (Fmt.str "%s allocates (%.0f minor words / %d calls)" name words iters)
      true (words < 1000.)
  in
  measure "Trace.enabled when detached" (fun _ -> ignore (Obs.Trace.enabled ()));
  measure "Prof.add" (fun i -> Obs.Prof.add p Obs.Prof.Interp i);
  measure "guarded bracket" (fun i ->
      (* the exact pattern instrumented sites compile to *)
      let t0 = if Obs.Trace.enabled () then Obs.Prof.now_ns () else 0 in
      if Obs.Trace.enabled () then Obs.Prof.add p Obs.Prof.Hash (t0 + i))

(* ambient_probe must be None when detached, so Exec.run's hoisted
   probe is the no-op and the run pays nothing per step. *)
let ambient_probe_detached () =
  Obs.Trace.detach ();
  Alcotest.(check bool) "no probe" true (Obs.Coverage.ambient_probe () = None);
  Alcotest.(check bool) "no collector" true (Obs.Trace.attached () = None)

(* ---- coverage timeline ---- *)

(* Stream a full run through the coverage probe: both counter tracks
   get one sample per step, the written counter is monotone, and its
   final value equals the memory's written-set size (the paper's space
   measure). *)
let coverage_probe_tracks_run () =
  let n = 4 in
  let p = Agreement.Params.make ~n ~m:1 ~k:2 in
  let config = Agreement.Instances.oneshot p in
  let inputs =
    Shm.Exec.oneshot_inputs (Array.init n (fun pid -> vi (pid + 1)))
  in
  let tr = Obs.Trace.create () in
  let result =
    Shm.Exec.run
      ~probe:(fun ~step ev config -> Obs.Coverage.probe tr ~step ev config)
      ~sched:(Shm.Schedule.quantum_round_robin ~quantum:7 n)
      ~inputs config
  in
  let samples = Obs.Trace.samples tr in
  let track name =
    List.filter (fun (s : Obs.Trace.sample) -> s.Obs.Trace.track = name) samples
  in
  let covered = track Obs.Coverage.track_covered in
  let written = track Obs.Coverage.track_written in
  Alcotest.(check int) "one covered sample per step" result.Shm.Exec.steps
    (List.length covered);
  Alcotest.(check int) "one written sample per step" result.Shm.Exec.steps
    (List.length written);
  let rec monotone = function
    | (a : Obs.Trace.sample) :: (b :: _ as rest) ->
      a.Obs.Trace.value <= b.Obs.Trace.value && monotone rest
    | _ -> true
  in
  Alcotest.(check bool) "written is monotone" true (monotone written);
  let final = List.nth written (List.length written - 1) in
  Alcotest.(check int) "final written = space measure"
    (Obs.Coverage.num_written result.Shm.Exec.config)
    (int_of_float final.Obs.Trace.value);
  (* with ~sets:true, write events carry the sets themselves *)
  let tr2 = Obs.Trace.create () in
  let _ =
    Shm.Exec.run
      ~probe:(fun ~step ev config -> Obs.Coverage.probe ~sets:true tr2 ~step ev config)
      ~sched:(Shm.Schedule.quantum_round_robin ~quantum:7 n)
      ~inputs config
  in
  let covs =
    List.filter
      (fun (i : Obs.Trace.instant) -> i.Obs.Trace.i_name = "cov")
      (Obs.Trace.instants tr2)
  in
  Alcotest.(check bool) "cov instants recorded" true (covs <> []);
  List.iter
    (fun (i : Obs.Trace.instant) ->
      match List.assoc_opt "written" i.Obs.Trace.i_args with
      | Some (Obs.Json.Arr _) -> ()
      | _ -> Alcotest.fail "cov instant lacks written set")
    covs

(* ---- DPOR integration ---- *)

(* A traced exploration must produce: the explore span, per-node
   coverage counters, the exploration series, a non-empty profile, and
   balanced open/close. *)
let dpor_trace () =
  let p = Agreement.Params.make ~n:3 ~m:1 ~k:1 in
  let config = Agreement.Instances.oneshot p in
  let inputs =
    Shm.Exec.oneshot_inputs (Array.init 3 (fun pid -> vi (pid + 1)))
  in
  let tr = Obs.Trace.create () in
  let prof = Obs.Prof.create () in
  let outcome =
    Obs.Trace.with_attached tr (fun () ->
        Spec.Modelcheck.run
          ~engine:(Spec.Modelcheck.Dpor { cache = true; jobs = 1 })
          ~depth:10 ~inputs ~prof
          ~check:(Spec.Properties.check_safety ~k:1)
          config)
  in
  (match outcome with
  | Spec.Modelcheck.Ok_bounded _ -> ()
  | Spec.Modelcheck.Counterexample { error; _ } -> Alcotest.failf "violation: %s" error);
  Alcotest.(check bool) "detached after" true (Obs.Trace.attached () = None);
  Alcotest.(check int) "nothing left open" 0 (Obs.Trace.open_count tr);
  let explore =
    List.filter (fun (s : Obs.Trace.span) -> s.Obs.Trace.name = "explore") (Obs.Trace.spans tr)
  in
  Alcotest.(check int) "one explore span" 1 (List.length explore);
  (* coverage counters were sampled *)
  let tracks =
    List.sort_uniq compare
      (List.map (fun (s : Obs.Trace.sample) -> s.Obs.Trace.track) (Obs.Trace.samples tr))
  in
  Alcotest.(check bool) "covered track sampled" true
    (List.mem Obs.Coverage.track_covered tracks);
  (* the profile attributed time somewhere *)
  Alcotest.(check bool) "profile non-empty" false (Obs.Prof.is_empty prof);
  (* the exploration series is the trace's four counter tracks *)
  List.iter
    (fun track -> Alcotest.(check bool) (track ^ " track sampled") true (List.mem track tracks))
    [ "nodes"; "frontier"; "cache hits"; "sleep hits" ]

(* ---- exports ---- *)

let populated_trace () =
  let tr = Obs.Trace.create () in
  let root = Obs.Trace.begin_span tr ~cat:"test" ~args:[ ("k", Obs.Json.Int 1) ] "root" in
  let d =
    Domain.spawn (fun () ->
        Obs.Trace.with_span tr ~parent:root ~cat:"test" "child" (fun _ ->
            Obs.Trace.counter tr ~track:"regs" 2.))
  in
  Domain.join d;
  Obs.Trace.instant tr ~cat:"test" ~args:[ ("reg", Obs.Json.Int 0) ] "write";
  Obs.Trace.counter tr ~track:"regs" 3.;
  Obs.Trace.end_span tr root;
  tr

(* The span JSONL round-trips, and the reader rejects a newer major. *)
let trace_jsonl_roundtrip () =
  let tr = populated_trace () in
  let path = Filename.temp_file "sa_spans" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Obs.Trace.save_jsonl path tr;
      match Obs.Trace.load_jsonl path with
      | Error e -> Alcotest.failf "reload: %s" e
      | Ok r ->
        Alcotest.(check int) "trace id" (Obs.Trace.trace_id tr) r.Obs.Trace.r_trace_id;
        Alcotest.(check bool) "spans back" true (r.Obs.Trace.r_spans = Obs.Trace.spans tr);
        Alcotest.(check bool) "instants back" true
          (r.Obs.Trace.r_instants = Obs.Trace.instants tr);
        Alcotest.(check bool) "samples back" true
          (r.Obs.Trace.r_samples = Obs.Trace.samples tr))

let trace_jsonl_rejects_newer_major () =
  let path = Filename.temp_file "sa_spans_v99" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      output_string oc "{\"jsonl\":\"sa-trace\",\"schema\":99,\"trace_id\":1,\"epoch_ns\":0}\n";
      close_out oc;
      match Obs.Trace.load_jsonl path with
      | Ok _ -> Alcotest.fail "accepted schema 99"
      | Error e -> Alcotest.(check bool) "rejected with a reason" true (e <> ""))

(* The Chrome export is well-formed trace-event JSON: parses back, has
   per-domain thread metadata, complete events with durations, and the
   counter track. *)
let chrome_trace_valid () =
  let tr = populated_trace () in
  let j = Obs.Chrome_trace.to_json tr in
  (match Obs.Json.of_string (Obs.Json.to_string j) with
  | Error e -> Alcotest.failf "chrome JSON unparseable: %s" e
  | Ok j' -> Alcotest.(check bool) "round-trips" true (j = j'));
  let events =
    match Obs.Json.member "traceEvents" j with
    | Some (Obs.Json.Arr evs) -> evs
    | _ -> Alcotest.fail "no traceEvents array"
  in
  let phs =
    List.filter_map
      (fun e ->
        match Obs.Json.member "ph" e with Some (Obs.Json.String p) -> Some p | _ -> None)
    events
  in
  List.iter
    (fun ph ->
      Alcotest.(check bool) (Fmt.str "has ph %S" ph) true (List.mem ph phs))
    [ "M"; "X"; "i"; "C" ];
  (* X events carry non-negative numeric ts/dur in microseconds *)
  List.iter
    (fun e ->
      match Obs.Json.member "ph" e with
      | Some (Obs.Json.String "X") ->
        let num_field name =
          match Obs.Json.member name e with
          | Some (Obs.Json.Float v) -> v
          | Some (Obs.Json.Int v) -> float_of_int v
          | _ -> Alcotest.failf "X event lacks numeric %s" name
        in
        Alcotest.(check bool) "ts >= 0" true (num_field "ts" >= 0.);
        Alcotest.(check bool) "dur >= 0" true (num_field "dur" >= 0.)
      | _ -> ())
    events;
  (* and the file writer produces the same parseable document *)
  let path = Filename.temp_file "sa_chrome" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Obs.Chrome_trace.save path tr;
      let ic = open_in_bin path in
      let len = in_channel_length ic in
      let body = really_input_string ic len in
      close_in ic;
      match Obs.Json.of_string body with
      | Error e -> Alcotest.failf "saved chrome trace unparseable: %s" e
      | Ok _ -> ())

(* ---- prof ---- *)

let prof_attribution_and_merge () =
  let a = Obs.Prof.create () and b = Obs.Prof.create () in
  Obs.Prof.add a Obs.Prof.Interp 100;
  Obs.Prof.add a Obs.Prof.Interp 50;
  Obs.Prof.add b Obs.Prof.Hash 25;
  Alcotest.(check int) "ns" 150 (Obs.Prof.ns a Obs.Prof.Interp);
  Alcotest.(check int) "count" 2 (Obs.Prof.count a Obs.Prof.Interp);
  Obs.Prof.merge_into ~into:a b;
  Alcotest.(check int) "merged ns" 25 (Obs.Prof.ns a Obs.Prof.Hash);
  Alcotest.(check int) "total" 175 (Obs.Prof.total_ns a);
  Alcotest.(check bool) "b untouched" false (Obs.Prof.is_empty b);
  (* the json form names every phase it reports *)
  match Obs.Prof.to_json a with
  | Obs.Json.Obj _ -> ()
  | _ -> Alcotest.fail "prof json not an object"

(* The exploration series lives in the trace's counter tracks: samples
   stamped out of order come back sorted, each with its own timestamp. *)
let series_rows_sorted () =
  let tr = Obs.Trace.create () in
  List.iter
    (fun (ts_ns, nodes, frontier) ->
      Obs.Trace.counter tr ~ts_ns ~track:"nodes" (float_of_int nodes);
      Obs.Trace.counter tr ~ts_ns ~track:"frontier" (float_of_int frontier))
    [ (30, 3, 1); (10, 1, 2); (20, 2, 3) ];
  let track name =
    List.filter_map
      (fun (x : Obs.Trace.sample) ->
        if x.Obs.Trace.track = name then Some (x.Obs.Trace.s_ts_ns, int_of_float x.value)
        else None)
      (Obs.Trace.samples tr)
  in
  Alcotest.(check (list (pair int int))) "nodes sorted, own timestamps"
    [ (10, 1); (20, 2); (30, 3) ] (track "nodes");
  Alcotest.(check (list (pair int int))) "frontier sorted, own timestamps"
    [ (10, 2); (20, 3); (30, 1) ] (track "frontier")

let suite =
  [
    test "span opened on one domain closes on another" span_crosses_domains;
    test "merged ordering: parents precede children across domains"
      merged_ordering_under_domains;
    test "end_span is idempotent and collector-scoped" end_span_idempotent;
    test "detached instrumentation paths are allocation-free"
      detached_paths_allocation_free;
    test "ambient probe absent when detached" ambient_probe_detached;
    test "coverage probe tracks covered/written per step" coverage_probe_tracks_run;
    test "DPOR trace: span, tracks, profile" dpor_trace;
    test "trace JSONL round-trips" trace_jsonl_roundtrip;
    test "trace JSONL rejects newer major" trace_jsonl_rejects_newer_major;
    test "chrome trace-event export is well-formed" chrome_trace_valid;
    test "prof attribution and merge" prof_attribution_and_merge;
    test "series rows sorted and replayed with own timestamps" series_rows_sorted;
  ]
