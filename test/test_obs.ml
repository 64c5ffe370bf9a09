(* Tests for the observability layer (lib/obs) and the Analysis edge
   cases it subsumes: streaming sinks vs recorded traces, metrics
   histograms, per-propose latencies, the JSONL export round-trip, and
   the file readers' behaviour on damaged input. *)

open Helpers
open Shm

let analysis_eq a b =
  a.Analysis.steps_per_process = b.Analysis.steps_per_process
  && a.Analysis.writes_per_register = b.Analysis.writes_per_register
  && a.Analysis.reads_per_register = b.Analysis.reads_per_register
  && a.Analysis.invocations = b.Analysis.invocations
  && a.Analysis.outputs = b.Analysis.outputs
  && a.Analysis.reads = b.Analysis.reads
  && a.Analysis.writes = b.Analysis.writes
  && a.Analysis.scans = b.Analysis.scans
  && a.Analysis.total_steps = b.Analysis.total_steps
  && a.Analysis.latencies = b.Analysis.latencies
  && a.Analysis.pending = b.Analysis.pending

(* ---- Analysis edge cases ---- *)

let analysis_empty_trace () =
  let a = Analysis.of_trace ~n:3 ~registers:2 [] in
  Alcotest.(check int) "no steps" 0 a.Analysis.total_steps;
  Alcotest.(check int) "no invocations" 0 a.Analysis.invocations;
  Alcotest.(check (list int)) "nobody active" [] (Analysis.active_processes a);
  Alcotest.(check (float 0.)) "skew defined" 0. (Analysis.write_skew a)

let analysis_zero_registers () =
  (* registers = 0: events mentioning registers are counted in totals
     but not attributed; no out-of-bounds access, no NaN *)
  let trace =
    [
      Event.Invoke { pid = 0; instance = 1; input = vi 1 };
      Event.Did_scan { pid = 0; off = 0; len = 3 };
      Event.Did_write { pid = 0; reg = 1; value = vi 9 };
      Event.Output { pid = 0; instance = 1; value = vi 1 };
    ]
  in
  let a = Analysis.of_trace ~n:1 ~registers:0 trace in
  Alcotest.(check int) "total steps" 4 a.Analysis.total_steps;
  Alcotest.(check int) "writes array empty" 0 (Array.length a.Analysis.writes_per_register);
  Alcotest.(check (float 0.)) "skew 0, not NaN" 0. (Analysis.write_skew a)

let analysis_write_skew_no_writes () =
  let trace = [ Event.Did_read { pid = 0; reg = 0; value = Value.bot } ] in
  let a = Analysis.of_trace ~n:1 ~registers:2 trace in
  let skew = Analysis.write_skew a in
  Alcotest.(check bool) "not NaN" false (Float.is_nan skew);
  Alcotest.(check (float 0.)) "zero by convention" 0. skew

let analysis_scan_clipped () =
  (* a scan overrunning the register file only credits real registers *)
  let trace = [ Event.Did_scan { pid = 0; off = 1; len = 10 } ] in
  let a = Analysis.of_trace ~n:1 ~registers:3 trace in
  Alcotest.(check (array int)) "clipped coverage" [| 0; 1; 1 |]
    a.Analysis.reads_per_register

(* ---- Sinks ---- *)

let counter ~reg ~ops =
  Program.await (fun _ ->
      let rec go left last =
        if left = 0 then Program.yield last Program.stop
        else
          Program.read reg (fun v ->
              let x = match Value.view v with Value.Int i -> i | _ -> 0 in
              Program.write reg (vi (x + 1)) (fun () -> go (left - 1) (vi (x + 1))))
      in
      go ops Value.bot)

let run_counters ?record ?sink ~n ~ops () =
  let procs = Array.init n (fun pid -> counter ~reg:pid ~ops) in
  let config = Config.create ~registers:n ~procs () in
  Exec.run ?record ?sink ~sched:(Schedule.round_robin n)
    ~inputs:(Exec.oneshot_inputs (Array.make n (vi 0)))
    ~max_steps:100_000 config

let sink_sees_recorded_trace () =
  let seen = ref [] in
  let res =
    run_counters ~record:true ~sink:(fun ev -> seen := ev :: !seen) ~n:3 ~ops:5 ()
  in
  let events = List.rev !seen in
  Alcotest.(check int) "same length" (List.length res.Exec.trace) (List.length events);
  Alcotest.(check bool) "same events in order" true
    (List.for_all2 (fun a b -> a = b) res.Exec.trace events)

let stats_sink_matches_analysis () =
  let n = 3 and ops = 4 in
  let acc = Analysis.create ~n ~registers:n in
  let res = run_counters ~record:true ~sink:(Analysis.feed acc) ~n ~ops () in
  let live = Analysis.snapshot acc in
  let replayed = Analysis.of_trace ~n ~registers:n res.Exec.trace in
  Alcotest.(check bool) "streaming = batch" true (analysis_eq live replayed);
  Alcotest.(check int) "every event counted" res.Exec.steps live.Analysis.total_steps;
  (* each process: invoke + ops*(read+write) + output *)
  Alcotest.(check (list int)) "per-kind counts"
    [ n; n * ops; n * ops; 0; n ]
    [ live.Analysis.invocations; live.Analysis.reads; live.Analysis.writes;
      live.Analysis.scans; live.Analysis.outputs ];
  Alcotest.(check bool) "every register read and written" true
    (Array.for_all (fun r -> r > 0) live.Analysis.reads_per_register
    && Array.for_all (fun w -> w > 0) live.Analysis.writes_per_register)

(* ---- Metrics ---- *)

let histogram_quantiles () =
  let h = Obs.Metrics.Histogram.create () in
  Alcotest.(check (float 0.)) "empty p50" 0. (Obs.Metrics.Histogram.p50 h);
  for v = 1 to 1000 do
    Obs.Metrics.Histogram.observe h v
  done;
  Alcotest.(check int) "count" 1000 (Obs.Metrics.Histogram.count h);
  Alcotest.(check int) "min" 1 (Obs.Metrics.Histogram.min_value h);
  Alcotest.(check int) "max" 1000 (Obs.Metrics.Histogram.max_value h);
  let p50 = Obs.Metrics.Histogram.p50 h in
  let p90 = Obs.Metrics.Histogram.p90 h in
  let p99 = Obs.Metrics.Histogram.p99 h in
  (* log buckets: estimates correct to within one octave *)
  Alcotest.(check bool) "p50 in octave" true (p50 >= 250. && p50 <= 1000.);
  Alcotest.(check bool) "p99 near max" true (p99 >= 500. && p99 <= 1000.);
  Alcotest.(check bool) "monotone" true (p50 <= p90 && p90 <= p99);
  Alcotest.(check (float 1e-9)) "mean exact" 500.5 (Obs.Metrics.Histogram.mean h)

(* Pin the quantile semantics across the allocation-free rewrite of
   the record paths: a fixed multi-octave dataset must report exactly
   the same percentiles as the original implementation. *)
let histogram_percentiles_pinned () =
  let h = Obs.Metrics.Histogram.create () in
  List.iter
    (Obs.Metrics.Histogram.observe h)
    [ 0; 1; 2; 3; 5; 8; 13; 21; 34; 55; 89; 144; 1000; 100_000 ];
  Alcotest.(check int) "count" 14 (Obs.Metrics.Histogram.count h);
  Alcotest.(check int) "sum" 101_375 (Obs.Metrics.Histogram.sum h);
  Alcotest.(check (float 1e-9)) "p50" 24. (Obs.Metrics.Histogram.p50 h);
  Alcotest.(check (float 1e-9)) "p90" 768. (Obs.Metrics.Histogram.p90 h);
  Alcotest.(check (float 1e-9)) "p99" 98304. (Obs.Metrics.Histogram.p99 h);
  Alcotest.(check (float 1e-9)) "quantile 0" 0.5 (Obs.Metrics.Histogram.quantile h 0.);
  Alcotest.(check (float 1e-9)) "quantile 1" 98304.
    (Obs.Metrics.Histogram.quantile h 1.)

(* The record paths must not allocate: observe/add/incr on existing
   metrics, and registry lookup of an existing name.  Minor-heap words
   are counted around a 100k-iteration loop; any per-record allocation
   would show up as >= 200k words, so a small constant slack separates
   cleanly. *)
let record_paths_allocation_free () =
  let r = Obs.Metrics.create () in
  let c = Obs.Metrics.counter r "hot.counter" in
  let h = Obs.Metrics.histogram r "hot.histogram" in
  let iters = 100_000 in
  let measure name f =
    f 0;
    (* warm up *)
    let before = Gc.minor_words () in
    for i = 1 to iters do
      f i
    done;
    let words = Gc.minor_words () -. before in
    Alcotest.(check bool)
      (Fmt.str "%s allocates (%.0f minor words / %d calls)" name words iters)
      true (words < 1000.)
  in
  measure "Counter.incr" (fun _ -> Obs.Metrics.Counter.incr c);
  measure "Counter.add" (fun i -> Obs.Metrics.Counter.add c i);
  measure "Histogram.observe" (fun i -> Obs.Metrics.Histogram.observe h i);
  measure "registry counter lookup" (fun _ ->
      Obs.Metrics.Counter.incr (Obs.Metrics.counter r "hot.counter"));
  measure "registry histogram lookup" (fun i ->
      Obs.Metrics.Histogram.observe (Obs.Metrics.histogram r "hot.histogram") i)

let registry_get_or_create () =
  let r = Obs.Metrics.create () in
  let c = Obs.Metrics.counter r "steps" in
  Obs.Metrics.Counter.incr c;
  Obs.Metrics.Counter.incr ~by:2 (Obs.Metrics.counter r "steps");
  Alcotest.(check int) "same counter" 3
    (Obs.Metrics.Counter.value (Obs.Metrics.counter r "steps"));
  Alcotest.(check (list string)) "registration order" [ "steps" ] (Obs.Metrics.names r);
  Alcotest.check_raises "kind clash" (Invalid_argument "Metrics.gauge: \"steps\" is not a gauge")
    (fun () -> ignore (Obs.Metrics.gauge r "steps"))

(* ---- Propose latencies ---- *)

let spans_track_proposes () =
  let n = 4 in
  let p = Agreement.Params.make ~n ~m:1 ~k:2 in
  let acc = Analysis.create ~n ~registers:0 in
  let res = Agreement.Runner.run_oneshot ~sink:(Analysis.feed acc) p in
  let a = Analysis.snapshot acc in
  let outs = List.length (Config.outputs res.Exec.config) in
  Alcotest.(check int) "one latency per decided propose" outs
    (List.length a.Analysis.latencies);
  Alcotest.(check int) "nothing left open" 0 a.Analysis.pending;
  List.iter
    (fun l ->
      Alcotest.(check bool) "positive latency" true (l > 0);
      Alcotest.(check bool) "within run" true (l <= res.Exec.steps))
    a.Analysis.latencies;
  let h = Obs.Metrics.Histogram.of_list a.Analysis.latencies in
  Alcotest.(check bool) "p50 <= p99" true
    (Obs.Metrics.Histogram.p50 h <= Obs.Metrics.Histogram.p99 h)

let spans_leave_starved_open () =
  (* solo schedule: only p1 decides, the other invocations never start *)
  let n = 3 in
  let p = Agreement.Params.make ~n ~m:1 ~k:2 in
  let acc = Analysis.create ~n ~registers:0 in
  let res =
    Agreement.Runner.run_oneshot ~sched:(Schedule.solo 1) ~sink:(Analysis.feed acc) p
  in
  ignore res;
  let a = Analysis.snapshot acc in
  Alcotest.(check int) "one completed" 1 (List.length a.Analysis.latencies);
  Alcotest.(check int) "no phantom opens" 0 a.Analysis.pending

(* ---- Json / Jsonl ---- *)

let sample_values =
  [
    Value.bot;
    vi 0;
    vi (-42);
    Value.str "plain";
    Value.str "esc \"quotes\" \\ and\nnewline\ttab";
    Value.pair (vi 1) (vi 2);
    Value.pair Value.bot (Value.str "x");
    Value.list [];
    Value.list [ vi 1; vi 2 ];
    Value.list [ Value.pair (vi 1) (Value.list [ Value.bot ]); Value.str "" ];
    (* a Figure 4 entry: its history chain is nested pairs *)
    Agreement.Repeated.encode
      { Agreement.Repeated.pref = vi 3; id = 0; t = 3;
        history = Agreement.Repeated.history_of_list [ vi 1; Value.pair (vi 2) (vi 5) ] };
  ]

let value_json_roundtrip () =
  List.iter
    (fun v ->
      match Obs.Jsonl.value_of_json (Obs.Jsonl.json_of_value v) with
      | Ok v' -> check_value (Value.to_string v) v v'
      | Error e -> Alcotest.failf "decode %s: %s" (Value.to_string v) e)
    sample_values;
  (* a pair is not a 2-element list after the round trip *)
  let p = Value.pair (vi 1) (vi 2) and l = Value.list [ vi 1; vi 2 ] in
  let rt v = Result.get_ok (Obs.Jsonl.value_of_json (Obs.Jsonl.json_of_value v)) in
  Alcotest.(check bool) "pair/list distinct" false (Value.equal (rt p) (rt l))

let event_line_roundtrip () =
  let events =
    [
      Event.Invoke { pid = 0; instance = 1; input = Value.pair (vi 1) Value.bot };
      Event.Did_read { pid = 1; reg = 3; value = Value.bot };
      Event.Did_write { pid = 2; reg = 0; value = Value.list [ vi 7; Value.str "s" ] };
      Event.Did_scan { pid = 3; off = 2; len = 5 };
      Event.Output { pid = 4; instance = 2; value = vi 9 };
    ]
  in
  List.iter
    (fun ev ->
      let line = Obs.Jsonl.line_of_event ev in
      Alcotest.(check bool) "single line" false (String.contains line '\n');
      match Obs.Jsonl.event_of_line line with
      | Ok ev' -> Alcotest.(check bool) (Fmt.str "%a" Event.pp ev) true (ev = ev')
      | Error e -> Alcotest.failf "decode %S: %s" line e)
    events

let jsonl_rejects_garbage () =
  (match Obs.Jsonl.event_of_line "{\"ev\":\"warp\",\"pid\":0}" with
  | Ok _ -> Alcotest.fail "accepted unknown event"
  | Error _ -> ());
  (match Obs.Jsonl.event_of_line "not json at all" with
  | Ok _ -> Alcotest.fail "accepted non-JSON"
  | Error _ -> ());
  match Obs.Json.of_string "{\"a\":1} trailing" with
  | Ok _ -> Alcotest.fail "accepted trailing input"
  | Error _ -> ()

(* The acceptance-criterion round trip: stream a run to a JSONL file
   via the sink, reload it, and check the reloaded trace reproduces the
   live run's aggregate statistics exactly. *)
let jsonl_file_roundtrip_analysis () =
  let n = 4 in
  let p = Agreement.Params.make ~n ~m:1 ~k:2 in
  let registers = Agreement.Params.r_oneshot p in
  let path = Filename.temp_file "sa_trace" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      let acc = Analysis.create ~n ~registers in
      let res =
        Agreement.Runner.run_oneshot ~record:true
          ~sink:
            (let write = Obs.Jsonl.sink_to_channel oc in
             fun ev ->
               write ev;
               Analysis.feed acc ev)
          ~sched:(Schedule.random ~seed:5 n) p
      in
      close_out oc;
      match Obs.Jsonl.load path with
      | Error e -> Alcotest.failf "reload: %s" e
      | Ok trace ->
        Alcotest.(check int) "every event exported" res.Exec.steps (List.length trace);
        Alcotest.(check bool) "identical trace" true (trace = res.Exec.trace);
        let live = Analysis.snapshot acc in
        let reloaded = Analysis.of_trace ~n ~registers trace in
        Alcotest.(check bool) "aggregates reproduced" true (analysis_eq live reloaded);
        (* and the streaming fold agrees with the materializing reader *)
        let folded =
          Obs.Jsonl.fold_file path ~init:(Analysis.create ~n ~registers)
            ~f:(fun acc ev ->
              Analysis.feed acc ev;
              acc)
          |> Result.get_ok |> Analysis.snapshot
        in
        Alcotest.(check bool) "fold_file agrees" true (analysis_eq folded reloaded))

(* Scale round-trip: a synthetic 10k-event trace with every event
   shape and awkward values survives save/load byte-for-byte. *)
let jsonl_10k_roundtrip () =
  let mk i =
    let pid = i mod 7 in
    match i mod 5 with
    | 0 -> Event.Invoke { pid; instance = i / 5; input = Value.pair (vi i) Value.bot }
    | 1 -> Event.Did_read { pid; reg = i mod 11; value = vi (-i) }
    | 2 ->
      Event.Did_write
        { pid; reg = i mod 11; value = Value.list [ vi i; Value.str (string_of_int i) ] }
    | 3 -> Event.Did_scan { pid; off = i mod 3; len = i mod 13 }
    | _ -> Event.Output { pid; instance = i / 5; value = Value.str "s \"q\" \\ \n\t" }
  in
  let trace = List.init 10_000 mk in
  let path = Filename.temp_file "sa_10k" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Obs.Jsonl.save path trace;
      match Obs.Jsonl.load path with
      | Error e -> Alcotest.failf "reload: %s" e
      | Ok trace' ->
        Alcotest.(check int) "10k events back" 10_000 (List.length trace');
        Alcotest.(check bool) "identical trace" true (trace = trace');
        (* and the streaming fold visits the same events in order *)
        let arr = Array.of_list trace in
        let n =
          Obs.Jsonl.fold_file path ~init:0 ~f:(fun acc ev ->
              assert (ev = arr.(acc));
              acc + 1)
          |> Result.get_ok
        in
        Alcotest.(check int) "fold_file count" 10_000 n)

let bench_out_format () =
  let doc =
    Obs.History.document ~experiment:"probe"
      [ Obs.Json.Obj [ ("n", Obs.Json.Int 4); ("p50", Obs.Json.Float 12.5) ] ]
  in
  match Obs.Json.of_string (Obs.Json.to_pretty_string doc) with
  | Error e -> Alcotest.failf "pretty output unparseable: %s" e
  | Ok parsed ->
    Alcotest.(check bool) "pretty/compact agree" true (parsed = doc);
    Alcotest.(check (option int)) "schema tagged" (Some Obs.History.schema_version)
      (Option.bind (Obs.Json.member "schema" parsed) Obs.Json.to_int_opt)

(* ---- JSON escaping: arbitrary byte strings round-trip ---- *)

(* The encoder must emit valid JSON for any byte string — control
   characters escaped, valid UTF-8 passed through, invalid bytes mapped
   to lone surrogates — and the decoder must invert it exactly. *)
let json_string_roundtrip_qcheck =
  QCheck_alcotest.to_alcotest
    ~rand:(Random.State.make [| 0x0B5 |])
    (QCheck.Test.make ~name:"Json string encode/decode on arbitrary bytes"
       ~count:2000
       QCheck.(string_gen_of_size Gen.(0 -- 64) Gen.(map Char.chr (0 -- 255)))
       (fun s ->
         match Obs.Json.of_string (Obs.Json.to_string (Obs.Json.String s)) with
         | Ok (Obs.Json.String s') -> s' = s
         | Ok _ | Error _ -> false))

let json_escaping_edge_cases () =
  let rt s =
    match Obs.Json.of_string (Obs.Json.to_string (Obs.Json.String s)) with
    | Ok (Obs.Json.String s') -> s'
    | Ok _ -> Alcotest.failf "%S decoded to a non-string" s
    | Error e -> Alcotest.failf "%S: %s" s e
  in
  List.iter
    (fun s -> Alcotest.(check string) (Fmt.str "%S" s) s (rt s))
    [
      "";
      "plain ascii";
      "\x00\x01\x1f\x7f";                   (* control chars *)
      "tab\tnewline\nquote\"backslash\\";
      "caf\xc3\xa9";                        (* valid 2-byte UTF-8 *)
      "\xe2\x86\x92";                       (* 3-byte: RIGHTWARDS ARROW *)
      "\xf0\x9f\x90\xab";                   (* 4-byte: emoji, needs surrogate pair *)
      "\xff\xfe lone invalid bytes";        (* not UTF-8 at all *)
      "\xc3truncated";                      (* truncated sequence *)
      "\xed\xa0\x80";                       (* encoded surrogate = invalid UTF-8 *)
    ];
  (* encoded form is pure ASCII-safe JSON: every control byte escaped *)
  let enc = Obs.Json.to_string (Obs.Json.String "\x00\x07\n\x1b\xff") in
  String.iter
    (fun c ->
      Alcotest.(check bool) "no raw control bytes in output" true (Char.code c >= 0x20))
    enc

(* ---- schema versioning ---- *)

let bench_out_reader () =
  let rows = [ Obs.Json.Obj [ ("n", Obs.Json.Int 4); ("r", Obs.Json.Float 5.5) ] ] in
  let path = Filename.temp_file "sa_bench" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Obs.History.write_document ~experiment:"probe" ~path rows;
      (match Obs.History.read_document path with
      | Error e -> Alcotest.failf "read back: %s" e
      | Ok doc ->
        Alcotest.(check string) "experiment" "probe" doc.Obs.History.experiment;
        Alcotest.(check int) "schema" Obs.History.schema_version doc.Obs.History.schema;
        Alcotest.(check bool) "rows" true (doc.Obs.History.rows = rows));
      (* a newer major is rejected *)
      let doc = Obs.History.document ~experiment:"probe" rows in
      let bumped =
        match doc with
        | Obs.Json.Obj fields ->
          Obs.Json.Obj
            (List.map
               (fun (k, v) -> if k = "schema" then (k, Obs.Json.Int 99) else (k, v))
               fields)
        | j -> j
      in
      match Obs.History.entry_of_json bumped with
      | Ok _ -> Alcotest.fail "accepted schema 99"
      | Error e -> Alcotest.(check bool) "rejected with reason" true (e <> ""))

let jsonl_header_versioned () =
  let path = Filename.temp_file "sa_hdr" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let ev = Event.Did_write { pid = 0; reg = 1; value = vi 7 } in
      Obs.Jsonl.save path [ ev ];
      (* the first line is the version header *)
      let ic = open_in path in
      let first = input_line ic in
      close_in ic;
      (match Obs.Json.of_string first with
      | Ok j ->
        Alcotest.(check (option int)) "header schema" (Some Obs.Jsonl.schema_version)
          (Option.bind (Obs.Json.member "schema" j) Obs.Json.to_int_opt)
      | Error e -> Alcotest.failf "header unparseable: %s" e);
      Alcotest.(check bool) "reloads" true (Obs.Jsonl.load path = Ok [ ev ]);
      (* a newer major is rejected *)
      let oc = open_out path in
      output_string oc "{\"jsonl\":\"sa-events\",\"schema\":99}\n";
      output_string oc (Obs.Jsonl.line_of_event ev);
      output_char oc '\n';
      close_out oc;
      (match Obs.Jsonl.load path with
      | Ok _ -> Alcotest.fail "accepted schema 99"
      | Error e -> Alcotest.(check bool) "rejected with reason" true (e <> ""));
      (* legacy headerless files still load (pre-versioning traces) *)
      let oc = open_out path in
      output_string oc (Obs.Jsonl.line_of_event ev);
      output_char oc '\n';
      close_out oc;
      Alcotest.(check bool) "legacy headerless accepted" true
        (Obs.Jsonl.load path = Ok [ ev ]))

(* ---- bench history ---- *)

let history_entry ?(rev = "abc1234") rows =
  Obs.History.make ~ts:1000. ~rev ~experiment:"perf" rows

let perf_row ~arm ~ratio =
  Obs.Json.Obj
    [
      ("bench", Obs.Json.String "sim-steps");
      ("arm", Obs.Json.String arm);
      ("steps", Obs.Json.Int 100);
      ("ratio_vs_reference", Obs.Json.Float ratio);
    ]

let history_roundtrip_and_diff () =
  let path = Filename.temp_file "sa_hist" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let base = history_entry ~rev:"base111" [ perf_row ~arm:"new" ~ratio:10. ] in
      let cur = history_entry ~rev:"cur2222" [ perf_row ~arm:"new" ~ratio:5. ] in
      Obs.History.append ~path base;
      Obs.History.append ~path cur;
      (match Obs.History.load path with
      | Error e -> Alcotest.failf "load: %s" e
      | Ok [ b; c ] ->
        Alcotest.(check string) "rev" "base111" b.Obs.History.rev;
        Alcotest.(check bool) "rows back" true (c.Obs.History.rows = cur.Obs.History.rows);
        let deltas = Obs.History.diff b c in
        let d =
          match
            List.find_opt
              (fun (d : Obs.History.delta) ->
                d.Obs.History.d_metric = "ratio_vs_reference")
              deltas
          with
          | Some d -> d
          | None -> Alcotest.fail "ratio delta missing"
        in
        Alcotest.(check (float 1e-9)) "base" 10. d.Obs.History.base;
        Alcotest.(check (float 1e-9)) "cur" 5. d.Obs.History.cur;
        Alcotest.(check (float 1e-6)) "pct" (-50.) (Obs.History.delta_pct d)
      | Ok l -> Alcotest.failf "expected 2 entries, got %d" (List.length l));
      (* a newer major is rejected on load *)
      let oc = open_out_gen [ Open_append ] 0o644 path in
      output_string oc
        "{\"schema\":99,\"ts\":0,\"rev\":\"x\",\"experiment\":\"perf\",\"kind\":\"run\",\"smoke\":false,\"rows\":[]}\n";
      close_out oc;
      match Obs.History.load path with
      | Ok _ -> Alcotest.fail "accepted schema 99"
      | Error e -> Alcotest.(check bool) "rejected with reason" true (e <> ""))

(* Rows that differ only in a numeric field (the scaling sweep's shard
   count) share a string key; diff pairs them in order, so each shard
   count meets its own base row and the shard field itself never moves. *)
let history_diff_pairs_repeated_keys () =
  let row shards cmds =
    Obs.Json.Obj
      [
        ("bench", Obs.Json.String "service-scaling");
        ("shards", Obs.Json.Int shards);
        ("cmds_per_s", Obs.Json.Float cmds);
      ]
  in
  let base = history_entry ~rev:"base111" [ row 1 100.; row 2 200. ] in
  let cur = history_entry ~rev:"cur2222" [ row 1 110.; row 2 220. ] in
  let deltas =
    Obs.History.diff base cur
    |> List.map (fun (d : Obs.History.delta) ->
           (d.Obs.History.d_key, d.Obs.History.d_metric, d.Obs.History.base, d.Obs.History.cur))
  in
  Alcotest.(check (list (pair (pair string string) (pair (float 1e-9) (float 1e-9)))))
    "each shard count against its own base row"
    [
      (("bench=service-scaling", "cmds_per_s"), (100., 110.));
      (("bench=service-scaling #2", "cmds_per_s"), (200., 220.));
    ]
    (List.map (fun (k, m, b, c) -> ((k, m), (b, c))) deltas)

let history_floors_gate () =
  let floors =
    [
      {
        Obs.History.selector = [ ("bench", "sim-steps"); ("arm", "new") ];
        metric = "ratio_vs_reference";
        min = 5.0;
      };
    ]
  in
  let verdicts rows = Obs.History.check_floors ~floors rows in
  (* above the floor: pass *)
  Alcotest.(check bool) "pass above floor" false
    (List.exists Obs.History.violated (verdicts [ perf_row ~arm:"new" ~ratio:38. ]));
  (* below the floor: fail *)
  Alcotest.(check bool) "fail below floor" true
    (List.exists Obs.History.violated (verdicts [ perf_row ~arm:"new" ~ratio:4.9 ]));
  (* the gated row disappearing entirely: fail *)
  Alcotest.(check bool) "fail on missing row" true
    (List.exists Obs.History.violated (verdicts [ perf_row ~arm:"reference" ~ratio:1. ]))

(* ---- the file readers on damaged input ---- *)

(* One valid file per format, as bytes, with its reader mapped to "how
   many records came back".  Every file is small: the cases below are
   about the reading policy, not scale. *)
type format = {
  name : string;
  contents : string;
  load : string -> (int, string) result;
}

let with_temp f =
  let path = Filename.temp_file "sa_reader" ".txt" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () -> f path)

let write_bytes path s = Out_channel.with_open_bin path (fun oc -> output_string oc s)
let read_bytes path = In_channel.with_open_bin path In_channel.input_all

let contents_of write =
  with_temp (fun path ->
      write path;
      read_bytes path)

let formats =
  lazy
    (let events =
       [
         Event.Invoke { pid = 0; instance = 1; input = vi 1 };
         Event.Did_write { pid = 0; reg = 0; value = vi 1 };
         Event.Output { pid = 0; instance = 1; value = vi 1 };
       ]
     in
     let rows = List.map (fun n -> Obs.Json.Obj [ ("n", Obs.Json.Int n) ]) [ 4; 5 ] in
     [
       {
         name = "events";
         contents = contents_of (fun path -> Obs.Jsonl.save path events);
         load = (fun path -> Result.map List.length (Obs.Jsonl.load path));
       };
       {
         name = "history";
         contents =
           contents_of (fun path ->
               Obs.History.append ~path (history_entry ~rev:"a" rows);
               Obs.History.append ~path (history_entry ~rev:"b" rows));
         load = (fun path -> Result.map List.length (Obs.History.load path));
       };
       {
         name = "document";
         contents =
           contents_of (fun path ->
               Obs.History.write_document ~experiment:"probe" ~path rows);
         load =
           (fun path ->
             Result.map
               (fun d -> List.length d.Obs.History.rows)
               (Obs.History.read_document path));
       };
     ])

let lines s = String.split_on_char '\n' s |> List.filter (( <> ) "")

(* Run [load] on [contents] ([None]: no file at all); an exception is a
   test failure, whatever the expected outcome. *)
let load_bytes fmt contents =
  with_temp (fun path ->
      (match contents with None -> Sys.remove path | Some c -> write_bytes path c);
      try fmt.load path
      with exn -> Alcotest.failf "%s reader raised %s" fmt.name (Printexc.to_string exn))

let schema_99 = function
  | "events" -> "{\"jsonl\":\"sa-events\",\"schema\":99}\n"
  | _ -> "{\"schema\":99,\"experiment\":\"perf\",\"rows\":[]}\n"

(* Documented outcomes: [Some n] = Ok with n records, [None] = Error.
   Columns: events, history, document. *)
let reader_cases =
  let torn c =
    let last = List.nth (lines c) (List.length (lines c) - 1) in
    c ^ String.sub last 0 (String.length last / 2)
  in
  [
    ("missing file", (fun _ -> None), [ None; None; None ]);
    ("empty file", (fun _ -> Some ""), [ Some 0; Some 0; None ]);
    ( "blank lines",
      (fun f -> Some ("\n" ^ String.concat "\n\n" (lines f.contents) ^ "\n\n")),
      [ Some 3; Some 2; Some 2 ] );
    ( "another format's header",
      (fun f ->
        let other = if f.name = "events" then "sa-other" else "sa-events" in
        Some (Fmt.str "{\"jsonl\":%S,\"schema\":1}\n%s" other f.contents)),
      [ None; None; None ] );
    ("schema 99", (fun f -> Some (schema_99 f.name)), [ None; None; None ]);
    ( "torn final line",
      (fun f ->
        Some
          (if f.name = "document" then
             String.sub f.contents 0 (String.length f.contents / 2)
           else torn f.contents)),
      [ Some 3; Some 2; None ] );
    ( "garbage line in the middle",
      (fun f ->
        match lines f.contents with
        | first :: rest -> Some (String.concat "\n" (first :: "garbage{" :: rest) ^ "\n")
        | [] -> assert false),
      [ None; None; None ] );
  ]

let readers_on_damaged_input () =
  List.iter
    (fun (case, contents, expected) ->
      List.iter2
        (fun fmt want ->
          let label = Fmt.str "%s: %s" fmt.name case in
          match (load_bytes fmt (contents fmt), want) with
          | Ok n, Some m -> Alcotest.(check int) label m n
          | Error e, None ->
            Alcotest.(check bool) (label ^ " has a reason") true (e <> "")
          | Ok n, None -> Alcotest.failf "%s: expected Error, got Ok (%d records)" label n
          | Error e, Some _ -> Alcotest.failf "%s: expected Ok, got Error %s" label e)
        (Lazy.force formats) expected)
    reader_cases

(* Truncating or flipping one byte of a valid file never makes a reader
   raise.  A truncated JSONL file still loads (the cut line is torn)
   unless the cut removes part of a required header; a truncated
   document loads only if at most its trailing newline went. *)
let readers_byte_mutations =
  QCheck_alcotest.to_alcotest
    ~rand:(Random.State.make [| 0x5A5 |])
    (QCheck.Test.make ~name:"readers: truncated or flipped files never raise" ~count:400
       QCheck.(
         quad (int_bound 2) bool (int_bound 10_000) (int_range 1 255))
       (fun (which, truncate, at, mask) ->
         let fmt = List.nth (Lazy.force formats) which in
         let c = fmt.contents in
         let at = at mod String.length c in
         if truncate then
           let result = load_bytes fmt (Some (String.sub c 0 at)) in
           let should_load = fmt.name <> "document" || at >= String.length c - 1 in
           Result.is_ok result = should_load
         else
           let b = Bytes.of_string c in
           Bytes.set b at (Char.chr (Char.code c.[at] lxor mask));
           ignore (load_bytes fmt (Some (Bytes.to_string b)));
           true))

(* An interrupted append leaves a final line with no newline: History
   loads everything before it, warning once, so `bench check` and
   `bench diff` keep working; a bad line anywhere else still fails. *)
let history_torn_final_line () =
  with_temp (fun path ->
      Sys.remove path;
      let entry rev = history_entry ~rev [ perf_row ~arm:"new" ~ratio:1. ] in
      Obs.History.append ~path (entry "a");
      Obs.History.append ~path (entry "b");
      let whole = read_bytes path in
      write_bytes path (whole ^ "{\"schema\":1,\"ts\":0,\"rev\":\"c\",\"exper");
      (match Obs.History.load path with
      | Ok entries ->
        Alcotest.(check (list string)) "entries before the torn line" [ "a"; "b" ]
          (List.map (fun e -> e.Obs.History.rev) entries)
      | Error e -> Alcotest.failf "torn final line failed the load: %s" e);
      let warnings = ref [] in
      let folded =
        Obs.Json.fold_lines ~warn:(fun w -> warnings := w :: !warnings) path ~init:0
          ~f:(fun n _ -> Ok (n + 1))
      in
      Alcotest.(check bool) "two lines folded" true (folded = Ok 2);
      Alcotest.(check int) "one warning" 1 (List.length !warnings);
      Alcotest.(check bool) "warning names path:line" true
        (String.starts_with ~prefix:(path ^ ":3:") (List.hd !warnings));
      (* the same bytes followed by a newline are a bad line, not a torn one *)
      write_bytes path (whole ^ "{\"schema\":1,\"ts\":0,\"rev\":\"c\",\"exper\n");
      match Obs.History.load path with
      | Ok _ -> Alcotest.fail "accepted a bad terminated line"
      | Error e ->
        Alcotest.(check bool) "error names path:line" true
          (String.starts_with ~prefix:(path ^ ":3:") e))

let suite =
  [
    test "analysis: empty trace" analysis_empty_trace;
    test "analysis: zero registers" analysis_zero_registers;
    test "analysis: write_skew with no writes" analysis_write_skew_no_writes;
    test "analysis: scan clipped to register file" analysis_scan_clipped;
    test "sink sees exactly the recorded trace" sink_sees_recorded_trace;
    test "stats sink matches batch analysis" stats_sink_matches_analysis;
    test "histogram quantiles within an octave" histogram_quantiles;
    test "histogram percentiles pinned across alloc-free rewrite"
      histogram_percentiles_pinned;
    test "metric record paths are allocation-free" record_paths_allocation_free;
    test "metrics registry get-or-create" registry_get_or_create;
    test "spans track every propose" spans_track_proposes;
    test "spans: starved proposes stay open, none phantom" spans_leave_starved_open;
    test "value JSON round-trip" value_json_roundtrip;
    test "event JSONL line round-trip" event_line_roundtrip;
    test "jsonl rejects malformed input" jsonl_rejects_garbage;
    test "jsonl file round-trip reproduces analysis" jsonl_file_roundtrip_analysis;
    test "jsonl 10k-event trace round-trips exactly" jsonl_10k_roundtrip;
    test "bench output format parses back" bench_out_format;
    json_string_roundtrip_qcheck;
    test "json escaping edge cases" json_escaping_edge_cases;
    test "bench output reader enforces schema" bench_out_reader;
    test "jsonl header versioned, legacy accepted" jsonl_header_versioned;
    test "history round-trip, diff, schema rejection" history_roundtrip_and_diff;
    test "history floors gate regressions" history_floors_gate;
    test "history: torn final line skipped, bad line fails" history_torn_final_line;
    test "readers: damaged-input table" readers_on_damaged_input;
    readers_byte_mutations;
    test "history diff pairs rows that share a key in order" history_diff_pairs_repeated_keys;
  ]
