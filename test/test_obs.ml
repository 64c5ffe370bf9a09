(* Tests for the observability layer (lib/obs) and the Analysis edge
   cases it subsumes: streaming sinks vs recorded traces, metrics
   histograms, per-propose spans, and the JSONL export round-trip. *)

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
  let recorder, events = Obs.Sink.recorder () in
  let res = run_counters ~record:true ~sink:recorder ~n:3 ~ops:5 () in
  Alcotest.(check int) "same length" (List.length res.Exec.trace)
    (List.length (events ()));
  Alcotest.(check bool) "same events in order" true
    (List.for_all2 (fun a b -> a = b) res.Exec.trace (events ()))

let sink_tee_and_filter () =
  let c_all, n_all = Obs.Sink.counter () in
  let c_p0, n_p0 = Obs.Sink.counter () in
  let c_writes, n_writes = Obs.Sink.counter () in
  let is_write = function Event.Did_write _ -> true | _ -> false in
  let sink =
    Obs.Sink.tee
      [ c_all; Obs.Sink.on_pid 0 c_p0; Obs.Sink.filter is_write c_writes ]
  in
  let res = run_counters ~sink ~n:2 ~ops:3 () in
  Alcotest.(check int) "tee sees every step" res.Exec.steps (n_all ());
  (* each process: invoke + 3*(read+write) + output = 8 steps, 3 writes *)
  Alcotest.(check int) "pid filter" 8 (n_p0 ());
  Alcotest.(check int) "event filter" 6 (n_writes ())

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

(* ---- Spans ---- *)

let spans_track_proposes () =
  let n = 4 in
  let p = Agreement.Params.make ~n ~m:1 ~k:2 in
  let span = Obs.Span.create () in
  let res = Agreement.Runner.run_oneshot ~sink:(Obs.Span.sink span) p in
  let outs = List.length (Config.outputs res.Exec.config) in
  Alcotest.(check int) "one span per decided propose" outs
    (Obs.Span.completed_count span);
  Alcotest.(check int) "nothing left open" 0 (Obs.Span.open_count span);
  List.iter
    (fun s ->
      Alcotest.(check bool) "positive latency" true (Obs.Span.latency s > 0);
      Alcotest.(check bool) "within run" true
        (s.Obs.Span.start_step >= 0 && s.Obs.Span.end_step <= res.Exec.steps))
    (Obs.Span.completed span);
  Alcotest.(check bool) "p50 <= p99" true (Obs.Span.p50 span <= Obs.Span.p99 span)

let spans_leave_starved_open () =
  (* solo schedule: only p1 decides, the other invocations never start *)
  let n = 3 in
  let p = Agreement.Params.make ~n ~m:1 ~k:2 in
  let span = Obs.Span.create () in
  let res =
    Agreement.Runner.run_oneshot ~sched:(Schedule.solo 1) ~sink:(Obs.Span.sink span) p
  in
  ignore res;
  Alcotest.(check int) "one completed" 1 (Obs.Span.completed_count span);
  Alcotest.(check int) "no phantom opens" 0 (Obs.Span.open_count span)

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
          ~sink:(Obs.Sink.tee [ Obs.Jsonl.sink_to_channel oc; Analysis.feed acc ])
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
    Obs.Bench_out.document ~experiment:"probe"
      [ Obs.Json.Obj [ ("n", Obs.Json.Int 4); ("p50", Obs.Json.Float 12.5) ] ]
  in
  match Obs.Json.of_string (Obs.Json.to_pretty_string doc) with
  | Error e -> Alcotest.failf "pretty output unparseable: %s" e
  | Ok parsed ->
    Alcotest.(check bool) "pretty/compact agree" true (parsed = doc);
    Alcotest.(check (option int)) "schema tagged" (Some Obs.Bench_out.schema_version)
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
      Obs.Bench_out.write ~experiment:"probe" ~path rows;
      (match Obs.Bench_out.read path with
      | Error e -> Alcotest.failf "read back: %s" e
      | Ok doc ->
        Alcotest.(check string) "experiment" "probe" doc.Obs.Bench_out.experiment;
        Alcotest.(check int) "schema" Obs.Bench_out.schema_version doc.Obs.Bench_out.schema;
        Alcotest.(check bool) "rows" true (doc.Obs.Bench_out.rows = rows));
      (* a newer major is rejected *)
      let doc = Obs.Bench_out.document ~experiment:"probe" rows in
      let bumped =
        match doc with
        | Obs.Json.Obj fields ->
          Obs.Json.Obj
            (List.map
               (fun (k, v) -> if k = "schema" then (k, Obs.Json.Int 99) else (k, v))
               fields)
        | j -> j
      in
      match Obs.Bench_out.of_json bumped with
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

let history_entry ?(kind = "run") ?(rev = "abc1234") rows =
  Obs.History.make ~ts:1000. ~rev ~kind ~experiment:"perf" rows

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
  (* floors survive the entry round trip *)
  let entry = history_entry ~kind:"floors" (List.map Obs.History.floor_row floors) in
  let entry =
    Result.get_ok (Obs.History.entry_of_json (Obs.History.json_of_entry entry))
  in
  Alcotest.(check bool) "floors round-trip" true
    (Obs.History.floors_of_entry entry = floors);
  Alcotest.(check bool) "latest_floors finds it" true
    (Obs.History.latest_floors [ history_entry []; entry ] ~experiment:"perf"
    = Some entry);
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

let suite =
  [
    test "analysis: empty trace" analysis_empty_trace;
    test "analysis: zero registers" analysis_zero_registers;
    test "analysis: write_skew with no writes" analysis_write_skew_no_writes;
    test "analysis: scan clipped to register file" analysis_scan_clipped;
    test "sink sees exactly the recorded trace" sink_sees_recorded_trace;
    test "sink tee and filter compose" sink_tee_and_filter;
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
  ]
