(* Chrome trace-event JSON export of an Obs.Trace collector, loadable
   in Perfetto (https://ui.perfetto.dev) or chrome://tracing.

   Mapping:
   - one Perfetto "process" per trace (pid = trace id); each OCaml
     domain becomes a "thread" (tid = domain id) with a metadata row
     naming it "domain N";
   - spans -> ph "X" complete events (ts/dur in microseconds, relative
     to the collector's epoch so timestamps start near 0);
   - instants -> ph "i" (thread scope);
   - counter samples -> ph "C" events, one counter track per sample
     track name (the register-coverage timeline uses these).

   A span opened on one domain and closed on another is attributed to
   the opening domain's row (Chrome "X" events cannot change thread);
   the closing domain is preserved as a "close_dom" arg. *)

(* The [otherData] schema.  Schema 2 dropped the flow ("s"/"f")
   events. *)
let schema_version = 2

let us_of_ns ns = float_of_int ns /. 1e3

let event ~ph ~name ~cat ~pid ~tid ~ts ?dur ?(args = []) () =
  let base =
    [
      ("name", Json.String name);
      ("cat", Json.String (if cat = "" then "sa" else cat));
      ("ph", Json.String ph);
      ("pid", Json.Int pid);
      ("tid", Json.Int tid);
      ("ts", Json.Float ts);
    ]
  in
  let base = match dur with Some d -> base @ [ ("dur", Json.Float d) ] | None -> base in
  let base =
    match args with [] -> base | kvs -> base @ [ ("args", Json.Obj kvs) ]
  in
  Json.Obj base

let meta ~pid ?tid ~name value =
  let base =
    [
      ("name", Json.String name);
      ("ph", Json.String "M");
      ("pid", Json.Int pid);
    ]
  in
  let base = match tid with Some t -> base @ [ ("tid", Json.Int t) ] | None -> base in
  Json.Obj (base @ [ ("args", Json.Obj [ ("name", Json.String value) ]) ])

let domains_of t =
  let module IS = Set.Make (Int) in
  let s = IS.empty in
  let s = List.fold_left (fun s (sp : Trace.span) -> IS.add sp.dom s) s (Trace.spans t) in
  let s =
    List.fold_left (fun s (i : Trace.instant) -> IS.add i.i_dom s) s (Trace.instants t)
  in
  let s =
    List.fold_left (fun s (sa : Trace.sample) -> IS.add sa.s_dom s) s (Trace.samples t)
  in
  IS.elements s

(* The [traceEvents] array. *)
let events ?(process_name = "set_agreement") t =
  let pid = Trace.trace_id t in
  let t0 = Trace.epoch_ns t in
  let ts ns = us_of_ns (ns - t0) in
  let metas =
    meta ~pid ~name:"process_name" process_name
    :: List.map
         (fun d -> meta ~pid ~tid:d ~name:"thread_name" (Fmt.str "domain %d" d))
         (domains_of t)
  in
  let span_ev (s : Trace.span) =
    let args =
      (("span_id", Json.Int s.id) :: ("parent", Json.Int s.parent) :: s.args)
      @ (if s.close_dom <> s.dom then [ ("close_dom", Json.Int s.close_dom) ] else [])
    in
    event ~ph:"X" ~name:s.name ~cat:s.cat ~pid ~tid:s.dom ~ts:(ts s.start_ns)
      ~dur:(us_of_ns s.dur_ns) ~args ()
  in
  let instant_ev (i : Trace.instant) =
    event ~ph:"i" ~name:i.i_name ~cat:i.i_cat ~pid ~tid:i.i_dom ~ts:(ts i.i_ts_ns)
      ~args:(("s", Json.String "t") :: i.i_args)
      ()
  in
  let sample_ev (s : Trace.sample) =
    event ~ph:"C" ~name:s.track ~cat:"counter" ~pid ~tid:s.s_dom ~ts:(ts s.s_ts_ns)
      ~args:[ ("value", Json.Float s.value) ]
      ()
  in
  metas
  @ List.map span_ev (Trace.spans t)
  @ List.map instant_ev (Trace.instants t)
  @ List.map sample_ev (Trace.samples t)

let to_json ?process_name t =
  Json.Obj
    [
      ("traceEvents", Json.Arr (events ?process_name t));
      ("displayTimeUnit", Json.String "ms");
      ( "otherData",
        Json.Obj
          [
            ("format", Json.String "sa-chrome-trace");
            ("schema", Json.Int schema_version);
          ] );
    ]

let save ?process_name path t =
  Out_channel.with_open_text path (fun oc ->
      output_string oc (Json.to_pretty_string (to_json ?process_name t));
      output_char oc '\n')
