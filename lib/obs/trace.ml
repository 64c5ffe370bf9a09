(* Causally-linked spans with cross-domain context propagation.

   A span is a named interval of wall-clock (monotonic) time attributed
   to the domain that opened it; spans nest through an explicit parent
   context, and a context is two plain integers — so it can be handed
   to another domain (through a work-stealing deque, a Domain.spawn
   closure, a queue) and the span closed over there.  One collector
   gathers everything under a mutex; ids come from a single atomic
   counter, so they are unique across domains and monotone in
   allocation order.

   The collector is *attachable*: instrumented hot paths (the DPOR
   workers, the native operations, the execution runner) guard every
   emission with [enabled ()], which is one atomic load — when nothing
   is attached the instrumentation allocates nothing and calls no
   clock.  test_obs.ml pins that with a Gc-measured test.

   Besides spans the collector records:
   - instants: point events (a steal, a crash, a cache milestone),
     optionally carrying a flow id that links an emitting and a
     receiving instant across domains (rendered as arrows in Perfetto);
   - samples: named counter tracks (registers covered, frontier depth,
     cache hit-rate) — the register-coverage timeline of the paper's
     covering argument is exported this way (Obs.Coverage).

   Export: Chrome trace-event JSON via {!Chrome_trace} (loadable in
   Perfetto / chrome://tracing) and a JSONL span log (schema-versioned,
   reloadable) here. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

type ctx = { trace_id : int; span_id : int }

type span = {
  id : int;
  parent : int;  (* 0 = no parent *)
  name : string;
  cat : string;
  dom : int;       (* domain that opened the span *)
  close_dom : int; (* domain that closed it (= dom unless stolen) *)
  start_ns : int;
  dur_ns : int;
  args : (string * Json.t) list;
}

type flow_dir = Flow_none | Flow_out | Flow_in

type instant = {
  i_name : string;
  i_cat : string;
  i_dom : int;
  i_ts_ns : int;
  i_flow : int;  (* 0 = not part of a flow *)
  i_dir : flow_dir;
  i_args : (string * Json.t) list;
}

type sample = { track : string; s_dom : int; s_ts_ns : int; value : float }

type open_span = {
  o_parent : int;
  o_name : string;
  o_cat : string;
  o_dom : int;
  o_start_ns : int;
  o_args : (string * Json.t) list;
}

type t = {
  trace_id : int;
  t0_ns : int;
  next_id : int Atomic.t;  (* span and flow ids; 0 reserved for "none" *)
  mu : Mutex.t;
  open_tbl : (int, open_span) Hashtbl.t;
  mutable spans : span list;       (* completed, reversed *)
  mutable span_count : int;
  mutable instants : instant list; (* reversed *)
  mutable samples : sample list;   (* reversed *)
}

let next_trace_id = Atomic.make 1

let create ?trace_id () =
  let trace_id =
    match trace_id with Some i -> i | None -> Atomic.fetch_and_add next_trace_id 1
  in
  {
    trace_id;
    t0_ns = now_ns ();
    next_id = Atomic.make 1;
    mu = Mutex.create ();
    open_tbl = Hashtbl.create 64;
    spans = [];
    span_count = 0;
    instants = [];
    samples = [];
  }

let trace_id t = t.trace_id
let epoch_ns t = t.t0_ns

(* ---- the ambient collector ---- *)

(* The option cell is written once per attach/detach, so [enabled] is a
   single atomic load with no allocation — the guard every instrumented
   hot path uses. *)
let current : t option Atomic.t = Atomic.make None

let attach t = Atomic.set current (Some t)
let detach () = Atomic.set current None
let attached () = Atomic.get current
let enabled () = Atomic.get current != None

let with_attached t f =
  attach t;
  Fun.protect ~finally:detach f

let self_dom () = (Domain.self () :> int)

(* ---- spans ---- *)

let fresh_id t = Atomic.fetch_and_add t.next_id 1

let begin_span t ?parent ?(cat = "") ?(args = []) name =
  let id = fresh_id t in
  let parent_id = match parent with Some c -> c.span_id | None -> 0 in
  let o =
    {
      o_parent = parent_id;
      o_name = name;
      o_cat = cat;
      o_dom = self_dom ();
      o_start_ns = now_ns ();
      o_args = args;
    }
  in
  Mutex.protect t.mu (fun () -> Hashtbl.replace t.open_tbl id o);
  { trace_id = t.trace_id; span_id = id }

let end_span t ?(args = []) ctx =
  let finish = now_ns () in
  let close_dom = self_dom () in
  Mutex.protect t.mu (fun () ->
      match Hashtbl.find_opt t.open_tbl ctx.span_id with
      | None -> ()  (* double close or foreign ctx: drop rather than corrupt *)
      | Some o ->
        Hashtbl.remove t.open_tbl ctx.span_id;
        let s =
          {
            id = ctx.span_id;
            parent = o.o_parent;
            name = o.o_name;
            cat = o.o_cat;
            dom = o.o_dom;
            close_dom;
            start_ns = o.o_start_ns;
            dur_ns = max 0 (finish - o.o_start_ns);
            args = o.o_args @ args;
          }
        in
        t.spans <- s :: t.spans;
        t.span_count <- t.span_count + 1)

let with_span t ?parent ?cat ?args name f =
  let ctx = begin_span t ?parent ?cat ?args name in
  Fun.protect ~finally:(fun () -> end_span t ctx) (fun () -> f ctx)

(* ---- instants, flows, counter samples ---- *)

let fresh_flow t = fresh_id t

(* [dom] overrides the attributed domain: a thief records the victim
   side of a steal handoff on the victim's timeline. *)
let instant t ?(cat = "") ?(args = []) ?flow ?dom name =
  let flow_id, dir =
    match flow with
    | None -> (0, Flow_none)
    | Some (id, `Out) -> (id, Flow_out)
    | Some (id, `In) -> (id, Flow_in)
  in
  let i =
    {
      i_name = name;
      i_cat = cat;
      i_dom = (match dom with Some d -> d | None -> self_dom ());
      i_ts_ns = now_ns ();
      i_flow = flow_id;
      i_dir = dir;
      i_args = args;
    }
  in
  Mutex.protect t.mu (fun () -> t.instants <- i :: t.instants)

let counter t ?ts_ns ~track value =
  let s =
    {
      track;
      s_dom = self_dom ();
      s_ts_ns = (match ts_ns with Some ts -> ts | None -> now_ns ());
      value;
    }
  in
  Mutex.protect t.mu (fun () -> t.samples <- s :: t.samples)

(* ---- reading the collector ---- *)

(* Merged-output ordering guarantee: spans sort by (start_ns, id).  Ids
   are allocated monotonically from one atomic counter and a parent is
   always opened before its children, so in the sorted output a parent
   precedes every child even when their clock timestamps tie (the tie
   breaks on the smaller id).  test_trace.ml pins this under real
   domains. *)
let compare_span a b =
  match compare a.start_ns b.start_ns with 0 -> compare a.id b.id | c -> c

let read t f = Mutex.protect t.mu (fun () -> f t)

let spans t = List.sort compare_span (read t (fun t -> t.spans))

let compare_instant a b = compare a.i_ts_ns b.i_ts_ns
let compare_sample a b = compare a.s_ts_ns b.s_ts_ns
let instants t = List.sort compare_instant (read t (fun t -> t.instants))
let samples t = List.sort compare_sample (read t (fun t -> t.samples))

let span_count t = read t (fun t -> t.span_count)

let open_count t = read t (fun t -> Hashtbl.length t.open_tbl)

let find_span t name =
  List.find_opt (fun s -> s.name = name) (spans t)

(* ---- JSONL export / reload ---- *)

(* One header line then one record per span/instant/sample.  The header
   carries the format name and schema version; the reader rejects a
   major it does not know (same discipline as the BENCH_*.json
   documents of Obs.History). *)

let schema_version = 1

let jsonl_header = { Json.format = "sa-trace"; schema = schema_version; required = true }

let header t =
  Json.Obj
    (Json.header_fields jsonl_header
    @ [ ("trace_id", Json.Int t.trace_id); ("epoch_ns", Json.Int t.t0_ns) ])

let json_of_span s =
  Json.Obj
    [
      ("rec", Json.String "span");
      ("id", Json.Int s.id);
      ("parent", Json.Int s.parent);
      ("name", Json.String s.name);
      ("cat", Json.String s.cat);
      ("dom", Json.Int s.dom);
      ("close_dom", Json.Int s.close_dom);
      ("start_ns", Json.Int s.start_ns);
      ("dur_ns", Json.Int s.dur_ns);
      ("args", Json.Obj s.args);
    ]

let json_of_instant i =
  Json.Obj
    [
      ("rec", Json.String "instant");
      ("name", Json.String i.i_name);
      ("cat", Json.String i.i_cat);
      ("dom", Json.Int i.i_dom);
      ("ts_ns", Json.Int i.i_ts_ns);
      ("flow", Json.Int i.i_flow);
      ( "dir",
        Json.String
          (match i.i_dir with Flow_none -> "" | Flow_out -> "out" | Flow_in -> "in") );
      ("args", Json.Obj i.i_args);
    ]

let json_of_sample s =
  Json.Obj
    [
      ("rec", Json.String "sample");
      ("track", Json.String s.track);
      ("dom", Json.Int s.s_dom);
      ("ts_ns", Json.Int s.s_ts_ns);
      ("value", Json.Float s.value);
    ]

let to_jsonl_channel oc t =
  let line j =
    output_string oc (Json.to_string j);
    output_char oc '\n'
  in
  line (header t);
  List.iter (fun s -> line (json_of_span s)) (spans t);
  List.iter (fun i -> line (json_of_instant i)) (instants t);
  List.iter (fun s -> line (json_of_sample s)) (samples t)

let save_jsonl path t =
  Out_channel.with_open_text path (fun oc -> to_jsonl_channel oc t)

(* -- reload -- *)

let args_field j =
  match Json.member "args" j with
  | Some (Json.Obj kvs) -> Ok kvs
  | None -> Ok []
  | Some _ -> Error "malformed \"args\""

let span_of_json j =
  let ( let* ) = Result.bind in
  let* id = Json.int_field "id" j in
  let* parent = Json.int_field "parent" j in
  let* name = Json.string_field "name" j in
  let* cat = Json.string_field "cat" j in
  let* dom = Json.int_field "dom" j in
  let* close_dom = Json.int_field "close_dom" j in
  let* start_ns = Json.int_field "start_ns" j in
  let* dur_ns = Json.int_field "dur_ns" j in
  let* args = args_field j in
  Ok { id; parent; name; cat; dom; close_dom; start_ns; dur_ns; args }

let instant_of_json j =
  let ( let* ) = Result.bind in
  let* i_name = Json.string_field "name" j in
  let* i_cat = Json.string_field "cat" j in
  let* i_dom = Json.int_field "dom" j in
  let* i_ts_ns = Json.int_field "ts_ns" j in
  let* i_flow = Json.int_field "flow" j in
  let* dir = Json.string_field "dir" j in
  let* i_dir =
    match dir with
    | "" -> Ok Flow_none
    | "out" -> Ok Flow_out
    | "in" -> Ok Flow_in
    | d -> Error (Fmt.str "unknown flow direction %S" d)
  in
  let* i_args = args_field j in
  Ok { i_name; i_cat; i_dom; i_ts_ns; i_flow; i_dir; i_args }

let sample_of_json j =
  let ( let* ) = Result.bind in
  let* track = Json.string_field "track" j in
  let* s_dom = Json.int_field "dom" j in
  let* s_ts_ns = Json.int_field "ts_ns" j in
  let* value =
    Option.to_result ~none:"missing \"value\""
      (Option.bind (Json.member "value" j) Json.to_float_opt)
  in
  Ok { track; s_dom; s_ts_ns; value }

type reloaded = {
  r_trace_id : int;
  r_spans : span list;
  r_instants : instant list;
  r_samples : sample list;
}

(* Rejects files whose header declares a schema major newer than this
   reader ([schema_version]); missing header is an error too — every
   writer since the format existed emits one. *)
let load_jsonl path =
  let record (sp, ins, sa) j =
    match Json.member "rec" j with
    | Some (Json.String "span") ->
      Result.map (fun s -> (s :: sp, ins, sa)) (span_of_json j)
    | Some (Json.String "instant") ->
      Result.map (fun i -> (sp, i :: ins, sa)) (instant_of_json j)
    | Some (Json.String "sample") ->
      Result.map (fun s -> (sp, ins, s :: sa)) (sample_of_json j)
    | _ -> Error "missing or unknown \"rec\" tag"
  in
  Json.fold_lines ~header:jsonl_header path ~init:([], [], []) ~f:record
  |> Result.map (fun (hdr, (sp, ins, sa)) ->
         let r_trace_id =
           match Option.bind hdr (Json.member "trace_id") with
           | Some (Json.Int i) -> i
           | _ -> 0
         in
         {
           r_trace_id;
           r_spans = List.sort compare_span sp;
           r_instants = List.sort compare_instant ins;
           r_samples = List.sort compare_sample sa;
         })

let pp ppf t =
  Fmt.pf ppf "trace %d: %d spans (%d open), %d instants, %d samples" t.trace_id
    (span_count t) (open_count t)
    (List.length (instants t))
    (List.length (samples t))
