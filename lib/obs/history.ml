(* Append-only bench history: BENCH_history.jsonl.

   Every `bench table <id>` run appends one line — an *entry*: schema
   version, wall-clock timestamp, git revision, experiment id, smoke
   flag, and the full row set that also went to BENCH_<id>.json.  The
   file is the perf trajectory of the repo: `bench diff` compares two
   entries, `bench check` compares a fresh run against the *floors*
   its caller supplies and exits non-zero on regression.  Floors gate
   machine-independent metrics (same-binary speedup ratios), so one
   set holds across hardware.

   Entries written here are kind "run" (measurement rows, as in
   BENCH_<id>.json); readers select by [kind], so other row kinds can
   share the file.

   A BENCH_<id>.json document is the {experiment, schema, rows} part of
   an entry, pretty-printed: one decoder, [entry_of_json], reads both.
   Row fields are experiment-specific; rows about a parameter point
   carry "n"/"m"/"k", bound comparisons carry "bound"/"measured"/"ok",
   and latency distributions carry the histogram object of
   [Metrics.Histogram.to_json].

   This module stays subprocess- and unix-free: callers supply the
   timestamp and git revision. *)

let schema_version = 1

type entry = {
  schema : int;
  ts : float;  (* unix seconds, 0. when unknown *)
  rev : string;
  experiment : string;
  kind : string;  (* "run" for the entries [make] builds *)
  smoke : bool;
  rows : Json.t list;
}

let make ?(ts = 0.) ?(rev = "unknown") ?(smoke = false) ~experiment rows =
  { schema = schema_version; ts; rev; experiment; kind = "run"; smoke; rows }

let json_of_entry e =
  Json.Obj
    [
      ("schema", Json.Int e.schema);
      ("ts", Json.Float e.ts);
      ("rev", Json.String e.rev);
      ("experiment", Json.String e.experiment);
      ("kind", Json.String e.kind);
      ("smoke", Json.Bool e.smoke);
      ("rows", Json.Arr e.rows);
    ]

let entry_of_json j =
  let ( let* ) = Result.bind in
  let* schema = Json.int_field "schema" j in
  (* refuse to misread a future format rather than silently dropping
     fields *)
  let* () =
    if schema > schema_version then
      Error
        (Fmt.str "history schema %d is newer than supported major %d" schema
           schema_version)
    else Ok ()
  in
  let* experiment = Json.string_field "experiment" j in
  let str k d = match Json.member k j with Some (Json.String s) -> s | _ -> d in
  let ts = Option.(value ~default:0. (bind (Json.member "ts" j) Json.to_float_opt)) in
  let smoke = match Json.member "smoke" j with Some (Json.Bool b) -> b | _ -> false in
  let* rows =
    match Json.member "rows" j with
    | Some (Json.Arr rows) -> Ok rows
    | _ -> Error "missing \"rows\" array"
  in
  Ok
    {
      schema;
      ts;
      rev = str "rev" "unknown";
      experiment;
      kind = str "kind" "run";
      smoke;
      rows;
    }

let append ~path e =
  let oc = Out_channel.open_gen [ Open_append; Open_creat; Open_text ] 0o644 path in
  Fun.protect
    ~finally:(fun () -> Out_channel.close oc)
    (fun () ->
      output_string oc (Json.to_string (json_of_entry e));
      output_char oc '\n')

let load path =
  Json.fold_lines path ~init:[] ~f:(fun acc j ->
      Result.map (fun e -> e :: acc) (entry_of_json j))
  |> Result.map List.rev

(* ---- BENCH_<id>.json documents ---- *)

let document ~experiment rows =
  Json.Obj
    [
      ("experiment", Json.String experiment);
      ("schema", Json.Int schema_version);
      ("rows", Json.Arr rows);
    ]

let write_document ~experiment ~path rows =
  Out_channel.with_open_text path (fun oc ->
      output_string oc (Json.to_pretty_string (document ~experiment rows));
      output_char oc '\n')

let read_document path =
  Result.bind (Json.of_file path) (fun j ->
      Result.map_error (Fmt.str "%s: %s" path) (entry_of_json j))

(* ---- row keys and metrics (for diff) ---- *)

(* A row's identity is its string-valued fields ("bench", "arm",
   "engine", ...), in field order; its metrics are the numeric
   fields. *)
let row_key row =
  match row with
  | Json.Obj fields ->
    fields
    |> List.filter_map (fun (k, v) ->
           match v with
           | Json.String s when k <> "metric" -> Some (Fmt.str "%s=%s" k s)
           | _ -> None)
    |> String.concat " "
  | _ -> ""

let metrics_of_row row =
  match row with
  | Json.Obj fields ->
    List.filter_map (fun (k, v) -> Json.to_float_opt v |> Option.map (fun f -> (k, f)))
      fields
  | _ -> []

type delta = { d_key : string; d_metric : string; base : float; cur : float }

let delta_pct d =
  if d.base = 0. then if d.cur = 0. then 0. else Float.infinity
  else 100. *. (d.cur -. d.base) /. Float.abs d.base

(* Rows matched by key, metrics by name; rows or metrics present on
   only one side are skipped (diff reports drift, not schema change).
   Rows sharing a key (a sweep over a numeric field) pair in order, the
   i-th keyed "key #i" from the second on; numeric fields stay out of
   the key so that a count which moved still pairs. *)
let diff base cur =
  let index e =
    let seen = Hashtbl.create 16 in
    List.filter_map
      (fun row ->
        match row_key row with
        | "" -> None
        | key ->
          let i = 1 + Option.value ~default:0 (Hashtbl.find_opt seen key) in
          Hashtbl.replace seen key i;
          Some ((if i = 1 then key else Fmt.str "%s #%d" key i), metrics_of_row row))
      e.rows
  in
  let base_rows = index base in
  index cur
  |> List.concat_map (fun (key, cur_metrics) ->
         match List.assoc_opt key base_rows with
         | None -> []
         | Some base_metrics ->
           cur_metrics
           |> List.filter_map (fun (metric, cur_v) ->
                  match List.assoc_opt metric base_metrics with
                  | Some base_v when base_v <> cur_v ->
                    Some { d_key = key; d_metric = metric; base = base_v; cur = cur_v }
                  | _ -> None))

let pp_delta ppf d =
  Fmt.pf ppf "%-46s %-18s %14g -> %-14g %+.1f%%" d.d_key d.d_metric d.base d.cur
    (delta_pct d)

(* ---- floors (for check) ---- *)

type floor = { selector : (string * string) list; metric : string; min : float }

let row_matches selector row =
  List.for_all
    (fun (k, v) ->
      match Json.member k row with Some (Json.String s) -> s = v | _ -> false)
    selector

type verdict = {
  v_floor : floor;
  actual : float option;  (* None: no row matched or metric absent *)
}

let violated v = match v.actual with None -> true | Some a -> a < v.v_floor.min

(* Every floor yields a verdict; a floor whose selector matches no
   current row is a violation (the gated bench disappeared). *)
let check_floors ~floors rows =
  List.map
    (fun f ->
      let actual =
        List.find_opt (row_matches f.selector) rows
        |> Option.map (fun row -> List.assoc_opt f.metric (metrics_of_row row))
        |> Option.join
      in
      { v_floor = f; actual })
    floors

let pp_selector ppf selector =
  Fmt.pf ppf "%a"
    Fmt.(list ~sep:(any " ") (fun ppf (k, v) -> Fmt.pf ppf "%s=%s" k v))
    selector

let pp_verdict ppf v =
  let f = v.v_floor in
  match v.actual with
  | None -> Fmt.pf ppf "FAIL %a: no row carries metric %S" pp_selector f.selector f.metric
  | Some a ->
    Fmt.pf ppf "%s %a: %s = %g (floor %g)"
      (if a < f.min then "FAIL" else "ok  ")
      pp_selector f.selector f.metric a f.min

let pp_entry ppf e =
  Fmt.pf ppf "%s %s%s rev %s (%d rows%s)" e.kind e.experiment
    (if e.smoke then " [smoke]" else "")
    e.rev (List.length e.rows)
    (if e.ts = 0. then "" else Fmt.str ", ts %.0f" e.ts)
