(* JSONL trace export and reload: one event per line.

   Schema (documented in DESIGN.md §Observability):
     {"ev":"invoke","pid":P,"inst":I,"in":V}
     {"ev":"read","pid":P,"reg":R,"val":V}
     {"ev":"write","pid":P,"reg":R,"val":V}
     {"ev":"scan","pid":P,"off":O,"len":L}
     {"ev":"output","pid":P,"inst":I,"val":V}
   where values V are: null = ⊥, integers and strings themselves,
   {"pair":[a,b]} for pairs, [..] for lists.  The pair wrapper keeps
   pairs and 2-element lists distinct, so decoding is exact. *)

open Shm

let rec json_of_value v =
  match Value.view v with
  | Value.Bot -> Json.Null
  | Value.Int i -> Json.Int i
  | Value.Str s -> Json.String s
  | Value.Pair (a, b) -> Json.Obj [ ("pair", Json.Arr [ json_of_value a; json_of_value b ]) ]
  | Value.List vs -> Json.Arr (List.map json_of_value vs)

let rec value_of_json = function
  | Json.Null -> Ok Value.bot
  | Json.Int i -> Ok (Value.int i)
  | Json.String s -> Ok (Value.str s)
  | Json.Obj [ ("pair", Json.Arr [ a; b ]) ] -> (
    match (value_of_json a, value_of_json b) with
    | Ok a, Ok b -> Ok (Value.pair a b)
    | (Error _ as e), _ | _, (Error _ as e) -> e)
  | Json.Arr vs ->
    let rec go acc = function
      | [] -> Ok (Value.list (List.rev acc))
      | v :: rest -> (
        match value_of_json v with Ok v -> go (v :: acc) rest | Error _ as e -> e)
    in
    go [] vs
  | j -> Error (Fmt.str "not a register value: %s" (Json.to_string j))

let json_of_event ev =
  let open Json in
  match ev with
  | Event.Invoke { pid; instance; input } ->
    Obj
      [ ("ev", String "invoke"); ("pid", Int pid); ("inst", Int instance);
        ("in", json_of_value input) ]
  | Event.Did_read { pid; reg; value } ->
    Obj
      [ ("ev", String "read"); ("pid", Int pid); ("reg", Int reg);
        ("val", json_of_value value) ]
  | Event.Did_write { pid; reg; value } ->
    Obj
      [ ("ev", String "write"); ("pid", Int pid); ("reg", Int reg);
        ("val", json_of_value value) ]
  | Event.Did_scan { pid; off; len } ->
    Obj [ ("ev", String "scan"); ("pid", Int pid); ("off", Int off); ("len", Int len) ]
  | Event.Output { pid; instance; value } ->
    Obj
      [ ("ev", String "output"); ("pid", Int pid); ("inst", Int instance);
        ("val", json_of_value value) ]

let event_of_json j =
  let ( let* ) r f = Result.bind r f in
  let int_field k = Json.int_field k j in
  let value_field k =
    match Json.member k j with
    | Some v -> value_of_json v
    | None -> Error (Fmt.str "missing field %S in %s" k (Json.to_string j))
  in
  match Json.member "ev" j with
  | Some (Json.String "invoke") ->
    let* pid = int_field "pid" in
    let* instance = int_field "inst" in
    let* input = value_field "in" in
    Ok (Event.Invoke { pid; instance; input })
  | Some (Json.String "read") ->
    let* pid = int_field "pid" in
    let* reg = int_field "reg" in
    let* value = value_field "val" in
    Ok (Event.Did_read { pid; reg; value })
  | Some (Json.String "write") ->
    let* pid = int_field "pid" in
    let* reg = int_field "reg" in
    let* value = value_field "val" in
    Ok (Event.Did_write { pid; reg; value })
  | Some (Json.String "scan") ->
    let* pid = int_field "pid" in
    let* off = int_field "off" in
    let* len = int_field "len" in
    Ok (Event.Did_scan { pid; off; len })
  | Some (Json.String "output") ->
    let* pid = int_field "pid" in
    let* instance = int_field "inst" in
    let* value = value_field "val" in
    Ok (Event.Output { pid; instance; value })
  | _ -> Error (Fmt.str "missing or unknown \"ev\" tag in %s" (Json.to_string j))

let line_of_event ev = Json.to_string (json_of_event ev)

let event_of_line line = Result.bind (Json.of_string line) event_of_json

(* ---- schema header ----

   Writers open every file/stream with one header line

     {"jsonl":"sa-events","schema":1}

   so a reader can refuse a future major version instead of misreading
   it.  Readers skip a valid header, reject a header declaring a newer
   major or a different format name, and tolerate headerless files
   (traces written before the header existed). *)

let schema_version = 1

let header = { Json.format = "sa-events"; schema = schema_version }

let write_header oc =
  output_string oc (Json.to_string (Json.Obj (Json.header_fields header)));
  output_char oc '\n'

(* ---- channels and files ---- *)

let write_event oc ev =
  output_string oc (line_of_event ev);
  output_char oc '\n'

let sink_to_channel oc =
  write_header oc;
  write_event oc

let save path trace =
  Out_channel.with_open_text path (fun oc ->
      write_header oc;
      List.iter (write_event oc) trace)

(* [fold_file] streams the file through [f] without materializing the
   event list — the offline counterpart of a live sink. *)
let fold_file path ~init ~f =
  Json.fold_lines ~header path ~init ~f:(fun acc j ->
      Result.map (f acc) (event_of_json j))

let load path = Result.map List.rev (fold_file path ~init:[] ~f:(fun acc ev -> ev :: acc))
