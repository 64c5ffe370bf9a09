(* Minimal JSON: exactly what the observability layer needs — compact
   one-line encoding for JSONL traces, pretty printing for BENCH_*.json
   files, a parser for reloading both, and the one file reader every
   lib/obs loader goes through.  No external dependency; the opam file
   stays as it is. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | Arr of t list
  | Obj of (string * t) list

(* ---- printing ---- *)

(* OCaml strings are arbitrary bytes, but a JSON document must be
   valid UTF-8 — emitting non-ASCII bytes raw produces output that
   strict parsers (and Perfetto) reject.  The encoder validates UTF-8
   as it walks: well-formed scalar sequences pass through, every byte
   that is not part of one (stray continuation bytes, overlong
   encodings, encoded surrogates, truncated sequences) is escaped as
   a *surrogate escape* [\udcXX] — the lone-low-surrogate convention
   (PEP 383) — which the parser below maps back to the raw byte.
   Encode/decode is therefore the identity on arbitrary byte strings;
   a QCheck property in test_obs.ml pins it. *)
let add_escaped buf s =
  Buffer.add_char buf '"';
  let n = String.length s in
  let byte j = Char.code (String.unsafe_get s j) in
  let cont j = j < n && byte j land 0xC0 = 0x80 in
  let i = ref 0 in
  let escape_byte () =
    Buffer.add_string buf (Printf.sprintf "\\udc%02x" (byte !i));
    incr i
  in
  while !i < n do
    match String.unsafe_get s !i with
    | '"' -> Buffer.add_string buf "\\\""; incr i
    | '\\' -> Buffer.add_string buf "\\\\"; incr i
    | '\n' -> Buffer.add_string buf "\\n"; incr i
    | '\r' -> Buffer.add_string buf "\\r"; incr i
    | '\t' -> Buffer.add_string buf "\\t"; incr i
    | c when Char.code c < 0x20 ->
      Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c));
      incr i
    | c when Char.code c < 0x80 -> Buffer.add_char buf c; incr i
    | _ ->
      let b0 = byte !i in
      if b0 land 0xE0 = 0xC0 && cont (!i + 1) then begin
        (* 2-byte sequence; reject overlong (cp < 0x80) *)
        let cp = ((b0 land 0x1F) lsl 6) lor (byte (!i + 1) land 0x3F) in
        if cp >= 0x80 then begin
          Buffer.add_substring buf s !i 2;
          i := !i + 2
        end
        else escape_byte ()
      end
      else if b0 land 0xF0 = 0xE0 && cont (!i + 1) && cont (!i + 2) then begin
        (* 3-byte; reject overlong and encoded surrogates *)
        let cp =
          ((b0 land 0x0F) lsl 12)
          lor ((byte (!i + 1) land 0x3F) lsl 6)
          lor (byte (!i + 2) land 0x3F)
        in
        if cp >= 0x800 && not (cp >= 0xD800 && cp <= 0xDFFF) then begin
          Buffer.add_substring buf s !i 3;
          i := !i + 3
        end
        else escape_byte ()
      end
      else if b0 land 0xF8 = 0xF0 && cont (!i + 1) && cont (!i + 2) && cont (!i + 3)
      then begin
        (* 4-byte; reject overlong and beyond U+10FFFF *)
        let cp =
          ((b0 land 0x07) lsl 18)
          lor ((byte (!i + 1) land 0x3F) lsl 12)
          lor ((byte (!i + 2) land 0x3F) lsl 6)
          lor (byte (!i + 3) land 0x3F)
        in
        if cp >= 0x10000 && cp <= 0x10FFFF then begin
          Buffer.add_substring buf s !i 4;
          i := !i + 4
        end
        else escape_byte ()
      end
      else escape_byte ()
  done;
  Buffer.add_char buf '"'

(* Floats must stay valid JSON: no nan/infinity, and keep a marker
   ('.', 'e') so they reload as floats, not ints. *)
let float_repr f =
  if Float.is_nan f || f = Float.infinity || f = Float.neg_infinity then "null"
  else
    let s = Printf.sprintf "%.12g" f in
    if String.exists (fun c -> c = '.' || c = 'e' || c = 'E') s then s else s ^ ".0"

let rec add_compact buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float f -> Buffer.add_string buf (float_repr f)
  | String s -> add_escaped buf s
  | Arr vs ->
    Buffer.add_char buf '[';
    List.iteri
      (fun i v ->
        if i > 0 then Buffer.add_char buf ',';
        add_compact buf v)
      vs;
    Buffer.add_char buf ']'
  | Obj kvs ->
    Buffer.add_char buf '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char buf ',';
        add_escaped buf k;
        Buffer.add_char buf ':';
        add_compact buf v)
      kvs;
    Buffer.add_char buf '}'

let to_string v =
  let buf = Buffer.create 128 in
  add_compact buf v;
  Buffer.contents buf

let rec pp ppf = function
  | Null -> Fmt.string ppf "null"
  | Bool b -> Fmt.string ppf (if b then "true" else "false")
  | Int i -> Fmt.int ppf i
  | Float f -> Fmt.string ppf (float_repr f)
  | String s ->
    let buf = Buffer.create (String.length s + 2) in
    add_escaped buf s;
    Fmt.string ppf (Buffer.contents buf)
  | Arr [] -> Fmt.string ppf "[]"
  | Arr vs ->
    Fmt.pf ppf "@[<v 2>[@,%a@;<0 -2>]@]" (Fmt.list ~sep:(Fmt.any ",@,") pp) vs
  | Obj [] -> Fmt.string ppf "{}"
  | Obj kvs ->
    let field ppf (k, v) =
      let buf = Buffer.create (String.length k + 2) in
      add_escaped buf k;
      Fmt.pf ppf "@[<hov 2>%s: %a@]" (Buffer.contents buf) pp v
    in
    Fmt.pf ppf "@[<v 2>{@,%a@;<0 -2>}@]" (Fmt.list ~sep:(Fmt.any ",@,") field) kvs

let to_pretty_string v = Fmt.str "%a" pp v

(* ---- parsing ---- *)

exception Parse_error of string

let add_utf8 buf cp =
  if cp < 0x80 then Buffer.add_char buf (Char.chr cp)
  else if cp < 0x800 then begin
    Buffer.add_char buf (Char.chr (0xC0 lor (cp lsr 6)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
  end
  else if cp < 0x10000 then begin
    Buffer.add_char buf (Char.chr (0xE0 lor (cp lsr 12)));
    Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
  end
  else begin
    Buffer.add_char buf (Char.chr (0xF0 lor (cp lsr 18)));
    Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 12) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
  end

let of_string s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Parse_error (Fmt.str "%s at offset %d" msg !pos)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let skip_ws () =
    while
      !pos < n && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
    do
      incr pos
    done
  in
  let expect c =
    if !pos < n && s.[!pos] = c then incr pos else fail (Fmt.str "expected %C" c)
  in
  let literal lit v =
    let l = String.length lit in
    if !pos + l <= n && String.sub s !pos l = lit then begin
      pos := !pos + l;
      v
    end
    else fail (Fmt.str "bad literal (expected %s)" lit)
  in
  let hex_digit c =
    match c with
    | '0' .. '9' -> Char.code c - Char.code '0'
    | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
    | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
    | _ -> fail "bad \\u escape"
  in
  let string_lit () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string"
      else
        match s.[!pos] with
        | '"' -> incr pos
        | '\\' ->
          incr pos;
          if !pos >= n then fail "unterminated escape";
          (match s.[!pos] with
          | '"' -> Buffer.add_char buf '"'; incr pos
          | '\\' -> Buffer.add_char buf '\\'; incr pos
          | '/' -> Buffer.add_char buf '/'; incr pos
          | 'b' -> Buffer.add_char buf '\b'; incr pos
          | 'f' -> Buffer.add_char buf '\012'; incr pos
          | 'n' -> Buffer.add_char buf '\n'; incr pos
          | 'r' -> Buffer.add_char buf '\r'; incr pos
          | 't' -> Buffer.add_char buf '\t'; incr pos
          | 'u' ->
            if !pos + 4 >= n then fail "truncated \\u escape";
            let cp =
              (hex_digit s.[!pos + 1] lsl 12)
              lor (hex_digit s.[!pos + 2] lsl 8)
              lor (hex_digit s.[!pos + 3] lsl 4)
              lor hex_digit s.[!pos + 4]
            in
            pos := !pos + 5;
            (* Surrogate handling, mirroring add_escaped: a high
               surrogate pairs with a following \uDCxx-range low
               surrogate into one supplementary-plane scalar; a lone
               \udcXX in 0xDC80–0xDCFF is a surrogate-escaped raw
               byte; any other lone surrogate decodes to U+FFFD
               rather than producing ill-formed UTF-8. *)
            if cp >= 0xD800 && cp <= 0xDBFF then begin
              let lo =
                if !pos + 5 < n && s.[!pos] = '\\' && s.[!pos + 1] = 'u' then
                  let l =
                    (hex_digit s.[!pos + 2] lsl 12)
                    lor (hex_digit s.[!pos + 3] lsl 8)
                    lor (hex_digit s.[!pos + 4] lsl 4)
                    lor hex_digit s.[!pos + 5]
                  in
                  if l >= 0xDC00 && l <= 0xDFFF then Some l else None
                else None
              in
              match lo with
              | Some l ->
                pos := !pos + 6;
                add_utf8 buf (0x10000 + ((cp - 0xD800) lsl 10) + (l - 0xDC00))
              | None -> add_utf8 buf 0xFFFD
            end
            else if cp >= 0xDC80 && cp <= 0xDCFF then
              Buffer.add_char buf (Char.chr (cp land 0xFF))
            else if cp >= 0xDC00 && cp <= 0xDFFF then add_utf8 buf 0xFFFD
            else add_utf8 buf cp
          | c -> fail (Fmt.str "bad escape \\%c" c));
          go ()
        | c ->
          Buffer.add_char buf c;
          incr pos;
          go ()
    in
    go ();
    Buffer.contents buf
  in
  let number () =
    let start = !pos in
    let is_num_char c =
      match c with
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while !pos < n && is_num_char s.[!pos] do
      incr pos
    done;
    let lit = String.sub s start (!pos - start) in
    match int_of_string_opt lit with
    | Some i -> Int i
    | None -> (
      match float_of_string_opt lit with
      | Some f -> Float f
      | None -> fail (Fmt.str "bad number %S" lit))
  in
  let rec value () =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some 'n' -> literal "null" Null
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some '"' -> String (string_lit ())
    | Some '[' ->
      incr pos;
      skip_ws ();
      if peek () = Some ']' then begin
        incr pos;
        Arr []
      end
      else
        let rec elems acc =
          let v = value () in
          skip_ws ();
          match peek () with
          | Some ',' ->
            incr pos;
            elems (v :: acc)
          | Some ']' ->
            incr pos;
            List.rev (v :: acc)
          | _ -> fail "expected ',' or ']'"
        in
        Arr (elems [])
    | Some '{' ->
      incr pos;
      skip_ws ();
      if peek () = Some '}' then begin
        incr pos;
        Obj []
      end
      else
        let field () =
          skip_ws ();
          let k = string_lit () in
          skip_ws ();
          expect ':';
          let v = value () in
          (k, v)
        in
        let rec fields acc =
          let kv = field () in
          skip_ws ();
          match peek () with
          | Some ',' ->
            incr pos;
            fields (kv :: acc)
          | Some '}' ->
            incr pos;
            List.rev (kv :: acc)
          | _ -> fail "expected ',' or '}'"
        in
        Obj (fields [])
    | Some ('-' | '0' .. '9') -> number ()
    | Some c -> fail (Fmt.str "unexpected character %C" c)
  in
  try
    let v = value () in
    skip_ws ();
    if !pos <> n then Error (Fmt.str "trailing input at offset %d" !pos) else Ok v
  with Parse_error msg -> Error msg

(* ---- accessors ---- *)

let member k = function Obj kvs -> List.assoc_opt k kvs | _ -> None

let to_int_opt = function Int i -> Some i | _ -> None

let to_string_opt = function String s -> Some s | _ -> None

let to_float_opt = function Float f -> Some f | Int i -> Some (float_of_int i) | _ -> None

let int_field k j =
  match member k j with
  | Some (Int i) -> Ok i
  | _ -> Error (Fmt.str "missing integer field %S" k)

let string_field k j =
  match member k j with
  | Some (String s) -> Ok s
  | _ -> Error (Fmt.str "missing string field %S" k)

(* ---- files ----

   The only place lib/obs opens a file for reading (tools/lint.sh rule
   7), so every loader gets the same failure policy: a missing or
   unreadable file is an [Error] carrying the system message, and an
   error inside the file names it as [path:line]. *)

let with_file path f =
  try In_channel.with_open_text path f with Sys_error e -> Error e

let of_file path =
  with_file path (fun ic ->
      Result.map_error (Fmt.str "%s: %s" path) (of_string (In_channel.input_all ic)))

type header = { format : string; schema : int }

let header_fields h = [ ("jsonl", String h.format); ("schema", Int h.schema) ]

(* [Ok true]: a valid header, consume it; [Ok false]: no header here,
   the line is data (a file written before the header existed). *)
let check_header h j =
  match (member "jsonl" j, member "schema" j) with
  | Some (String f), Some (Int v) when f = h.format ->
    if v > h.schema then
      Error (Fmt.str "%s schema %d is newer than supported major %d" f v h.schema)
    else Ok true
  | Some (String f), _ when f = h.format -> Error "header missing integer \"schema\""
  | Some (String f), _ -> Error (Fmt.str "not an %s file (format %S)" h.format f)
  | Some _, _ -> Error "malformed header"
  | None, _ -> Ok false

(* A final line with no trailing newline was cut off by an interrupted
   append: if it does not parse, it is skipped with one warning, so one
   torn write does not lock every later reader out of the file.  A bad
   line anywhere else is an error.  [input_line] consumes a newline
   unless it hit end of file, so the channel position tells the two
   apart. *)
let fold_lines ?(warn = prerr_endline) ?header path ~init ~f =
  with_file path (fun ic ->
      let fail lineno e = Error (Fmt.str "%s:%d: %s" path lineno e) in
      let rec go lineno ~first acc =
        let before = In_channel.pos ic in
        match In_channel.input_line ic with
        | None -> Ok acc
        | Some line when String.trim line = "" -> go (lineno + 1) ~first acc
        | Some line -> (
          match of_string line with
          | Error e
            when Int64.(to_int (sub (In_channel.pos ic) before)) = String.length line ->
            warn (Fmt.str "%s:%d: skipping torn final line (%s)" path lineno e);
            go (lineno + 1) ~first acc
          | Error e -> fail lineno e
          | Ok j -> (
            let is_header =
              match header with Some h when first -> check_header h j | _ -> Ok false
            in
            match is_header with
            | Error e -> fail lineno e
            | Ok true -> go (lineno + 1) ~first:false acc
            | Ok false -> (
              match f acc j with
              | Ok acc -> go (lineno + 1) ~first:false acc
              | Error e -> fail lineno e)))
      in
      go 1 ~first:true init)
