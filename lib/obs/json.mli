(** Minimal JSON for the observability layer: compact one-line encoding
    for JSONL traces, pretty printing for [BENCH_*.json] files, a parser
    for reloading both, and the file reader behind every [lib/obs]
    loader.  No external dependency. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | Arr of t list
  | Obj of (string * t) list

(** Compact single-line rendering (the JSONL form).  Output is always
    valid UTF-8: string bytes that are not part of a well-formed UTF-8
    scalar sequence are emitted as surrogate escapes ([\udcXX]), which
    {!of_string} maps back to the raw bytes — so encode/decode is the
    identity on arbitrary byte strings. *)
val to_string : t -> string

(** Indented multi-line rendering (the [BENCH_*.json] form). *)
val to_pretty_string : t -> string

(** Parse a complete JSON document.  Non-finite floats serialize as
    [null], so [of_string (to_string v) = Ok v] for all finite values. *)
val of_string : string -> (t, string) result

(** {1 Accessors} *)

(** Field of an [Obj], or [None]. *)
val member : string -> t -> t option

val to_int_opt : t -> int option
val to_string_opt : t -> string option

(** Both [Float] and [Int] read as a float. *)
val to_float_opt : t -> float option

(** [int_field k j] is the [Int] field [k] of [j], or an [Error] naming
    it; likewise {!string_field}. *)
val int_field : string -> t -> (int, string) result

val string_field : string -> t -> (string, string) result

(** {1 Files}

    Both readers return [Error] — never raise — on a missing or
    unreadable file (the system message) and on bad content
    ([path: msg], or [path:line: msg] for a JSONL line). *)

(** Parse a whole file as one JSON document. *)
val of_file : string -> (t, string) result

(** A JSONL header line [{"jsonl":format,"schema":N,...}]. *)
type header = {
  format : string;
  schema : int;  (** newest major this reader understands *)
}

(** The header's [jsonl] and [schema] fields, for writers. *)
val header_fields : header -> (string * t) list

(** [fold_lines ?header path ~init ~f] folds [f] over the JSON value of
    every non-blank line of a JSONL file, streaming.  With [header], the
    first non-blank line is checked against it: a newer schema major or
    a different format name is an [Error]; a valid header is skipped,
    not folded, and a file without one is data from line 1.  A final
    line with no trailing newline that does not parse — a torn append —
    is skipped and reported through [warn] (default: a line on stderr);
    any other bad line is an [Error]. *)
val fold_lines :
  ?warn:(string -> unit) ->
  ?header:header ->
  string ->
  init:'a ->
  f:('a -> t -> ('a, string) result) ->
  ('a, string) result
