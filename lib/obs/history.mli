(** Append-only bench history ([BENCH_history.jsonl]) — the repo's perf
    trajectory, one JSONL entry per [bench table] run — plus the diff
    and floor-checking logic behind [bench diff] / [bench check].

    Entries hold measurement rows, the same rows written to
    [BENCH_<id>.json], and are of kind ["run"]; readers select rows by
    [kind], so other row kinds can share the file.  Floors are the
    caller's ({!check_floors}
    takes them as an argument) and gate machine-independent metrics —
    same-binary speedup ratios — so one set holds across hardware.

    The module is subprocess- and unix-free: callers supply timestamps
    and git revisions. *)

val schema_version : int

type entry = {
  schema : int;
  ts : float;  (** unix seconds, [0.] when unknown *)
  rev : string;
  experiment : string;
  kind : string;  (** ["run"] for the entries {!make} builds *)
  smoke : bool;
  rows : Json.t list;
}

(** A ["run"] entry. *)
val make :
  ?ts:float ->
  ?rev:string ->
  ?smoke:bool ->
  experiment:string ->
  Json.t list ->
  entry

val json_of_entry : entry -> Json.t

(** Decodes a history line or a [BENCH_*.json] document (whose missing
    fields take the {!make} defaults).  Rejects a schema major newer
    than {!schema_version}. *)
val entry_of_json : Json.t -> (entry, string) result

(** Append one line, creating the file if needed. *)
val append : path:string -> entry -> unit

(** All entries, oldest first.  Fails on an unparsable line or a
    too-new schema, except that a torn final line (no trailing newline)
    is skipped with a warning on stderr: see {!Json.fold_lines}. *)
val load : string -> (entry list, string) result

(** {1 Bench documents}

    [BENCH_<id>.json]: one pretty-printed document per experiment,
    [{"experiment": id, "schema": N, "rows": [...]}], so results diff
    across PRs.  The format is documented in DESIGN.md §Observability. *)

val document : experiment:string -> Json.t list -> Json.t

(** Write {!document} to [path], with a trailing newline. *)
val write_document : experiment:string -> path:string -> Json.t list -> unit

(** Load a document; its [rev], [ts], [kind] and [smoke] are the
    {!make} defaults. *)
val read_document : string -> (entry, string) result

(** {1 Diff} *)

type delta = { d_key : string; d_metric : string; base : float; cur : float }

val delta_pct : delta -> float

(** Metrics that changed between rows present in both entries.  Rows
    pair on their string fields; rows that share those pair in the
    order they occur. *)
val diff : entry -> entry -> delta list

val pp_delta : Format.formatter -> delta -> unit

(** {1 Floors} *)

type floor = {
  selector : (string * string) list;  (** string fields a row must match *)
  metric : string;
  min : float;
}

type verdict = {
  v_floor : floor;
  actual : float option;  (** [None]: no matching row / metric absent *)
}

val violated : verdict -> bool

(** One verdict per floor; a floor matching no row is a violation. *)
val check_floors : floors:floor list -> Json.t list -> verdict list

val pp_verdict : Format.formatter -> verdict -> unit
val pp_entry : Format.formatter -> entry -> unit
