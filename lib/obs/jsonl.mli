(** JSONL trace export and reload: one event per line, so traces can be
    captured from [sa_run --trace-out t.jsonl], inspected offline with
    standard tools, and replayed into {!Shm.Analysis} and property
    checks.  The schema is documented in DESIGN.md §Observability. *)

(** {1 Encoding} *)

val json_of_value : Shm.Value.t -> Json.t

(** Exact inverse of {!json_of_value}. *)
val value_of_json : Json.t -> (Shm.Value.t, string) result

(** One compact line, no trailing newline. *)
val line_of_event : Shm.Event.t -> string

val event_of_line : string -> (Shm.Event.t, string) result

(** {1 Channels and files}

    Files and streams open with a schema header line
    [{"jsonl":"sa-events","schema":N}].  Readers skip a valid header,
    reject one declaring a schema major newer than {!schema_version},
    and tolerate headerless files written before the header existed.
    Reading follows {!Json.fold_lines}: blank lines are skipped and a
    torn final line is dropped with a warning on stderr. *)

val schema_version : int

(** An [Exec.run ?sink] observer writing one line per event as it
    happens — O(1) memory.  Writes the header immediately. *)
val sink_to_channel : out_channel -> Shm.Event.t -> unit

val save : string -> Shm.Event.t list -> unit
val load : string -> (Shm.Event.t list, string) result

(** Stream a trace file through a fold without materializing the event
    list — the offline counterpart of a live sink. *)
val fold_file :
  string -> init:'a -> f:('a -> Shm.Event.t -> 'a) -> ('a, string) result
