(** Chrome trace-event JSON export of an {!Trace} collector.

    The output loads in Perfetto ({:https://ui.perfetto.dev}) or
    [chrome://tracing]: each OCaml domain becomes a named thread row,
    spans become complete ("X") slices, instants become instant ("i")
    events, and counter samples (the register-coverage
    timeline) become counter ("C") tracks.  Timestamps are
    microseconds relative to the collector's epoch. *)

(** Full trace-event document (object form, with metadata). *)
val to_json : ?process_name:string -> Trace.t -> Json.t

(** Write the document, pretty-printed, to [path]. *)
val save : ?process_name:string -> string -> Trace.t -> unit
