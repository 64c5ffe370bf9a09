(** Hierarchical, causally-linked spans with cross-domain context
    propagation.

    A {e span} is a named interval of monotonic time.  Opening a span
    returns a {!ctx} — two plain integers — which can cross domains
    (through a [Domain.spawn] closure) and be closed over there; the
    collector records both the opening and the closing domain.  Span ids come from one atomic counter, so they are
    globally unique and monotone in creation order; {!spans} sorts by
    [(start_ns, id)], which guarantees a parent precedes its children
    in the merged output even across domains.

    The collector can be {e attached} as the ambient collector for the
    process.  Instrumented hot paths guard every emission with
    {!enabled} — a single atomic load — so with nothing attached the
    instrumentation allocates zero words per event (pinned by a
    Gc-measured test). *)

(** Current monotonic time, in nanoseconds (arbitrary epoch). *)
val now_ns : unit -> int

(** A handle on a live or past span: safe to copy across domains. *)
type ctx = { trace_id : int; span_id : int }

type span = {
  id : int;
  parent : int;  (** 0 = root (no parent) *)
  name : string;
  cat : string;
  dom : int;  (** domain that opened the span *)
  close_dom : int;  (** domain that closed it *)
  start_ns : int;
  dur_ns : int;
  args : (string * Json.t) list;
}

(** A point event on the calling domain's timeline. *)
type instant = {
  i_name : string;
  i_cat : string;
  i_dom : int;
  i_ts_ns : int;
  i_args : (string * Json.t) list;
}

(** One point of a named counter track (e.g. registers covered). *)
type sample = { track : string; s_dom : int; s_ts_ns : int; value : float }

type t

val create : ?trace_id:int -> unit -> t
val trace_id : t -> int

(** Monotonic timestamp taken at {!create}; Chrome export offsets
    against it. *)
val epoch_ns : t -> int

(** {1 The ambient collector}

    Instrumentation sites never take a [t] — they consult the ambient
    collector so that instrumented libraries stay zero-cost when
    nothing is attached. *)

val detach : unit -> unit

(** One atomic load, no allocation: the guard for every
    instrumentation site. *)
val enabled : unit -> bool

val attached : unit -> t option

(** [with_attached t f] attaches [t] around [f], detaching on any
    exit. *)
val with_attached : t -> (unit -> 'a) -> 'a

(** {1 Recording} *)

(** Open a span on the calling domain.  The returned {!ctx} may be
    passed to — and closed on — any domain. *)
val begin_span :
  t -> ?parent:ctx -> ?cat:string -> ?args:(string * Json.t) list -> string -> ctx

(** Close a span (idempotent: closing twice, or closing a ctx this
    collector never opened, is a no-op).  [args] are appended to the
    opening args. *)
val end_span : t -> ?args:(string * Json.t) list -> ctx -> unit

val with_span :
  t ->
  ?parent:ctx ->
  ?cat:string ->
  ?args:(string * Json.t) list ->
  string ->
  (ctx -> 'a) ->
  'a

(** Record a point event on the calling domain's timeline. *)
val instant : t -> ?cat:string -> ?args:(string * Json.t) list -> string -> unit

(** Append one sample to counter track [track] on the calling domain's
    timeline.  [ts_ns] overrides the stamp — how one exploration sample
    puts its four counter tracks under a single timestamp. *)
val counter : t -> ?ts_ns:int -> track:string -> float -> unit

(** {1 Reading} *)

(** Completed spans sorted by [(start_ns, id)] — parents before
    children. *)
val spans : t -> span list

val instants : t -> instant list
val samples : t -> sample list
val span_count : t -> int

(** Spans opened but not yet closed. *)
val open_count : t -> int

val find_span : t -> string -> span option

(** {1 JSONL export}

    Line 1 is a header [{"jsonl":"sa-trace","schema":N,...}]; the
    reader rejects files without one or whose schema major exceeds
    {!schema_version}, and otherwise follows {!Json.fold_lines}. *)

val schema_version : int

val save_jsonl : string -> t -> unit

type reloaded = {
  r_trace_id : int;
  r_spans : span list;
  r_instants : instant list;
  r_samples : sample list;
}

val load_jsonl : string -> (reloaded, string) result

val pp : Format.formatter -> t -> unit
