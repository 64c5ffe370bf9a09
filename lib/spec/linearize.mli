(** A Wing–Gong-style linearizability checker for snapshot histories.

    A history is a set of update/scan operations with real-time
    intervals.  Intervals are abstract — any monotone integer clock
    works — so the same checker grades simulator histories (global step
    counters) and native multicore histories (monotonic-clock
    nanoseconds).  The checker searches for a total order that respects
    real time and is a legal sequential snapshot history (each scan
    returns exactly the latest value of every component, ⊥ if none).

    Partial histories are supported: a {e pending} operation (invoked,
    no response observed — e.g. its process crashed mid-operation) may
    have taken effect at any point after its invocation, or never; the
    search enumerates its possible completion points. *)

type op =
  | Update of { i : int; v : Shm.Value.t }
  | Scan of { view : Shm.Value.t array }

type event = {
  pid : int;
  op : op;
  start : int;   (** clock value at invocation (steps or ns) *)
  finish : int;  (** clock value at response; [max_int] if pending *)
}

val pp_event : Format.formatter -> event -> unit

(** [check ~components events] is true iff the (complete) history is
    linearizable as an atomic snapshot object.  Memoized DFS; intended
    for histories of tens of operations. *)
val check : components:int -> event list -> bool

(** [check_partial ~components ~pending completed] additionally allows
    each pending operation to be linearized anywhere after its start,
    or dropped.  Pending scans are always droppable (nobody observed
    their view) and are ignored. *)
val check_partial : components:int -> pending:event list -> event list -> bool

(** [witness ~components ?pending completed] is the
    legal-sequential-witness mode: [Some order] gives the operations —
    all completed ones plus any linearized pending ones — in a legal
    linearization order; [None] iff the history is not linearizable. *)
val witness :
  components:int -> ?pending:event list -> event list -> event list option

(** {1 Harness support}

    Tester processes announce each completed operation with an [Output]
    event carrying one of these encodings; {!history_of_trace} then
    reconstructs operations and intervals from a recorded trace. *)

val encode_update : i:int -> v:Shm.Value.t -> Shm.Value.t
val encode_scan : Shm.Value.t array -> Shm.Value.t
val history_of_trace : Shm.Event.t list -> event list
