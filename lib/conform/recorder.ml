(* Low-overhead history capture for native runs.

   One recorder per run, one handle per domain.  A handle owns a
   private growable buffer that only its domain ever touches — no
   locks, no atomics, no cross-domain traffic on the hot path (the
   whole-run structure is published to the spawned domains before they
   start and read back after they join, so the OCaml memory model makes
   the hand-off safe).  Timestamps are Obs.Trace.now_ns nanoseconds,
   one monotonic clock across domains, so intervals captured on
   different cores compare directly (the real-time order the
   linearizability checker needs); they are rebased to the recorder's
   creation so intervals stay small and printable.

   Completed operations carry [invoke, response] intervals; pending
   operations (the domain crashed mid-operation) carry their invoke
   time and [finish = max_int], which is exactly how Spec.Linearize
   marks an operation whose effect point must be enumerated. *)

type buf = {
  pid : int;
  mutable events : Spec.Linearize.event list;  (* newest first *)
  mutable pending : Spec.Linearize.event list;
  mutable count : int;
}

type t = { base : int; bufs : buf array }

type handle = { recorder : t; buf : buf }

let create ~domains =
  {
    base = Obs.Trace.now_ns ();
    bufs = Array.init domains (fun pid -> { pid; events = []; pending = []; count = 0 });
  }

let handle t ~pid = { recorder = t; buf = t.bufs.(pid) }

(* Nanoseconds since the recorder was created. *)
let now h = Obs.Trace.now_ns () - h.recorder.base

let completed h ~start ~finish op =
  let b = h.buf in
  b.events <- { Spec.Linearize.pid = b.pid; op; start; finish } :: b.events;
  b.count <- b.count + 1

let pending h ~start op =
  let b = h.buf in
  b.pending <- { Spec.Linearize.pid = b.pid; op; start; finish = max_int } :: b.pending;
  b.count <- b.count + 1

(* Merge after every recording domain has been joined.  Completed
   events are sorted by invocation time — the order the checker's DFS
   tries candidates in, which makes the common (linearizable) case
   fast. *)
let history t =
  let completed =
    Array.fold_left (fun acc b -> List.rev_append b.events acc) [] t.bufs
    |> List.sort (fun a b -> compare a.Spec.Linearize.start b.Spec.Linearize.start)
  in
  let pending =
    Array.fold_left (fun acc b -> List.rev_append b.pending acc) [] t.bufs
  in
  (completed, pending)

let ops_recorded t = Array.fold_left (fun acc b -> acc + b.count) 0 t.bufs
