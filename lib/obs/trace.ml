(* Causally-linked spans with cross-domain context propagation.

   A span is a named interval of wall-clock (monotonic) time attributed
   to the domain that opened it; spans nest through an explicit parent
   context, and a context is two plain integers — so it can be handed
   to another domain (through a Domain.spawn closure or a queue) and
   the span closed over there.  One collector
   gathers everything under a mutex; ids come from a single atomic
   counter, so they are unique across domains and monotone in
   allocation order.

   The collector is *attachable*: instrumented hot paths (the DPOR
   search, the native operations, the execution runner) guard every
   emission with [enabled ()], which is one atomic load — when nothing
   is attached the instrumentation allocates nothing and calls no
   clock.  test_obs.ml pins that with a Gc-measured test.

   Besides spans the collector records:
   - instants: point events (a violation, a crash, a coverage change);
   - samples: named counter tracks (registers covered, frontier depth,
     cache hit-rate) — the register-coverage timeline of the paper's
     covering argument is exported this way (Obs.Coverage).

   Export: Chrome trace-event JSON via {!Chrome_trace} (loadable in
   Perfetto / chrome://tracing). *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

type ctx = { trace_id : int; span_id : int }

type span = {
  id : int;
  parent : int;  (* 0 = no parent *)
  name : string;
  cat : string;
  dom : int;       (* domain that opened the span *)
  close_dom : int; (* domain that closed it *)
  start_ns : int;
  dur_ns : int;
  args : (string * Json.t) list;
}

type instant = {
  i_name : string;
  i_cat : string;
  i_dom : int;
  i_ts_ns : int;
  i_args : (string * Json.t) list;
}

type sample = { track : string; s_dom : int; s_ts_ns : int; value : float }

type open_span = {
  o_parent : int;
  o_name : string;
  o_cat : string;
  o_dom : int;
  o_start_ns : int;
  o_args : (string * Json.t) list;
}

type t = {
  trace_id : int;
  t0_ns : int;
  next_id : int Atomic.t;  (* span ids; 0 reserved for "none" *)
  mu : Mutex.t;
  open_tbl : (int, open_span) Hashtbl.t;
  mutable spans : span list;       (* completed, reversed *)
  mutable span_count : int;
  mutable instants : instant list; (* reversed *)
  mutable samples : sample list;   (* reversed *)
}

let next_trace_id = Atomic.make 1

let create ?trace_id () =
  let trace_id =
    match trace_id with Some i -> i | None -> Atomic.fetch_and_add next_trace_id 1
  in
  {
    trace_id;
    t0_ns = now_ns ();
    next_id = Atomic.make 1;
    mu = Mutex.create ();
    open_tbl = Hashtbl.create 64;
    spans = [];
    span_count = 0;
    instants = [];
    samples = [];
  }

let trace_id t = t.trace_id
let epoch_ns t = t.t0_ns

(* ---- the ambient collector ---- *)

(* The option cell is written once per attach/detach, so [enabled] is a
   single atomic load with no allocation — the guard every instrumented
   hot path uses. *)
let current : t option Atomic.t = Atomic.make None

let attach t = Atomic.set current (Some t)
let detach () = Atomic.set current None
let attached () = Atomic.get current
let enabled () = Atomic.get current != None

let with_attached t f =
  attach t;
  Fun.protect ~finally:detach f

let self_dom () = (Domain.self () :> int)

(* ---- spans ---- *)

let fresh_id t = Atomic.fetch_and_add t.next_id 1

let begin_span t ?parent ?(cat = "") ?(args = []) name =
  let id = fresh_id t in
  let parent_id = match parent with Some c -> c.span_id | None -> 0 in
  let o =
    {
      o_parent = parent_id;
      o_name = name;
      o_cat = cat;
      o_dom = self_dom ();
      o_start_ns = now_ns ();
      o_args = args;
    }
  in
  Mutex.protect t.mu (fun () -> Hashtbl.replace t.open_tbl id o);
  { trace_id = t.trace_id; span_id = id }

let end_span t ?(args = []) ctx =
  let finish = now_ns () in
  let close_dom = self_dom () in
  Mutex.protect t.mu (fun () ->
      match Hashtbl.find_opt t.open_tbl ctx.span_id with
      | None -> ()  (* double close or foreign ctx: drop rather than corrupt *)
      | Some o ->
        Hashtbl.remove t.open_tbl ctx.span_id;
        let s =
          {
            id = ctx.span_id;
            parent = o.o_parent;
            name = o.o_name;
            cat = o.o_cat;
            dom = o.o_dom;
            close_dom;
            start_ns = o.o_start_ns;
            dur_ns = max 0 (finish - o.o_start_ns);
            args = o.o_args @ args;
          }
        in
        t.spans <- s :: t.spans;
        t.span_count <- t.span_count + 1)

let with_span t ?parent ?cat ?args name f =
  let ctx = begin_span t ?parent ?cat ?args name in
  Fun.protect ~finally:(fun () -> end_span t ctx) (fun () -> f ctx)

(* ---- instants, counter samples ---- *)

let instant t ?(cat = "") ?(args = []) name =
  let i =
    { i_name = name; i_cat = cat; i_dom = self_dom (); i_ts_ns = now_ns (); i_args = args }
  in
  Mutex.protect t.mu (fun () -> t.instants <- i :: t.instants)

let counter t ?ts_ns ~track value =
  let s =
    {
      track;
      s_dom = self_dom ();
      s_ts_ns = (match ts_ns with Some ts -> ts | None -> now_ns ());
      value;
    }
  in
  Mutex.protect t.mu (fun () -> t.samples <- s :: t.samples)

(* ---- reading the collector ---- *)

(* Merged-output ordering guarantee: spans sort by (start_ns, id).  Ids
   are allocated monotonically from one atomic counter and a parent is
   always opened before its children, so in the sorted output a parent
   precedes every child even when their clock timestamps tie (the tie
   breaks on the smaller id).  test_trace.ml pins this under real
   domains. *)
let compare_span a b =
  match compare a.start_ns b.start_ns with 0 -> compare a.id b.id | c -> c

let read t f = Mutex.protect t.mu (fun () -> f t)

let spans t = List.sort compare_span (read t (fun t -> t.spans))

let compare_instant a b = compare a.i_ts_ns b.i_ts_ns
let compare_sample a b = compare a.s_ts_ns b.s_ts_ns
let instants t = List.sort compare_instant (read t (fun t -> t.instants))
let samples t = List.sort compare_sample (read t (fun t -> t.samples))

let span_count t = read t (fun t -> t.span_count)

let open_count t = read t (fun t -> Hashtbl.length t.open_tbl)

let find_span t name =
  List.find_opt (fun s -> s.name = name) (spans t)

let pp ppf t =
  Fmt.pf ppf "trace %d: %d spans (%d open), %d instants, %d samples" t.trace_id
    (span_count t) (open_count t)
    (List.length (instants t))
    (List.length (samples t))
