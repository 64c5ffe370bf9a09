(* The exploration core: bounded partial-order-reduced search of the
   schedule tree, written once over an abstract state representation
   (STATE).  Modelcheck instantiates it twice: heap configurations
   keyed by Statehash, and bytecode-vm arena slots keyed by Vm.key.

   The naive checker (Modelcheck.exhaustive) enumerates every schedule
   of length ≤ depth — n^depth nodes.  This core explores one
   representative per equivalence class instead, without weakening the
   verdict for the bundled (record-order-insensitive) properties:

   - Local-step priority.  A step that touches no shared memory (an
     invocation, an output) commutes with everything forever, so when
     some process is poised at one it is a singleton persistent
     ("ample") set: every execution is trace-equivalent to one that
     takes the local step first, and frontier completion performs any
     postponed local steps deterministically.

   - Sleep sets, as int masks (hence n ≤ 62).  When several
     memory-touching steps are enabled all are branched on, but after
     exploring pid p, p joins the sleep set of the later siblings'
     subtrees and stays there while the steps taken commute with p's.

   - State caching.  A canonical key of the reached state memoizes
     explored states.  An entry may only short-circuit a new visit if
     it had at least as much remaining depth budget and was explored
     with a sleep set no larger than the current one — both guards are
     required for soundness (docs/EXPLORATION.md).  At most 8 entries
     are kept per key.

   - One frontier stack.  The search pops a batch of its freshest
     nodes at a time ([STATE.batch]) and processes them freshest first,
     so siblings pushed together run back to back; the first violation
     ends the search.

   Caveat, stated once and repeated in the docs: under a finite depth
   bound, reduction changes which length-≤-depth prefixes exist, so
   naive and reduced engines complete slightly different frontier sets.
   Every class explored is genuine (violations are real and
   re-checkable); a violation reachable only at the very edge of the
   bound can need a slightly larger depth under reduction. *)

type commute = Conflict | Independent | Refined

let max_procs = 62

module type STATE = sig
  type env
  type dom
  type t
  type key

  val batch : int
  val n : env -> int
  val dom : env -> dom
  val root : dom -> t
  val runnable : dom -> t -> int -> bool
  val poised_local : dom -> t -> int -> bool
  val commutes : dom -> t -> int -> int -> commute
  val child : dom -> prof:Obs.Prof.t option -> t -> int -> t
  val key : dom -> t -> key
  val release : dom -> t -> unit
  val leaf : dom -> t -> (unit, string) result
  val memo_hits : dom -> int
  val summary_hits : dom -> int
  val counterexample : env -> int list -> string -> Counterex.t
  val sample : Obs.Trace.t -> dom -> t -> unit
end

type stats = {
  explored : int;
  leaves : int;
  max_depth : int;
  cache_hits : int;
  pruned : int;
  refined : int;
  memo_hits : int;
  summary_hits : int;
}

let export_metrics m (s : stats) =
  let bump name v = Obs.Metrics.Counter.incr ~by:v (Obs.Metrics.counter m name) in
  bump "explore.nodes" s.explored;
  bump "explore.leaves" s.leaves;
  bump "explore.cache_hits" s.cache_hits;
  bump "explore.sleep_pruned" s.pruned;
  bump "explore.refined" s.refined;
  bump "explore.completion_memo_hits" s.memo_hits;
  bump "explore.completion_summary_hits" s.summary_hits

(* Phase brackets: [lap] charges the time since [t0] and returns the
   new mark.  Both are a no-op returning 0 when not profiling. *)
let start = function None -> 0 | Some _ -> Obs.Prof.now_ns ()

let lap prof phase t0 =
  match prof with
  | None -> 0
  | Some p ->
    let t = Obs.Prof.now_ns () in
    Obs.Prof.add p phase (t - t0);
    t

let rec popcount m = if m = 0 then 0 else (m land 1) + popcount (m lsr 1)

(* Sampling stride for the trace's exploration counter tracks. *)
let sample_stride = 64

module Make (S : STATE) = struct
  type node = {
    st : S.t;
    depth : int;
    sched : int list;  (* pids stepped so far, reversed *)
    sleep : int;       (* pids whose branches are covered elsewhere *)
  }

  (* One search: its bound, state context, cache, profile, frontier and
     counters. *)
  type search = {
    bound : int;
    n : int;
    use_cache : bool;
    d : S.dom;
    cache : (S.key, (int * int) list) Hashtbl.t;
    prof : Obs.Prof.t option;
    trace : Obs.Trace.t option;
    mutable frontier : node list;  (* head = freshest *)
    mutable explored : int;
    mutable leaves : int;
    mutable max_depth : int;
    mutable cache_hits : int;
    mutable pruned : int;
    mutable refined : int;
    mutable until_sample : int;
  }

  exception Violation of int list * string

  (* One sample of the exploration series: the counts and the
     frontier, under one timestamp. *)
  let sample tr s node =
    S.sample tr s.d node.st;
    let ts_ns = Obs.Trace.now_ns () in
    let counter track v = Obs.Trace.counter tr ~ts_ns ~track (float_of_int v) in
    counter "nodes" s.explored;
    counter "frontier" (List.length s.frontier);
    counter "cache hits" s.cache_hits;
    counter "sleep hits" s.pruned

  (* Cache lookup-or-insert.  Skipping a revisit is sound only against
     an entry that had at least as much remaining budget and was
     explored with a sleep set no larger than ours — a smaller sleep set
     means more branches were explored there, covering ours. *)
  let covered s key ~remaining ~sleep =
    let entries = Option.value (Hashtbl.find_opt s.cache key) ~default:[] in
    List.exists (fun (r, sl) -> r >= remaining && sl land lnot sleep = 0) entries
    || begin
      let entries = (remaining, sleep) :: entries in
      Hashtbl.replace s.cache key
        (if List.length entries > 8 then List.filteri (fun i _ -> i < 8) entries
         else entries);
      false
    end

  let leaf s node =
    s.leaves <- s.leaves + 1;
    let t0 = start s.prof in
    let verdict = S.leaf s.d node.st in
    ignore (lap s.prof Obs.Prof.Check t0);
    match verdict with
    | Ok () -> ()
    | Error error ->
      Option.iter
        (fun tr ->
          Obs.Trace.instant tr ~cat:"dpor" ~args:[ ("error", Obs.Json.String error) ]
            "violation")
        s.trace;
      raise (Violation (List.rev node.sched, error))

  (* Branch on the ample set minus the sleep set.  Each child sleeps on
     the inherited sleepers and earlier siblings whose steps commute with
     its own; children are pushed highest pid first, so the lowest pid
     ends on top and depth-first order visits pids ascending. *)
  let expand s rmask node =
    let d = s.d and st = node.st and prof = s.prof in
    let t0 = start prof in
    let rec first_local pid =
      if pid >= s.n then -1
      else if rmask land (1 lsl pid) <> 0 && S.poised_local d st pid then pid
      else first_local (pid + 1)
    in
    let local = first_local 0 in
    let ample = if local >= 0 then 1 lsl local else rmask in
    let branches = ample land lnot node.sleep in
    s.pruned <- s.pruned + popcount (ample land node.sleep);
    let t0 = ref (lap prof Obs.Prof.Footprint t0) in
    let children = ref [] and siblings = ref 0 in
    for pid = 0 to s.n - 1 do
      if branches land (1 lsl pid) <> 0 then begin
        let cand = node.sleep lor !siblings and sleep = ref 0 in
        for q = 0 to s.n - 1 do
          if cand land (1 lsl q) <> 0 then
            match S.commutes d st q pid with
            | Conflict -> ()
            | Independent -> sleep := !sleep lor (1 lsl q)
            | Refined ->
              s.refined <- s.refined + 1;
              sleep := !sleep lor (1 lsl q)
        done;
        ignore (lap prof Obs.Prof.Footprint !t0);
        let child = S.child d ~prof st pid in
        t0 := start prof;
        children :=
          { st = child; depth = node.depth + 1; sched = pid :: node.sched; sleep = !sleep }
          :: !children;
        siblings := !siblings lor (1 lsl pid)
      end
    done;
    s.frontier <- List.rev_append !children s.frontier

  let process s node =
    s.explored <- s.explored + 1;
    if node.depth > s.max_depth then s.max_depth <- node.depth;
    (match s.trace with
    | Some tr ->
      s.until_sample <- s.until_sample - 1;
      if s.until_sample <= 0 then begin
        s.until_sample <- sample_stride;
        sample tr s node
      end
    | None -> ());
    let hit =
      s.use_cache
      &&
      let t0 = start s.prof in
      let hit =
        covered s (S.key s.d node.st) ~remaining:(s.bound - node.depth) ~sleep:node.sleep
      in
      ignore (lap s.prof Obs.Prof.Cache t0);
      hit
    in
    if hit then s.cache_hits <- s.cache_hits + 1
    else begin
      let t0 = start s.prof in
      let rmask = ref 0 in
      for pid = s.n - 1 downto 0 do
        rmask := (!rmask lsl 1) lor Bool.to_int (S.runnable s.d node.st pid)
      done;
      ignore (lap s.prof Obs.Prof.Footprint t0);
      if !rmask = 0 || node.depth >= s.bound then leaf s node
      else expand s !rmask node
    end;
    S.release s.d node.st

  (* Pop up to [S.batch] of the freshest nodes and process them,
     freshest first, until the frontier is empty. *)
  let rec run s =
    let rec take k items acc =
      match items with
      | n :: rest when k > 0 -> take (k - 1) rest (n :: acc)
      | _ -> (List.rev acc, items)
    in
    match take S.batch s.frontier [] with
    | [], _ -> ()
    | batch, rest ->
      s.frontier <- rest;
      List.iter (process s) batch;
      run s

  let stats_of s =
    { explored = s.explored; leaves = s.leaves; max_depth = s.max_depth;
      cache_hits = s.cache_hits; pruned = s.pruned; refined = s.refined;
      memo_hits = S.memo_hits s.d; summary_hits = S.summary_hits s.d }

  let explore ~depth ~cache ?metrics ?prof env =
    if depth < 0 then invalid_arg "Explore.explore: negative depth";
    if S.n env > max_procs then
      invalid_arg
        (Fmt.str "Explore.explore: %d processes exceed the limit of %d (sleep sets are int masks)"
           (S.n env) max_procs);
    let d = S.dom env in
    let trace = Obs.Trace.attached () in
    let span =
      Option.map
        (fun tr ->
          ( tr,
            Obs.Trace.begin_span tr ~cat:"dpor"
              ~args:[ ("depth", Obs.Json.Int depth); ("cache", Obs.Json.Bool cache) ]
              "explore" ))
        trace
    in
    let s =
      { bound = depth; n = S.n env; use_cache = cache; d;
        cache = Hashtbl.create (if cache then 4096 else 1); prof; trace;
        frontier = [ { st = S.root d; depth = 0; sched = []; sleep = 0 } ];
        explored = 0; leaves = 0; max_depth = 0; cache_hits = 0; pruned = 0; refined = 0;
        until_sample = sample_stride }
    in
    let end_span () =
      Option.iter
        (fun (tr, c) ->
          Obs.Trace.end_span tr
            ~args:
              [ ("explored", Obs.Json.Int s.explored); ("leaves", Obs.Json.Int s.leaves) ]
            c)
        span
    in
    let found =
      match run s with
      | () -> None
      | exception Violation (schedule, error) -> Some (schedule, error)
      | exception e ->
        let bt = Printexc.get_raw_backtrace () in
        end_span ();
        Printexc.raise_with_backtrace e bt
    in
    end_span ();
    let stats = stats_of s in
    Option.iter (fun m -> export_metrics m stats) metrics;
    (stats, Option.map (fun (schedule, error) -> S.counterexample env schedule error) found)
end
