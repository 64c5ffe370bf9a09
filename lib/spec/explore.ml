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

   - Parallel domains.  The tree is sharded over OCaml 5 domains with
     per-domain deques: each domain pops a batch of its freshest nodes
     and, when empty, steals the oldest (largest-subtree) half of a
     victim's deque.  Caches and counters are domain-local; counters
     merge at the end, and the first violation wins by compare-and-set.
     A state may be bound to the domain that built it (a journaled
     configuration reroots shared journal cells on read; an arena slot
     lives in one domain's arena), so with several domains a domain
     that picks up a foreign node always rebuilds it by replaying the
     node's schedule on its own root, whatever the backend.
     Replay is deterministic and costs O(depth) once per stolen node.

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
  val dom : env -> copy:bool -> dom
  val root : dom -> t
  val runnable : dom -> t -> int -> bool
  val poised_local : dom -> t -> int -> bool
  val commutes : dom -> t -> int -> int -> commute
  val child : dom -> prof:Obs.Prof.t option -> t -> int -> t
  val key : dom -> t -> key
  val release : dom -> t -> unit
  val replay : dom -> t -> int list -> t
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
  steals : int;
  memo_hits : int;
  summary_hits : int;
}

let zero =
  { explored = 0; leaves = 0; max_depth = 0; cache_hits = 0; pruned = 0; refined = 0;
    steals = 0; memo_hits = 0; summary_hits = 0 }

let export_metrics m ~domains (s : stats) =
  let bump name v = Obs.Metrics.Counter.incr ~by:v (Obs.Metrics.counter m name) in
  bump "explore.nodes" s.explored;
  bump "explore.leaves" s.leaves;
  bump "explore.cache_hits" s.cache_hits;
  bump "explore.sleep_pruned" s.pruned;
  bump "explore.refined" s.refined;
  bump "explore.steals" s.steals;
  bump "explore.completion_memo_hits" s.memo_hits;
  bump "explore.completion_summary_hits" s.summary_hits;
  Obs.Metrics.Gauge.set (Obs.Metrics.gauge m "explore.domains") (float_of_int domains)

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

(* ---- per-domain work deques ---- *)

type 'n deque = { lock : Mutex.t; mutable items : 'n list (* head = freshest *) }

let push dq n =
  Mutex.lock dq.lock;
  dq.items <- n :: dq.items;
  Mutex.unlock dq.lock

(* Pop up to [k] of the freshest nodes under one lock acquisition,
   freshest first.  Siblings pushed together are processed back to
   back, which amortizes the lock and keeps them cache-warm. *)
let pop_batch dq k =
  Mutex.lock dq.lock;
  let rec take k items acc =
    match items with
    | n :: rest when k > 0 -> take (k - 1) rest (n :: acc)
    | _ -> (List.rev acc, items)
  in
  let taken, rest = take k dq.items [] in
  dq.items <- rest;
  Mutex.unlock dq.lock;
  taken

(* A thief takes the oldest half — shallow nodes with the largest
   subtrees — leaving the owner its freshest (cache-warm) half. *)
let steal_half dq =
  Mutex.lock dq.lock;
  let keep = List.length dq.items / 2 in
  let rec split i = function
    | x :: rest when i > 0 ->
      let kept, taken = split (i - 1) rest in
      (x :: kept, taken)
    | rest -> ([], rest)
  in
  let kept, taken = split keep dq.items in
  dq.items <- kept;
  Mutex.unlock dq.lock;
  taken

(* Why the workers stopped early: the first violation, or an exception
   raised on some worker (re-raised once every domain has joined). *)
type stop = Violation of int list * string | Raised of exn * Printexc.raw_backtrace

module Make (S : STATE) = struct
  type node = {
    st : S.t;
    depth : int;
    sched : int list;  (* pids stepped so far, reversed *)
    sleep : int;       (* pids whose branches are covered elsewhere *)
    owner : int;       (* domain that built [st] *)
  }

  type ctx = {
    bound : int;
    n : int;
    use_cache : bool;
    replay : bool;  (* states are domain-bound and there are several domains *)
    doms : S.dom array;
    deques : node deque array;
    pending : int Atomic.t;  (* nodes queued or in flight *)
    stop : stop option Atomic.t;
    trace : Obs.Trace.t option;
    troot : Obs.Trace.ctx option;
    (* worker id -> domain id, written once by each worker at startup; a
       thief reads its victim's slot to place the out-side of a steal
       flow (a stale read misplaces one arrow, never corrupts) *)
    dom_ids : int array;
    profiling : bool;
  }

  (* One worker's domain-local state: counters, cache, profile. *)
  type worker = {
    id : int;
    d : S.dom;
    cache : (S.key, (int * int) list) Hashtbl.t;
    prof : Obs.Prof.t option;
    mutable explored : int;
    mutable leaves : int;
    mutable max_depth : int;
    mutable cache_hits : int;
    mutable pruned : int;
    mutable refined : int;
    mutable steals : int;
    mutable until_sample : int;
  }

  (* One sample of the exploration series: this worker's counts and
     the frontier, under one timestamp. *)
  let sample tr w node ~frontier =
    S.sample tr w.d node.st;
    let ts_ns = Obs.Trace.now_ns () in
    let counter track v = Obs.Trace.counter tr ~ts_ns ~track (float_of_int v) in
    counter "nodes" w.explored;
    counter "frontier" frontier;
    counter "cache hits" w.cache_hits;
    counter "sleep hits" w.pruned

  (* Cache lookup-or-insert.  Skipping a revisit is sound only against
     an entry that had at least as much remaining budget and was
     explored with a sleep set no larger than ours — a smaller sleep set
     means more branches were explored there, covering ours. *)
  let covered w key ~remaining ~sleep =
    let entries = Option.value (Hashtbl.find_opt w.cache key) ~default:[] in
    List.exists (fun (r, sl) -> r >= remaining && sl land lnot sleep = 0) entries
    || begin
      let entries = (remaining, sleep) :: entries in
      Hashtbl.replace w.cache key
        (if List.length entries > 8 then List.filteri (fun i _ -> i < 8) entries
         else entries);
      false
    end

  let leaf ctx w node =
    w.leaves <- w.leaves + 1;
    let t0 = start w.prof in
    let verdict = S.leaf w.d node.st in
    ignore (lap w.prof Obs.Prof.Check t0);
    match verdict with
    | Ok () -> ()
    | Error error ->
      Option.iter
        (fun tr ->
          Obs.Trace.instant tr ~cat:"dpor" ~args:[ ("error", Obs.Json.String error) ]
            "violation")
        ctx.trace;
      ignore
        (Atomic.compare_and_set ctx.stop None
           (Some (Violation (List.rev node.sched, error))))

  (* Branch on the ample set minus the sleep set.  Each child sleeps on
     the inherited sleepers and earlier siblings whose steps commute with
     its own; children are pushed highest pid first, so the lowest pid
     ends on top and depth-first order visits pids ascending. *)
  let expand ctx w ~push rmask node =
    let d = w.d and st = node.st and prof = w.prof in
    let t0 = start prof in
    let rec first_local pid =
      if pid >= ctx.n then -1
      else if rmask land (1 lsl pid) <> 0 && S.poised_local d st pid then pid
      else first_local (pid + 1)
    in
    let local = first_local 0 in
    let ample = if local >= 0 then 1 lsl local else rmask in
    let branches = ample land lnot node.sleep in
    w.pruned <- w.pruned + popcount (ample land node.sleep);
    let t0 = ref (lap prof Obs.Prof.Footprint t0) in
    let children = ref [] and siblings = ref 0 in
    for pid = 0 to ctx.n - 1 do
      if branches land (1 lsl pid) <> 0 then begin
        let cand = node.sleep lor !siblings and sleep = ref 0 in
        for q = 0 to ctx.n - 1 do
          if cand land (1 lsl q) <> 0 then
            match S.commutes d st q pid with
            | Conflict -> ()
            | Independent -> sleep := !sleep lor (1 lsl q)
            | Refined ->
              w.refined <- w.refined + 1;
              sleep := !sleep lor (1 lsl q)
        done;
        ignore (lap prof Obs.Prof.Footprint !t0);
        let child = S.child d ~prof st pid in
        t0 := start prof;
        children :=
          { st = child; depth = node.depth + 1; sched = pid :: node.sched;
            sleep = !sleep; owner = w.id }
          :: !children;
        siblings := !siblings lor (1 lsl pid)
      end
    done;
    List.iter push !children

  let process ctx w ~push node =
    w.explored <- w.explored + 1;
    if node.depth > w.max_depth then w.max_depth <- node.depth;
    let node =
      if (not ctx.replay) || node.owner = w.id then node
      else begin
        let t0 = start w.prof in
        let span =
          Option.map
            (fun tr -> (tr, Obs.Trace.begin_span tr ?parent:ctx.troot ~cat:"dpor" "replay"))
            ctx.trace
        in
        let st = S.replay w.d node.st node.sched in
        Option.iter
          (fun (tr, c) ->
            Obs.Trace.end_span tr ~args:[ ("depth", Obs.Json.Int node.depth) ] c)
          span;
        ignore (lap w.prof Obs.Prof.Replay t0);
        { node with st; owner = w.id }
      end
    in
    (match ctx.trace with
    | Some tr ->
      w.until_sample <- w.until_sample - 1;
      if w.until_sample <= 0 then begin
        w.until_sample <- sample_stride;
        (* unlocked reads of immutable lists: some recent snapshot *)
        let frontier = Array.fold_left (fun t dq -> t + List.length dq.items) 0 ctx.deques in
        sample tr w node ~frontier
      end
    | None -> ());
    let hit =
      ctx.use_cache
      &&
      let t0 = start w.prof in
      let hit =
        covered w (S.key w.d node.st) ~remaining:(ctx.bound - node.depth)
          ~sleep:node.sleep
      in
      ignore (lap w.prof Obs.Prof.Cache t0);
      hit
    in
    if hit then w.cache_hits <- w.cache_hits + 1
    else begin
      let t0 = start w.prof in
      let rmask = ref 0 in
      for pid = ctx.n - 1 downto 0 do
        rmask := (!rmask lsl 1) lor Bool.to_int (S.runnable w.d node.st pid)
      done;
      ignore (lap w.prof Obs.Prof.Footprint t0);
      if !rmask = 0 || node.depth >= ctx.bound then leaf ctx w node
      else expand ctx w ~push !rmask node
    end;
    S.release w.d node.st

  let steal ctx w =
    let t0 = start w.prof in
    let jobs = Array.length ctx.deques in
    let my = ctx.deques.(w.id) in
    let rec go i =
      if i >= jobs then None
      else
        let victim = (w.id + i) mod jobs in
        match steal_half ctx.deques.(victim) with
        | [] -> go (i + 1)
        | n :: rest ->
          (* stolen nodes are already counted in [pending] *)
          List.iter (push my) rest;
          w.steals <- w.steals + 1;
          Option.iter
            (fun tr ->
              (* the handoff arrow: out on the victim's row, in on ours *)
              let flow = Obs.Trace.fresh_flow tr in
              Obs.Trace.instant tr ~cat:"dpor" ~dom:ctx.dom_ids.(victim)
                ~flow:(flow, `Out)
                ~args:[ ("thief", Obs.Json.Int w.id) ]
                "steal.out";
              Obs.Trace.instant tr ~cat:"dpor" ~flow:(flow, `In)
                ~args:
                  [
                    ("victim", Obs.Json.Int victim);
                    ("nodes", Obs.Json.Int (1 + List.length rest));
                    ("depth", Obs.Json.Int n.depth);
                  ]
                "steal.in")
            ctx.trace;
          Some n
    in
    let r = go 1 in
    ignore (lap w.prof Obs.Prof.Steal t0);
    r

  let stats_of (w : worker) =
    { explored = w.explored; leaves = w.leaves; max_depth = w.max_depth;
      cache_hits = w.cache_hits; pruned = w.pruned; refined = w.refined;
      steals = w.steals; memo_hits = S.memo_hits w.d; summary_hits = S.summary_hits w.d }

  let run_worker ctx id =
    let w =
      {
        id;
        d = ctx.doms.(id);
        cache = Hashtbl.create (if ctx.use_cache then 4096 else 1);
        prof = (if ctx.profiling then Some (Obs.Prof.create ()) else None);
        explored = 0; leaves = 0; max_depth = 0; cache_hits = 0; pruned = 0;
        refined = 0; steals = 0; until_sample = sample_stride;
      }
    in
    ctx.dom_ids.(id) <- (Domain.self () :> int);
    (* the worker's whole lifetime is one span on its own domain's row *)
    let span =
      Option.map
        (fun tr ->
          ( tr,
            Obs.Trace.begin_span tr ?parent:ctx.troot ~cat:"dpor"
              ~args:[ ("worker", Obs.Json.Int id) ]
              (Fmt.str "worker %d" id) ))
        ctx.trace
    in
    let my = ctx.deques.(id) in
    let push n =
      Atomic.incr ctx.pending;
      push my n
    in
    let running () = Atomic.get ctx.stop = None in
    let rec loop () =
      if running () then
        match pop_batch my S.batch with
        | _ :: _ as nodes ->
          (* every popped node leaves [pending], even one skipped
             because a violation landed mid-batch *)
          List.iter
            (fun node ->
              if running () then process ctx w ~push node;
              Atomic.decr ctx.pending)
            nodes;
          loop ()
        | [] ->
          if Atomic.get ctx.pending > 0 then begin
            (match steal ctx w with
            | Some node ->
              process ctx w ~push node;
              Atomic.decr ctx.pending
            | None -> Domain.cpu_relax ());
            loop ()
          end
    in
    (* an exception stops every worker through [stop]; the caller
       re-raises it once all domains have joined *)
    (try loop ()
     with e ->
       let bt = Printexc.get_raw_backtrace () in
       ignore (Atomic.compare_and_set ctx.stop None (Some (Raised (e, bt)))));
    let s = stats_of w in
    Option.iter
      (fun (tr, c) ->
        Obs.Trace.end_span tr
          ~args:
            [
              ("explored", Obs.Json.Int s.explored);
              ("leaves", Obs.Json.Int s.leaves);
              ("steals", Obs.Json.Int s.steals);
            ]
          c)
      span;
    (s, w.prof)

  let merge (a : stats) (b : stats) : stats =
    { explored = a.explored + b.explored; leaves = a.leaves + b.leaves;
      max_depth = max a.max_depth b.max_depth; cache_hits = a.cache_hits + b.cache_hits;
      pruned = a.pruned + b.pruned; refined = a.refined + b.refined;
      steals = a.steals + b.steals; memo_hits = a.memo_hits + b.memo_hits;
      summary_hits = a.summary_hits + b.summary_hits }

  let explore ~depth ~cache ~jobs ?metrics ?prof env =
    if depth < 0 then invalid_arg "Explore.explore: negative depth";
    if S.n env > max_procs then
      invalid_arg
        (Fmt.str "Explore.explore: %d processes exceed the limit of %d (sleep sets are int masks)"
           (S.n env) max_procs);
    let jobs = max 1 jobs in
    let replay = jobs > 1 in
    (* built here, sequentially, before any domain runs *)
    let doms = Array.init jobs (fun _ -> S.dom env ~copy:replay) in
    let deques = Array.init jobs (fun _ -> { lock = Mutex.create (); items = [] }) in
    deques.(0).items <-
      [ { st = S.root doms.(0); depth = 0; sched = []; sleep = 0; owner = 0 } ];
    (* capture the ambient collector once: every worker sees the same one *)
    let trace = Obs.Trace.attached () in
    let troot =
      Option.map
        (fun tr ->
          Obs.Trace.begin_span tr ~cat:"dpor"
            ~args:
              [
                ("depth", Obs.Json.Int depth);
                ("jobs", Obs.Json.Int jobs);
                ("cache", Obs.Json.Bool cache);
                ("replay", Obs.Json.Bool replay);
              ]
            "explore")
        trace
    in
    let ctx =
      {
        bound = depth;
        n = S.n env;
        use_cache = cache;
        replay;
        doms;
        deques;
        pending = Atomic.make 1;
        stop = Atomic.make None;
        trace;
        troot;
        dom_ids = Array.make jobs 0;
        profiling = prof <> None;
      }
    in
    let others =
      Array.init (jobs - 1) (fun i -> Domain.spawn (fun () -> run_worker ctx (i + 1)))
    in
    let mine = run_worker ctx 0 in
    let results = Array.append [| mine |] (Array.map Domain.join others) in
    let stats = Array.fold_left (fun acc (s, _) -> merge acc s) zero results in
    Option.iter
      (fun into ->
        Array.iter (fun (_, p) -> Option.iter (Obs.Prof.merge_into ~into) p) results)
      prof;
    (match (trace, troot) with
    | Some tr, Some c ->
      Obs.Trace.end_span tr
        ~args:
          [
            ("explored", Obs.Json.Int stats.explored);
            ("leaves", Obs.Json.Int stats.leaves);
            ("steals", Obs.Json.Int stats.steals);
          ]
        c
    | _ -> ());
    Option.iter (fun m -> export_metrics m ~domains:jobs stats) metrics;
    match Atomic.get ctx.stop with
    | Some (Raised (e, bt)) -> Printexc.raise_with_backtrace e bt
    | Some (Violation (schedule, error)) ->
      (stats, Some (S.counterexample env schedule error))
    | None -> (stats, None)
end
