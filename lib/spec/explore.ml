(* The exploration core: bounded partial-order-reduced search of the
   schedule tree of heap configurations, each keyed by its Statehash.

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

   - State caching.  A canonical key of the reached state, four int
     words, memoizes explored states: Statehash's four sums, or the
     audited MD5 digest's 128 bits as four 32-bit words.  An entry may
     only short-circuit a new visit if it had at least as much
     remaining depth budget and was explored with a sleep set no
     larger than the current one — both guards are required for
     soundness (docs/EXPLORATION.md).  At most 8 entries are kept per
     key.  The table ([Cache]) is three flat int arrays and never
     evicts a key: see below.

   - One frontier stack, popped freshest first, so siblings pushed
     together run back to back; the first violation ends the search.
     With the cache, leaves are answered from a completion memo
     (Counterex.complete_check) where it can.

   Caveat, stated once and repeated in the docs: under a finite depth
   bound, reduction changes which length-≤-depth prefixes exist, so
   naive and reduced engines complete slightly different frontier sets.
   Every class explored is genuine (violations are real and
   re-checkable); a violation reachable only at the very edge of the
   bound can need a slightly larger depth under reduction. *)

open Shm

let max_procs = 62

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
let start = function None -> 0 | Some _ -> Obs.Trace.now_ns ()

let lap prof phase t0 =
  match prof with
  | None -> 0
  | Some p ->
    let t = Obs.Trace.now_ns () in
    Obs.Prof.add p phase (t - t0);
    t

let rec popcount m = if m = 0 then 0 else (m land 1) + popcount (m lsr 1)

(* Sampling stride for the trace's exploration counter tracks. *)
let sample_stride = 64

(* The state cache: one flat table over three int arrays, with no
   per-probe allocation and no eviction.

   - [index]: open addressing with linear probing, a power of two of
     one-word slots, at most half full.  A slot is 0 (empty) or a key's
     tag and id in one word: the low [id_bits] hold the id + 1, the
     bits above them the tag, the low [tag_bits] of the key's hash.
     The home slot is the tag's low bits, so a probe reads [keys] only
     where the tag matches, and a doubling re-files every slot from the
     old index alone.
   - [keys]: [kw] words per key id, dense in insertion order: the four
     key words, then the head of the key's entry list.
   - [pool]: [ew] words per entry: remaining depth, sleep mask, next
     entry (-1 ends the list).

   A hit needs an entry with [r >= remaining] and a sleep mask inside
   the current one: a smaller sleep set means more branches were
   explored there, covering ours.  On a miss the new entry goes first;
   a key's list holds at most [cap] entries, so the ninth recycles the
   oldest one's pool cell.  Keys are never dropped, so every hit
   decision is the one an unbounded map of capped lists would make. *)
module Cache = struct
  type t = {
    mutable index : int array;
    mutable keys : int array;
    mutable nkeys : int;
    mutable pool : int array;
    mutable nentries : int;
  }

  let kw = 5
  let ew = 3
  let cap = 8

  (* 32 id bits and 31 tag bits fill the 63-bit word; an index of more
     than 2^31 slots would only stop spreading keys past the tag. *)
  let id_bits = 32
  let id_mask = (1 lsl id_bits) - 1
  let tag_bits = 31

  let tag k0 k1 k2 k3 =
    Shm.Value.mix (Shm.Value.mix (Shm.Value.mix k0 k1) k2) k3 land ((1 lsl tag_bits) - 1)

  (* [slots] keys and entries before the first doubling (a power of
     two) *)
  let create slots =
    { index = Array.make (2 * slots) 0; keys = Array.make (slots * kw) 0; nkeys = 0;
      pool = Array.make (slots * ew) 0; nentries = 0 }

  let grow a =
    let b = Array.make (2 * Array.length a) 0 in
    Array.blit a 0 b 0 (Array.length a);
    b

  let rec free_slot index i =
    if index.(i) = 0 then i else free_slot index ((i + 1) land (Array.length index - 1))

  let home index tag = tag land (Array.length index - 1)

  let entry t ~remaining ~sleep ~next =
    if t.nentries * ew = Array.length t.pool then t.pool <- grow t.pool;
    let e = t.nentries in
    t.nentries <- e + 1;
    let p = e * ew in
    t.pool.(p) <- remaining;
    t.pool.(p + 1) <- sleep;
    t.pool.(p + 2) <- next;
    e

  (* A new key with one entry, filed at the empty slot [i] of its probe
     chain.  Doubling the index re-files every slot from its tag, a
     sequential pass over the old index. *)
  let add t tag k0 k1 k2 k3 i ~remaining ~sleep =
    let id = t.nkeys in
    if (id + 1) * kw > Array.length t.keys then t.keys <- grow t.keys;
    let o = id * kw in
    let keys = t.keys in
    keys.(o) <- k0;
    keys.(o + 1) <- k1;
    keys.(o + 2) <- k2;
    keys.(o + 3) <- k3;
    keys.(o + 4) <- entry t ~remaining ~sleep ~next:(-1);
    t.nkeys <- id + 1;
    let old = t.index in
    old.(i) <- (tag lsl id_bits) lor (id + 1);
    if 2 * t.nkeys > Array.length old then begin
      let index = Array.make (2 * Array.length old) 0 in
      for j = 0 to Array.length old - 1 do
        let w = old.(j) in
        if w <> 0 then index.(free_slot index (home index (w lsr id_bits))) <- w
      done;
      t.index <- index
    end

  (* Walk a key's entries from [e] for one covering the visit; on a
     miss put the visit first (the list head is [keys.(head)]),
     recycling the oldest entry when the list is full.  [last] and
     [before] trail [e] by one and two.  Top-level and closure-free,
     like [probe], so a lookup allocates nothing. *)
  let rec walk t head e len last before ~remaining ~sleep =
    let pool = t.pool in
    if e >= 0 then
      let p = e * ew in
      (pool.(p) >= remaining && pool.(p + 1) land lnot sleep = 0)
      || walk t head pool.(p + 2) (len + 1) e last ~remaining ~sleep
    else begin
      let first = t.keys.(head) in
      (if len >= cap then begin
         pool.((before * ew) + 2) <- -1;
         let p = last * ew in
         pool.(p) <- remaining;
         pool.(p + 1) <- sleep;
         pool.(p + 2) <- first;
         t.keys.(head) <- last
       end
       else t.keys.(head) <- entry t ~remaining ~sleep ~next:first);
      false
    end

  let rec probe t i tag k0 k1 k2 k3 ~remaining ~sleep =
    let w = t.index.(i) in
    if w = 0 then begin
      add t tag k0 k1 k2 k3 i ~remaining ~sleep;
      false
    end
    else
      let keys = t.keys and o = ((w land id_mask) - 1) * kw in
      if
        w lsr id_bits = tag && keys.(o) = k0 && keys.(o + 1) = k1 && keys.(o + 2) = k2
        && keys.(o + 3) = k3
      then walk t (o + 4) keys.(o + 4) 0 (-1) (-1) ~remaining ~sleep
      else probe t ((i + 1) land (Array.length t.index - 1)) tag k0 k1 k2 k3 ~remaining ~sleep

  (* Lookup-or-insert of a visit with [remaining] depth and [sleep]
     under the key (k0, k1, k2, k3): [true] iff an entry covers it. *)
  let covered t k0 k1 k2 k3 ~remaining ~sleep =
    let tag = tag k0 k1 k2 k3 in
    probe t (home t.index tag) tag k0 k1 k2 k3 ~remaining ~sleep
end

(* ---- conditional independence ---- *)

(* Two poised ops whose footprints collide may still commute to the
   identical configuration in the current memory: same-register writes
   of equal values ([Value.equal] is a pointer test on one block and a
   stored-hash test on most unequal ones), and a write re-storing the value the register already holds
   against a read of it or a scan covering it.  Peeking at [mem] counts
   no access.  [false] means "not proved", never "dependent". *)
let cond_independent mem a b =
  let noop r v = Value.equal (Memory.read mem r) v in
  match (a, b) with
  | Program.Write (r1, v1), Program.Write (r2, v2) -> r1 = r2 && Value.equal v1 v2
  | Program.Write (r, v), Program.Read r' | Program.Read r', Program.Write (r, v) ->
    r = r' && noop r v
  | Program.Write (r, v), Program.Scan (off, len)
  | Program.Scan (off, len), Program.Write (r, v) ->
    r >= off && r < off + len && noop r v
  | _ -> false (* read/read pairs are footprint-independent already *)

(* ---- the search ---- *)

(* A node: its configuration and Statehash (immutable, shared freely
   between parent and child), depth, schedule and sleep set. *)
type node = {
  config : Config.t;
  hash : Statehash.t;
  depth : int;
  sched : int list;  (* pids stepped so far, reversed *)
  sleep : int;       (* pids whose branches are covered elsewhere *)
}

(* One search: its bound and run context, cache, completion memo,
   profile, frontier and counters. *)
type search = {
  bound : int;
  n : int;
  inputs : pid:int -> instance:int -> Value.t option;
  has_input : int -> int -> bool;
  completion_steps : int;
  check : Config.t -> (unit, string) result;
  full_key : bool;
  refine : bool;  (* add [cond_independent] pairs to sleep sets *)
  cache : Cache.t option;
  memo : Counterex.memo option;
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

(* One sample of the exploration series: register coverage, the counts
   and the frontier, the last four under one timestamp. *)
let sample tr s node =
  Obs.Trace.counter tr ~track:Obs.Coverage.track_covered
    (float_of_int (Obs.Coverage.num_covered node.config));
  Obs.Trace.counter tr ~track:Obs.Coverage.track_written
    (float_of_int (Obs.Coverage.num_written node.config));
  let ts_ns = Obs.Trace.now_ns () in
  let counter track v = Obs.Trace.counter tr ~ts_ns ~track (float_of_int v) in
  counter "nodes" s.explored;
  counter "frontier" (List.length s.frontier);
  counter "cache hits" s.cache_hits;
  counter "sleep hits" s.pruned

(* Word [w] of an MD5 digest, as a 32-bit int. *)
let digest_word dg w = Int32.to_int (String.get_int32_le dg (4 * w))

(* Look the node up in the state cache, filing it on a miss.  The key
   is the incremental one, or the full MD5 digest (the audited
   reference path, also the perf benchmark's old-cost arm) as four
   32-bit words. *)
let covered s cache node =
  let remaining = s.bound - node.depth and sleep = node.sleep in
  if s.full_key then
    let dg = Statehash.full_key node.hash node.config in
    Cache.covered cache (digest_word dg 0) (digest_word dg 1) (digest_word dg 2)
      (digest_word dg 3) ~remaining ~sleep
  else
    let { Statehash.k_mem; k_locals; k_in; k_out } = Statehash.key node.hash in
    Cache.covered cache k_mem k_locals k_in k_out ~remaining ~sleep

(* The verdict on a frontier node: complete it, then check it, or
   answer from the completion memo. *)
let leaf s node =
  s.leaves <- s.leaves + 1;
  let t0 = start s.prof in
  let memo = Option.map (fun m -> (m, node.hash)) s.memo in
  let verdict =
    Counterex.complete_check ?memo ~inputs:s.inputs ~max_steps:s.completion_steps
      ~check:s.check node.config
  in
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

(* May [q]'s and [p]'s poised steps be swapped in [c]?  By footprints,
   or, when those collide, by the refinement: the two ops may still
   commute to the identical state in the current memory (equal-value
   writes, a no-op write against a read) — sound for sleep sets, which
   need commutation only at this node, never for ample sets. *)
let commutes s c q p =
  let pq = Config.proc c q and pp = Config.proc c p in
  Program.commute pq pp
  || s.refine
     &&
     match (Program.poised_op pq, Program.poised_op pp) with
     | Some oq, Some op when cond_independent (Config.mem c) oq op ->
       s.refined <- s.refined + 1;
       true
     | _ -> false

(* Branch on the ample set minus the sleep set.  Each child sleeps on
   the inherited sleepers and earlier siblings whose steps commute with
   its own; children are pushed highest pid first, so the lowest pid
   ends on top and depth-first order visits pids ascending. *)
let expand s rmask node =
  let c = node.config and prof = s.prof in
  let t0 = start prof in
  let rec first_local pid =
    if pid >= s.n then -1
    else if rmask land (1 lsl pid) <> 0 && Program.is_local (Config.proc c pid) then pid
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
        if cand land (1 lsl q) <> 0 && commutes s c q pid then sleep := !sleep lor (1 lsl q)
      done;
      let t1 = lap prof Obs.Prof.Footprint !t0 in
      let config, ev = Config.advance ~inputs:s.inputs c pid in
      let t1 = lap prof Obs.Prof.Interp t1 in
      let hash = Statehash.record node.hash ~before:c config ev in
      ignore (lap prof Obs.Prof.Hash t1);
      t0 := start prof;
      children :=
        { config; hash; depth = node.depth + 1; sched = pid :: node.sched; sleep = !sleep }
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
    match s.cache with
    | None -> false
    | Some cache ->
      let t0 = start s.prof in
      let hit = covered s cache node in
      ignore (lap s.prof Obs.Prof.Cache t0);
      hit
  in
  if hit then s.cache_hits <- s.cache_hits + 1
  else begin
    let t0 = start s.prof in
    let rmask = ref 0 in
    for pid = s.n - 1 downto 0 do
      rmask := (!rmask lsl 1) lor Bool.to_int (Config.runnable node.config ~has_input:s.has_input pid)
    done;
    ignore (lap s.prof Obs.Prof.Footprint t0);
    if !rmask = 0 || node.depth >= s.bound then leaf s node else expand s !rmask node
  end

(* Pop the freshest node and process it, until the frontier is empty. *)
let rec run s =
  match s.frontier with
  | [] -> ()
  | node :: rest ->
    s.frontier <- rest;
    process s node;
    run s

let stats_of s =
  let memo f = Option.fold ~none:0 ~some:f s.memo in
  { explored = s.explored; leaves = s.leaves; max_depth = s.max_depth;
    cache_hits = s.cache_hits; pruned = s.pruned; refined = s.refined;
    memo_hits = memo Counterex.memo_hits; summary_hits = memo Counterex.summary_hits }

let explore ~depth ~cache ~key ~refine ~inputs ~completion_steps ~prof ~check config =
  let n = Config.n config in
  if depth < 0 then invalid_arg "Explore.explore: negative depth";
  if n > max_procs then
    invalid_arg
      (Fmt.str "Explore.explore: %d processes exceed the limit of %d (sleep sets are int masks)"
         n max_procs);
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
  let full_key = key = `Full in
  let s =
    { bound = depth; n; inputs;
      has_input = (fun pid inst -> Option.is_some (inputs ~pid ~instance:inst));
      completion_steps; check; full_key; refine;
      cache = (if cache then Some (Cache.create 256) else None);
      (* with no completion budget there is nothing to memoize *)
      memo = (if cache && completion_steps > 0 then Some (Counterex.memo ()) else None);
      prof; trace;
      frontier =
        [ { config; hash = Statehash.create ~audit:full_key config; depth = 0; sched = [];
            sleep = 0 } ];
      explored = 0; leaves = 0; max_depth = 0; cache_hits = 0; pruned = 0; refined = 0;
      until_sample = sample_stride }
  in
  let end_span () =
    Option.iter
      (fun (tr, c) ->
        Obs.Trace.end_span tr
          ~args:[ ("explored", Obs.Json.Int s.explored); ("leaves", Obs.Json.Int s.leaves) ]
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
  (* a violating schedule, re-executed from the root and completed:
     the reported artifact is the interpreter's own *)
  ( stats_of s,
    Option.map
      (fun (schedule, error) ->
        let stepped = Counterex.run_schedule ~inputs config schedule in
        { Counterex.schedule; error;
          config = fst (Counterex.complete ~inputs ~max_steps:completion_steps stepped) })
      found )
