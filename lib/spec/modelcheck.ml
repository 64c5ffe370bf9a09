(* Bounded model checking of the simulated system: one front door over
   the naive reference engine and the exploration core (Spec.Explore),
   the latter instantiated over two state representations.

   Because configurations are pure values and processes are
   deterministic, the only nondeterminism is the schedule; exploring all
   schedules up to a depth bound therefore covers *every* reachable
   configuration prefix.  After the bound, each frontier configuration
   is driven to quiescence with a deterministic completion schedule,
   and the property is evaluated there — so the check covers "all
   executions that diverge in their first [depth] steps".

   - [Naive] ([exhaustive]): literal enumeration of every schedule —
     n^depth nodes, the reference semantics, and the engine whose
     counterexamples are lexicographically first;
   - [Dpor]: the exploration core — partial-order reduction + state
     caching, orders of magnitude fewer nodes, same class coverage
     (docs/EXPLORATION.md), over heap configurations ([run]) or
     bytecode-vm arena slots ([run_vm]).  With the cache, heap leaves
     are also answered from a completion memo
     (Counterex.complete_check) where it can. *)

open Shm

type stats = Explore.stats = {
  explored : int;
  leaves : int;
  max_depth : int;
  cache_hits : int;
  pruned : int;
  refined : int;
  memo_hits : int;
  summary_hits : int;
}

type outcome =
  | Ok_bounded of stats
  | Counterexample of {
      schedule : int list;  (* pids, in step order, up to the frontier *)
      error : string;
      config : Config.t;
      stats : stats;
    }

let pp_outcome ppf = function
  | Ok_bounded { explored; leaves; _ } ->
    Fmt.pf ppf "no violation (%d nodes, %d leaves)" explored leaves
  | Counterexample { schedule; error; _ } ->
    Fmt.pf ppf "counterexample schedule [%a]: %s"
      Fmt.(list ~sep:(any ", ") int)
      schedule error

(* Extract the counterexample as the common currency of the stack, for
   shrinking and replay. *)
let counterex_of = function
  | Ok_bounded _ -> None
  | Counterexample { schedule; error; config; _ } ->
    Some { Counterex.schedule; error; config }

let stats_of = function Ok_bounded s -> s | Counterexample { stats; _ } -> stats

(* [exhaustive ~depth ~inputs ~check config] explores every schedule of
   length ≤ depth, completes each frontier, and applies [check].  Stops
   at the first violation. *)
let exhaustive ~depth ~inputs ?(completion_steps = Counterex.completion_steps) ~check config =
  let has_input pid inst = Option.is_some (inputs ~pid ~instance:inst) in
  let explored = ref 0 and leaves = ref 0 and deepest = ref 0 in
  let exception Found of int list * string * Config.t in
  let check_leaf schedule config =
    incr leaves;
    let final, _ = Counterex.complete ~inputs ~max_steps:completion_steps config in
    match check final with
    | Ok () -> ()
    | Error e -> raise (Found (List.rev schedule, e, final))
  in
  let rec go config d schedule =
    incr explored;
    if d > !deepest then deepest := d;
    let n = Config.n config in
    let runnable =
      List.filter (fun pid -> Config.runnable config ~has_input pid) (List.init n Fun.id)
    in
    match runnable with
    | [] -> check_leaf schedule config
    | _ when d >= depth -> check_leaf schedule config
    | _ ->
      List.iter
        (fun pid -> go (Counterex.step_pid ~inputs config pid) (d + 1) (pid :: schedule))
        runnable
  in
  let stats () =
    { explored = !explored; leaves = !leaves; max_depth = !deepest;
      cache_hits = 0; pruned = 0; refined = 0; memo_hits = 0; summary_hits = 0 }
  in
  try
    go config 0 [];
    Ok_bounded (stats ())
  with Found (schedule, error, config) ->
    Counterexample { schedule; error; config; stats = stats () }

(* A violating schedule, re-executed by the interpreter from [config]
   and completed: the reported artifact is engine-neutral. *)
let counterexample ~inputs ~completion_steps config schedule error =
  let stepped = Counterex.run_schedule ~inputs config schedule in
  { Counterex.schedule; error;
    config = fst (Counterex.complete ~inputs ~max_steps:completion_steps stepped) }

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

(* ---- heap configurations, keyed by Statehash ---- *)

module Interp_state = struct
  type env = {
    config : Config.t;
    inputs : pid:int -> instance:int -> Value.t option;
    has_input : int -> int -> bool;
    completion_steps : int;
    check : Config.t -> (unit, string) result;
    full_key : bool;
    (* memoize frontier completions (on with the state cache) *)
    memo : bool;
    (* add [cond_independent] pairs to sleep sets *)
    refine : bool;
  }

  (* [memo] is the search's completion memo *)
  type dom = { env : env; memo : Counterex.memo option }

  (* the Statehash observation hashes are immutable and shared freely *)
  type t = { config : Config.t; hash : Statehash.t }

  let batch = 1
  let n (env : env) = Config.n env.config

  (* with no completion budget there is nothing to memoize *)
  let dom (env : env) =
    { env;
      memo =
        (if env.memo && env.completion_steps > 0 then Some (Counterex.memo ()) else None) }

  let root d =
    { config = d.env.config; hash = Statehash.create ~audit:d.env.full_key d.env.config }
  let runnable d t pid = Config.runnable t.config ~has_input:d.env.has_input pid
  let poised_local _ t pid = Program.footprint_is_local (Config.footprint t.config pid)

  let commutes d t q p =
    let c = t.config in
    if Program.independent (Config.footprint c q) (Config.footprint c p) then
      Explore.Independent
    else
      (* footprints collide, but the two poised ops may still commute to
         the identical state in the current memory (equal-value writes, a
         no-op write against a read) — sound for sleep sets, which need
         commutation only at this node, never for ample sets *)
      if not d.env.refine then Explore.Conflict
      else
        match (Program.poised_op (Config.proc c q), Program.poised_op (Config.proc c p)) with
        | Some oq, Some op when cond_independent (Config.mem c) oq op -> Explore.Refined
        | _ -> Explore.Conflict

  let child d ~prof t pid =
    let t0 = Explore.start prof in
    let config, ev = Config.advance ~inputs:d.env.inputs t.config pid in
    let t0 = Explore.lap prof Obs.Prof.Interp t0 in
    let hash = Statehash.record t.hash ~before:t.config config ev in
    ignore (Explore.lap prof Obs.Prof.Hash t0);
    { config; hash }

  (* the incremental key, or the full MD5 digest (the audited reference
     path, also the perf benchmark's old-cost arm) as four 32-bit words *)
  let key d t k =
    if d.env.full_key then begin
      let dg = Statehash.full_key t.hash t.config in
      for w = 0 to 3 do
        k.(w) <- Int32.to_int (String.get_int32_le dg (4 * w))
      done
    end
    else begin
      let { Statehash.k_mem; k_locals; k_in; k_out } = Statehash.key t.hash in
      k.(0) <- k_mem;
      k.(1) <- k_locals;
      k.(2) <- k_in;
      k.(3) <- k_out
    end

  let release _ _ = ()

  let leaf d t =
    let { inputs; completion_steps; check; _ } = d.env in
    let memo = Option.map (fun m -> (m, t.hash)) d.memo in
    Counterex.complete_check ?memo ~inputs ~max_steps:completion_steps ~check t.config

  let memo_hits d = Option.fold ~none:0 ~some:Counterex.memo_hits d.memo
  let summary_hits d = Option.fold ~none:0 ~some:Counterex.summary_hits d.memo

  let counterexample (env : env) =
    counterexample ~inputs:env.inputs ~completion_steps:env.completion_steps env.config

  let sample tr _ t =
    Obs.Trace.counter tr ~track:Obs.Coverage.track_covered
      (float_of_int (Obs.Coverage.num_covered t.config));
    Obs.Trace.counter tr ~track:Obs.Coverage.track_written
      (float_of_int (Obs.Coverage.num_written t.config))
end

module Interp = Explore.Make (Interp_state)

(* ---- bytecode-vm arena slots, keyed by their in-slice key words ---- *)

module Vm_state = struct
  type env = {
    e : Vm.env;
    proto : Vm.proto;
    inputs : pid:int -> instance:int -> Value.t option;
    completion_steps : int;
    check :
      inputs:(int * int * Value.t) list ->
      outputs:(int * int * Value.t) list ->
      (unit, string) result;
  }

  (* The search's arena: slots of [words] ints, bump-allocated with a free
     list; doubling keeps slot ids stable.  Children of a batch are
     allocated consecutively, so the next pass walks contiguous memory.
     [scratch] holds one completion slice, reused per leaf. *)
  type dom = {
    env : env;
    words : int;
    mutable buf : int array;
    mutable top : int;
    mutable free : int list;
    scratch : int array;
  }

  type t = int

  let batch = 8
  let n env = env.proto.Vm.n

  let dom env =
    let words = Vm.state_words env.e in
    { env; words; buf = Array.make (max 1 (words * 256)) 0; top = 0; free = [];
      scratch = Array.make words 0 }

  let alloc d =
    match d.free with
    | s :: tl ->
      d.free <- tl;
      s
    | [] ->
      let s = d.top in
      if (s + 1) * d.words > Array.length d.buf then begin
        let buf = Array.make (2 * Array.length d.buf) 0 in
        Array.blit d.buf 0 buf 0 (s * d.words);
        d.buf <- buf
      end;
      d.top <- s + 1;
      s

  let root d =
    let s = alloc d in
    Vm.init d.env.e d.buf (s * d.words);
    s

  let runnable d s pid = Vm.runnable d.env.e d.buf (s * d.words) pid
  let poised_local d s pid = Vm.poised_local d.env.e d.buf (s * d.words) pid

  (* footprint triples (reads_off, reads_len, write_reg), -1 for none:
     independent iff neither writes a register the other touches *)
  let commutes d s q p =
    let touches (ro, rl, w) r = (r >= ro && r < ro + rl) || r = w in
    let ((_, _, qw) as fq) = Vm.poised_footprint d.env.e d.buf (s * d.words) q
    and ((_, _, pw) as fp) = Vm.poised_footprint d.env.e d.buf (s * d.words) p in
    if (qw = -1 || not (touches fp qw)) && (pw = -1 || not (touches fq pw)) then
      Explore.Independent
    else Explore.Conflict

  let child d ~prof s pid =
    let t0 = Explore.start prof in
    let c = alloc d in
    (* [alloc] may have replaced [d.buf]; address it afresh *)
    Array.blit d.buf (s * d.words) d.buf (c * d.words) d.words;
    let t0 = Explore.lap prof Obs.Prof.Vm_batch t0 in
    Vm.step d.env.e d.buf (c * d.words) pid;
    ignore (Explore.lap prof Obs.Prof.Vm_step t0);
    c

  let key d s k = Vm.key_words d.env.e d.buf (s * d.words) k
  let release d s = d.free <- s :: d.free

  let leaf d s =
    let env = d.env in
    (* with no completion budget the frontier state is final as-is *)
    let st, b =
      if env.completion_steps = 0 then (d.buf, s * d.words)
      else begin
        Array.blit d.buf (s * d.words) d.scratch 0 d.words;
        ignore (Counterex.complete_vm env.e d.scratch 0 ~max_steps:env.completion_steps);
        (d.scratch, 0)
      end
    in
    let inputs, outputs = Vm.io env.e st b in
    env.check ~inputs ~outputs

  let memo_hits _ = 0
  let summary_hits _ = 0

  (* replayed through the interpreter: the reported artifact is
     engine-neutral and independently re-executes the vm's claim *)
  let counterexample env =
    counterexample ~inputs:env.inputs ~completion_steps:env.completion_steps
      (Vm.config env.proto)

  let sample _ _ _ = ()
end

module Vm_explore = Explore.Make (Vm_state)

(* ---- engine dispatch ---- *)

type engine = Naive | Dpor of { cache : bool; jobs : int }

let engine_name = function
  | Naive -> "naive"
  | Dpor { cache; _ } -> if cache then "dpor+cache" else "dpor"

let check_jobs jobs =
  if jobs <> 1 then
    invalid_arg (Fmt.str "Modelcheck: jobs = %d; the exploration runs on one domain" jobs)

let of_explore = function
  | stats, None -> Ok_bounded stats
  | stats, Some { Counterex.schedule; error; config } ->
    Counterexample { schedule; error; config; stats }

let run ~engine ~depth ?(key = `Incremental) ~inputs
    ?(completion_steps = Counterex.completion_steps) ?(refine = false) ?metrics ?prof ~check
    config =
  match engine with
  | Naive ->
    let out = exhaustive ~depth ~inputs ~completion_steps ~check config in
    Option.iter (fun m -> Explore.export_metrics m (stats_of out)) metrics;
    out
  | Dpor { cache; jobs } ->
    check_jobs jobs;
    let has_input pid inst = Option.is_some (inputs ~pid ~instance:inst) in
    of_explore
      (Interp.explore ~depth ~cache ?metrics ?prof
         { config; inputs; has_input; completion_steps; check; full_key = key = `Full;
           memo = cache; refine })

(* [run] for first-order protocols executed by [Shm.Vm]; the check sees
   decoded i/o records (Properties.check_safety_io fits directly). *)
let run_vm ~engine ~depth ?(completion_steps = Counterex.completion_steps) ~inputs
    ~check p =
  match engine with
  | Naive ->
    let check c = check ~inputs:(Config.inputs c) ~outputs:(Config.outputs c) in
    run ~engine ~depth ~inputs ~completion_steps ~check (Vm.config p)
  | Dpor { cache; jobs } ->
    check_jobs jobs;
    let e = Vm.env (Vm.compile p) ~inputs in
    of_explore
      (Vm_explore.explore ~depth ~cache
         { e; proto = p; inputs; completion_steps; check })
