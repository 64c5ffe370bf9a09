(* Bounded model checking of the simulated system: one front door over
   the naive reference engine and the exploration core (Spec.Explore).

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
     (docs/EXPLORATION.md).  With the cache, leaves are also answered
     from a completion memo (Counterex.complete_check) where it can. *)

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

(* the refinement behind [run ~refine:true], decided in the core *)
let cond_independent = Explore.cond_independent

(* ---- engine dispatch ---- *)

type engine = Naive | Dpor of { cache : bool; jobs : int }

let engine_name = function
  | Naive -> "naive"
  | Dpor { cache; _ } -> if cache then "dpor+cache" else "dpor"

let run ~engine ~depth ?(key = `Incremental) ~inputs
    ?(completion_steps = Counterex.completion_steps) ?(refine = false) ?metrics ?prof ~check
    config =
  let out =
    match engine with
    | Naive -> exhaustive ~depth ~inputs ~completion_steps ~check config
    | Dpor { cache; jobs } ->
      if jobs <> 1 then
        invalid_arg (Fmt.str "Modelcheck: jobs = %d; the exploration runs on one domain" jobs);
      (match
         Explore.explore ~depth ~cache ~key ~refine ~inputs ~completion_steps ~prof ~check
           config
       with
      | stats, None -> Ok_bounded stats
      | stats, Some { Counterex.schedule; error; config } ->
        Counterexample { schedule; error; config; stats })
  in
  Option.iter (fun m -> Explore.export_metrics m (stats_of out)) metrics;
  out
