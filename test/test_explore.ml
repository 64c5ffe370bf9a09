(* Tests for the exploration core: DPOR vs naive agreement, state-hash
   collision freedom, counterexample shrinking, parallel-domain
   agreement and failure, pinned state counts, and the stress harness's
   replayable schedules. *)

open Helpers
open Agreement

let inputs_for n = Shm.Exec.oneshot_inputs (Array.init n (fun pid -> vi (pid + 1)))

let check_safety ~k config = Spec.Properties.check_safety ~k config

let is_ok = function Spec.Modelcheck.Ok_bounded _ -> true | _ -> false

let explored = function
  | Spec.Modelcheck.Ok_bounded s -> s.Spec.Modelcheck.explored
  | Spec.Modelcheck.Counterexample { stats; _ } -> stats.Spec.Modelcheck.explored

let run_engine ~engine ~depth ~n ~k ~r =
  let p = Params.make ~n ~m:1 ~k in
  Spec.Modelcheck.run ~engine ~depth ~inputs:(inputs_for n) ~check:(check_safety ~k)
    (Instances.oneshot ~r p)

(* Replay oracle over a fresh instance: model-checker style (tolerant
   replay + deterministic completion + safety check). *)
let shrink_oracle ~n ~k ~r =
  let p = Params.make ~n ~m:1 ~k in
  fun schedule ->
    Spec.Counterex.replay ~completion_steps:50_000 ~inputs:(inputs_for n)
      ~check:(check_safety ~k)
      (Instances.oneshot ~r p)
      schedule

(* ---- DPOR vs naive: verdict agreement and state-count reduction ---- *)

(* Correct and starved one-shot instances, 2 and 3 processes: the two
   engines agree on every verdict, and on fully-explored (Ok) spaces
   DPOR visits at most as many nodes as the naive engine. *)
let dpor_agrees_with_naive () =
  [ (2, 1, 1, 10); (2, 1, 2, 10); (2, 1, 3, 10); (3, 2, 2, 8); (3, 2, 4, 7) ]
  |> List.iter (fun (n, k, r, depth) ->
         let naive = run_engine ~engine:Spec.Modelcheck.Naive ~depth ~n ~k ~r in
         let dpor =
           run_engine
             ~engine:(Spec.Modelcheck.Dpor { cache = true; jobs = 1 })
             ~depth ~n ~k ~r
         in
         Alcotest.(check bool)
           (Fmt.str "verdicts agree (n=%d k=%d r=%d)" n k r)
           (is_ok naive) (is_ok dpor);
         if is_ok naive then
           Alcotest.(check bool)
             (Fmt.str "dpor explores no more (n=%d k=%d r=%d)" n k r)
             true
             (explored dpor <= explored naive))

(* On a starved 2-process/2-register config both engines find a
   counterexample, and DPOR's independently re-checks: replaying its
   schedule (plus completion) still violates safety. *)
let dpor_counterexample_recheck () =
  let n = 2 and k = 1 and r = 1 and depth = 10 in
  let naive = run_engine ~engine:Spec.Modelcheck.Naive ~depth ~n ~k ~r in
  let dpor =
    run_engine ~engine:(Spec.Modelcheck.Dpor { cache = true; jobs = 1 }) ~depth ~n ~k ~r
  in
  match Spec.Modelcheck.counterex_of naive, Spec.Modelcheck.counterex_of dpor with
  | Some nce, Some ce ->
    let replay = shrink_oracle ~n ~k ~r in
    Alcotest.(check bool) "dpor counterexample re-checks" true
      (replay ce.Spec.Counterex.schedule <> None);
    (* the engines visit the tree in different orders, so the raw first
       counterexamples differ (and greedy shrinking can land them in
       different local minima) — but both shrink to genuine violating
       schedules *)
    List.iter
      (fun c ->
        match Spec.Shrink.minimize ~replay c.Spec.Counterex.schedule with
        | Some { ce = m; _ } ->
          Alcotest.(check bool) "shrunk schedule still violates" true
            (replay m.Spec.Counterex.schedule <> None)
        | None -> Alcotest.fail "shrinker lost a counterexample")
      [ nce; ce ]
  | _ -> Alcotest.fail "expected counterexamples from both engines"

(* The state cache earns its keep: with caching strictly fewer nodes
   than without, same verdict. *)
let cache_reduces_states () =
  let n = 3 and k = 1 and depth = 8 in
  let p = Params.make ~n ~m:1 ~k in
  let r = Params.r_oneshot p in
  let nocache =
    run_engine ~engine:(Spec.Modelcheck.Dpor { cache = false; jobs = 1 }) ~depth ~n ~k ~r
  in
  let cached =
    run_engine ~engine:(Spec.Modelcheck.Dpor { cache = true; jobs = 1 }) ~depth ~n ~k ~r
  in
  Alcotest.(check bool) "both ok" true (is_ok nocache && is_ok cached);
  Alcotest.(check bool) "cache strictly reduces" true (explored cached < explored nocache)

(* ---- state hashing ---- *)

(* The collision audit.  Enumerate every state reachable within a depth
   bound (every schedule, no reduction) and certify the incremental key
   partitions the space exactly as the full canonical form does: equal
   keys always mean equal canonical forms (no collision ever merges
   distinct states), and equal canonical forms always mean equal keys
   (incrementality loses no cache hits vs the full digest). *)
let statehash_audit ~n ~depth ~min_states () =
  let p = Params.make ~n ~m:1 ~k:1 in
  let inputs = inputs_for n in
  let has_input pid inst = Option.is_some (inputs ~pid ~instance:inst) in
  let by_key : (Spec.Statehash.key, string) Hashtbl.t = Hashtbl.create 1024 in
  let by_repr : (string, Spec.Statehash.key) Hashtbl.t = Hashtbl.create 1024 in
  let states = ref 0 in
  let rec go config hash d =
    incr states;
    let key = Spec.Statehash.key hash in
    let repr = Spec.Statehash.repr hash config in
    (match Hashtbl.find_opt by_key key with
    | Some repr' ->
      Alcotest.(check string) "equal key implies equal canonical form" repr' repr
    | None -> Hashtbl.add by_key key repr);
    (match Hashtbl.find_opt by_repr repr with
    | Some key' ->
      if not (Spec.Statehash.key_equal key key') then
        Alcotest.failf "equal canonical form, different keys: %a vs %a"
          Spec.Statehash.pp_key key Spec.Statehash.pp_key key'
    | None -> Hashtbl.add by_repr repr key);
    if d < depth then
      List.init n Fun.id
      |> List.filter (fun pid -> Shm.Config.runnable config ~has_input pid)
      |> List.iter (fun pid ->
             let config', ev = Shm.Config.advance ~inputs config pid in
             go config' (Spec.Statehash.record hash ~before:config config' ev) (d + 1))
  in
  go (Instances.oneshot p) (Spec.Statehash.create ~audit:true (Instances.oneshot p)) 0;
  Alcotest.(check bool) "enumerated a real space" true (!states > min_states)

let statehash_no_collisions = statehash_audit ~n:2 ~depth:10 ~min_states:1000

let statehash_audit_n3 = statehash_audit ~n:3 ~depth:8 ~min_states:5000

(* Commuted independent steps produce the same key: two processes
   writing distinct registers in either order. *)
let statehash_merges_commuted_writes () =
  let program reg =
    Shm.Program.await (fun v ->
        Shm.Program.write reg v (fun () -> Shm.Program.yield v Shm.Program.stop))
  in
  let config =
    Shm.Config.create ~registers:2 ~procs:[| program 0; program 1 |] ()
  in
  let inputs = inputs_for 2 in
  let run schedule =
    List.fold_left
      (fun (config, hash) pid ->
        let config', ev = Shm.Config.advance ~inputs config pid in
        (config', Spec.Statehash.record hash ~before:config config' ev))
      (config, Spec.Statehash.create ~audit:true config)
      schedule
  in
  let c1, h1 = run [ 0; 1; 0; 1 ] (* invoke 0, invoke 1, write R0, write R1 *)
  and c2, h2 = run [ 1; 0; 1; 0 ] (* same steps, writes commuted *) in
  Alcotest.(check string) "same canonical form" (Spec.Statehash.repr h1 c1)
    (Spec.Statehash.repr h2 c2);
  Alcotest.(check bool) "same incremental key" true
    (Spec.Statehash.key_equal (Spec.Statehash.key h1) (Spec.Statehash.key h2))

(* ---- shrinking ---- *)

(* Shrinking a model-checker counterexample: the result still violates
   and is 1-minimal (removing any single remaining step loses the
   violation).  n=3/k=1/r=3 is one register short of the n+2m−k bound
   and violates only under a genuine interleaving — the empty schedule
   is safe — so 1-minimality is non-trivial here. *)
let shrinker_one_minimal () =
  let n = 3 and k = 1 and r = 3 and depth = 14 in
  let replay = shrink_oracle ~n ~k ~r in
  Alcotest.(check bool) "completion alone is safe at r=3" true (replay [] = None);
  let dpor =
    run_engine ~engine:(Spec.Modelcheck.Dpor { cache = true; jobs = 1 }) ~depth ~n ~k ~r
  in
  let ce =
    match Spec.Modelcheck.counterex_of dpor with
    | Some ce -> ce
    | None -> Alcotest.fail "expected a counterexample"
  in
  match Spec.Shrink.minimize ~replay ce.Spec.Counterex.schedule with
  | None -> Alcotest.fail "shrinker lost the violation"
  | Some { ce = shrunk; _ } ->
    let s = shrunk.Spec.Counterex.schedule in
    Alcotest.(check bool) "shrunk no longer than original" true
      (List.length s <= List.length ce.Spec.Counterex.schedule);
    Alcotest.(check bool) "shrunk still violates" true (replay s <> None);
    List.iteri
      (fun i _ ->
        let without = List.filteri (fun j _ -> j <> i) s in
        Alcotest.(check bool)
          (Fmt.str "1-minimal: dropping step %d loses the violation" i)
          true
          (replay without = None))
      s

(* The polymorphic ddmin core on a synthetic oracle: failure iff the
   subset keeps both sentinel elements; the 1-minimal result is exactly
   those two, in their original relative order. *)
let minimize_generic_synthetic () =
  let replay keep =
    if List.mem 3 keep && List.mem 7 keep then Some (List.length keep) else None
  in
  match Spec.Shrink.minimize_generic ~replay (List.init 12 Fun.id) with
  | None -> Alcotest.fail "generic shrinker lost the failure"
  | Some r ->
    Alcotest.(check (list int)) "exact minimum, order preserved" [ 3; 7 ]
      r.Spec.Shrink.schedule;
    Alcotest.(check int) "witness from the final oracle call" 2 r.Spec.Shrink.witness;
    Alcotest.(check int) "removed the other ten" 10 r.Spec.Shrink.g_removed;
    Alcotest.(check bool) "oracle consulted" true (r.Spec.Shrink.g_replays > 0);
  (* an oracle that never fails: nothing to shrink *)
  Alcotest.(check bool) "non-failing start refused" true
    (Spec.Shrink.minimize_generic ~replay:(fun _ -> None) [ 1; 2; 3 ] = None)

(* The Counterex wrapper is the generic core: on the same oracle both
   produce the same schedule, and the generic witness carries the
   (error, config) pair that re-checks. *)
let minimize_generic_agrees_with_wrapper () =
  let n = 3 and k = 1 and r = 3 and depth = 14 in
  let dpor =
    run_engine ~engine:(Spec.Modelcheck.Dpor { cache = true; jobs = 1 }) ~depth ~n ~k ~r
  in
  let ce =
    match Spec.Modelcheck.counterex_of dpor with
    | Some ce -> ce
    | None -> Alcotest.fail "expected a counterexample"
  in
  let replay = shrink_oracle ~n ~k ~r in
  match
    ( Spec.Shrink.minimize ~replay ce.Spec.Counterex.schedule,
      Spec.Shrink.minimize_generic ~replay ce.Spec.Counterex.schedule )
  with
  | Some w, Some g ->
    Alcotest.(check (list int)) "same minimized schedule"
      w.Spec.Shrink.ce.Spec.Counterex.schedule g.Spec.Shrink.schedule;
    Alcotest.(check int) "same oracle spend" w.Spec.Shrink.replays g.Spec.Shrink.g_replays;
    let error, _config = g.Spec.Shrink.witness in
    Alcotest.(check string) "same violation" w.Spec.Shrink.ce.Spec.Counterex.error error;
    (* shrink-then-recheck: replaying the generic schedule still fails *)
    Alcotest.(check bool) "generic schedule re-checks" true
      (replay g.Spec.Shrink.schedule <> None)
  | _ -> Alcotest.fail "one of the shrinkers lost the counterexample"

(* At r=1 even the deterministic completion violates — no adversarial
   scheduling needed — and the shrinker discovers exactly that: the
   counterexample shrinks to the empty schedule. *)
let shrinker_reaches_empty () =
  let n = 2 and k = 1 and r = 1 and depth = 10 in
  let dpor =
    run_engine ~engine:(Spec.Modelcheck.Dpor { cache = true; jobs = 1 }) ~depth ~n ~k ~r
  in
  let ce =
    match Spec.Modelcheck.counterex_of dpor with
    | Some ce -> ce
    | None -> Alcotest.fail "expected a counterexample"
  in
  let replay = shrink_oracle ~n ~k ~r in
  match Spec.Shrink.minimize ~replay ce.Spec.Counterex.schedule with
  | None -> Alcotest.fail "shrinker lost the violation"
  | Some { ce = shrunk; _ } ->
    Alcotest.(check (list int)) "shrinks to the empty schedule" []
      shrunk.Spec.Counterex.schedule

(* ---- parallel domains ---- *)

(* --jobs 1 and --jobs 4 agree on the outcome, on both a correct and a
   starved instance. *)
let jobs_agree () =
  [ (2, 1, 3, 10, true); (2, 1, 1, 10, false); (3, 1, 1, 7, false) ]
  |> List.iter (fun (n, k, r, depth, expect_ok) ->
         let j1 =
           run_engine ~engine:(Spec.Modelcheck.Dpor { cache = true; jobs = 1 }) ~depth ~n
             ~k ~r
         and j4 =
           run_engine ~engine:(Spec.Modelcheck.Dpor { cache = true; jobs = 4 }) ~depth ~n
             ~k ~r
         in
         Alcotest.(check bool) (Fmt.str "jobs=1 verdict (n=%d r=%d)" n r) expect_ok (is_ok j1);
         Alcotest.(check bool) (Fmt.str "jobs=4 verdict (n=%d r=%d)" n r) expect_ok (is_ok j4))

(* Every combination of memory backend × cache-key flavour × domain
   count reaches the same verdict, on a correct and a starved instance.
   This pins the journaled backend's replay-based stealing and the
   incremental key against the persistent/full-digest reference. *)
let backends_and_key_modes_agree () =
  [ (3, true); (1, false) ]
  |> List.iter (fun (r, expect_ok) ->
         let n = 2 and k = 1 and depth = 10 in
         let p = Params.make ~n ~m:1 ~k in
         [ Shm.Memory.Persistent; Shm.Memory.Journaled ]
         |> List.iter (fun backend ->
                [ `Incremental; `Full ]
                |> List.iter (fun key ->
                       [ 1; 4 ]
                       |> List.iter (fun jobs ->
                              let out =
                                Spec.Modelcheck.run
                                  ~engine:(Spec.Modelcheck.Dpor { cache = true; jobs })
                                  ~depth ~key ~inputs:(inputs_for n)
                                  ~check:(check_safety ~k)
                                  (Instances.oneshot ~r ~backend p)
                              in
                              Alcotest.(check bool)
                                (Fmt.str "verdict (r=%d %s %s jobs=%d)" r
                                   (Shm.Memory.backend_name backend)
                                   (match key with `Incremental -> "inc" | `Full -> "full")
                                   jobs)
                                expect_ok (is_ok out)))))

(* A check that raises on a worker domain must surface its exception
   once every domain has joined, not leave the other workers waiting on
   a node that will never finish. *)
let worker_exception_surfaces () =
  let exception Boom in
  List.iter
    (fun jobs ->
      let calls = Atomic.make 0 in
      let check c =
        if Atomic.fetch_and_add calls 1 = 50 then raise Boom else check_safety ~k:1 c
      in
      let p = Params.make ~n:3 ~m:1 ~k:1 in
      match
        Spec.Modelcheck.run
          ~engine:(Spec.Modelcheck.Dpor { cache = true; jobs })
          ~depth:10 ~inputs:(inputs_for 3) ~check (Instances.oneshot p)
      with
      | _ -> Alcotest.failf "jobs=%d: the check's exception was swallowed" jobs
      | exception Boom -> ())
    [ 1; 4 ]

(* ---- pinned state counts ---- *)

(* The 62-register collect protocol of the E20 vm benchmarks. *)
let collect62 : Shm.Vm.proto =
  let open Shm.Vm in
  {
    registers = 62;
    n = 4;
    steps =
      [
        Write (0, Input);
        Loop (12, [ Scan (0, 62); Scan (0, 62); Scan (0, 62); Write (1, Last) ]);
        Decide Last;
      ];
  }

(* (explored, leaves, max_depth, cache_hits, pruned) of three
   single-domain runs.  Exploration order decides every cache hit, so
   any change to the order shows up here. *)
let pinned_state_counts () =
  let counts name expected outcome =
    Alcotest.(check bool) (name ^ ": ok") true (is_ok outcome);
    let s = Spec.Modelcheck.stats_of outcome in
    Alcotest.(check (list int)) name expected
      [ s.explored; s.leaves; s.max_depth; s.cache_hits; s.pruned ]
  in
  let engine = Spec.Modelcheck.Dpor { cache = true; jobs = 1 } in
  (* Figure 3 at n=4, m=1, k=2, depth 8: the dpor-fig3 smoke size *)
  counts "fig3 n=4 k=2 depth 8" [ 273; 156; 8; 40; 24 ]
    (Spec.Modelcheck.run ~engine ~depth:8
       ~inputs:
         (Shm.Exec.repeated_inputs ~rounds:1 (fun pid instance ->
              vi ((100 * instance) + pid)))
       ~check:(check_safety ~k:2)
       (Instances.oneshot (Params.make ~n:4 ~m:1 ~k:2)));
  let inputs ~pid ~instance = if instance = 1 then Some (vi (pid + 1)) else None in
  counts "collect62 interpreter depth 10" [ 2521; 1464; 10; 316; 432 ]
    (Spec.Modelcheck.run ~engine ~depth:10 ~completion_steps:0 ~inputs
       ~check:(fun _ -> Ok ())
       (Shm.Vm.config ~backend:Shm.Memory.Journaled collect62));
  counts "collect62 vm depth 10" [ 2119; 910; 10; 588; 354 ]
    (Spec.Modelcheck.run_vm ~engine ~depth:10 ~completion_steps:0 ~inputs
       ~check:(fun ~inputs:_ ~outputs:_ -> Ok ())
       collect62)

(* ---- stress: replayable witness schedules ---- *)

(* A Broken verdict now carries the pid schedule; replaying it from a
   fresh configuration reproduces a safety violation, and it shrinks. *)
let stress_schedule_replays_and_shrinks () =
  let n = 5 and k = 2 and r = 2 in
  let p = Params.make ~n ~m:2 ~k in
  let build () = Instances.oneshot ~r p in
  let inputs = Shm.Exec.oneshot_inputs (Array.init n (fun pid -> vi pid)) in
  match Spec.Stress.run ~runs:100 ~k ~n ~build ~inputs () with
  | Spec.Stress.Survived _ -> Alcotest.fail "starved system survived stress"
  | Spec.Stress.Broken { schedule; _ } as verdict ->
    Alcotest.(check bool) "non-empty schedule" true (schedule <> []);
    let replay s = Spec.Counterex.replay ~inputs ~check:(check_safety ~k) (build ()) s in
    Alcotest.(check bool) "witness schedule replays to a violation" true
      (replay schedule <> None);
    let ce = Option.get (Spec.Stress.counterex_of verdict) in
    (match Spec.Shrink.minimize ~replay ce.Spec.Counterex.schedule with
    | None -> Alcotest.fail "shrinker lost the stress violation"
    | Some { ce = shrunk; _ } ->
      Alcotest.(check bool) "shrunk stress schedule is shorter" true
        (List.length shrunk.Spec.Counterex.schedule < List.length schedule);
      Alcotest.(check bool) "shrunk stress schedule still violates" true
        (replay shrunk.Spec.Counterex.schedule <> None);
      (* stress oracle has no completion, so 1-minimality is never vacuous *)
      let s = shrunk.Spec.Counterex.schedule in
      List.iteri
        (fun i _ ->
          let without = List.filteri (fun j _ -> j <> i) s in
          Alcotest.(check bool)
            (Fmt.str "stress 1-minimal: dropping step %d loses the violation" i)
            true
            (replay without = None))
        s)

let suite =
  [
    slow_test "dpor agrees with naive on seeded configs" dpor_agrees_with_naive;
    slow_test "dpor counterexample independently re-checks" dpor_counterexample_recheck;
    slow_test "state cache strictly reduces explored states" cache_reduces_states;
    slow_test "state hash: no collisions over an enumerated space" statehash_no_collisions;
    slow_test "state hash: collision audit vs full digest (n=3)" statehash_audit_n3;
    test "state hash merges commuted independent writes" statehash_merges_commuted_writes;
    slow_test "shrinker output violates and is 1-minimal" shrinker_one_minimal;
    test "generic ddmin finds the exact synthetic minimum" minimize_generic_synthetic;
    slow_test "generic shrinker agrees with the Counterex wrapper"
      minimize_generic_agrees_with_wrapper;
    slow_test "shrinker reaches the empty schedule when completion violates"
      shrinker_reaches_empty;
    slow_test "jobs=1 and jobs=4 agree on outcomes" jobs_agree;
    slow_test "backends and key modes agree on verdicts" backends_and_key_modes_agree;
    slow_test "an exception on a worker domain surfaces" worker_exception_surfaces;
    test "state counts are pinned" pinned_state_counts;
    slow_test "stress witness schedule replays and shrinks" stress_schedule_replays_and_shrinks;
  ]
