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

(* The canonical form with the digest of every inert (not runnable)
   process masked: the partition [Statehash.inert_key] must induce.
   [repr]'s locals section is one "digest#instance;" per pid. *)
let inert_repr ~has_input hash config =
  let repr = Spec.Statehash.repr hash config in
  let rec find sub i =
    if String.sub repr i (String.length sub) = sub then i else find sub (i + 1)
  in
  let locals = find "|locals:" 0 + String.length "|locals:" in
  let io = find "|in:" locals in
  String.sub repr locals (io - locals)
  |> String.split_on_char ';'
  |> List.mapi (fun pid e ->
         if e <> "" && not (Shm.Config.runnable config ~has_input pid) then
           "inert" ^ String.sub e (String.index e '#') (String.length e - String.index e '#')
         else e)
  |> String.concat ";"
  |> fun masked ->
  String.sub repr 0 locals ^ masked ^ String.sub repr io (String.length repr - io)

(* Equal keys mean equal canonical forms and vice versa, recorded in
   the two tables. *)
let same_partition ~what by_key by_repr key repr =
  (match Hashtbl.find_opt by_key key with
  | Some repr' -> Alcotest.(check string) (what ^ ": equal key implies equal form") repr' repr
  | None -> Hashtbl.add by_key key repr);
  match Hashtbl.find_opt by_repr repr with
  | Some key' ->
    if not (Spec.Statehash.key_equal key key') then
      Alcotest.failf "%s: equal canonical form, different keys: %a vs %a" what
        Spec.Statehash.pp_key key Spec.Statehash.pp_key key'
  | None -> Hashtbl.add by_repr repr key

(* The collision audit.  Enumerate every state reachable within a depth
   bound (every schedule, no reduction) and certify the incremental key
   partitions the space exactly as the full canonical form does: equal
   keys always mean equal canonical forms (no collision ever merges
   distinct states), and equal canonical forms always mean equal keys
   (incrementality loses no cache hits vs the full digest).

   The same audit certifies [Statehash.inert_key] against the canonical
   form with the digests of inert processes masked. *)
let statehash_audit ~n ~depth ~min_states () =
  let p = Params.make ~n ~m:1 ~k:1 in
  let inputs = inputs_for n in
  let has_input pid inst = Option.is_some (inputs ~pid ~instance:inst) in
  let tables () = (Hashtbl.create 1024, Hashtbl.create 1024) in
  let by_key, by_repr = tables () and inert_by_key, inert_by_repr = tables () in
  let states = ref 0 in
  let rec go config hash d =
    incr states;
    let key = Spec.Statehash.key hash in
    let repr = Spec.Statehash.repr hash config in
    same_partition ~what:"history key" by_key by_repr key repr;
    let ikey = Spec.Statehash.inert_key hash ~has_input config in
    same_partition ~what:"inert key" inert_by_key inert_by_repr ikey
      (inert_repr ~has_input hash config);
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

(* ---- verdicts ---- *)

(* DPOR with the cache reaches the expected verdict on a correct and
   two starved instances; it runs on one domain, so any other [jobs] is
   refused. *)
let dpor_verdicts () =
  [ (2, 1, 3, 10, true); (2, 1, 1, 10, false); (3, 1, 1, 7, false) ]
  |> List.iter (fun (n, k, r, depth, expect_ok) ->
         let out =
           run_engine ~engine:(Spec.Modelcheck.Dpor { cache = true; jobs = 1 }) ~depth ~n
             ~k ~r
         in
         Alcotest.(check bool) (Fmt.str "verdict (n=%d r=%d)" n r) expect_ok (is_ok out));
  match
    run_engine ~engine:(Spec.Modelcheck.Dpor { cache = true; jobs = 2 }) ~depth:4 ~n:2 ~k:1
      ~r:3
  with
  | _ -> Alcotest.fail "jobs = 2 was accepted"
  | exception Invalid_argument _ -> ()

(* Every combination of memory backend × cache-key flavour reaches the
   same verdict, on correct and starved instances.  This pins the
   journaled backend and the incremental key against the
   persistent/full-digest reference.  Each arm's node and cache-hit
   counts are pinned too, at the values the polymorphic-Hashtbl cache
   gave: the flat cache, and the full digest packed into four words,
   change no hit decision (n = 3 at depth 12 has 200 hits). *)
let backends_and_key_modes_agree () =
  [ (2, 3, 1, 10, true, 285, 0); (2, 1, 1, 10, false, 9, 0);
    (3, 4, 2, 12, true, 9051, 200) ]
  |> List.iter (fun (n, r, k, depth, expect_ok, nodes, hits) ->
         let p = Params.make ~n ~m:1 ~k in
         [ Shm.Memory.Persistent; Shm.Memory.Journaled ]
         |> List.iter (fun backend ->
                [ `Incremental; `Full ]
                |> List.iter (fun key ->
                       let out =
                         Spec.Modelcheck.run
                           ~engine:(Spec.Modelcheck.Dpor { cache = true; jobs = 1 })
                           ~depth ~key ~inputs:(inputs_for n)
                           ~check:(check_safety ~k)
                           (Instances.oneshot ~r ~backend p)
                       in
                       let arm =
                         Fmt.str "n=%d r=%d %s %s" n r
                           (Shm.Memory.backend_name backend)
                           (match key with `Incremental -> "inc" | `Full -> "full")
                       in
                       Alcotest.(check bool) ("verdict " ^ arm) expect_ok (is_ok out);
                       let s = Spec.Modelcheck.stats_of out in
                       Alcotest.(check (list int)) ("explored, cache hits " ^ arm)
                         [ nodes; hits ] [ s.explored; s.cache_hits ])))

(* An exception raised by the check ends the search and surfaces from
   [run]; with a trace attached, the explore span is closed first. *)
let check_exception_surfaces () =
  let exception Boom in
  let calls = ref 0 in
  let check c =
    incr calls;
    if !calls = 50 then raise Boom else check_safety ~k:1 c
  in
  let p = Params.make ~n:3 ~m:1 ~k:1 in
  let tr = Obs.Trace.create () in
  match
    Obs.Trace.with_attached tr (fun () ->
        Spec.Modelcheck.run
          ~engine:(Spec.Modelcheck.Dpor { cache = true; jobs = 1 })
          ~depth:10 ~inputs:(inputs_for 3) ~check (Instances.oneshot p))
  with
  | _ -> Alcotest.fail "the check's exception was swallowed"
  | exception Boom ->
    Alcotest.(check int) "no span left open" 0 (Obs.Trace.open_count tr);
    Alcotest.(check bool) "explore span closed" true
      (Obs.Trace.find_span tr "explore" <> None)

(* ---- the completion memo ---- *)

(* Everything stepping decides about a configuration, as text: memory
   contents, counters and written set, each process's status and
   instance, the op counters, and the i/o records in order. *)
module Iset = Set.Make (Int)

let render c =
  let open Shm in
  let mem = Config.mem c in
  let records rs =
    String.concat " " (List.map (fun (p, i, v) -> Fmt.str "%d.%d=%a" p i Value.pp v) rs)
  in
  Fmt.str "%a@.writes %d, reads %d, written {%s}@.pc [%s]@.in %s@.out %s" Config.pp c
    (Memory.write_count mem) (Memory.read_count mem)
    (String.concat "," (List.map string_of_int (Iset.elements (Memory.written_set mem))))
    (String.concat " " (List.init (Config.n c) (fun pid -> string_of_int (Config.pc c pid))))
    (records (Config.inputs c)) (records (Config.outputs c))

(* Enumerate every leaf of the full schedule tree up to [depth] (no
   reduction), threading its Statehash, and check that the memoized
   verdict equals a plain completion followed by [check], leaf by leaf,
   with one memo shared across all leaves as a domain's is.  At each
   leaf the memo's O(n) [leaf_key] must equal [inert_key].  Every
   configuration [check] is shown must equal the plain completion's
   final one, so a burst answered from a summary must leave exactly
   what stepping it would.  Returns (leaves, violating leaves, memo). *)
let memo_differential ?(max_steps = 50_000) ~depth ~inputs ~check config =
  let has_input pid inst = Option.is_some (inputs ~pid ~instance:inst) in
  let memo = Spec.Counterex.memo () in
  let leaves = ref 0 and errors = ref 0 in
  let rec go config hash d =
    let runnable =
      List.filter (Shm.Config.runnable config ~has_input) (List.init (Shm.Config.n config) Fun.id)
    in
    if runnable = [] || d >= depth then begin
      incr leaves;
      let live = List.fold_left (fun live pid -> live lor (1 lsl pid)) 0 runnable in
      if
        not
          (Spec.Statehash.key_equal
             (Spec.Statehash.leaf_key hash ~live config)
             (Spec.Statehash.inert_key hash ~has_input config))
      then Alcotest.failf "leaf %d: leaf_key differs from inert_key" !leaves;
      let final, _ = Spec.Counterex.complete ~inputs ~max_steps config in
      let expected = check final in
      if Result.is_error expected then incr errors;
      let seen = ref [] in
      let check' c =
        seen := c :: !seen;
        check c
      in
      let got =
        Spec.Counterex.complete_check ~memo:(memo, hash) ~inputs ~max_steps ~check:check'
          config
      in
      if got <> expected then
        Alcotest.failf "leaf %d: memoized verdict %s, completion %s" !leaves
          (Result.fold ~ok:(fun () -> "Ok") ~error:Fun.id got)
          (Result.fold ~ok:(fun () -> "Ok") ~error:Fun.id expected);
      if !seen <> [] then begin
        let want = render final in
        List.iter
          (fun c ->
            let got = render c in
            if got <> want then
              Alcotest.failf "leaf %d: checked configuration@.%s@.completion's@.%s" !leaves got
                want)
          !seen
      end
    end
    else
      List.iter
        (fun pid ->
          let config', ev = Shm.Config.advance ~inputs config pid in
          go config' (Spec.Statehash.record hash ~before:config config' ev) (d + 1))
        runnable
  in
  go config (Spec.Statehash.create config) 0;
  (!leaves, !errors, memo)

(* Figure 3, correct and starved (n = 2-4), and the anonymous one-shot
   algorithm: every leaf agrees, and on Figure 3 the memo answers. *)
let memo_agrees_leaf_by_leaf () =
  List.iter
    (fun (n, k, r, depth, violates) ->
      let p = Params.make ~n ~m:1 ~k in
      let name = Fmt.str "fig3 n=%d k=%d r=%d depth %d" n k r depth in
      let leaves, errors, memo =
        memo_differential ~depth ~inputs:(inputs_for n) ~check:(check_safety ~k)
          (Instances.oneshot ~r p)
      in
      Alcotest.(check bool) (name ^ ": leaves") true (leaves > 1000);
      Alcotest.(check bool) (name ^ ": violations found") violates (errors > 0);
      Alcotest.(check bool) (name ^ ": memo hits") true (Spec.Counterex.memo_hits memo > 0);
      Alcotest.(check bool) (name ^ ": summary hits") true
        (Spec.Counterex.summary_hits memo > 0))
    [ (2, 1, 3, 10, false); (3, 2, 4, 7, false); (3, 1, 3, 8, false); (3, 2, 1, 7, true);
      (4, 2, 4, 6, false); (4, 2, 2, 6, true) ];
  let p = Params.make ~n:3 ~m:1 ~k:1 in
  let leaves, _, memo =
    memo_differential ~depth:7 ~inputs:(inputs_for 3) ~check:(check_safety ~k:1)
      (Instances.anonymous_oneshot p)
  in
  Alcotest.(check bool) "anonymous one-shot: leaves" true (leaves > 100);
  Alcotest.(check bool) "anonymous one-shot: summary hits" true
    (Spec.Counterex.summary_hits memo > 0);
  (* A budget some completions exceed, and a check that rejects an
     unfinished run: a stored length must fit the budget left. *)
  let finished c =
    match Spec.Properties.termination_errors ~expected:(fun _ -> 1) c with
    | [] -> Ok ()
    | e :: _ -> Error e
  in
  let p = Params.make ~n:3 ~m:1 ~k:2 in
  let leaves, errors, memo =
    memo_differential ~max_steps:22 ~depth:7 ~inputs:(inputs_for 3) ~check:finished
      (Instances.oneshot p)
  in
  Alcotest.(check bool) "tight budget: some completions fit, some do not" true
    (errors > 0 && errors < leaves);
  Alcotest.(check bool) "tight budget: memo hits" true (Spec.Counterex.memo_hits memo > 0);
  Alcotest.(check bool) "tight budget: summary hits" true
    (Spec.Counterex.summary_hits memo > 0)

(* Figure 3 exactly as printed (the erratum, test_errata.ml): p1
   leaves stale copies of its pair and halts; p0 and p2, proposing the
   same value, spin in the adopt branch forever.  Every completion runs
   out of fuel, so the memo must store nothing. *)
let memo_stores_no_fuel_exhausted_run () =
  let r = 3 in
  let procs =
    Array.init 3 (fun pid ->
        Oneshot.program_paper_literal ~m:1 ~pid ~api:(Snapshot.Atomic.make ~off:0 ~len:r))
  in
  let config = Shm.Config.create ~registers:r ~procs () in
  let config, _ = Shm.Config.advance ~inputs:(fun ~pid:_ ~instance:_ -> Some (vi 7)) config 1 in
  let config = List.fold_left (fun c _ -> fst (Shm.Config.step c 1)) config (List.init 6 Fun.id) in
  let config = Shm.Config.plant config ~slot:1 Shm.Program.stop ~instance:1 in
  let inputs ~pid ~instance = if pid <> 1 && instance = 1 then Some (vi 7) else None in
  (* past one quantum, so a second burst starts *)
  let max_steps = 2_500 in
  let stopped =
    (Shm.Exec.run ~sched:(Shm.Schedule.quantum_round_robin ~quantum:2000 3) ~inputs
       ~max_steps config)
      .Shm.Exec.stopped
  in
  Alcotest.(check bool) "the completion runs out of fuel" true (stopped = Shm.Exec.Fuel_exhausted);
  let leaves, _, memo =
    memo_differential ~max_steps ~depth:6 ~inputs ~check:(check_safety ~k:2) config
  in
  Alcotest.(check bool) "enumerated" true (leaves > 10);
  Alcotest.(check int) "nothing stored" 0 (Spec.Counterex.memo_entries memo);
  Alcotest.(check int) "no hits" 0 (Spec.Counterex.memo_hits memo);
  Alcotest.(check int) "no summary hits" 0 (Spec.Counterex.summary_hits memo)

(* The leaf's own first burst is neither looked up nor filed.  On
   Figure 3 (n = 3), a completion that is one solo burst of p0 leaves
   the memo empty however often it runs; one of two bursts (p0, then
   p1) files only p1's, which the next run of that leaf hits after
   taking p0's burst from its summary.  Every verdict equals a plain
   completion's. *)
let memo_skips_the_leaf_key () =
  let config = Instances.oneshot (Params.make ~n:3 ~m:1 ~k:2) in
  let check = check_safety ~k:2 and max_steps = 50_000 in
  let memo = Spec.Counterex.memo () in
  let run name inputs =
    let plain = check (fst (Spec.Counterex.complete ~inputs ~max_steps config)) in
    Alcotest.(check (result unit string)) (name ^ ": verdict") plain
      (Spec.Counterex.complete_check ~memo:(memo, Spec.Statehash.create config) ~inputs
         ~max_steps ~check config)
  in
  let counts name entries hits =
    Alcotest.(check (list int)) (name ^ ": memo entries, hits") [ entries; hits ]
      [ Spec.Counterex.memo_entries memo; Spec.Counterex.memo_hits memo ]
  in
  let proposers k ~pid ~instance = if pid < k && instance = 1 then Some (vi (pid + 1)) else None in
  run "solo" (proposers 1);
  counts "solo" 0 0;
  run "solo again" (proposers 1);
  counts "solo again" 0 0;
  Alcotest.(check int) "solo again: its burst from a summary" 1
    (Spec.Counterex.summary_hits memo);
  run "two bursts" (proposers 2);
  counts "two bursts" 1 0;
  run "two bursts again" (proposers 2);
  counts "two bursts again" 1 1

(* ---- pinned state counts ---- *)

(* The 62-register collect protocol of the E20 vm benchmark. *)
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

(* (explored, leaves, max_depth, cache_hits, pruned) of two
   single-domain runs.  Exploration order decides every cache hit, so
   any change to the order shows up here.  The completion memo leaves
   them alone; its hit count on Figure 3 is pinned beside them (the
   collect62 run has no completion budget, so no memo). *)
let pinned_state_counts () =
  let counts name expected outcome =
    Alcotest.(check bool) (name ^ ": ok") true (is_ok outcome);
    let s = Spec.Modelcheck.stats_of outcome in
    Alcotest.(check (list int)) name expected
      [ s.explored; s.leaves; s.max_depth; s.cache_hits; s.pruned ]
  in
  let engine = Spec.Modelcheck.Dpor { cache = true; jobs = 1 } in
  (* Figure 3 at n=4, m=1, k=2, depth 8: the dpor-fig3 smoke size *)
  let fig3 =
    Spec.Modelcheck.run ~engine ~depth:8
      ~inputs:
        (Shm.Exec.repeated_inputs ~rounds:1 (fun pid instance ->
             vi ((100 * instance) + pid)))
      ~check:(check_safety ~k:2)
      (Instances.oneshot (Params.make ~n:4 ~m:1 ~k:2))
  in
  counts "fig3 n=4 k=2 depth 8" [ 273; 156; 8; 40; 24 ] fig3;
  Alcotest.(check int) "fig3 n=4 k=2 depth 8: completion memo hits" 128
    (Spec.Modelcheck.stats_of fig3).memo_hits;
  let inputs ~pid ~instance = if instance = 1 then Some (vi (pid + 1)) else None in
  counts "collect62 interpreter depth 10" [ 2521; 1464; 10; 316; 432 ]
    (Spec.Modelcheck.run ~engine ~depth:10 ~completion_steps:0 ~inputs
       ~check:(fun _ -> Ok ())
       (Shm.Vm.config ~backend:Shm.Memory.Journaled collect62))

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

(* ---- one completion rule across engines ---- *)

(* The leaf completion ([Counterex.complete]) and [Exec.run] under
   quantum round-robin with q = 2000 are one rule: the same step count,
   stop reason, final memory and i/o records, on collect62, on a variant
   whose solo runs outlast the quantum (so bursts end on it) and on 50
   generated protocols, at the default budget and at half the steps a
   run takes (so the fuel-exhausted ending is compared too). *)
let one_completion_rule () =
  let inputs = Agreement.Runner.proto_inputs in
  let rng = Shm.Rng.create 23 in
  let long =
    Shm.Vm.
      { collect62 with
        steps = [ Write (0, Input); Loop (1200, [ Scan (0, 62); Write (1, Last) ]); Decide Last ] }
  in
  let protos = collect62 :: long :: List.init 50 (fun _ -> Fuzz.Gen.generate rng) in
  let agree i (p : Shm.Vm.proto) ~max_steps =
    let stopped steps =
      if steps >= max_steps then Shm.Exec.Fuel_exhausted else Shm.Exec.All_quiescent
    in
    let exec =
      Shm.Exec.run ~sched:(Shm.Schedule.quantum_round_robin ~quantum:2000 p.n) ~inputs
        ~max_steps (Shm.Vm.config p)
    in
    let config, steps = Spec.Counterex.complete ~inputs ~max_steps (Shm.Vm.config p) in
    let complete = { Shm.Exec.config; steps; stopped = stopped steps; trace = [] } in
    Option.iter
      (Alcotest.failf "protocol %d, budget %d: Counterex.complete vs Exec.run: %s" i max_steps)
      (Shm.Vm.diff (Shm.Vm.of_exec complete) (Shm.Vm.of_exec exec));
    steps
  in
  List.iteri
    (fun i p ->
      let steps = agree i p ~max_steps:Spec.Counterex.completion_steps in
      Alcotest.(check bool) (Fmt.str "protocol %d quiesces" i) true
        (steps < Spec.Counterex.completion_steps);
      if steps > 1 then ignore (agree i p ~max_steps:(steps / 2)))
    protos

(* ---- solo-burst summaries ---- *)

(* A violation found after a summarized burst is reported from a real
   re-run.  The same leaf is completed twice with one memo, under a
   check that rejects everything and names its call: the first run
   steps every burst and files its summary; the second answers a burst
   from a summary (the table is direct-mapped, so not necessarily
   every one), so [check] sees a patched configuration (call 2), which
   must equal the stepped one, and then the re-run's (call 3), whose
   error is the one reported. *)
let summary_violation_is_rerun () =
  let p = Params.make ~n:3 ~m:1 ~k:2 in
  let config = Instances.oneshot p and inputs = inputs_for 3 in
  let final, _ = Spec.Counterex.complete ~inputs ~max_steps:50_000 config in
  let seen = ref [] in
  let check c =
    seen := c :: !seen;
    Error (Fmt.str "call %d" (List.length !seen))
  in
  let memo = Spec.Counterex.memo () and hash = Spec.Statehash.create config in
  let run () =
    Spec.Counterex.complete_check ~memo:(memo, hash) ~inputs ~max_steps:50_000 ~check config
  in
  let verdict = Alcotest.(result unit string) in
  Alcotest.check verdict "first run: stepped and checked" (Error "call 1") (run ());
  Alcotest.(check int) "first run: no summary" 0 (Spec.Counterex.summary_hits memo);
  Alcotest.check verdict "second run: the re-run's error" (Error "call 3") (run ());
  Alcotest.(check bool) "second run: summarized" true (Spec.Counterex.summary_hits memo > 0);
  List.iteri
    (fun i c ->
      Alcotest.(check string) (Fmt.str "call %d: the stepped configuration" (3 - i))
        (render final) (render c))
    !seen

(* A burst that uses up its quantum is not summarized.  p0 reads r0
   for longer than a quantum before it outputs; p1 writes r1 once.
   The leaves [0 1] and [1 0] reach one state, so a summary filed for
   p0's first burst at one would answer the other with p0 stopped for
   good, and the check, which rejects p0's output, would pass. *)
let summary_needs_an_inert_end () =
  let open Shm in
  let rec spin i =
    if i = 0 then Program.yield (vi 0) Program.stop else Program.read 0 (fun _ -> spin (i - 1))
  in
  let procs = [| spin 2_500; Program.write 1 (vi 1) (fun () -> Program.stop) |] in
  let check c = match Config.outputs c with [] -> Ok () | _ -> Error "p0 decided" in
  let leaves, errors, _ =
    memo_differential ~depth:2 ~inputs:(fun ~pid:_ ~instance:_ -> None) ~check
      (Config.create ~registers:2 ~procs ())
  in
  Alcotest.(check int) "leaves" 3 leaves;
  Alcotest.(check int) "p0 decides in every completion" leaves errors

(* Summaries key on the instance.  One memo serves two roots that
   differ only in p0's instance count (planted), so p0's solo burst
   invokes instance 1 in one and instance 2 in the other, with
   different inputs.  Each root's Statehash starts p0's observation
   hash afresh, so only the instance tells the two bursts apart. *)
let summary_keys_on_the_instance () =
  let open Shm in
  let echo = Program.await (fun v -> Program.yield v Program.stop) in
  let a = Config.create ~registers:1 ~procs:[| echo |] () in
  let b = Config.plant a ~slot:0 echo ~instance:1 in
  let inputs ~pid:_ ~instance = if instance <= 2 then Some (vi instance) else None in
  let check c =
    if List.exists (fun (_, _, v) -> Value.equal v (vi 2)) (Config.outputs c) then
      Error "decided 2"
    else Ok ()
  in
  let memo = Spec.Counterex.memo () in
  let run c =
    Spec.Counterex.complete_check ~memo:(memo, Spec.Statehash.create c) ~inputs ~max_steps:100
      ~check c
  in
  let verdict = Alcotest.(result unit string) in
  Alcotest.check verdict "instance 1" (Ok ()) (run a);
  Alcotest.check verdict "instance 2" (Error "decided 2") (run b)

(* The summary hit count at the dpor-fig3 smoke size, beside the
   unchanged memo hit count (pinned in [pinned_state_counts] too). *)
let summary_hits_are_pinned () =
  let fig3 =
    Spec.Modelcheck.run ~engine:(Spec.Modelcheck.Dpor { cache = true; jobs = 1 }) ~depth:8
      ~inputs:
        (Shm.Exec.repeated_inputs ~rounds:1 (fun pid instance ->
             vi ((100 * instance) + pid)))
      ~check:(check_safety ~k:2)
      (Instances.oneshot (Params.make ~n:4 ~m:1 ~k:2))
  in
  let s = Spec.Modelcheck.stats_of fig3 in
  Alcotest.(check (list int)) "fig3 n=4 k=2 depth 8: memo hits, summary hits" [ 128; 216 ]
    [ s.memo_hits; s.summary_hits ]

(* ---- the state cache against a model of its rule ---- *)

(* The rule the flat table keeps, as the map it replaced: per key an
   assoc list of (remaining, sleep), newest first, capped at 8; a visit
   is covered by an entry with at least its remaining depth and a sleep
   mask inside its own. *)
let model_covered model key ~remaining ~sleep =
  let entries = Option.value (Hashtbl.find_opt model key) ~default:[] in
  List.exists (fun (r, sl) -> r >= remaining && sl land lnot sleep = 0) entries
  || begin
    Hashtbl.replace model key
      (List.filteri (fun i _ -> i < 8) ((remaining, sleep) :: entries));
    false
  end

(* Random (key, remaining, sleep) sequences, one fresh table and model
   per round, every decision compared.  The keys: 400 random ones (the
   table starts with room for 256, so it doubles mid-round), a few hot
   ones that collect far more than 8 entries, and for each key word 3
   keys equal to a base key but in that word, each with the base's hash
   in its low 16 bits, so all 13 share one probe chain at any index
   size the rounds reach.  Remaining depths and sleep masks are small,
   so equal depths with different masks are common. *)
let cache_matches_model seed =
  let rng = Random.State.make [| seed |] in
  let word () = Random.State.bits rng - (1 lsl 29) in
  let hash (a, b, c, d) = Spec.Explore.Cache.tag a b c d in
  let base = (word (), word (), word (), word ()) in
  let home = hash base land 0xffff in
  let with_word (a, b, c, d) w v =
    match w with 0 -> (v, b, c, d) | 1 -> (a, v, c, d) | 2 -> (a, b, v, d) | _ -> (a, b, c, v)
  in
  let rec colliding w =
    let k = with_word base w (word ()) in
    if hash k land 0xffff = home && k <> base then k else colliding w
  in
  let chain = base :: List.concat_map (fun w -> List.init 3 (fun _ -> colliding w)) [ 0; 1; 2; 3 ] in
  let hot = chain @ List.init 3 (fun _ -> (word (), word (), word (), word ())) in
  let cold = Array.init 400 (fun _ -> (word (), word (), word (), word ())) in
  let hot = Array.of_list hot in
  let hits = ref 0 and misses = ref 0 in
  for round = 1 to 20 do
    let t = Spec.Explore.Cache.create 256 and model = Hashtbl.create 64 in
    for op = 1 to 2000 do
      let ((a, b, c, d) as key) =
        if Random.State.bool rng then hot.(Random.State.int rng (Array.length hot))
        else cold.(Random.State.int rng (Array.length cold))
      in
      let remaining = Random.State.int rng 6 and sleep = Random.State.int rng 16 in
      let expected = model_covered model key ~remaining ~sleep in
      let got = Spec.Explore.Cache.covered t a b c d ~remaining ~sleep in
      if got <> expected then
        Alcotest.failf "round %d op %d: key %d.%d.%d.%d remaining %d sleep %x: table %b, model %b"
          round op a b c d remaining sleep got expected;
      incr (if got then hits else misses)
    done
  done;
  Alcotest.(check bool) "hits and misses both occur" true (!hits > 1000 && !misses > 1000)

(* The inverse of [Shm.Value.mix h] in its second argument: [mix h
   (unmix h x) = x].  Each stage of the mix is a bijection on 63-bit
   ints: an odd multiplier has an inverse mod 2^63 (Newton's iteration
   doubles the correct low bits from 3), and x lxor (x lsr s) is undone
   by xoring the shifts back in. *)
let unmix h x =
  let inverse c =
    let rec go y i = if i = 0 then y else go (y * (2 - (c * y))) (i - 1) in
    go c 6
  in
  let b = x lxor (x lsr 32) in
  let a = b * inverse 0x1B03738712FAD5C9 in
  let a = a lxor (a lsr 29) lxor (a lsr 58) in
  (a * inverse 0x2545F4914F6CDD1D) lxor h

(* Keys that share the whole tag with a base key, so they share its
   home slot at every index size and differ only in [keys]: 12 such
   twins are filed first, then 1,500 fresh keys push the table, which
   starts with room for 256, through 3 doublings, each followed by a
   probe of a twin; a random phase follows.  Every decision is compared
   with the model. *)
let cache_matches_model_on_shared_tags seed =
  let rng = Random.State.make [| seed |] in
  let word () = Random.State.bits rng - (1 lsl 29) in
  let tag (a, b, c, d) = Spec.Explore.Cache.tag a b c d in
  let base = (word (), word (), word (), word ()) in
  let twin () =
    let a = word () and b = word () and c = word () in
    let x = (Random.State.bits rng lsl 31) lor tag base in
    let k = (a, b, c, unmix Shm.Value.(mix (mix a b) c) x) in
    if tag k <> tag base then Alcotest.fail "unmix does not invert the key hash";
    k
  in
  let twins = Array.of_list (base :: List.init 11 (fun _ -> twin ())) in
  let cold = Array.init 1500 (fun _ -> (word (), word (), word (), word ())) in
  let t = Spec.Explore.Cache.create 256 and model = Hashtbl.create 2048 in
  let hits = ref 0 in
  let op ((a, b, c, d) as key) =
    let remaining = Random.State.int rng 6 and sleep = Random.State.int rng 16 in
    let expected = model_covered model key ~remaining ~sleep in
    let got = Spec.Explore.Cache.covered t a b c d ~remaining ~sleep in
    if got <> expected then
      Alcotest.failf "key %d.%d.%d.%d remaining %d sleep %x: table %b, model %b" a b c d
        remaining sleep got expected;
    if got then incr hits
  in
  let twin_op () = op twins.(Random.State.int rng (Array.length twins)) in
  Array.iter op twins;
  Array.iter
    (fun k ->
      op k;
      twin_op ())
    cold;
  for _ = 1 to 3000 do
    if Random.State.bool rng then twin_op ()
    else op cold.(Random.State.int rng (Array.length cold))
  done;
  Alcotest.(check bool) "twins hit" true (!hits > 500)

(* The rule at its edges, by hand: equal depths with disjoint masks,
   a covering superset, and the ninth entry pushing out the first. *)
let cache_rule_edges () =
  let t = Spec.Explore.Cache.create 1 in
  let covered ~remaining ~sleep = Spec.Explore.Cache.covered t 1 2 3 4 ~remaining ~sleep in
  Alcotest.(check bool) "first visit misses" false (covered ~remaining:3 ~sleep:0b01);
  Alcotest.(check bool) "equal depth, other mask misses" false (covered ~remaining:3 ~sleep:0b10);
  Alcotest.(check bool) "equal depth, superset mask hits" true (covered ~remaining:3 ~sleep:0b11);
  Alcotest.(check bool) "less depth hits" true (covered ~remaining:2 ~sleep:0b01);
  Alcotest.(check bool) "more depth misses" false (covered ~remaining:4 ~sleep:0b100);
  Alcotest.(check bool) "another key misses" false
    (Spec.Explore.Cache.covered t 1 2 3 5 ~remaining:0 ~sleep:0b11);
  (* entries 4..9 at depth 9 with masks 1 lsl 4 .. 1 lsl 9: with the
     three above, the 8 newest no longer hold (3, 0b01) *)
  for b = 4 to 9 do
    Alcotest.(check bool) "fresh mask misses" false (covered ~remaining:9 ~sleep:(1 lsl b))
  done;
  Alcotest.(check bool) "the oldest entry is gone" false (covered ~remaining:3 ~sleep:0b01)

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
    slow_test "dpor verdicts, correct and starved" dpor_verdicts;
    slow_test "backends and key modes agree on verdicts" backends_and_key_modes_agree;
    slow_test "an exception in the check surfaces" check_exception_surfaces;
    slow_test "completion memo agrees with complete + check, leaf by leaf"
      memo_agrees_leaf_by_leaf;
    test "completion memo stores no run that ran out of fuel"
      memo_stores_no_fuel_exhausted_run;
    test "completion memo skips the leaf's own key" memo_skips_the_leaf_key;
    test "state counts are pinned" pinned_state_counts;
    slow_test "stress witness schedule replays and shrinks" stress_schedule_replays_and_shrinks;
    test "one completion rule across engines" one_completion_rule;
    test "completion summaries: a violation after a summary is re-run"
      summary_violation_is_rerun;
    test "completion summaries: a burst that uses up its quantum is not stored"
      summary_needs_an_inert_end;
    test "completion summaries key on the instance" summary_keys_on_the_instance;
    test "completion summary hits are pinned" summary_hits_are_pinned;
    seeded_test "state cache matches a model of its rule" cache_matches_model;
    seeded_test "state cache matches the model on keys that share a tag"
      cache_matches_model_on_shared_tags;
    test "state cache rule at its edges" cache_rule_edges;
  ]
