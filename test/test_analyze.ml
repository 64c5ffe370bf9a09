(* The static analyzer (lib/analyze): abstract-interpretation
   footprints, lints, registry sweep, mutation tests, and the
   soundness property "dynamically written registers are contained in
   the static footprint" on random protocols under random schedules. *)

open Helpers
module P = Shm.Program
module V = Shm.Value

module IS = Set.Make (Int)

let to_alcotest = Helpers.qcheck_to_alcotest

let params ~n ~m ~k = Agreement.Params.make ~n ~m ~k

let contains_substring hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

(* ---- abstract stepping hooks ---- *)

let hooks_feed () =
  let p = P.read 0 (fun v -> P.yield v P.stop) in
  (match P.feed_read p (vi 7) with
  | Some (P.Yield (v, P.Stop)) -> Alcotest.(check bool) "read fed" true (V.equal v (vi 7))
  | _ -> Alcotest.fail "feed_read");
  Alcotest.(check bool) "wrong shape rejected" true (P.feed p P.RUnit = None);
  let w = P.write 1 (vi 2) (fun () -> P.stop) in
  (match P.feed_write_ack w with
  | Some P.Stop -> ()
  | _ -> Alcotest.fail "feed_write_ack");
  let s = P.scan ~off:0 ~len:2 (fun view -> P.yield view.(1) P.stop) in
  (match P.feed_scan s [| V.bot; vi 9 |] with
  | Some (P.Yield (v, _)) -> Alcotest.(check bool) "scan fed" true (V.equal v (vi 9))
  | _ -> Alcotest.fail "feed_scan");
  Alcotest.(check bool) "scan length checked" true
    (P.feed_scan s [| V.bot |] = None);
  let a = P.await (fun v -> P.yield v P.stop) in
  (match P.start a (vi 3) with
  | Some (P.Yield _) -> ()
  | _ -> Alcotest.fail "start");
  match P.take_yield (P.yield (vi 1) P.stop) with
  | Some (v, P.Stop) -> Alcotest.(check bool) "take_yield" true (V.equal v (vi 1))
  | _ -> Alcotest.fail "take_yield"

(* ---- interpreter on hand-rolled programs ---- *)

let config_of ~registers progs =
  Shm.Config.create ~registers ~procs:(Array.of_list progs) ()

let absint_footprint_and_dead () =
  (* p0 writes R0 then R1; R2 is never written by anyone *)
  let p0 =
    P.await (fun v ->
        P.write 0 v @@ fun () ->
        P.write 1 (vi 5) @@ fun () -> P.yield v P.stop)
  in
  let p1 = P.await (fun _ -> P.read 1 (fun v -> P.yield v P.stop)) in
  let s =
    Analyze.Absint.analyze
      ~budgets:(Analyze.Absint.exhaustive ~registers:3 ~n:2)
      (config_of ~registers:3 [ p0; p1 ])
  in
  Alcotest.(check (list int)) "writes" [ 0; 1 ]
    (Analyze.Absint.IntSet.elements s.Analyze.Absint.writes);
  Alcotest.(check (list int)) "reads" [ 1 ]
    (Analyze.Absint.IntSet.elements s.Analyze.Absint.reads);
  Alcotest.(check (list int)) "dead" [ 2 ]
    (Analyze.Absint.IntSet.elements s.Analyze.Absint.dead);
  Alcotest.(check bool) "converged" true s.Analyze.Absint.converged;
  (match Analyze.Absint.write_witness s 1 with
  | Some w -> Alcotest.(check bool) "witness non-empty" true (w <> [])
  | None -> Alcotest.fail "no witness for R1");
  Alcotest.(check bool) "no witness for dead register" true
    (Analyze.Absint.write_witness s 2 = None)

(* Witness paths are kept as events and rendered when stored: the
   rendered path must be chronological and cover each event kind. *)
let absint_witness_rendering_order () =
  let p = P.await (fun v -> P.yield v (P.write 0 v @@ fun () -> P.stop)) in
  let s = Analyze.Absint.analyze (config_of ~registers:1 [ p ]) in
  let path = Some [ "p0: invoke #1 1"; "p0: output 1"; "p0: write R0 := 1" ] in
  Alcotest.(check (option (list string)))
    "write-after-decide path" path
    s.Analyze.Absint.per_process.(0).Analyze.Absint.write_after_decide;
  Alcotest.(check (option (list string)))
    "write witness of R0" path (Analyze.Absint.write_witness s 0)

let absint_cross_process_flow () =
  (* p1's write target depends on the value p0 wrote: the joint
     fixpoint must propagate p0's value into p1's read. *)
  let p0 = P.await (fun _ -> P.write 0 (vi 1) @@ fun () -> P.stop) in
  let p1 =
    P.await (fun _ ->
        P.read 0 (fun v ->
            let target = match V.view v with V.Int 1 -> 2 | _ -> 1 in
            P.write target (vi 9) @@ fun () -> P.stop))
  in
  let s =
    Analyze.Absint.analyze
      ~budgets:(Analyze.Absint.exhaustive ~registers:3 ~n:2)
      (config_of ~registers:3 [ p0; p1 ])
  in
  (* both branches of p1 must be in the footprint: R1 (read ⊥) and R2
     (read p0's 1) *)
  Alcotest.(check (list int)) "writes cover both branches" [ 0; 1; 2 ]
    (Analyze.Absint.IntSet.elements s.Analyze.Absint.writes)

(* ---- lints ---- *)

let lint_write_after_decide () =
  let p =
    P.await (fun v ->
        P.write 0 v @@ fun () ->
        P.yield v (P.write 1 (vi 8) @@ fun () -> P.stop))
  in
  let s, diags =
    Analyze.Lint.check ~anonymous:false (config_of ~registers:2 [ p ])
  in
  ignore s;
  Alcotest.(check bool) "write-after-decide fires" true
    (List.exists
       (fun (d : Analyze.Lint.diag) -> d.rule = "decide/write-after-decide")
       (Analyze.Lint.errors diags))

let lint_oob_scan () =
  (* scan range sticks out of memory *)
  let p = P.await (fun _ -> P.scan ~off:1 ~len:3 (fun _ -> P.stop)) in
  let _, diags =
    Analyze.Lint.check ~anonymous:false (config_of ~registers:3 [ p ])
  in
  Alcotest.(check bool) "oob scan fires" true
    (List.exists
       (fun (d : Analyze.Lint.diag) ->
         d.rule = "space/out-of-bounds" && d.witness <> [])
       (Analyze.Lint.errors diags))

let lint_oob_write () =
  let p = P.await (fun v -> P.write 5 v @@ fun () -> P.yield v P.stop) in
  let _, diags =
    Analyze.Lint.check ~anonymous:false (config_of ~registers:2 [ p ])
  in
  Alcotest.(check bool) "oob write fires" true
    (List.exists
       (fun (d : Analyze.Lint.diag) -> d.rule = "space/out-of-bounds")
       (Analyze.Lint.errors diags))

let lint_unbounded_solo () =
  let rec spin i = P.write 0 (vi i) @@ fun () -> spin (1 - i) in
  let p = P.await (fun _ -> spin 0) in
  let _, diags =
    Analyze.Lint.check ~anonymous:false (config_of ~registers:1 [ p ])
  in
  Alcotest.(check bool) "unbounded solo loop fires" true
    (List.exists
       (fun (d : Analyze.Lint.diag) -> d.rule = "loop/unbounded-solo")
       (Analyze.Lint.errors diags));
  (* the invocation and 344 steps of fuel, clipped to both ends *)
  let w0 = "p0: write R0 := 0" and w1 = "p0: write R0 := 1" in
  Alcotest.(check (list (list string)))
    "clipped witness text"
    [
      [ "p0: invoke #1 1 (solo)"; w0; w1; w0; w1; w0; "... (333 steps elided)";
        w0; w1; w0; w1; w0; w1 ];
    ]
    (List.map (fun (d : Analyze.Lint.diag) -> d.witness) diags)

let lint_clean_on_honest_program () =
  let p =
    P.await (fun v -> P.write 0 v @@ fun () -> P.yield v P.stop)
  in
  let _, diags =
    Analyze.Lint.check ~anonymous:false (config_of ~registers:1 [ p ])
  in
  Alcotest.(check int) "no errors" 0
    (List.length (Analyze.Lint.errors diags))

(* ---- anonymity ---- *)

let anonymity_fig5_passes () =
  let config = Agreement.Instances.anonymous (params ~n:4 ~m:1 ~k:2) in
  Alcotest.(check int) "Fig 5 is anonymous" 0
    (List.length (Analyze.Lint.anonymity ~rounds:2 config))

(* Two processes that read R0 twenty times in lockstep, then write a
   value carrying their pid: the divergence is the 22nd step, so the
   witness keeps both ends. *)
let anonymity_clipped_witness () =
  let proc pid =
    let rec loop i =
      if i = 0 then P.write 0 (V.tuple [ vi 1; vi pid ]) @@ fun () -> P.yield (vi 1) P.stop
      else P.read 0 (fun _ -> loop (i - 1))
    in
    P.await (fun _ -> loop 20)
  in
  let r = "both: read R0" in
  match Analyze.Lint.anonymity (config_of ~registers:1 [ proc 0; proc 1 ]) with
  | [ d ] ->
      Alcotest.(check string) "rule" "anon/pid-dependent-value" d.rule;
      Alcotest.(check (list string))
        "clipped witness text"
        [ "both: invoke #1 1 (identical input)"; r; r; r; r; r; "... (10 steps elided)";
          r; r; r; r; r; "both: write R0 := [1;0]" ]
        d.witness
  | ds -> Alcotest.failf "expected one diagnostic, got %d" (List.length ds)

let anonymity_fig3_would_fail () =
  (* Figure 3 stores (pref, id) pairs — id-dependent by design, which
     is why the registry exempts non-anonymous algorithms from the
     rule.  The checker must *detect* the dependence nonetheless. *)
  let config = Agreement.Instances.oneshot (params ~n:4 ~m:1 ~k:2) in
  Alcotest.(check bool) "Fig 3 writes pid-dependent values" true
    (Analyze.Lint.anonymity config <> [])

(* ---- registry sweep ---- *)

let registry_has_four_entries () =
  Alcotest.(check (list string))
    "registry names"
    [ "oneshot"; "repeated"; "anonymous"; "baseline" ]
    Analyze.Registry.names;
  List.iter
    (fun name ->
      match Bounds.Formulas.for_algorithm name with
      | Some _ -> ()
      | None -> Alcotest.fail ("no bounds cell for " ^ name))
    Analyze.Registry.names

(* Differential: the dynamic measure reads the written set off the
   memory of a round-robin run it stops once every register is written;
   replaying the full 400,000-step run's events through the streaming
   stats must name exactly the same registers.  The max-n 3 grid holds
   Figure 4 rows that livelock under round-robin and run the whole
   fuel, so the early stop is compared against a run it cut short. *)
let measure_dynamic_matches_event_stream () =
  let exhausted = ref 0 in
  List.iter
    (fun p ->
      let n = p.Agreement.Params.n in
      List.iter
        (fun (e : Analyze.Registry.entry) ->
          if e.applicable p then begin
            let config = e.config p in
            let inputs ~pid ~instance =
              if instance <= e.rounds then
                Some (Agreement.Runner.default_input ~pid ~instance)
              else None
            in
            let res =
              Shm.Exec.run ~record:true ~max_steps:400_000
                ~sched:(Shm.Schedule.round_robin n) ~inputs config
            in
            if res.Shm.Exec.stopped = Shm.Exec.Fuel_exhausted then incr exhausted;
            let a =
              Shm.Analysis.of_trace ~n
                ~registers:(Shm.Memory.size (Shm.Config.mem config))
                res.Shm.Exec.trace
            in
            let from_events =
              Array.to_list a.Shm.Analysis.writes_per_register
              |> List.mapi (fun r w -> if w > 0 then Some r else None)
              |> List.filter_map Fun.id
            in
            Alcotest.(check (list int))
              (Fmt.str "%s at %s" e.name (Agreement.Params.to_string p))
              from_events
              (Analyze.Absint.IntSet.elements (Analyze.Registry.measure_dynamic e p))
          end)
        Analyze.Registry.all)
    (Analyze.Registry.grid ~max_n:3 @ [ params ~n:4 ~m:1 ~k:2; params ~n:5 ~m:2 ~k:3 ]);
  Alcotest.(check bool) "some rows run the whole fuel" true (!exhausted >= 3)

(* The early stop keeps the dynamic measure cheap on rows that would
   otherwise run the whole fuel: Figure 4 at (4,1,2) livelocks under
   round-robin, and the full 400,000-step run allocates about 157M minor
   words; stopped once every register is written it allocates about
   7k. *)
let measure_dynamic_allocation () =
  let e = Option.get (Analyze.Registry.find "repeated") in
  let p = params ~n:4 ~m:1 ~k:2 in
  let before = Gc.minor_words () in
  ignore (Analyze.Registry.measure_dynamic e p);
  let words = Gc.minor_words () -. before in
  Alcotest.(check bool)
    (Fmt.str "measure_dynamic allocates %.0f minor words" words)
    true (words < 2e6)

(* Witness paths are rendered only when a diagnostic keeps them, so an
   abstract step costs the same whatever the size of the value it
   writes.  One process writes the same value forever (the depth budget
   ends each pass); rendering every step would make the 1,000-component
   tuple about 60 times dearer per step than the int. *)
let absint_step_allocation_independent_of_value_size () =
  let words_per_step v =
    let rec spin () = P.write 0 v @@ fun () -> spin () in
    let config = config_of ~registers:1 [ P.await (fun _ -> spin ()) ] in
    let budgets =
      {
        (Analyze.Absint.budgets_for ~registers:1 ~n:1) with
        Analyze.Absint.max_depth = 10_000;
        max_steps_per_pass = 10_000;
      }
    in
    let before = Gc.minor_words () in
    let s = Analyze.Absint.analyze ~budgets config in
    (Gc.minor_words () -. before) /. float_of_int s.Analyze.Absint.steps
  in
  let small = words_per_step (vi 7) in
  let big = words_per_step (V.tuple (List.init 1000 vi)) in
  Alcotest.(check bool)
    (Fmt.str "words per step: int %.1f, 1000-tuple %.1f" small big)
    true (big < 4. *. small)

(* A register's first write keeps its path unrendered, so writing many
   registers after a long prefix costs per step what writing one does;
   rendering each first-write path would make 64 registers about 50
   times dearer per step. *)
let absint_write_witness_allocation_independent_of_registers () =
  let words_per_step regs =
    let rec write i =
      if i = 64 then P.yield (vi 0) P.stop
      else P.write (1 + (i mod regs)) (vi i) @@ fun () -> write (i + 1)
    in
    let rec read i = if i = 0 then write 0 else P.read 0 (fun _ -> read (i - 1)) in
    let registers = 1 + regs in
    let config = config_of ~registers [ P.await (fun _ -> read 2000) ] in
    let budgets =
      {
        (Analyze.Absint.budgets_for ~registers ~n:1) with
        Analyze.Absint.max_depth = 10_000;
        max_steps_per_pass = 10_000;
      }
    in
    let before = Gc.minor_words () in
    let s = Analyze.Absint.analyze ~budgets config in
    (Gc.minor_words () -. before) /. float_of_int s.Analyze.Absint.steps
  in
  let one = words_per_step 1 in
  let many = words_per_step 64 in
  Alcotest.(check bool)
    (Fmt.str "words per step: 1 register %.1f, 64 registers %.1f" one many)
    true (many < 2. *. one)

(* Lint's solo run keeps its steps unrendered and formats only the 13
   lines of a clipped witness, so a solo spinner's cost does not grow
   with the value it writes.  200 unused registers raise the fuel to
   6,712 steps; rendering every step would make the 1,000-component
   tuple about 85 times dearer than the int. *)
let lint_solo_allocation_independent_of_value_size () =
  let words v =
    let rec spin () = P.write 0 v @@ fun () -> spin () in
    let config = config_of ~registers:200 [ P.await (fun _ -> spin ()) ] in
    let before = Gc.minor_words () in
    ignore (Analyze.Lint.check ~anonymous:false config);
    Gc.minor_words () -. before
  in
  let small = words (vi 7) in
  let big = words (V.tuple (List.init 1000 vi)) in
  Alcotest.(check bool)
    (Fmt.str "minor words: int %.0f, 1000-tuple %.0f" small big)
    true (big < 4. *. small)

let sweep_small_grid_green () =
  let rows = Analyze.Report.sweep ~max_n:4 () in
  Alcotest.(check bool) "grid non-trivial" true (List.length rows >= 20);
  List.iter
    (fun (r : Analyze.Report.row) ->
      if not r.Analyze.Report.ok then
        Alcotest.failf "violation: %s at %s (static %d, bound %d)"
          r.Analyze.Report.algo
          (Agreement.Params.to_string r.Analyze.Report.params)
          r.Analyze.Report.static_writes r.Analyze.Report.bound)
    rows

let sweep_checks_three_containments () =
  let r =
    Analyze.Report.row_for
      (Option.get (Analyze.Registry.find "oneshot"))
      (params ~n:5 ~m:2 ~k:3)
  in
  Alcotest.(check bool) "static <= bound" true r.Analyze.Report.static_within_bound;
  Alcotest.(check bool) "dynamic within static" true
    r.Analyze.Report.dynamic_within_static;
  Alcotest.(check bool) "dynamic <= static <= bound" true
    (r.Analyze.Report.dynamic_writes <= r.Analyze.Report.static_writes
    && r.Analyze.Report.static_writes <= r.Analyze.Report.bound)

(* ---- mutation tests ---- *)

let mutant_oob_rejected_with_witness () =
  let p = params ~n:4 ~m:1 ~k:2 in
  let mu = Analyze.Mutants.oob_oneshot in
  Alcotest.(check bool) "rejected" true (Analyze.Mutants.rejected mu p);
  let summary, _ = Analyze.Mutants.check mu p in
  let bound = mu.Analyze.Mutants.bound p in
  Alcotest.(check bool) "static footprint exceeds the bound" true
    (Analyze.Absint.IntSet.cardinal summary.Analyze.Absint.writes > bound);
  match Analyze.Absint.write_witness summary bound with
  | Some w ->
    Alcotest.(check bool) "witness path leads to the oob write" true
      (List.exists
         (fun line -> contains_substring line (Fmt.str "write R%d" bound))
         w)
  | None -> Alcotest.fail "no witness for the beyond-bound register"

let mutant_oob_dynamically_silent () =
  (* under a sequential schedule the rare branch never fires: the bug
     is invisible to this concrete run but caught statically *)
  let p = params ~n:4 ~m:1 ~k:2 in
  let mu = Analyze.Mutants.oob_oneshot in
  let config = mu.Analyze.Mutants.config p in
  let bound = mu.Analyze.Mutants.bound p in
  let result =
    Shm.Exec.run
      ~sched:(Shm.Schedule.quantum_round_robin ~quantum:10_000 4)
      ~inputs:(fun ~pid ~instance ->
        if instance = 1 then Some (vi (pid + 1)) else None)
      config
  in
  Alcotest.(check bool) "run quiesced" true
    (result.Shm.Exec.stopped = Shm.Exec.All_quiescent);
  Alcotest.(check bool) "dynamic registers stay within the bound" true
    (Shm.Memory.num_written (Shm.Config.mem result.Shm.Exec.config) <= bound)

let mutant_pid_leak_rejected_with_witness () =
  let p = params ~n:4 ~m:1 ~k:2 in
  let mu = Analyze.Mutants.pid_leak_anonymous in
  Alcotest.(check bool) "rejected" true (Analyze.Mutants.rejected mu p);
  let _, diags = Analyze.Mutants.check mu p in
  match
    List.find_opt
      (fun (d : Analyze.Lint.diag) -> d.rule = "anon/pid-dependent-value")
      (Analyze.Lint.errors diags)
  with
  | Some d ->
      Alcotest.(check (list string))
        "witness text"
        [
          "both: invoke #1 1 (identical input)";
          "both: scan [0..4]";
          "both: write R0 := 1";
          "both: scan [0..4]";
          "both: write R1 := (1,0)";
        ]
        d.witness
  | None -> Alcotest.fail "anonymity rule did not fire"

(* ---- soundness property ----

   For random small loop-free protocols and random seeded schedules,
   every dynamically written register is in the static footprint.
   Value space is kept tiny so the abstract scan enumeration stays
   exhaustive — the regime where the analysis is exact. *)

type pstep =
  | SRead of int
  | SWrite of int * V.t
  | SWriteLast of int  (** target depends on the last value observed *)
  | SScan of int * int
  | SYield

let vhash v = match V.view v with V.Bot -> 0 | V.Int i -> i land 1 | _ -> 1

let compile ~registers steps =
  P.await (fun input ->
      let rec go steps last =
        match steps with
        | [] -> P.stop
        | SRead r :: tl -> P.read r (fun v -> go tl v)
        | SWrite (r, v) :: tl -> P.write r v (fun () -> go tl last)
        | SWriteLast b :: tl ->
          let r = (b + vhash last) mod registers in
          P.write r (vi 9) (fun () -> go tl last)
        | SScan (off, len) :: tl ->
          P.scan ~off ~len (fun view ->
              go tl (if len = 0 then last else view.(0)))
        | SYield :: tl -> P.yield last (go tl last)
      in
      go steps input)

let protocol_gen =
  QCheck.Gen.(
    int_range 2 3 >>= fun registers ->
    int_range 2 3 >>= fun n ->
    let step =
      frequency
        [
          (3, map (fun r -> SRead r) (int_bound (registers - 1)));
          ( 3,
            map2
              (fun r v -> SWrite (r, vi v))
              (int_bound (registers - 1))
              (int_bound 1) );
          (2, map (fun b -> SWriteLast b) (int_bound (registers - 1)));
          ( 2,
            int_bound (registers - 1) >>= fun off ->
            int_bound (registers - off) >>= fun len -> return (SScan (off, len))
          );
          (1, return SYield);
        ]
    in
    list_size (int_range 1 4) step >>= fun proto ->
    (* every process runs the same shape but distinct inputs, like the
       paper's algorithms *)
    return (registers, n, proto))

let pp_pstep = function
  | SRead r -> Fmt.str "read %d" r
  | SWrite (r, v) -> Fmt.str "write %d %s" r (V.to_string v)
  | SWriteLast b -> Fmt.str "write-last %d" b
  | SScan (o, l) -> Fmt.str "scan %d %d" o l
  | SYield -> "yield"

let protocol_arb =
  QCheck.make protocol_gen ~print:(fun (registers, n, proto) ->
      Fmt.str "registers=%d n=%d [%s]" registers n
        (String.concat "; " (List.map pp_pstep proto)))

let prop_static_footprint_sound =
  QCheck.Test.make ~name:"dynamic writes are contained in static footprint"
    ~count:60 protocol_arb (fun (registers, n, proto) ->
      let config =
        Shm.Config.create ~registers
          ~procs:(Array.init n (fun _ -> compile ~registers proto))
          ()
      in
      let summary =
        Analyze.Absint.analyze
          ~budgets:(Analyze.Absint.exhaustive ~registers ~n)
          config
      in
      let static = summary.Analyze.Absint.writes in
      let scheds =
        Shm.Schedule.round_robin n
        :: List.map (fun seed -> Shm.Schedule.random ~seed n) [ 1; 2; 3; 4 ]
      in
      List.for_all
        (fun sched ->
          let result =
            Shm.Exec.run ~sched ~max_steps:5_000
              ~inputs:(fun ~pid ~instance ->
                if instance = 1 then
                  Some (Agreement.Runner.default_input ~pid ~instance)
                else None)
              config
          in
          let dynamic =
            Shm.Memory.written_set (Shm.Config.mem result.Shm.Exec.config)
          in
          IS.for_all (fun r -> Analyze.Absint.IntSet.mem r static) dynamic)
        scheds)

(* ---- the abstract domain's caches ---- *)

module D = Analyze.Absdom

(* The uncached domain, as plain lists: a register's set ⊥ first in
   insertion order, and every alternative rebuilt from it on demand.
   The cached [Absdom] must answer exactly like this. *)
module Spec_dom = struct
  let dedup eq l =
    List.fold_left (fun acc x -> if List.exists (eq x) acc then acc else acc @ [ x ]) [] l

  let take n l = List.filteri (fun i _ -> i < n) l
  let latest vals = List.nth vals (List.length vals - 1)

  let reads vals ~width =
    if List.length vals <= width then dedup V.equal (latest vals :: vals)
    else
      let first = match vals with _ :: v :: _ -> [ v ] | _ -> [] in
      take width (dedup V.equal ((latest vals :: V.bot :: first) @ List.rev vals))

  let same a b = Array.length a = Array.length b && Array.for_all2 V.equal a b

  (* [sets i] is the set of register [off + i] *)
  let scan sets ~width ~cap ~just_wrote ~len =
    if len = 0 then [ [||] ]
    else
      let product =
        List.fold_left (fun acc i -> acc * List.length (sets i)) 1 (List.init len Fun.id)
      in
      let latest_view = Array.init len (fun i -> latest (sets i)) in
      if product <= cap then
        let rec go i =
          if i >= len then [ [] ]
          else
            List.concat_map (fun v -> List.map (fun tl -> v :: tl) (go (i + 1))) (sets i)
        in
        latest_view
        :: List.filter (fun v -> not (same v latest_view)) (List.map Array.of_list (go 0))
      else
        let prefix =
          Array.init len (fun i -> if i < (len + 1) / 2 then latest (sets i) else V.bot)
        in
        let own = match just_wrote with Some v -> [ Array.make len v ] | None -> [] in
        let diverse =
          Array.init len (fun i -> List.nth (sets i) (i mod List.length (sets i)))
        in
        take width
          (dedup same ((latest_view :: own) @ [ prefix; diverse; Array.make len V.bot ]))
end

type dom_op =
  | Add of int * int
  | Read of int * int  (** width, register *)
  | Scan of int * int * int * int * int option
      (** width, exhaustive cap, off, len, just_wrote *)

let dom_case_gen =
  QCheck.Gen.(
    int_range 0 4 >>= fun registers ->
    int_range 2 5 >>= fun set_cap ->
    let reg = int_range (-1) registers in
    let width = oneofl [ 0; 1; 2; 3; 4; 64 ] in
    let op =
      frequency
        [
          (4, map2 (fun r v -> Add (r, v)) reg (int_bound 6));
          (2, map2 (fun w r -> Read (w, r)) width reg);
          ( 3,
            int_bound registers >>= fun off ->
            int_bound (registers - off) >>= fun len ->
            map3
              (fun w cap own -> Scan (w, cap, off, len, own))
              width (oneofl [ 1; 3; 8; 64 ]) (opt (int_bound 6)) );
        ]
    in
    list_size (int_range 1 40) op >|= fun ops -> (registers, set_cap, ops))

let pp_dom_op = function
  | Add (r, v) -> Fmt.str "add R%d %d" r v
  | Read (w, r) -> Fmt.str "read w%d R%d" w r
  | Scan (w, c, o, l, j) ->
    Fmt.str "scan w%d cap%d [%d,+%d)%s" w c o l
      (match j with Some v -> Fmt.str " own %d" v | None -> "")

(* Every query of a long-lived domain equals the answer of a fresh
   domain fed the same adds, and of the uncached specification; a
   caller scribbling over returned views changes no later answer. *)
let prop_absdom_cache_differential =
  QCheck.Test.make ~name:"absdom: cached answers = fresh replay = uncached spec"
    ~count:300
    (QCheck.make dom_case_gen ~print:(fun (registers, set_cap, ops) ->
         Fmt.str "registers=%d set_cap=%d [%s]" registers set_cap
           (String.concat "; " (List.map pp_dom_op ops))))
    (fun (registers, set_cap, ops) ->
      let live = D.create ~registers ~set_cap in
      let adds = ref [] in
      let fresh () =
        let d = D.create ~registers ~set_cap in
        List.iter (fun (r, v) -> D.add d r v) (List.rev !adds);
        d
      in
      let views = Alcotest.(list (array (testable V.pp V.equal))) in
      let values = Alcotest.(list (testable V.pp V.equal)) in
      let scan d (w, cap, off, len, own) =
        D.scan_views d ~width:w ~exhaustive_cap:cap ?just_wrote:(Option.map vi own) ~off
          ~len ()
      in
      List.iter
        (fun op ->
          match op with
          | Add (r, v) ->
            adds := (r, vi v) :: !adds;
            D.add live r (vi v)
          | Read (width, r) ->
            let spec = Spec_dom.reads (D.values (fresh ()) r) ~width in
            Alcotest.check values (pp_dom_op op ^ " = fresh")
              (D.read_alternatives (fresh ()) ~width r)
              (D.read_alternatives live ~width r);
            Alcotest.check values (pp_dom_op op ^ " = spec") spec
              (D.read_alternatives live ~width r)
          | Scan (width, cap, off, len, own) ->
            let q = (width, cap, off, len, own) in
            let f = fresh () in
            let spec =
              Spec_dom.scan (fun i -> D.values f (off + i)) ~width ~cap
                ~just_wrote:(Option.map vi own) ~len
            in
            let got = scan live q in
            Alcotest.check views (pp_dom_op op ^ " = fresh") (scan f q) got;
            Alcotest.check views (pp_dom_op op ^ " = spec") spec got;
            List.iter (fun a -> Array.fill a 0 (Array.length a) (vi 99)) got;
            Alcotest.check views (pp_dom_op op ^ " after mutation") spec (scan live q);
            (* the same range once more, without the caller's own write *)
            let solo = (width, cap, off, len, None) in
            Alcotest.check views (pp_dom_op op ^ " without own") (scan (fresh ()) solo)
              (scan live solo))
        ops;
      let f = fresh () in
      List.for_all
        (fun r ->
          List.equal V.equal (D.values f r) (D.values live r)
          && V.equal (D.latest f r) (D.latest live r)
          && D.cardinal f r = D.cardinal live r)
        (List.init (registers + 2) (fun r -> r - 1))
      && D.version f = D.version live
      && D.widened f = D.widened live)

(* ================================================================== *)
(* The dataflow engine: IR, analyses, flow lints, optimizer, and the
   conditional-independence relation (lib/analyze ISSUE 9 surface). *)

module Ir = Analyze.Ir
module DF = Analyze.Dataflow

let parse_ok s =
  match Ir.parse s with
  | Ok p -> p
  | Error msg -> Alcotest.failf "parse %S: %s" s msg

let ir_parse_roundtrip () =
  List.iter
    (fun s -> Alcotest.(check string) s s (Ir.to_string (parse_ok s)))
    [
      "r2 n2 : R0; W1<-in; D last";
      "r3 n3 : W0<-7; L2[W1<-7; R0]; D last";
      "r4 n2 : S1+2; L3[R2; W3<-last]; W0<-5; D 9";
    ];
  List.iter
    (fun s ->
      match Ir.parse s with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "parse accepted %S" s)
    [ ""; "r2 n2 : R0; garbage"; "r2 n2 R0"; "r2 n2 : W0<-; D last" ]

let ir_cfg_shape () =
  let cfg = Ir.cfg_of_prog (parse_ok "r2 n1 : R0; L2[W1<-last; R1]; D last") in
  (* points: 0 R0, 1 W1, 2 R1, 3 D.  The loop's last point branches
     back to its entry and forward to the decide; the decide is
     terminal. *)
  Alcotest.(check int) "points" 4 (Array.length cfg.Ir.points);
  Alcotest.(check (list int))
    "loop backedge + exit" [ 1; 3 ]
    (List.sort compare cfg.Ir.points.(2).Ir.succs);
  Alcotest.(check (list int)) "decide terminal" [] cfg.Ir.points.(3).Ir.succs;
  Alcotest.(check bool) "all reachable" true
    (Array.for_all Fun.id cfg.Ir.reachable);
  let cfg2 = Ir.cfg_of_prog (parse_ok "r2 n1 : D 1; W0<-2") in
  Alcotest.(check bool) "code after a decide is unreachable" false
    cfg2.Ir.reachable.(1)

let dataflow_const_dead_folded () =
  let d = DF.analyze (parse_ok "r3 n2 : W0<-7; W2<-9; R0; D last") in
  Alcotest.(check (list int)) "dead" [ 2 ] (DF.dead_regs d);
  Alcotest.(check bool) "not widened" false d.DF.widened;
  (match List.assoc_opt 0 (DF.const_regs d) with
  | Some v -> Alcotest.(check bool) "R0 const 7" true (V.equal v (vi 7))
  | None -> Alcotest.fail "R0 not reported constant");
  (* the decide (point 3) reads [last] straight off the constant R0 *)
  (match DF.folded_value d 3 with
  | Some v -> Alcotest.(check bool) "decide folds to 7" true (V.equal v (vi 7))
  | None -> Alcotest.fail "decide did not fold");
  let d2 = DF.analyze (parse_ok "r2 n2 : W0<-in; R0; D last") in
  Alcotest.(check bool) "input-fed register not constant" true
    (List.assoc_opt 0 (DF.const_regs d2) = None)

let dataflow_redundant () =
  (* the first read's observation is overwritten before any use *)
  let d = DF.analyze (parse_ok "r2 n2 : R0; R1; D last") in
  Alcotest.(check (list int)) "clobbered read" [ 0 ] (DF.redundant_points d);
  let d2 = DF.analyze (parse_ok "r2 n2 : R0; W1<-last; R1; D last") in
  Alcotest.(check (list int)) "consumed reads kept" []
    (DF.redundant_points d2)

let flow_lint_rules () =
  let d = DF.analyze (parse_ok "r3 n2 : W1<-5; R0; R0; D last") in
  let diags = Analyze.Lint.flow d in
  let rules =
    List.map (fun (dg : Analyze.Lint.diag) -> dg.Analyze.Lint.rule) diags
  in
  List.iter
    (fun r -> Alcotest.(check bool) r true (List.mem r rules))
    [
      "flow/dead-register-write";
      "flow/redundant-scan";
      "flow/constant-register";
    ];
  List.iter
    (fun (dg : Analyze.Lint.diag) ->
      Alcotest.(check bool)
        (dg.Analyze.Lint.rule ^ ": non-empty witness")
        true
        (dg.Analyze.Lint.witness <> []))
    diags;
  let clean = DF.analyze (parse_ok "r1 n2 : W0<-in; R0; D last") in
  Alcotest.(check int) "clean protocol" 0 (List.length (Analyze.Lint.flow clean))

let optim_rewrites () =
  let module Opt = Analyze.Optim in
  let r = Opt.optimize (parse_ok "r3 n2 : W2<-9; W0<-4; R0; D last") in
  Alcotest.(check string) "fully folded" "r3 n2 : D 4"
    (Ir.to_string r.Opt.optimized);
  Alcotest.(check bool) "some fold" true (r.Opt.folded >= 1);
  Alcotest.(check bool) "some drop" true (r.Opt.dropped >= 1);
  let id = Opt.optimize (parse_ok "r1 n2 : W0<-in; R0; D last") in
  Alcotest.(check string) "already-optimal program unchanged"
    "r1 n2 : W0<-in; R0; D last"
    (Ir.to_string id.Opt.optimized);
  Alcotest.(check int) "no iterations" 0 id.Opt.iterations

let sarif_document () =
  let d = DF.analyze (parse_ok "r3 n2 : W1<-5; R0; R0; D last") in
  let results = List.map (fun dg -> ("protocol:test", dg)) (Analyze.Lint.flow d) in
  let s = Analyze.Sarif.to_string ~tool_version:"test" results in
  List.iter
    (fun needle ->
      Alcotest.(check bool) needle true (contains_substring s needle))
    [
      "2.1.0";
      "sa_run-analyze";
      "flow/dead-register-write";
      "codeFlows";
      "artifactLocation";
      "protocol:test";
    ]

let refinement_units () =
  let t = Alcotest.(check bool) in
  let refine = Spec.Modelcheck.cond_independent in
  let mem = Shm.Memory.write (Shm.Memory.create 3) 0 (vi 3) in
  t "equal writes commute" true
    (refine mem (P.Write (1, vi 9)) (P.Write (1, vi 9)));
  t "unequal writes do not" false
    (refine mem (P.Write (1, vi 9)) (P.Write (1, vi 8)));
  t "different registers are footprint territory" false
    (refine mem (P.Write (0, vi 3)) (P.Write (1, vi 3)));
  t "no-op write vs read" true (refine mem (P.Write (0, vi 3)) (P.Read 0));
  t "symmetric" true (refine mem (P.Read 0) (P.Write (0, vi 3)));
  t "changing write vs read" false
    (refine mem (P.Write (0, vi 4)) (P.Read 0));
  t "no-op write vs covering scan" true
    (refine mem (P.Write (0, vi 3)) (P.Scan (0, 2)));
  t "no-op write vs non-covering scan" false
    (refine mem (P.Write (0, vi 3)) (P.Scan (1, 2)));
  (* the pairs a constant register's writes form: equal stores commute
     by the equal-write rule alone, mismatched ones never do *)
  t "certified writes commute" true
    (refine mem (P.Write (2, vi 6)) (P.Write (2, vi 6)));
  t "certificate mismatch rejected" false
    (refine mem (P.Write (2, vi 5)) (P.Write (2, vi 6)))

let indep_facts_of_prog () =
  let d = DF.analyze (parse_ok "r3 n3 : W0<-3; W2<-8; L3[W0<-3; R0]; D last") in
  Alcotest.(check bool) "R0 certified constant" true
    (match List.assoc_opt 0 (DF.const_regs d) with
    | Some v -> V.equal v (vi 3)
    | None -> false);
  Alcotest.(check (list int)) "dead register" [ 2 ] (DF.dead_regs d);
  Alcotest.(check bool) "not widened" false d.DF.widened

(* ~refine:true end-to-end: identical verdict, strictly fewer states
   on a protocol whose writes are all no-ops after the first. *)
let dpor_refine_prunes () =
  let prog = parse_ok "r2 n3 : W0<-3; L3[W0<-3; R0]; D last" in
  let check c =
    match Spec.Properties.agreement_errors ~k:1 c with
    | [] -> Ok ()
    | e :: _ -> Error e
  in
  let run refine =
    Spec.Modelcheck.run
      ~engine:(Spec.Modelcheck.Dpor { cache = true; jobs = 1 })
      ~depth:10 ~inputs:Agreement.Runner.proto_inputs ~refine ~check
      (Shm.Vm.config prog)
  in
  let base = run false and refined = run true in
  (match (base, refined) with
  | Spec.Modelcheck.Ok_bounded _, Spec.Modelcheck.Ok_bounded _ -> ()
  | _ -> Alcotest.fail "verdicts diverged (or a counterexample appeared)");
  let explored o = (Spec.Modelcheck.stats_of o).Spec.Modelcheck.explored in
  Alcotest.(check bool)
    (Fmt.str "refined explores fewer states (%d < %d)" (explored refined)
       (explored base))
    true
    (explored refined < explored base)

(* The soundness property behind the sleep-set refinement: whenever
   [Spec.Modelcheck.cond_independent] accepts a pair of poised ops, executing them in
   either order yields configurations with identical canonical
   representations ([Statehash.repr]: memory dump + per-process
   observation digests + instances + io) — on both memory backends.
   States are drawn by walking a generated schedule. *)
let prop_refine_commutes =
  let print (p, s) =
    Fmt.str "%s | %s" (Analyze.Ir.to_string p) (Fuzz.Gen.schedule_to_string s)
  in
  let gen =
    QCheck.Gen.map
      (fun seed ->
        let rng = Shm.Rng.create seed in
        let p = Fuzz.Gen.generate rng in
        (p, Fuzz.Gen.gen_schedule rng ~n:p.Shm.Vm.n))
      QCheck.Gen.(0 -- 1_000_000)
  in
  QCheck.Test.make ~count:60
    ~name:"statically-independent enabled pairs commute (both backends)"
    (QCheck.make ~print gen)
    (fun (p, sched) ->
      let refine = Spec.Modelcheck.cond_independent in
      let diamonds_ok config =
        let n = Shm.Config.n config in
        let mem = Shm.Config.mem config in
        let ok = ref true in
        for a = 0 to n - 1 do
          for b = a + 1 to n - 1 do
            match
              ( P.poised_op (Shm.Config.proc config a),
                P.poised_op (Shm.Config.proc config b) )
            with
            | Some oa, Some ob when refine mem oa ob ->
              let run order =
                let base = Shm.Config.unshare config in
                List.fold_left
                  (fun (c, h) pid ->
                    let c', ev = Shm.Config.step c pid in
                    (c', Spec.Statehash.record h ~before:c c' ev))
                  (base, Spec.Statehash.create ~audit:true base)
                  order
              in
              let c1, h1 = run [ a; b ] and c2, h2 = run [ b; a ] in
              if
                not
                  (String.equal
                     (Spec.Statehash.repr h1 c1)
                     (Spec.Statehash.repr h2 c2))
              then ok := false
            | _ -> ()
          done
        done;
        !ok
      in
      List.for_all
        (fun backend ->
          let rec walk config = function
            | [] -> true
            | pid :: rest ->
              diamonds_ok config
              && walk
                   (Spec.Counterex.step_pid ~inputs:Agreement.Runner.proto_inputs
                      config pid)
                   rest
          in
          walk (Shm.Vm.config ~backend p) sched)
        [ Shm.Memory.Persistent; Shm.Memory.Journaled ])

(* The acceptance sweeps: the optimizer's simulation oracle and the
   independence-soundness oracle stay silent on ≥ 100 generated
   protocols, deterministically under SA_TEST_SEED. *)
let oracle_sweep kind count () =
  let rng = Shm.Rng.create base_seed in
  for i = 1 to count do
    let p = Fuzz.Gen.generate rng in
    let s = Fuzz.Gen.gen_schedule rng ~n:p.Shm.Vm.n in
    match Fuzz.Oracle.check kind p s with
    | None -> ()
    | Some msg ->
      Alcotest.failf "divergence at protocol %d: %s@.%s | %s" i msg
        (Analyze.Ir.to_string p)
        (Fuzz.Gen.schedule_to_string s)
  done

let suite =
  [
    test "abstract stepping hooks" hooks_feed;
    test "footprint, dead registers, witnesses" absint_footprint_and_dead;
    test "cross-process value flow" absint_cross_process_flow;
    test "lint: write-after-decide" lint_write_after_decide;
    test "lint: scan out of bounds" lint_oob_scan;
    test "lint: write out of bounds" lint_oob_write;
    test "lint: unbounded solo loop" lint_unbounded_solo;
    test "lint: honest program is clean" lint_clean_on_honest_program;
    test "anonymity: Figure 5 passes" anonymity_fig5_passes;
    test "anonymity: Figure 3 is id-dependent (hence exempt)"
      anonymity_fig3_would_fail;
    test "anonymity: clipped witness text" anonymity_clipped_witness;
    test "registry: four entries, bounds bound" registry_has_four_entries;
    test "registry: dynamic measure = written registers of the event stream"
      measure_dynamic_matches_event_stream;
    test "registry: dynamic measure stops early (Gc-pinned)"
      measure_dynamic_allocation;
    test "absint: step allocation independent of written value size"
      absint_step_allocation_independent_of_value_size;
    test "absint: first-write paths stay unrendered (Gc-pinned)"
      absint_write_witness_allocation_independent_of_registers;
    test "lint: solo allocation independent of written value size (Gc-pinned)"
      lint_solo_allocation_independent_of_value_size;
    test "witness paths render in chronological order"
      absint_witness_rendering_order;
    test "sweep: small grid green" sweep_small_grid_green;
    test "sweep: three containments" sweep_checks_three_containments;
    test "mutant: oob write rejected with witness" mutant_oob_rejected_with_witness;
    test "mutant: oob write dynamically silent" mutant_oob_dynamically_silent;
    test "mutant: pid leak rejected with witness"
      mutant_pid_leak_rejected_with_witness;
    to_alcotest prop_static_footprint_sound;
    to_alcotest prop_absdom_cache_differential;
    test "ir: parse/print round-trip and errors" ir_parse_roundtrip;
    test "ir: cfg shape (backedge, terminal decide)" ir_cfg_shape;
    test "dataflow: constants, dead registers, folding"
      dataflow_const_dead_folded;
    test "dataflow: redundant observations" dataflow_redundant;
    test "lint: flow/* rules fire with witnesses" flow_lint_rules;
    test "optimizer: folds, drops, optimal fixpoint" optim_rewrites;
    test "sarif: well-formed 2.1.0 document" sarif_document;
    test "indep: refinement unit rules" refinement_units;
    test "indep: facts from a protocol" indep_facts_of_prog;
    test "dpor: static independence prunes, verdict unchanged"
      dpor_refine_prunes;
    test "oracle: optimizer equivalence on 120 protocols"
      (oracle_sweep Fuzz.Oracle.Optim 120);
    test "oracle: independence soundness on 120 protocols"
      (oracle_sweep Fuzz.Oracle.Indep 120);
    to_alcotest prop_refine_commutes;
  ]
