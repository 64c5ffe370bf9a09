(* Bytecode engine (Shm.Vm): compile-time rejection of ill-formed
   protocols, lowering edge cases pinned against the interpreter, the
   QCheck vm-vs-interpreter equivalence property on both memory
   backends, the state-derived exploration key, and front-door verdict
   agreement between [Modelcheck.run] and [Modelcheck.run_vm].

   The equivalence comparison deliberately mirrors the fuzzer's vm
   oracle (lib/fuzz/oracle.ml, section g) so a property failure here
   and a fuzz divergence there describe the same contract — but this
   copy additionally pins the interpreter side to an explicit memory
   backend, covering Persistent and Journaled separately. *)

open Shm
open Helpers
module G = Fuzz.Gen
module V = Value
module IntSet = Set.Make (Int)

(* ------------------------------------------------------------------ *)
(* Shared comparison machinery (the oracle's contract, verbatim shape) *)

let event_equal (a : Event.t) (b : Event.t) =
  match (a, b) with
  | Invoke a, Invoke b ->
    a.pid = b.pid && a.instance = b.instance && V.equal a.input b.input
  | Did_read a, Did_read b -> a.pid = b.pid && a.reg = b.reg && V.equal a.value b.value
  | Did_write a, Did_write b -> a.pid = b.pid && a.reg = b.reg && V.equal a.value b.value
  | Did_scan a, Did_scan b -> a.pid = b.pid && a.off = b.off && a.len = b.len
  | Output a, Output b ->
    a.pid = b.pid && a.instance = b.instance && V.equal a.value b.value
  | _ -> false

let trace_diff ta tb =
  if List.length ta <> List.length tb then
    Some (Fmt.str "trace lengths %d vs %d" (List.length ta) (List.length tb))
  else
    List.find_mapi
      (fun i (a, b) ->
        if event_equal a b then None
        else Some (Fmt.str "trace[%d]: %a vs %a" i Event.pp a Event.pp b))
      (List.combine ta tb)

let triple_compare (p1, i1, v1) (p2, i2, v2) =
  match compare (p1 : int) p2 with
  | 0 -> ( match compare (i1 : int) i2 with 0 -> V.compare v1 v2 | c -> c)
  | c -> c

let io_multiset_equal a b =
  let sa = List.sort triple_compare a and sb = List.sort triple_compare b in
  List.length sa = List.length sb
  && List.for_all2
       (fun (p1, i1, v1) (p2, i2, v2) -> p1 = p2 && i1 = i2 && V.equal v1 v2)
       sa sb

(* Replay a pid list as a scheduler, skipping out-of-range or
   unrunnable entries — the interpreter's [Gen.run] applies the same
   skipping rule, so both engines consume the schedule identically. *)
let cursor_schedule (p : G.program) sched =
  let cursor = ref sched in
  {
    Schedule.name = "vm-test-replay";
    next =
      (fun ~step:_ ~runnable ->
        let rec pick () =
          match !cursor with
          | [] -> None
          | pid :: tl ->
            cursor := tl;
            if pid >= 0 && pid < p.G.n && runnable pid then Some pid else pick ()
        in
        pick ());
  }

let final_scan (res : Exec.result) =
  let mem = Config.mem res.Exec.config in
  Memory.scan mem ~off:0 ~len:(Memory.size mem)

(* Run both engines on [p]/[sched] and report the first divergence:
   step count, stop reason, chronological trace, final memory, written
   set, space/step counters, and the i/o records as multisets. *)
let equiv_diff ?backend (p : G.program) sched =
  let ri = G.run ?backend p sched in
  let e = Vm.env (Vm.compile p) ~inputs:G.inputs in
  let rv =
    Vm.run ~record:true ~max_steps:(List.length sched + 1) ~sched:(cursor_schedule p sched)
      e
  in
  let f = rv.Vm.final in
  let mem = Config.mem ri.Exec.config in
  if ri.Exec.steps <> rv.Vm.steps then
    Some (Fmt.str "steps %d vs %d" ri.Exec.steps rv.Vm.steps)
  else if ri.Exec.stopped <> rv.Vm.stopped then Some "stop reasons differ"
  else
    match trace_diff ri.Exec.trace rv.Vm.trace with
    | Some d -> Some d
    | None ->
      let si = final_scan ri in
      if
        Array.length si <> Array.length f.Vm.memory
        || not (Array.for_all2 V.equal si f.Vm.memory)
      then Some "final memories differ"
      else if not (IntSet.equal (Memory.written_set mem) (IntSet.of_list f.Vm.written))
      then Some "written sets differ"
      else if Memory.num_written mem <> f.Vm.num_written then
        Some
          (Fmt.str "num_written %d vs %d" (Memory.num_written mem) f.Vm.num_written)
      else if Memory.write_count mem <> f.Vm.write_count then
        Some
          (Fmt.str "write_count %d vs %d" (Memory.write_count mem) f.Vm.write_count)
      else if Memory.read_count mem <> f.Vm.read_count then
        Some (Fmt.str "read_count %d vs %d" (Memory.read_count mem) f.Vm.read_count)
      else if not (io_multiset_equal (Config.inputs ri.Exec.config) f.Vm.inputs) then
        Some "invocation records differ"
      else if not (io_multiset_equal (Config.outputs ri.Exec.config) f.Vm.outputs) then
        Some "output records differ"
      else None

let assert_equiv ?backend p sched =
  match equiv_diff ?backend p sched with
  | None -> ()
  | Some d ->
    Alcotest.failf "vm diverges from interpreter on %s / %s: %s" (G.to_string p)
      (G.schedule_to_string sched) d

(* Enough round-robin steps to drive any of the small edge-case protos
   (plus its invocations) to quiescence. *)
let rr_sched n = List.init (n * 40) (fun i -> i mod n)

(* ------------------------------------------------------------------ *)
(* (a) Compile-time rejection *)

let expect_invalid what (p : G.program) =
  match Vm.compile p with
  | _ -> Alcotest.failf "%s: compile accepted an ill-formed protocol" what
  | exception Invalid_argument _ -> ()

let test_compile_rejects () =
  expect_invalid "write out of bounds"
    { G.registers = 2; n = 2; steps = [ G.Write (2, G.Input) ] };
  expect_invalid "read out of bounds"
    { G.registers = 1; n = 2; steps = [ G.Read 3; G.Decide G.Last ] };
  expect_invalid "negative register in loop body"
    { G.registers = 2; n = 2; steps = [ G.Loop (2, [ G.Read (-1) ]) ] };
  expect_invalid "scan overflowing the register file"
    { G.registers = 2; n = 2; steps = [ G.Scan (1, 2); G.Decide G.Last ] };
  expect_invalid "negative scan offset"
    { G.registers = 2; n = 2; steps = [ G.Scan (-1, 1) ] };
  expect_invalid "negative loop count"
    { G.registers = 1; n = 2; steps = [ G.Loop (-1, []); G.Decide G.Input ] };
  expect_invalid "no processes" { G.registers = 1; n = 0; steps = [ G.Decide G.Input ] };
  expect_invalid "negative register count"
    { G.registers = -1; n = 2; steps = [ G.Decide G.Input ] }

(* ------------------------------------------------------------------ *)
(* (b) Lowering edge cases, pinned against the interpreter *)

(* Each proto isolates one corner of the lowering: transparent control
   instructions, dead code after a mid-list decide, zero-length scans,
   ⊥ propagation before any read, and side-table interning for
   constants that do not fit the tagged even-code encoding. *)
let edge_protos =
  [
    ("empty step list", { G.registers = 1; n = 2; steps = [] });
    ( "loop count zero skips its body",
      { G.registers = 2; n = 2; steps = [ G.Loop (0, [ G.Write (0, G.Const 1) ]); G.Decide G.Input ] }
    );
    ( "loop with empty body",
      { G.registers = 1; n = 2; steps = [ G.Loop (3, []); G.Decide G.Input ] } );
    ( "nested loops multiply",
      {
        G.registers = 3;
        n = 2;
        steps =
          [
            G.Loop (2, [ G.Write (0, G.Const 1); G.Loop (3, [ G.Write (1, G.Last); G.Read 0 ]) ]);
            G.Decide G.Last;
          ];
      } );
    ( "zero-length scan",
      { G.registers = 2; n = 2; steps = [ G.Scan (0, 0); G.Decide G.Last ] } );
    ( "dead code after a mid-list decide",
      {
        G.registers = 2;
        n = 3;
        steps = [ G.Decide G.Input; G.Write (0, G.Const 9); G.Read 0 ];
      } );
    ( "write of last before any read is bottom",
      { G.registers = 2; n = 2; steps = [ G.Write (1, G.Last); G.Decide G.Last ] } );
    ( "constants outside the tagged range intern",
      {
        G.registers = 2;
        n = 2;
        steps =
          [
            G.Write (0, G.Const min_int);
            G.Read 0;
            G.Write (1, G.Const max_int);
            G.Decide G.Last;
          ];
      } );
    ( "no trailing decide halts without output",
      { G.registers = 2; n = 2; steps = [ G.Write (0, G.Input); G.Read 0 ] } );
  ]

let test_lowering_edges () =
  List.iter
    (fun (what, p) ->
      match equiv_diff p (rr_sched p.G.n) with
      | None -> ()
      | Some d -> Alcotest.failf "%s: %s" what d)
    edge_protos

(* Truncated schedules must also agree step-for-step (the vm stops
   mid-protocol with the same partial trace and counters). *)
let test_lowering_truncated () =
  List.iter
    (fun (what, p) ->
      List.iter
        (fun len ->
          match equiv_diff p (List.init len (fun i -> i mod p.G.n)) with
          | None -> ()
          | Some d -> Alcotest.failf "%s (schedule length %d): %s" what len d)
        [ 0; 1; 2; 3; 5 ])
    edge_protos

(* ------------------------------------------------------------------ *)
(* (c) QCheck equivalence on random protocols, both memory backends *)

let equivalence_property backend =
  QCheck.Test.make ~count:150
    ~name:(Fmt.str "vm = interpreter on random protocols (%s)" (Memory.backend_name backend))
    QCheck.(make Gen.int)
    (fun seed ->
      let rng = Rng.create seed in
      let p = G.generate rng in
      let sched = G.gen_schedule rng ~n:p.G.n in
      match equiv_diff ~backend p sched with
      | None -> true
      | Some d ->
        QCheck.Test.fail_reportf "vm diverges on %s / %s: %s" (G.to_string p)
          (G.schedule_to_string sched) d)

(* ------------------------------------------------------------------ *)
(* (d) The state-derived exploration key *)

(* Determinism: replaying one schedule from two fresh slices lands on
   bit-identical keys (the summands are pure functions of the state). *)
let test_key_deterministic seed =
  let rng = Rng.create seed in
  for _ = 1 to 25 do
    let p = G.generate rng in
    let sched = G.gen_schedule rng ~n:p.G.n in
    let e = Vm.env (Vm.compile p) ~inputs:G.inputs in
    let drive () =
      let st = Vm.make_state e in
      let _ =
        Vm.drive e st 0 ~sched:(cursor_schedule p sched)
          ~max_steps:(List.length sched + 1)
      in
      (Vm.key e st 0, Vm.key_hash e st 0)
    in
    let (ka, ha) = drive () and (kb, hb) = drive () in
    if ka <> kb || ha <> hb then
      Alcotest.failf "key not deterministic on %s / %s" (G.to_string p)
        (G.schedule_to_string sched)
  done

(* Convergence: the key hashes the state, not the path to it.  In this
   protocol every complete execution reaches the identical final state
   (each process's own write of the constant precedes its own read, so
   last = 5 regardless of interleaving) — so every complete schedule
   must produce the same key, which is exactly the collision the DPOR
   cache relies on to prune equivalent interleavings. *)
let test_key_converges seed =
  let p =
    { G.registers = 2; n = 3; steps = [ G.Write (0, G.Const 5); G.Read 0; G.Decide G.Last ] }
  in
  let e = Vm.env (Vm.compile p) ~inputs:G.inputs in
  let run_key sched =
    let st = Vm.make_state e in
    let _ = Vm.drive e st 0 ~sched:(cursor_schedule p sched) ~max_steps:1_000 in
    if not (Vm.quiescent e st 0) then Alcotest.fail "schedule did not quiesce";
    Vm.key e st 0
  in
  let reference = run_key (rr_sched p.G.n) in
  let rng = Rng.create seed in
  for _ = 1 to 50 do
    (* Random prefix, then a round-robin tail to force completion. *)
    let sched = G.gen_schedule rng ~n:p.G.n @ rr_sched p.G.n in
    let k = run_key sched in
    if k <> reference then
      Alcotest.fail "equal final states produced different keys"
  done;
  (* Sanity: the key does distinguish genuinely different states. *)
  let st = Vm.make_state e in
  if Vm.key e st 0 = reference then
    Alcotest.fail "initial and final states share a key"

(* ------------------------------------------------------------------ *)
(* (e) Front-door verdict agreement: Modelcheck.run vs run_vm *)

(* Counterexample schedules may legitimately differ (the engines cache
   and reduce differently), but the verdict — safe up to the bound, or
   some violation exists — is a property of the protocol and must
   match, on one domain and with work stealing over four.  Small sizes
   keep the exhaustive cost of 40 protocols low. *)
let small_sizes =
  { G.max_registers = 3; max_procs = 3; max_steps = 3; max_loop = 2; max_sched = 8 }

let verdict_property =
  QCheck.Test.make ~count:40 ~name:"Modelcheck.run and run_vm agree on the verdict"
    QCheck.(make Gen.int)
    (fun seed ->
      let rng = Rng.create seed in
      let p = G.generate ~sizes:small_sizes rng in
      let engine = Spec.Modelcheck.Dpor { cache = true; jobs = 1 } in
      let interp =
        Spec.Modelcheck.run ~engine ~depth:5 ~inputs:G.inputs
          ~check:(Spec.Properties.check_safety ~k:1)
          (G.config p)
      in
      let vm jobs =
        Spec.Modelcheck.run_vm ~engine:(Spec.Modelcheck.Dpor { cache = true; jobs })
          ~depth:5 ~inputs:G.inputs
          ~check:(Spec.Properties.check_safety_io ~k:1)
          p
      in
      let violated = function
        | Spec.Modelcheck.Ok_bounded _ -> false
        | Spec.Modelcheck.Counterexample _ -> true
      in
      let show o = if violated o then "violation" else "safe" in
      let vm1 = vm 1 and vm4 = vm 4 in
      if violated interp = violated vm1 && violated vm1 = violated vm4 then true
      else
        QCheck.Test.fail_reportf
          "verdicts differ on %s: interpreter %s, vm %s, vm on 4 domains %s"
          (G.to_string p) (show interp) (show vm1) (show vm4))

(* ------------------------------------------------------------------ *)

let suite =
  [
    test "compile rejects ill-formed protocols" test_compile_rejects;
    test "lowering edge cases match the interpreter" test_lowering_edges;
    test "truncated schedules match step-for-step" test_lowering_truncated;
    qcheck_to_alcotest (equivalence_property Memory.Persistent);
    qcheck_to_alcotest (equivalence_property Memory.Journaled);
    seeded_test "state key is deterministic" test_key_deterministic;
    seeded_test "state key converges on equal states" test_key_converges;
    qcheck_to_alcotest verdict_property;
  ]
