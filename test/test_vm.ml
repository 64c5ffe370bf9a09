(* Bytecode engine (Shm.Vm): compile-time rejection of ill-formed
   protocols, the run comparison [Vm.diff] itself, lowering edge cases
   pinned against the interpreter, the QCheck vm-vs-interpreter
   equivalence property on both memory backends, the state-derived
   exploration key, and front-door verdict agreement between
   [Modelcheck.run] and [Modelcheck.run_vm].

   The equivalence contract is [Vm.diff], the one the fuzzer's vm
   oracle uses; this suite additionally pins the interpreter side to
   an explicit memory backend, covering Persistent and Journaled
   separately. *)

open Shm
open Helpers
module G = Fuzz.Gen
module Runner = Agreement.Runner

(* Run both engines on [p] under the same replayed schedule and report
   the first divergence. *)
let equiv_diff ?backend (p : G.program) sched =
  let run engine =
    Runner.run_proto ~engine ?backend ~record:true
      ~max_steps:(List.length sched + 1)
      ~sched:(Schedule.replay ~n:p.G.n sched)
      p
  in
  Vm.diff (run Runner.Interp) (run Runner.Vm)

(* Enough round-robin steps to drive any of the small edge-case protos
   (plus its invocations) to quiescence. *)
let rr_sched n = List.init (n * 40) (fun i -> i mod n)

(* ------------------------------------------------------------------ *)
(* (a) Compile-time rejection *)

(* [Vm.validate] and [Vm.compile] reject the same protocols *)
let expect_invalid what (p : G.program) =
  if Vm.validate p = Ok () then Alcotest.failf "%s: validate accepted it" what;
  match Vm.compile p with
  | _ -> Alcotest.failf "%s: compile accepted an ill-formed protocol" what
  | exception Invalid_argument _ -> ()

let test_compile_rejects () =
  expect_invalid "write out of bounds"
    Vm.{ registers = 2; n = 2; steps = [ Write (2, Input) ] };
  expect_invalid "read out of bounds"
    Vm.{ registers = 1; n = 2; steps = [ Read 3; Decide Last ] };
  expect_invalid "negative register in loop body"
    Vm.{ registers = 2; n = 2; steps = [ Loop (2, [ Read (-1) ]) ] };
  expect_invalid "scan overflowing the register file"
    Vm.{ registers = 2; n = 2; steps = [ Scan (1, 2); Decide Last ] };
  expect_invalid "negative scan offset"
    Vm.{ registers = 2; n = 2; steps = [ Scan (-1, 1) ] };
  expect_invalid "negative loop count"
    Vm.{ registers = 1; n = 2; steps = [ Loop (-1, []); Decide Input ] };
  expect_invalid "out-of-bounds register in a dead loop body"
    Vm.{ registers = 1; n = 2; steps = [ Loop (0, [ Write (5, Input) ]) ] };
  expect_invalid "no processes" Vm.{ registers = 1; n = 0; steps = [ Decide Input ] };
  expect_invalid "negative register count"
    Vm.{ registers = -1; n = 2; steps = [ Decide Input ] }

(* ------------------------------------------------------------------ *)
(* (b) The run comparison: [Vm.diff] names the first field that
   differs, and compares i/o records as multisets *)

let test_diff_names_field () =
  let p =
    Vm.{ registers = 2; n = 2; steps = [ Write (0, Input); Read 1; Decide Last ] }
  in
  let base = Runner.run_proto ~record:true p in
  let f = base.Vm.final in
  let with_final f = { base with Vm.final = f } in
  let cases =
    [
      ("steps", { base with Vm.steps = base.Vm.steps + 1 });
      ("stop reasons", { base with Vm.stopped = Exec.Fuel_exhausted });
      ("trace lengths", { base with Vm.trace = List.tl base.Vm.trace });
      ("trace[0]", { base with Vm.trace = List.rev base.Vm.trace });
      ("final memories", with_final { f with Vm.memory = Array.map (fun _ -> vi 99) f.memory });
      ("written sets", with_final { f with Vm.written = [] });
      ("num_written", with_final { f with Vm.num_written = f.Vm.num_written + 1 });
      ("write_count", with_final { f with Vm.write_count = f.Vm.write_count + 1 });
      ("read_count", with_final { f with Vm.read_count = f.Vm.read_count + 1 });
      ("invocation records", with_final { f with Vm.inputs = List.tl f.Vm.inputs });
      ("output records", with_final { f with Vm.outputs = [] });
    ]
  in
  List.iter
    (fun (field, perturbed) ->
      match Vm.diff base perturbed with
      | Some d when String.starts_with ~prefix:field d -> ()
      | Some d -> Alcotest.failf "perturbed %s, diff reported %S" field d
      | None -> Alcotest.failf "perturbed %s, diff reported nothing" field)
    cases;
  Alcotest.(check (option string)) "a run equals itself" None (Vm.diff base base);
  Alcotest.(check int) "two inputs to permute" 2 (List.length f.Vm.inputs);
  let permuted =
    with_final { f with Vm.inputs = List.rev f.Vm.inputs; outputs = List.rev f.Vm.outputs }
  in
  Alcotest.(check (option string)) "i/o records are multisets" None (Vm.diff base permuted)

(* ------------------------------------------------------------------ *)
(* (c) Lowering edge cases, pinned against the interpreter *)

(* Each proto isolates one corner of the lowering: transparent control
   instructions, dead code after a mid-list decide, zero-length scans,
   ⊥ propagation before any read, and side-table interning for
   constants that do not fit the tagged even-code encoding. *)
let edge_protos =
  [
    ("empty step list", Vm.{ registers = 1; n = 2; steps = [] });
    ( "loop count zero skips its body",
      Vm.{ registers = 2; n = 2; steps = [ Loop (0, [ Write (0, Const 1) ]); Decide Input ] } );
    ( "loop with empty body",
      Vm.{ registers = 1; n = 2; steps = [ Loop (3, []); Decide Input ] } );
    ( "nested loops multiply",
      Vm.
        {
          registers = 3;
          n = 2;
          steps =
            [
              Loop (2, [ Write (0, Const 1); Loop (3, [ Write (1, Last); Read 0 ]) ]);
              Decide Last;
            ];
        } );
    ( "zero-length scan",
      Vm.{ registers = 2; n = 2; steps = [ Scan (0, 0); Decide Last ] } );
    ( "dead code after a mid-list decide",
      Vm.{ registers = 2; n = 3; steps = [ Decide Input; Write (0, Const 9); Read 0 ] } );
    ( "write of last before any read is bottom",
      Vm.{ registers = 2; n = 2; steps = [ Write (1, Last); Decide Last ] } );
    ( "constants outside the tagged range intern",
      Vm.
        {
          registers = 2;
          n = 2;
          steps =
            [ Write (0, Const min_int); Read 0; Write (1, Const max_int); Decide Last ];
        } );
    ( "no trailing decide halts without output",
      Vm.{ registers = 2; n = 2; steps = [ Write (0, Input); Read 0 ] } );
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
(* (d) QCheck equivalence on random protocols, both memory backends *)

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
        QCheck.Test.fail_reportf "vm diverges on %s / %s: %s" (Analyze.Ir.to_string p)
          (G.schedule_to_string sched) d)

(* ------------------------------------------------------------------ *)
(* (e) The state-derived exploration key *)

(* Determinism: replaying one schedule from two fresh slices lands on
   bit-identical keys (the summands are pure functions of the state). *)
let test_key_deterministic seed =
  let rng = Rng.create seed in
  for _ = 1 to 25 do
    let p = G.generate rng in
    let sched = G.gen_schedule rng ~n:p.G.n in
    let e = Vm.env (Vm.compile p) ~inputs:Runner.proto_inputs in
    let drive () =
      let st = Vm.make_state e in
      let _ =
        Vm.drive e st 0 ~sched:(Schedule.replay ~n:p.G.n sched)
          ~max_steps:(List.length sched + 1)
      in
      (Vm.key e st 0, Vm.key_hash e st 0)
    in
    let (ka, ha) = drive () and (kb, hb) = drive () in
    if ka <> kb || ha <> hb then
      Alcotest.failf "key not deterministic on %s / %s" (Analyze.Ir.to_string p)
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
    Vm.{ registers = 2; n = 3; steps = [ Write (0, Const 5); Read 0; Decide Last ] }
  in
  let e = Vm.env (Vm.compile p) ~inputs:Runner.proto_inputs in
  let run_key sched =
    let st = Vm.make_state e in
    let _ = Vm.drive e st 0 ~sched:(Schedule.replay ~n:p.G.n sched) ~max_steps:1_000 in
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
(* (f) Front-door verdict agreement: Modelcheck.run vs run_vm *)

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
        Spec.Modelcheck.run ~engine ~depth:5 ~inputs:Runner.proto_inputs
          ~check:(Spec.Properties.check_safety ~k:1)
          (Shm.Vm.config p)
      in
      let vm jobs =
        Spec.Modelcheck.run_vm ~engine:(Spec.Modelcheck.Dpor { cache = true; jobs })
          ~depth:5 ~inputs:Runner.proto_inputs
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
          (Analyze.Ir.to_string p) (show interp) (show vm1) (show vm4))

(* ------------------------------------------------------------------ *)

let suite =
  [
    test "compile rejects ill-formed protocols" test_compile_rejects;
    test "diff names the first differing field" test_diff_names_field;
    test "lowering edge cases match the interpreter" test_lowering_edges;
    test "truncated schedules match step-for-step" test_lowering_truncated;
    qcheck_to_alcotest (equivalence_property Memory.Persistent);
    qcheck_to_alcotest (equivalence_property Memory.Journaled);
    seeded_test "state key is deterministic" test_key_deterministic;
    seeded_test "state key converges on equal states" test_key_converges;
    qcheck_to_alcotest verdict_property;
  ]
