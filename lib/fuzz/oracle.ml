module V = Shm.Value
module L = Spec.Linearize

type kind = Analyzer | Backend | Linearize | Determinism | Indep | Optim | Vm

let all = [ Analyzer; Backend; Linearize; Determinism; Indep; Optim; Vm ]

let name = function
  | Analyzer -> "analyzer"
  | Backend -> "backend"
  | Linearize -> "linearize"
  | Determinism -> "determinism"
  | Indep -> "indep"
  | Optim -> "optim"
  | Vm -> "vm"

let of_string s =
  match String.lowercase_ascii s with
  | "analyzer" | "absint" -> Some Analyzer
  | "backend" | "memory" -> Some Backend
  | "linearize" | "lin" -> Some Linearize
  | "determinism" | "det" -> Some Determinism
  | "indep" | "independence" -> Some Indep
  | "optim" | "optimizer" -> Some Optim
  | "vm" | "bytecode" -> Some Vm
  | _ -> None

(* ------------------------------------------------------------------ *)
(* (a) Analyzer soundness: every dynamically written register is in the
   static write footprint.  Exhaustive budgets make the analysis exact
   on the generator's (unrolled, loop-free) programs; a truncated
   analysis carries no exactness claim, so it passes vacuously. *)

let analyzer p sched =
  let summary =
    Analyze.Absint.analyze
      ~budgets:
        (Analyze.Absint.exhaustive ~registers:p.Gen.registers ~n:p.Gen.n)
      (Shm.Vm.config p)
  in
  let truncated =
    Array.exists
      (fun (ps : Analyze.Absint.process_summary) -> ps.Analyze.Absint.truncated)
      summary.Analyze.Absint.per_process
  in
  if truncated then None
  else begin
    let res = Gen.run p sched in
    let dynamic =
      Shm.Memory.written_set (Shm.Config.mem res.Shm.Exec.config)
    in
    let static = summary.Analyze.Absint.writes in
    let escaped = Analyze.Absint.IntSet.(elements (diff dynamic static)) in
    match escaped with
    | [] -> None
    | rs ->
      Some
        (Fmt.str "dynamic write outside static footprint: R%a (static {%a})"
           Fmt.(list ~sep:(any ",R") int)
           rs
           Fmt.(list ~sep:(any ", ") int)
           (Analyze.Absint.IntSet.elements static))
  end

(* ------------------------------------------------------------------ *)
(* (b) Backend differential: persistent vs journaled *)

let safety_verdict config =
  match Spec.Properties.check_safety ~k:1 config with
  | Ok () -> "ok"
  | Error e -> "violation: " ^ e

(* [Shm.Vm.diff] on two interpreter runs, labelled *)
let diff_runs ~what ra rb =
  Option.map (Fmt.str "%s: %s" what) (Shm.Vm.diff (Shm.Vm.of_exec ra) (Shm.Vm.of_exec rb))

let backend p sched =
  let rp = Gen.run ~backend:Shm.Memory.Persistent p sched in
  let rj = Gen.run ~backend:Shm.Memory.Journaled p sched in
  match diff_runs ~what:"persistent vs journaled" rp rj with
  | Some d -> Some d
  | None ->
    let va = safety_verdict rp.Shm.Exec.config
    and vb = safety_verdict rj.Shm.Exec.config in
    if String.equal va vb then None
    else Some (Fmt.str "persistent vs journaled: safety verdicts differ (%s vs %s)" va vb)

(* ------------------------------------------------------------------ *)
(* (c) Linearize mode agreement: boolean and witness checkers must
   agree on every history — the run's own (sequential, hence
   linearizable) history, a deterministically corrupted copy, and the
   partial-history variants. *)

(* Reconstruct full-range scan views by replaying writes out of the
   trace; the step index is the clock (operations are atomic in the
   simulator, so intervals are points). *)
let history_of p (trace : Shm.Event.t list) =
  let mem = Array.make p.Gen.registers V.bot in
  let clock = ref 0 in
  List.filter_map
    (fun (ev : Shm.Event.t) ->
      incr clock;
      match ev with
      | Did_write { pid; reg; value } ->
        mem.(reg) <- value;
        Some
          {
            L.pid;
            op = L.Update { i = reg; v = value };
            start = !clock;
            finish = !clock;
          }
      | Did_scan { pid; off = 0; len } when len = p.Gen.registers ->
        Some
          {
            L.pid;
            op = L.Scan { view = Array.copy mem };
            start = !clock;
            finish = !clock;
          }
      | _ -> None)
    trace

let take k l = List.filteri (fun i _ -> i < k) l

let modes_agree ~components h =
  let b = L.check ~components h in
  let w = L.witness ~components h in
  match (b, w) with
  | true, None -> Some "check=true but witness=None"
  | false, Some _ -> Some "check=false but witness=Some"
  | _ -> None

let partial_modes_agree ~components ~pending completed =
  let b = L.check_partial ~components ~pending completed in
  let w = L.witness ~components ~pending completed in
  match (b, w) with
  | true, None -> Some "check_partial=true but witness=None"
  | false, Some _ -> Some "check_partial=false but witness=Some"
  | _ -> None

let corrupt rng h =
  List.map
    (fun (e : L.event) ->
      match e.L.op with
      | L.Scan { view } when Array.length view > 0 && Shm.Rng.int rng 3 = 0 ->
        let view = Array.copy view in
        view.(Shm.Rng.int rng (Array.length view)) <-
          V.int (Shm.Rng.int rng 7);
        { e with L.op = L.Scan { view } }
      | _ -> e)
    h

let linearize p sched =
  let res = Gen.run p sched in
  let h = take 12 (history_of p res.Shm.Exec.trace) in
  let components = p.Gen.registers in
  match modes_agree ~components h with
  | Some d -> Some ("own history: " ^ d)
  | None -> (
    (* corruption seed from the rendered input, not from hash-consing
       internals, so the judgement is replayable *)
    let rng =
      Shm.Rng.create
        (Hashtbl.hash (Analyze.Ir.to_string p, Gen.schedule_to_string sched))
    in
    match modes_agree ~components (corrupt rng h) with
    | Some d -> Some ("corrupted history: " ^ d)
    | None -> (
      match List.rev h with
      | [] -> None
      | last :: rev_completed ->
        let completed = List.rev rev_completed in
        let pending = [ { last with L.finish = max_int } ] in
        Option.map
          (fun d -> "partial history: " ^ d)
          (partial_modes_agree ~components ~pending completed)))

(* ------------------------------------------------------------------ *)
(* (d) Determinism: same input, same trace; unshare preserves the
   observable memory. *)

let determinism p sched =
  let r1 = Gen.run p sched in
  match diff_runs ~what:"run vs re-run" r1 (Gen.run p sched) with
  | Some d -> Some d
  | None ->
    let unshared = { r1 with Shm.Exec.config = Shm.Config.unshare r1.Shm.Exec.config } in
    diff_runs ~what:"unshare" r1 unshared

(* ------------------------------------------------------------------ *)
(* (e) Independence-refinement soundness: exploring with the run-time
   conditional-independence relation must reach the same verdict kind
   as the dynamic-footprint baseline.  The refinement only prunes
   redundant interleavings, so a violation exists under one arm iff it
   exists under the other (which counterexample is found first may
   differ). *)

let indep_depth = 6

let indep p _sched =
  let explore refine =
    Spec.Modelcheck.run
      ~engine:(Spec.Modelcheck.Dpor { cache = true; jobs = 1 })
      ~depth:indep_depth ~inputs:Agreement.Runner.proto_inputs ~refine
      ~check:(Spec.Properties.check_safety ~k:1)
      (Shm.Vm.config p)
  in
  let verdict = function
    | Spec.Modelcheck.Ok_bounded _ -> "ok"
    | Spec.Modelcheck.Counterexample { error; _ } -> "violation: " ^ error
  in
  match (explore false, explore true) with
  | Spec.Modelcheck.Ok_bounded base, Spec.Modelcheck.Ok_bounded refined ->
    (* pruning must never *grow* the state space *)
    if refined.Spec.Modelcheck.explored > base.Spec.Modelcheck.explored then
      Some
        (Fmt.str "refined arm explored more states (%d > %d)"
           refined.Spec.Modelcheck.explored base.Spec.Modelcheck.explored)
    else None
  | Spec.Modelcheck.Counterexample _, Spec.Modelcheck.Counterexample _ -> None
  | base, refined ->
    Some
      (Fmt.str "verdicts diverge: dynamic-only %s, with the refinement %s"
         (verdict base) (verdict refined))

(* ------------------------------------------------------------------ *)
(* (f) Optimizer simulation equivalence.  Dropping an op shifts later
   ops relative to a fixed schedule, so standalone per-schedule output
   equality is not the right statement.  The sound statement is
   simulation: run the original under the schedule, feed the optimized
   program the results of exactly the kept operations, and demand that
   its visible behaviour — operation shapes, registers, written
   values, outputs — is identical.  Folded ops must write the same
   value; dropped ops must be invisible (the optimized copy never
   expects them). *)

let optim p sched =
  let r = Analyze.Optim.optimize p in
  let mask = Array.of_list (Analyze.Optim.kept_mask r) in
  let n = p.Gen.n in
  let orig = ref (Shm.Vm.config p) in
  let opts = Array.init n (fun pid -> Shm.Vm.to_program r.Analyze.Optim.optimized ~pid) in
  let pos = Array.make n 0 in
  let err = ref None in
  let fail fmt = Fmt.kstr (fun s -> if !err = None then err := Some s) fmt in
  let feed pid next =
    match next with
    | Some prog -> opts.(pid) <- prog
    | None -> fail "p%d: optimized program rejected a fed result" pid
  in
  List.iter
    (fun pid ->
      if !err = None && pid >= 0 && pid < n then
        match Shm.Config.proc !orig pid with
        | Shm.Program.Stop -> ()
        | Shm.Program.Await _ -> (
          let inst = Shm.Config.instance !orig pid + 1 in
          match Agreement.Runner.proto_inputs ~pid ~instance:inst with
          | None -> ()
          | Some v ->
            let c, _ = Shm.Config.invoke !orig pid v in
            orig := c;
            feed pid (Shm.Program.start opts.(pid) v))
        | Shm.Program.Yield (v, _) -> (
          let c, _ = Shm.Config.step !orig pid in
          orig := c;
          match opts.(pid) with
          | Shm.Program.Yield (v', rest) ->
            if V.equal v v' then opts.(pid) <- rest
            else
              fail "p%d: outputs differ (%a vs optimized %a)" pid V.pp v V.pp v'
          | _ -> fail "p%d: original outputs %a, optimized does not" pid V.pp v)
        | Shm.Program.Op (op, _) -> (
          let mem = Shm.Config.mem !orig in
          let kept = pos.(pid) < Array.length mask && mask.(pos.(pid)) in
          if pos.(pid) >= Array.length mask then
            fail "p%d: executed more ops than the keep-mask covers" pid;
          pos.(pid) <- pos.(pid) + 1;
          let c, _ = Shm.Config.step !orig pid in
          orig := c;
          if kept && !err = None then
            match (op, Shm.Program.poised_op opts.(pid)) with
            | Shm.Program.Read reg, Some (Shm.Program.Read reg') when reg = reg'
              ->
              feed pid (Shm.Program.feed_read opts.(pid) (Shm.Memory.read mem reg))
            | Shm.Program.Write (reg, v), Some (Shm.Program.Write (reg', v'))
              when reg = reg' ->
              if V.equal v v' then
                feed pid (Shm.Program.feed_write_ack opts.(pid))
              else
                fail "p%d: kept write R%d stores %a, optimized %a" pid reg V.pp
                  v V.pp v'
            | Shm.Program.Scan (off, len), Some (Shm.Program.Scan (off', len'))
              when off = off' && len = len' ->
              feed pid
                (Shm.Program.feed_scan opts.(pid) (Shm.Memory.scan mem ~off ~len))
            | _, poised ->
              fail "p%d: kept op %a but optimized poised at %a" pid
                Shm.Program.pp_op op
                Fmt.(option ~none:(any "nothing") Shm.Program.pp_op)
                poised))
    sched;
  !err

(* ------------------------------------------------------------------ *)
(* (g) Bytecode engine differential: the vm must be event-equivalent
   to the free-monad interpreter under the same replayed schedule, by
   [Shm.Vm.diff] (steps, stop reason, trace, final memory, written
   set, counters, i/o records as multisets).  [Shm.Vm.validate]
   rejects what the vm refuses to compile — out-of-bounds registers,
   negative loop counts — statically where the interpreter only fails
   when (if) execution reaches them, so those programs (mutation can
   produce them) carry no equivalence claim and pass vacuously. *)

let vm p sched =
  let run engine =
    Agreement.Runner.run_proto ~engine ~record:true
      ~max_steps:(List.length sched + 1)
      ~sched:(Shm.Schedule.replay ~n:p.Gen.n sched)
      p
  in
  match Shm.Vm.validate p with
  | Error _ -> None
  | Ok () ->
    Option.map (Fmt.str "interp vs vm: %s")
      (Shm.Vm.diff (run Agreement.Runner.Interp) (run Agreement.Runner.Vm))

let check kind p sched =
  match kind with
  | Analyzer -> analyzer p sched
  | Backend -> backend p sched
  | Linearize -> linearize p sched
  | Determinism -> determinism p sched
  | Indep -> indep p sched
  | Optim -> optim p sched
  | Vm -> vm p sched

(* ------------------------------------------------------------------ *)
(* Seeded-mutant regression *)

type mutant_result = {
  mutant : string;
  caught : bool;
  witness_size : int;
  detail : string;
}

let analyze_mutant (mu : Analyze.Mutants.mutant) =
  let p = Agreement.Params.make ~n:4 ~m:1 ~k:2 in
  let caught = Analyze.Mutants.rejected mu p in
  let summary, diags = Analyze.Mutants.check mu p in
  let bound = mu.Analyze.Mutants.bound p in
  let excess =
    max 0 (Analyze.Absint.IntSet.cardinal summary.Analyze.Absint.writes - bound)
  in
  {
    mutant = "analyze/" ^ mu.Analyze.Mutants.name;
    caught;
    witness_size = excess + List.length (Analyze.Lint.errors diags);
    detail =
      Fmt.str "static writes %d, bound %d, lint errors %d"
        (Analyze.Absint.IntSet.cardinal summary.Analyze.Absint.writes)
        bound
        (List.length (Analyze.Lint.errors diags));
  }

let conform_mutant ~budget ~seed (sut : Conform.Sut.t) =
  let cfg =
    { Conform.Harness.default_config with seed; iters = budget; ops = 12 }
  in
  match Conform.Harness.run_snapshot ~sut cfg with
  | Conform.Harness.Pass { iters; _ } ->
    {
      mutant = "conform/" ^ sut.Conform.Sut.name;
      caught = false;
      witness_size = 0;
      detail = Fmt.str "survived %d iterations" iters;
    }
  | Conform.Harness.Fail v ->
    {
      mutant = "conform/" ^ sut.Conform.Sut.name;
      caught = true;
      witness_size = List.length v.Conform.Harness.shrunk;
      detail =
        Fmt.str "iter %d: %s (witness %d ops)" v.Conform.Harness.iter
          v.Conform.Harness.error
          (List.length v.Conform.Harness.shrunk);
    }

let mutant_sweep ~budget ~seed =
  List.map analyze_mutant Analyze.Mutants.all
  @ List.map (conform_mutant ~budget ~seed) Conform.Sut.mutants
