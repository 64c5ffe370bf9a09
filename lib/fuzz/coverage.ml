(* Coverage signatures over existing instrumentation.

   Bits live in disjoint tag spaces (state keys, footprint cells, lint
   rules, summary shape) mixed down to 16-bit buckets per channel.
   Bucketing trades a little precision for a bounded map: the fuzzer
   only needs "did anything new happen", not exact state identity —
   collisions cost a missed interesting input, never a wrong verdict
   (oracles are independent of coverage). *)

module IntSet = Set.Make (Int)

type t = IntSet.t

let bucket ~tag h =
  (* 16 bits of the mixed hash, tagged so channels cannot collide *)
  (tag lsl 16) lor (Shm.Value.mix tag h land 0xffff)

(* State-key channel: replay the schedule ([Shm.Schedule.replay])
   threading the incremental state hash exactly as the DPOR engine
   does, one bit per visited key bucket.  The journaled backend is
   fine — keys hash contents. *)
let state_bits p schedule set =
  let config = Shm.Vm.config p in
  let before = ref config and hash = ref (Spec.Statehash.create config) in
  let set = ref set in
  let probe ~step:_ ev after =
    hash := Spec.Statehash.record !hash ~before:!before after ev;
    before := after;
    let key = Spec.Statehash.key_hash (Spec.Statehash.key !hash) in
    set := IntSet.add (bucket ~tag:1 key) !set
  in
  ignore
    (Shm.Exec.run ~probe
       ~sched:(Shm.Schedule.replay ~n:p.Gen.n schedule)
       ~inputs:Agreement.Runner.proto_inputs
       ~max_steps:(List.length schedule + 1)
       config);
  !set

(* Analyzer channel: footprint cells and summary shape.  Budgets are
   the scaled defaults, not exhaustive — coverage wants cheap structure
   discovery; the soundness *oracle* is where exhaustive budgets go. *)
let analyzer_bits p set =
  let summary =
    Analyze.Absint.analyze
      ~budgets:(Analyze.Absint.budgets_for ~registers:p.Gen.registers ~n:p.Gen.n)
      (Shm.Vm.config p)
  in
  let set = ref set in
  let put tag h = set := IntSet.add (bucket ~tag h) !set in
  Array.iter
    (fun (ps : Analyze.Absint.process_summary) ->
      Analyze.Absint.IntSet.iter
        (fun r -> put 2 ((ps.Analyze.Absint.pid * 64) + r))
        ps.Analyze.Absint.reads;
      Analyze.Absint.IntSet.iter
        (fun r -> put 3 ((ps.Analyze.Absint.pid * 64) + r))
        ps.Analyze.Absint.writes;
      if ps.Analyze.Absint.halted then put 4 ps.Analyze.Absint.pid;
      if ps.Analyze.Absint.truncated then put 5 ps.Analyze.Absint.pid)
    summary.Analyze.Absint.per_process;
  Analyze.Absint.IntSet.iter (fun r -> put 6 r) summary.Analyze.Absint.dead;
  if summary.Analyze.Absint.widened then put 7 1;
  if not summary.Analyze.Absint.converged then put 7 2;
  (* lint channel rides on the same summary *)
  let _, diags = Analyze.Lint.check ~summary ~anonymous:false (Shm.Vm.config p) in
  List.iter
    (fun (d : Analyze.Lint.diag) -> put 8 (Hashtbl.hash d.Analyze.Lint.rule))
    diags;
  !set

let signature p schedule = analyzer_bits p (state_bits p schedule IntSet.empty)

let cardinal = IntSet.cardinal

let equal = IntSet.equal

(* The accumulator is a bitmap over the whole bucket space (tags 1–8
   above 16 bucket bits, so every bit is below 9·2^16: 72 KiB) and a
   running count, so [add] costs one test-and-set per bit of the
   signature, however large the union has grown. *)
type acc = { bits : Bytes.t; mutable count : int }

let acc_create () = { bits = Bytes.make ((9 lsl 16) / 8) '\000'; count = 0 }

let acc_cardinal acc = acc.count

let add acc t =
  let before = acc.count in
  IntSet.iter
    (fun b ->
      let byte = Char.code (Bytes.get acc.bits (b lsr 3)) and mask = 1 lsl (b land 7) in
      if byte land mask = 0 then begin
        Bytes.set acc.bits (b lsr 3) (Char.chr (byte lor mask));
        acc.count <- acc.count + 1
      end)
    t;
  acc.count - before
