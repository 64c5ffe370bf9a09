(* The fuzzing layer (lib/fuzz): generator well-formedness, corpus
   replay determinism, mutation-operator closure, coverage-signature
   stability, oracle cleanliness on generated inputs, joint 1-minimal
   shrinking, and the seeded-mutant regression sweep. *)

open Helpers
module G = Fuzz.Gen
module R = Shm.Rng

(* Drain [count] generated (program, schedule) pairs from one PRNG. *)
let gen_pairs ~seed count =
  let rng = R.create seed in
  List.init count (fun _ ->
      let p = G.generate rng in
      (p, G.gen_schedule rng ~n:p.G.n))

(* ---- generator well-formedness ---- *)

let gen_well_formed seed =
  List.iter
    (fun ((p : G.program), sched) ->
      Alcotest.(check bool) "registers >= 1" true (p.G.registers >= 1);
      Alcotest.(check bool) "n >= 2" true (p.G.n >= 2);
      Alcotest.(check bool) "no out-of-bounds step" true (Shm.Vm.validate p = Ok ());
      Alcotest.(check bool) "bounded flat length" true
        (G.flat_length p >= 1 && G.flat_length p < 1000);
      (match List.rev p.G.steps with
      | Shm.Vm.Decide _ :: _ -> ()
      | _ -> Alcotest.failf "program does not end in Decide: %s" (Analyze.Ir.to_string p));
      List.iter
        (fun pid ->
          Alcotest.(check bool) "schedule pids in range" true
            (pid >= 0 && pid < p.G.n))
        sched)
    (gen_pairs ~seed 200)

let gen_solo_termination seed =
  (* a solo process must decide within its own flat fuel: loops are
     bounded by construction, so round-robin with generous fuel
     quiesces and every process yields exactly once *)
  List.iter
    (fun ((p : G.program), _) ->
      let result =
        Shm.Exec.run
          ~sched:(Shm.Schedule.round_robin p.G.n)
          ~inputs:Agreement.Runner.proto_inputs
          ~max_steps:(p.G.n * (G.flat_length p + 2))
          (Shm.Vm.config p)
      in
      (match result.Shm.Exec.stopped with
      | Shm.Exec.All_quiescent -> ()
      | Shm.Exec.Fuel_exhausted ->
        Alcotest.failf "did not quiesce: %s" (Analyze.Ir.to_string p));
      let outputs = Shm.Config.outputs result.Shm.Exec.config in
      Alcotest.(check int) "every process decided once" p.G.n
        (List.length outputs))
    (gen_pairs ~seed 100)

(* QCheck property (the ISSUE-level contract): the generator never
   emits a program the lint's out-of-bounds rule rejects. *)
let prop_gen_never_oob =
  QCheck.Test.make ~count:150 ~name:"generated programs pass the oob lint"
    QCheck.(make Gen.int)
    (fun seed ->
      let p = G.generate (R.create seed) in
      let _, diags = Analyze.Lint.check ~anonymous:false (Shm.Vm.config p) in
      List.for_all
        (fun (d : Analyze.Lint.diag) -> d.Analyze.Lint.rule <> "space/out-of-bounds")
        (Analyze.Lint.errors diags))

let gen_inputs_oneshot _seed =
  Alcotest.(check bool) "instance 1 has an input" true
    (Option.is_some (Agreement.Runner.proto_inputs ~pid:0 ~instance:1));
  Alcotest.(check bool) "instance 2 has none (one-shot)" true
    (Option.is_none (Agreement.Runner.proto_inputs ~pid:0 ~instance:2))

let run_respects_schedule seed =
  List.iter
    (fun ((p : G.program), sched) ->
      let result = G.run p sched in
      Alcotest.(check bool) "trace no longer than the schedule" true
        (List.length result.Shm.Exec.trace <= List.length sched);
      List.iter
        (fun ev ->
          Alcotest.(check bool) "trace pid was scheduled" true
            (List.mem (Shm.Event.pid ev) sched))
        result.Shm.Exec.trace)
    (gen_pairs ~seed 50)

(* ---- corpus ---- *)

let render (p, s) = Analyze.Ir.to_string p ^ " | " ^ G.schedule_to_string s

let corpus_replay_determinism seed =
  (* two corpora from the same seed propose byte-identical campaigns,
     including after records reshape the selection distribution *)
  let drive n =
    let c = Fuzz.Corpus.create ~seed () in
    List.init n (fun i ->
        let p, s = Fuzz.Corpus.next c in
        if i mod 3 = 0 then Fuzz.Corpus.record c p s ~credit:(1 + (i mod 5));
        render (p, s))
  in
  Alcotest.(check (list string)) "replayed campaign identical" (drive 60) (drive 60)

let corpus_admission seed =
  let c = Fuzz.Corpus.create ~seed () in
  let p, s = Fuzz.Corpus.next c in
  Fuzz.Corpus.record c p s ~credit:0;
  Alcotest.(check int) "credit 0 not admitted" 0 (Fuzz.Corpus.size c);
  Fuzz.Corpus.record c p s ~credit:3;
  Alcotest.(check int) "credit > 0 admitted" 1 (Fuzz.Corpus.size c);
  match Fuzz.Corpus.entries c with
  | [ e ] -> Alcotest.(check int) "credit recorded" 3 e.Fuzz.Corpus.credit
  | es -> Alcotest.failf "expected 1 entry, got %d" (List.length es)

(* ---- corpus files ---- *)

let with_temp_file f =
  let path = Filename.temp_file "sa_corpus" ".txt" in
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> f path)

let corpus_file_roundtrip seed =
  let o = Fuzz.Driver.run ~oracle:Fuzz.Oracle.Backend ~budget:40 ~seed () in
  let corpus = o.Fuzz.Driver.corpus in
  Alcotest.(check bool) "campaign admitted inputs" true (corpus <> []);
  with_temp_file (fun path ->
      (match Fuzz.Corpus.save path corpus with
      | Ok () -> ()
      | Error e -> Alcotest.failf "save: %s" e);
      match Fuzz.Corpus.load ~warn:(Alcotest.failf "unexpected warning: %s") path with
      | Error e -> Alcotest.failf "load: %s" e
      | Ok seeds ->
        Alcotest.(check (list string)) "every entry back, in order"
          (List.map
             (fun (e : Fuzz.Corpus.entry) ->
               render (e.Fuzz.Corpus.program, e.Fuzz.Corpus.schedule))
             corpus)
          (List.map render seeds))

let corpus_file_errors () =
  (match Fuzz.Corpus.load "/nonexistent/corpus.txt" with
  | Ok _ -> Alcotest.fail "loaded a missing file"
  | Error _ -> ());
  (match Fuzz.Corpus.save "/nonexistent/corpus.txt" [] with
  | Ok () -> Alcotest.fail "saved into a missing directory"
  | Error _ -> ());
  (* a comment, a malformed line, a line whose program does not parse,
     one good entry, and a last line torn mid-write (no newline) *)
  let good = "2 | r2 n2 : W0<-in; R0; D last | 0 1 0 1" in
  with_temp_file (fun path ->
      Out_channel.with_open_text path (fun oc ->
          output_string oc
            ("# corpus\nnot a corpus line\n1 | r2 n2 : Q9 | 0 1\n" ^ good
           ^ "\n3 | r2 n2 : W0<-in; R"));
      let warnings = ref [] in
      match Fuzz.Corpus.load ~warn:(fun w -> warnings := w :: !warnings) path with
      | Error e -> Alcotest.failf "load: %s" e
      | Ok seeds ->
        Alcotest.(check (list string)) "only the good entry"
          [ "r2 n2 : W0<-in; R0; D last | 0 1 0 1" ]
          (List.map render seeds);
        Alcotest.(check (list int)) "one warning per bad line, with its number"
          [ 2; 3; 5 ]
          (List.rev_map
             (fun w -> Scanf.sscanf w "%s@:%d:" (fun _ line -> line))
             !warnings))

let mutation_closure seed =
  (* every operator output is as well-formed as a generated program:
     no out-of-bounds access, still compiles and runs *)
  let rng = R.create seed in
  List.iter
    (fun ((p : G.program), sched) ->
      let q = G.generate rng in
      let mutants =
        [
          ("splice", Fuzz.Corpus.splice rng p q);
          ("insert", Fuzz.Corpus.insert_step rng p);
          ("delete", Fuzz.Corpus.delete_step rng p);
          ("renumber", Fuzz.Corpus.renumber rng p);
        ]
      in
      List.iter
        (fun (op, (m : G.program)) ->
          if Shm.Vm.validate m <> Ok () then
            Alcotest.failf "%s broke bounds: %s -> %s" op (Analyze.Ir.to_string p)
              (Analyze.Ir.to_string m);
          ignore (G.run m (Fuzz.Corpus.mutate_schedule rng ~n:m.G.n sched)))
        mutants;
      let sched' = Fuzz.Corpus.mutate_schedule rng ~n:p.G.n sched in
      Alcotest.(check bool) "mutated schedule non-degenerate" true
        (List.length sched' <= 4 * G.default_sizes.G.max_sched))
    (gen_pairs ~seed 60)

(* ---- coverage ---- *)

let coverage_signature_stable seed =
  List.iter
    (fun (p, sched) ->
      let a = Fuzz.Coverage.signature p sched in
      let b = Fuzz.Coverage.signature p sched in
      Alcotest.(check bool) "same input, same signature" true
        (Fuzz.Coverage.equal a b);
      Alcotest.(check bool) "signature non-empty" true
        (Fuzz.Coverage.cardinal a > 0))
    (gen_pairs ~seed 30)

let coverage_accumulation seed =
  let p, sched = List.hd (gen_pairs ~seed 1) in
  let t = Fuzz.Coverage.signature p sched in
  let acc = Fuzz.Coverage.acc_create () in
  Alcotest.(check int) "first add contributes every bit"
    (Fuzz.Coverage.cardinal t)
    (Fuzz.Coverage.add acc t);
  Alcotest.(check int) "second add contributes nothing" 0
    (Fuzz.Coverage.add acc t);
  Alcotest.(check int) "accumulator holds the union"
    (Fuzz.Coverage.cardinal t)
    (Fuzz.Coverage.acc_cardinal acc);
  (* over many overlapping signatures: the fresh counts add up to the
     union, the union does not depend on the order, a repeat adds
     nothing, and the union never outgrows the sum of its parts *)
  let sigs = List.map (fun (p, sched) -> Fuzz.Coverage.signature p sched) (gen_pairs ~seed 50) in
  let fill sigs =
    let acc = Fuzz.Coverage.acc_create () in
    let fresh, _ =
      List.fold_left
        (fun (fresh, total) t ->
          let fresh = fresh + Fuzz.Coverage.add acc t
          and total = total + Fuzz.Coverage.cardinal t in
          Alcotest.(check bool) "union within the sum of cardinals" true
            (Fuzz.Coverage.acc_cardinal acc <= total);
          (fresh, total))
        (0, 0) sigs
    in
    Alcotest.(check int) "fresh bits sum to the union" fresh (Fuzz.Coverage.acc_cardinal acc);
    acc
  in
  let forward = fill sigs in
  let backward = fill (List.rev sigs) in
  Alcotest.(check int) "order-independent union"
    (Fuzz.Coverage.acc_cardinal forward)
    (Fuzz.Coverage.acc_cardinal backward);
  List.iter
    (fun acc ->
      List.iter
        (fun t -> Alcotest.(check int) "a repeat adds nothing" 0 (Fuzz.Coverage.add acc t))
        sigs)
    [ forward; backward ]

(* ---- oracles ---- *)

let oracles_pass_on_generated_inputs seed =
  List.iter
    (fun (p, sched) ->
      List.iter
        (fun oracle ->
          match Fuzz.Oracle.check oracle p sched with
          | None -> ()
          | Some msg ->
            Alcotest.failf "%s oracle diverged on %s: %s"
              (Fuzz.Oracle.name oracle) (render (p, sched)) msg)
        Fuzz.Oracle.all)
    (gen_pairs ~seed 25)

let linearize_oracle_scan_heavy _seed =
  (* a scan-heavy handcrafted program: full-range scans reconstruct
     views, both checker modes must agree it linearizes *)
  let p =
    {
      G.registers = 2;
      n = 2;
      steps =
        Shm.Vm.
          [ Write (0, Const 1); Scan (0, 2); Write (1, Last); Scan (0, 2); Decide Last ];
    }
  in
  let sched = [ 0; 1; 0; 1; 0; 1; 0; 1; 0; 1; 0; 1 ] in
  match Fuzz.Oracle.check Fuzz.Oracle.Linearize p sched with
  | None -> ()
  | Some msg -> Alcotest.failf "linearize modes disagree: %s" msg

(* ---- joint shrinking ---- *)

(* Synthetic monotone divergence: "program has >= 2 top-level writes
   and the schedule names pid 0 at least 3 times".  The unique
   1-minimal witness shape is 2 writes + 3 zeros. *)
let synthetic_check (p : G.program) sched =
  let writes =
    List.length
      (List.filter (function Shm.Vm.Write _ -> true | _ -> false) p.G.steps)
  in
  let zeros = List.length (List.filter (( = ) 0) sched) in
  if writes >= 2 && zeros >= 3 then Some "synthetic" else None

let shrunk_witness_is_1_minimal seed =
  let p =
    {
      G.registers = 2;
      n = 2;
      steps =
        Shm.Vm.
          [
            Read 0; Write (0, Input); Scan (0, 2); Write (1, Last);
            Read 1; Write (0, Const 1); Decide Last;
          ];
    }
  in
  let sched = [ 0; 1; 0; 1; 1; 0; 1; 0 ] in
  Alcotest.(check bool) "original pair fails" true
    (synthetic_check p sched <> None);
  match
    Fuzz.Driver.shrink_with ~check:synthetic_check ~kind:Fuzz.Oracle.Analyzer
      ~seed ~found_at:1 p sched
  with
  | None -> Alcotest.fail "shrink lost the divergence"
  | Some w ->
    (* the witness still fails its oracle *)
    Alcotest.(check bool) "shrunk witness re-fails" true
      (synthetic_check w.Fuzz.Driver.program w.Fuzz.Driver.schedule <> None);
    (* exact minimal shape *)
    Alcotest.(check int) "minimal program: 2 steps" 2
      (List.length w.Fuzz.Driver.program.G.steps);
    Alcotest.(check int) "minimal schedule: 3 entries" 3
      (List.length w.Fuzz.Driver.schedule);
    (* 1-minimality: dropping any single surviving program step or
       schedule entry loses the divergence *)
    let steps = w.Fuzz.Driver.program.G.steps in
    List.iteri
      (fun i _ ->
        let p' =
          {
            w.Fuzz.Driver.program with
            G.steps = List.filteri (fun j _ -> j <> i) steps;
          }
        in
        Alcotest.(check bool) "dropping a program step loses the failure" true
          (synthetic_check p' w.Fuzz.Driver.schedule = None))
      steps;
    List.iteri
      (fun i _ ->
        let s' = List.filteri (fun j _ -> j <> i) w.Fuzz.Driver.schedule in
        Alcotest.(check bool) "dropping a schedule entry loses the failure" true
          (synthetic_check w.Fuzz.Driver.program s' = None))
      w.Fuzz.Driver.schedule;
    Alcotest.(check bool) "replay line names the campaign" true
      (String.length (Fuzz.Driver.replay_line w) > 0)

let shrink_none_on_passing_pair seed =
  let p, sched = List.hd (gen_pairs ~seed 1) in
  Alcotest.(check bool) "nothing to shrink on a passing pair" true
    (Fuzz.Driver.shrink_with
       ~check:(fun _ _ -> None)
       ~kind:Fuzz.Oracle.Backend ~seed ~found_at:1 p sched
    = None)

(* ---- driver ---- *)

let driver_run_deterministic seed =
  let run () =
    let o = Fuzz.Driver.run ~oracle:Fuzz.Oracle.Backend ~budget:40 ~seed () in
    ( o.Fuzz.Driver.stats.Fuzz.Driver.execs,
      o.Fuzz.Driver.stats.Fuzz.Driver.interesting,
      o.Fuzz.Driver.stats.Fuzz.Driver.coverage_bits,
      o.Fuzz.Driver.stats.Fuzz.Driver.curve,
      List.map
        (fun (e : Fuzz.Corpus.entry) ->
          render (e.Fuzz.Corpus.program, e.Fuzz.Corpus.schedule))
        o.Fuzz.Driver.corpus )
  in
  let a = run () and b = run () in
  Alcotest.(check bool) "campaign deterministic in (oracle,budget,seed)" true
    (a = b)

let driver_clean_campaign seed =
  let o = Fuzz.Driver.run ~oracle:Fuzz.Oracle.Determinism ~budget:30 ~seed () in
  Alcotest.(check int) "no divergence" 0
    o.Fuzz.Driver.stats.Fuzz.Driver.divergences;
  Alcotest.(check bool) "no witness" true (o.Fuzz.Driver.witness = None);
  Alcotest.(check int) "budget spent" 30 o.Fuzz.Driver.stats.Fuzz.Driver.execs;
  Alcotest.(check bool) "coverage curve monotone" true
    (let rec mono = function
       | (x1, b1) :: ((x2, b2) :: _ as tl) -> x1 < x2 && b1 < b2 && mono tl
       | _ -> true
     in
     mono o.Fuzz.Driver.stats.Fuzz.Driver.curve)

(* ---- the shared campaign ---- *)

let all_judges = List.map (fun o -> (o, Fuzz.Oracle.check o)) Fuzz.Oracle.all

(* Every oracle's outcome in the shared campaign is the outcome of its
   own campaign: same stats, same corpus, no witness. *)
let campaign_matches_single_oracle_runs () =
  List.iter
    (fun seed ->
      let shared =
        Fuzz.Driver.campaign ~replay:[] ~judges:all_judges ~budget:40 ~seed ()
      in
      List.iter2
        (fun oracle (o : Fuzz.Driver.outcome) ->
          let alone = Fuzz.Driver.run ~oracle ~budget:40 ~seed () in
          let what = Fmt.str "seed %d, oracle %s" seed (Fuzz.Oracle.name oracle) in
          Alcotest.(check bool) (what ^ ": stats") true (o.stats = alone.stats);
          Alcotest.(check bool) (what ^ ": corpus") true (o.corpus = alone.corpus);
          Alcotest.(check bool) (what ^ ": no witness") true (o.witness = None))
        Fuzz.Oracle.all shared)
    [ 0; 1; 2; 3; 4 ]

(* A judge that diverges from exec [at] on, and the count of its calls:
   before [at], each exec calls it once; from then on (shrink replays
   included) any input with a program step and a schedule entry fails,
   so its 1-minimal witness is one step and one entry. *)
let diverging_at at =
  let calls = ref 0 in
  ( calls,
    ( Fuzz.Oracle.Indep,
      fun (p : G.program) sched ->
        incr calls;
        if !calls >= at && p.G.steps <> [] && sched <> [] then Some "synthetic" else None ) )

let never = (Fuzz.Oracle.Backend, fun _ _ -> None)

let campaign_judge_leaves_at_divergence seed =
  let budget = 30 and at = 12 in
  let campaign judges = Fuzz.Driver.campaign ~replay:[] ~judges ~budget ~seed () in
  let calls, judge = diverging_at at in
  match (campaign [ judge; never ], campaign [ snd (diverging_at at) ], campaign [ never ]) with
  | [ d; n ], [ d_alone ], [ n_alone ] ->
    Alcotest.(check bool) "diverging judge: same witness" true (d.witness = d_alone.witness);
    Alcotest.(check bool) "diverging judge: same stats" true (d.stats = d_alone.stats);
    Alcotest.(check bool) "diverging judge: same corpus" true (d.corpus = d_alone.corpus);
    Alcotest.(check int) "diverging judge stops at its exec" at d.stats.execs;
    Alcotest.(check int) "one divergence" 1 d.stats.divergences;
    (match d.witness with
    | Some w ->
      Alcotest.(check int) "found at its exec" at w.found_at;
      Alcotest.(check int) "1-minimal: one step" 1 (List.length w.program.G.steps);
      Alcotest.(check int) "1-minimal: one entry" 1 (List.length w.schedule);
      Alcotest.(check int) "not asked again after its shrink" (at + w.shrink_replays) !calls
    | None -> Alcotest.fail "no witness");
    Alcotest.(check int) "other judge reads the full budget" budget n.stats.execs;
    Alcotest.(check bool) "other judge: stats of a clean campaign" true (n.stats = n_alone.stats);
    Alcotest.(check bool) "other judge: corpus of a clean campaign" true
      (n.corpus = n_alone.corpus);
    Alcotest.(check bool) "other judge: no witness" true (n.witness = None)
  | _ -> Alcotest.fail "one outcome per judge"

(* ---- seeded-mutant regression ---- *)

let mutant_sweep_catches_all seed =
  let results = Fuzz.Oracle.mutant_sweep ~budget:400 ~seed in
  Alcotest.(check int) "four seeded mutants" 4 (List.length results);
  List.iter
    (fun (r : Fuzz.Oracle.mutant_result) ->
      if not r.Fuzz.Oracle.caught then
        Alcotest.failf "mutant %s escaped: %s" r.Fuzz.Oracle.mutant
          r.Fuzz.Oracle.detail;
      Alcotest.(check bool)
        (r.Fuzz.Oracle.mutant ^ " witness non-trivial")
        true (r.Fuzz.Oracle.witness_size > 0))
    results

let suite =
  [
    seeded_test "generator: well-formed by construction" gen_well_formed;
    seeded_test "generator: solo termination and one decision each"
      gen_solo_termination;
    qcheck_to_alcotest prop_gen_never_oob;
    seeded_test "generator: one-shot inputs" gen_inputs_oneshot;
    seeded_test "replay: trace within the given schedule" run_respects_schedule;
    seeded_test "corpus: campaigns replay byte-for-byte from the seed"
      corpus_replay_determinism;
    seeded_test "corpus: only interesting inputs admitted" corpus_admission;
    seeded_test "corpus: save/load round-trips a campaign's corpus"
      corpus_file_roundtrip;
    test "corpus: missing file is an error, bad lines are skipped"
      corpus_file_errors;
    seeded_test "corpus: mutation operators preserve well-formedness"
      mutation_closure;
    seeded_test "coverage: signatures stable and non-empty"
      coverage_signature_stable;
    seeded_test "coverage: accumulator counts exactly the new bits"
      coverage_accumulation;
    seeded_test "oracles: clean on generated inputs"
      oracles_pass_on_generated_inputs;
    seeded_test "oracle: linearize modes agree on a scan-heavy history"
      linearize_oracle_scan_heavy;
    seeded_test "shrink: joint witness is 1-minimal and re-fails"
      shrunk_witness_is_1_minimal;
    seeded_test "shrink: nothing to do on a passing pair"
      shrink_none_on_passing_pair;
    seeded_test "driver: deterministic campaign" driver_run_deterministic;
    seeded_test "driver: clean budgeted campaign, monotone coverage curve"
      driver_clean_campaign;
    test "campaign: every oracle reads its own campaign's stats and corpus"
      campaign_matches_single_oracle_runs;
    seeded_test "campaign: a diverging judge leaves, the others run on"
      campaign_judge_leaves_at_divergence;
    seeded_test "mutants: every seeded mutant caught within budget"
      mutant_sweep_catches_all;
  ]
