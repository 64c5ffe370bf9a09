type witness = {
  program : Gen.program;
  schedule : Gen.schedule;
  oracle : Oracle.kind;
  message : string;
  seed : int;
  found_at : int;
  shrink_replays : int;
  shrink_removed : int;
}

type stats = {
  oracle : Oracle.kind;
  seed : int;
  budget : int;
  execs : int;
  interesting : int;
  corpus_size : int;
  coverage_bits : int;
  curve : (int * int) list;
  divergences : int;
}

type outcome = {
  stats : stats;
  corpus : Corpus.entry list;
  witness : witness option;
}

(* ------------------------------------------------------------------ *)
(* Joint shrinking.  One index space over both halves of the input:
   [0, plen) are top-level program steps, [plen, plen+slen) are
   schedule entries.  The ddmin core hands back surviving index
   subsets (possibly reordered by solo-collapse); rebuilding sorts
   them, so a candidate is judged as a subset — which is exactly the
   structure "remove any one element and the divergence disappears"
   quantifies over. *)

let shrink_with ~check ~kind ~seed ~found_at (p0 : Gen.program) s0 =
  let plen = List.length p0.Gen.steps in
  let slen = List.length s0 in
  let rebuild idxs =
    let keep = List.sort_uniq compare idxs in
    let mem i = List.mem i keep in
    let steps = List.filteri (fun i _ -> mem i) p0.Gen.steps in
    let sched = List.filteri (fun i _ -> mem (plen + i)) s0 in
    ({ p0 with Gen.steps }, sched)
  in
  let replay idxs =
    let p, s = rebuild idxs in
    Option.map (fun msg -> (p, s, msg)) (check p s)
  in
  match
    Spec.Shrink.minimize_generic ~replay (List.init (plen + slen) Fun.id)
  with
  | None -> None
  | Some sh ->
    let program, schedule, message = sh.Spec.Shrink.witness in
    Some
      {
        program;
        schedule;
        oracle = kind;
        message;
        seed;
        found_at;
        shrink_replays = sh.Spec.Shrink.g_replays;
        shrink_removed = plen + slen - List.length sh.Spec.Shrink.schedule;
      }

(* ------------------------------------------------------------------ *)
(* The loop: each input is drawn, signed and credited once, then judged
   by every live judge.  A judge that diverges is shrunk on the spot,
   its outcome snapshotted where its own campaign would have stopped,
   and it leaves the live set. *)

let campaign ~replay ~judges ~budget ~seed () =
  let corpus = Corpus.create ~seed () in
  let acc = Coverage.acc_create () in
  let curve = ref [] in
  let interesting = ref 0 in
  let execs = ref 0 in
  let outcome oracle witness =
    {
      stats =
        { oracle; seed; budget; execs = !execs; interesting = !interesting;
          corpus_size = Corpus.size corpus; coverage_bits = Coverage.acc_cardinal acc;
          curve = List.rev !curve; divergences = (if witness = None then 0 else 1) };
      corpus = Corpus.entries corpus;
      witness;
    }
  in
  let slots = List.map (fun (kind, check) -> (kind, check, ref None)) judges in
  let live = ref slots in
  let judge (p, sched) =
    incr execs;
    let credit = Coverage.add acc (Coverage.signature p sched) in
    if credit > 0 then begin
      incr interesting;
      Corpus.record corpus p sched ~credit;
      curve := (!execs, Coverage.acc_cardinal acc) :: !curve
    end;
    live :=
      List.filter
        (fun (oracle, check, result) ->
          match check p sched with
          | None -> true
          | Some message ->
            (* shrink reproduces the divergence by construction; keep
               the unshrunk pair if the judge flaked (it must not — the
               determinism oracle exists to catch exactly that) *)
            let found_at = !execs in
            let w =
              match shrink_with ~check ~kind:oracle ~seed ~found_at p sched with
              | Some w -> w
              | None ->
                { program = p; schedule = sched; oracle; message; seed; found_at;
                  shrink_replays = 0; shrink_removed = 0 }
            in
            result := Some (outcome oracle (Some w));
            false)
        !live
  in
  (* replayed seeds consume budget first, and coverage admits them into
     the live corpus so generation mutates from them *)
  let pending = ref replay in
  while !execs < budget && !live <> [] do
    match !pending with
    | input :: rest ->
      pending := rest;
      judge input
    | [] -> judge (Corpus.next corpus)
  done;
  List.map (fun (oracle, _, result) -> match !result with Some o -> o | None -> outcome oracle None) slots

let run ?(replay = []) ~oracle ~budget ~seed () =
  List.hd (campaign ~replay ~judges:[ (oracle, Oracle.check oracle) ] ~budget ~seed ())

(* ------------------------------------------------------------------ *)
(* Rendering *)

let replay_line (w : witness) =
  Fmt.str "sa_run fuzz --oracle %s --budget %d --seed %d"
    (Oracle.name w.oracle) w.found_at w.seed

let pp_witness ppf (w : witness) =
  Fmt.pf ppf
    "@[<v>divergence (%s oracle, exec %d): %s@,\
     program:  %s@,\
     schedule: %s@,\
     shrink:   %d replays, %d steps removed (1-minimal)@,\
     replay:   %s@]"
    (Oracle.name w.oracle) w.found_at w.message
    (Analyze.Ir.to_string w.program)
    (Gen.schedule_to_string w.schedule)
    w.shrink_replays w.shrink_removed (replay_line w)

let pp_stats ppf s =
  Fmt.pf ppf
    "@[<v>oracle %s: %d/%d execs, %d interesting, corpus %d, %d coverage \
     bits, %d divergence(s)@]"
    (Oracle.name s.oracle) s.execs s.budget s.interesting s.corpus_size
    s.coverage_bits s.divergences
