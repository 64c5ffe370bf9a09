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

(* Joint 1-minimal shrink of a known-failing pair; [None] iff the pair
   does not fail [oracle]. *)
let shrink ~oracle ~seed ~found_at p0 s0 =
  shrink_with ~check:(Oracle.check oracle) ~kind:oracle ~seed ~found_at p0 s0

(* ------------------------------------------------------------------ *)
(* The loop *)

let run ?sizes ?(replay = []) ~oracle ~budget ~seed () =
  let corpus = Corpus.create ?sizes ~seed () in
  let acc = Coverage.acc_create () in
  let curve = ref [] in
  let interesting = ref 0 in
  let witness = ref None in
  let execs = ref 0 in
  let judge p sched =
    let credit = Coverage.add acc (Coverage.signature p sched) in
    if credit > 0 then begin
      incr interesting;
      Corpus.record corpus p sched ~credit;
      curve := (!execs, Coverage.acc_cardinal acc) :: !curve
    end;
    match Oracle.check oracle p sched with
    | None -> ()
    | Some msg ->
      (* shrink reproduces the divergence by construction; keep the
         unshrunk pair if the oracle flaked (it must not — the
         determinism oracle exists to catch exactly that) *)
      let w =
        match shrink ~oracle ~seed ~found_at:!execs p sched with
        | Some w -> w
        | None ->
          {
            program = p;
            schedule = sched;
            oracle;
            message = msg;
            seed;
            found_at = !execs;
            shrink_replays = 0;
            shrink_removed = 0;
          }
      in
      witness := Some w;
      raise Exit
  in
  (try
     (* replayed seeds consume budget first, and coverage admits them
        into the live corpus so generation mutates from them *)
     List.iter
       (fun (p, sched) ->
         if !execs < budget then begin
           incr execs;
           judge p sched
         end)
       replay;
     while !execs < budget do
       incr execs;
       let p, sched = Corpus.next corpus in
       judge p sched
     done
   with Exit -> ());
  {
    stats =
      {
        oracle;
        seed;
        budget;
        execs = !execs;
        interesting = !interesting;
        corpus_size = Corpus.size corpus;
        coverage_bits = Coverage.acc_cardinal acc;
        curve = List.rev !curve;
        divergences = (if !witness = None then 0 else 1);
      };
    corpus = Corpus.entries corpus;
    witness = !witness;
  }

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
