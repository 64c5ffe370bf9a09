(* Figure 1 as one checked table: the runs, attacks and verdicts of
   experiments E1–E7 (the interface says what each row claims).
   Bounds come from Bounds.Formulas; the schedules, step budgets and
   instance lists are the experiments' own. *)

open Agreement

type experiment = E1 | E2 | E3 | E3b | E4 | E5 | E6 | E7

type finding = Broke of int | Resisted | Failed

type attack = { budget : int; found : finding; report : string }

type arm = { name : string; bound : int; written : int; steps : int }

type measured =
  | Registers of { bound : int; written : int; steps : int; latencies : int list }
  | Theorem2 of { lo : int; starved : attack; full : attack; written : int option }
  | Clones of { registers : int; at : attack; below : attack }
  | Arms of arm list

type row = {
  experiment : experiment;
  params : Params.t;
  measured : measured;
  verdict : (unit, string) result;
}

let bound f p = int_of_float (Float.ceil (f p))

(* E1 and E3: one two-round run per point of the 4 ≤ n ≤ max_n grid. *)
let registers experiment f run ~max_n =
  Params.grid ~max_n
  |> List.filter (fun (p : Params.t) -> p.n >= 4)
  |> List.map (fun (p : Params.t) ->
         let acc = Shm.Analysis.create ~n:p.n ~registers:0 in
         let result = run p ~sink:(Shm.Analysis.feed acc) in
         let bound = bound f p and written = Runner.registers_used result in
         let latencies = (Shm.Analysis.snapshot acc).latencies in
         let steps = result.Shm.Exec.steps in
         let measured = Registers { bound; written; steps; latencies } in
         let why = Fmt.str "wrote %d > bound %d" written bound in
         let verdict = if written <= bound then Ok () else Error why in
         { experiment; params = p; measured; verdict })

let e1 =
  registers E1 Bounds.Formulas.repeated_non_anonymous.upper (fun p ~sink ->
      Runner.run_repeated ~impl:(Instances.space_optimal_impl p) ~rounds:2 ~sink
        ~sched:(Shm.Schedule.quantum_round_robin ~quantum:500 p.n)
        ~max_steps:3_000_000 p)

let e3 =
  registers E3 Bounds.Formulas.repeated_anonymous.upper (fun p ~sink ->
      Runner.run_anonymous ~rounds:2 ~sink
        ~sched:(Shm.Schedule.quantum_round_robin ~quantum:800 p.n)
        ~max_steps:4_000_000 p)

(* A construction's outcome, classified: a violation counts only if
   the property checker confirms it; resisting means the counting
   argument's failure (out of processes or clone slots). *)
let broke ~k outputs config =
  if Spec.Properties.agreement_errors ~k config <> [] then Broke (List.length outputs)
  else Failed

let theorem2_finding ~k = function
  | Theorem2.Violation { outputs; config; _ } -> broke ~k outputs config
  | Theorem2.Out_of_processes _ -> Resisted
  | Theorem2.Gamma_failed _ -> Failed

let clones_finding ~k = function
  | Clones.Violation { outputs; config; _ } -> broke ~k outputs config
  | Clones.Out_of_slots _ -> Resisted
  | _ -> Failed

let lemma9_finding ~k = function
  | Lemma9.Violation { outputs; config; _ } -> broke ~k outputs config
  | Lemma9.Out_of_slots _ -> Resisted
  | _ -> Failed

let attack ~found ~pp budget o = { budget; found = found o; report = Fmt.str "%a" pp o }

(* A lower-bound verdict: [b] breaks the algorithm and [b'] is resisted. *)
let lower ~unit b b' =
  match (b.found, b'.found) with
  | Broke _, Resisted -> Ok ()
  | Broke _, _ -> Error (Fmt.str "not resisted at %d %s: %s" b'.budget unit b'.report)
  | _ -> Error (Fmt.str "no violation at %d %s: %s" b.budget unit b.report)

(* E2 and E6: the Figure 2 adversary below the lower bound and against
   Figure 4's own n+2m−k components; E6 (m = k = 1) also runs Figure 4
   over the single-writer snapshot, which must write exactly n. *)
let theorem2 experiment (p : Params.t) =
  let attack registers =
    Theorem2.attack ~params:p ~registers
      ~make_config:(fun ~registers -> Instances.repeated ~r:registers p)
      ~icap:4 ()
    |> attack ~found:(theorem2_finding ~k:p.k) ~pp:Theorem2.pp_outcome registers
  in
  let lo = bound Bounds.Formulas.repeated_non_anonymous.lower p in
  let starved = attack (lo - 1) and full = attack (Params.r_oneshot p) in
  let written =
    if experiment = E2 then None
    else
      Runner.run_repeated ~impl:Instances.Sw_based ~rounds:2
        ~sched:(Shm.Schedule.quantum_round_robin ~quantum:800 p.n)
        ~max_steps:4_000_000 p
      |> Runner.registers_used |> Option.some
  in
  let verdict =
    match written with
    | Some w when w <> p.n -> Error (Fmt.str "wrote %d, not exactly n = %d" w p.n)
    | _ -> lower ~unit:"registers" starved full
  in
  { experiment; params = p; measured = Theorem2 { lo; starved; full; written }; verdict }

(* E4: Theorem 10's process count for r registers, ⌈(k+1)/m⌉(m + (r²−r)/2),
   attacked at the count and one below: the clone construction at
   m = 1, the Lemma 9 gluing at m ≥ 2 (the two share a signature). *)
let e4 (r, m, k) =
  let slots = (k + m) / m * (m + (((r * r) - r) / 2)) in
  let p = Params.make ~n:slots ~m ~k in
  let attack slots =
    let make_config ~registers ~slots = Instances.anonymous_oneshot ~r:registers ~slots p in
    if m = 1 then
      Clones.attack ~params:p ~registers:r ~slots ~make_config
      |> attack ~found:(clones_finding ~k) ~pp:Clones.pp_outcome slots
    else
      Lemma9.attack ~params:p ~registers:r ~slots ~make_config
      |> attack ~found:(lemma9_finding ~k) ~pp:Lemma9.pp_outcome slots
  in
  let at = attack slots and below = attack (slots - 1) in
  let verdict = lower ~unit:"slots" at below in
  { experiment = E4; params = p; measured = Clones { registers = r; at; below }; verdict }

(* E3b, E5 and E7: one claim over several arms, each run measured
   against its own bound; with [~agree] the arms must also write the
   same number of registers. *)
let arm name bound result =
  { name; bound; written = Runner.registers_used result; steps = result.Shm.Exec.steps }

let arms ?(agree = false) experiment p arms =
  let over = List.find_opt (fun a -> a.written > a.bound) arms in
  let verdict =
    match (over, arms) with
    | Some a, _ -> Error (Fmt.str "%s wrote %d > bound %d" a.name a.written a.bound)
    | None, a :: rest when agree && List.exists (fun b -> b.written <> a.written) rest ->
      Error
        (Fmt.str "arms disagree: %s"
           (String.concat ", " (List.map (fun b -> Fmt.str "%s %d" b.name b.written) arms)))
    | None, _ -> Ok ()
  in
  { experiment; params = p; measured = Arms arms; verdict }

(* E5 (§4.1): the DFGR'13 baseline and Figure 3 at n = 10, m = 1 under
   quantum-400 round-robin. *)
let e5 k =
  let n = 10 in
  let p = Params.make ~n ~m:1 ~k in
  let baseline, fig3 = Bounds.Formulas.dfgr13_comparison ~n ~k in
  let sched () = Shm.Schedule.quantum_round_robin ~quantum:400 n in
  arms E5 p
    [
      arm "dfgr13" baseline (Runner.run_baseline ~sched:(sched ()) ~max_steps:2_000_000 p);
      arm "fig3" fig3 (Runner.run_oneshot ~sched:(sched ()) ~max_steps:2_000_000 p);
    ]

(* E3b (Theorem 11): Figure 5 over the atomic snapshot and over the
   non-blocking anonymous collect, two rounds under quantum-4000
   round-robin; the collect costs steps, not registers. *)
let e3b (n, m, k) =
  let p = Params.make ~n ~m ~k in
  let bound = bound Bounds.Formulas.repeated_anonymous.upper p in
  let run name anonymous_collect =
    Runner.run_anonymous ~anonymous_collect ~rounds:2
      ~sched:(Shm.Schedule.quantum_round_robin ~quantum:4000 n)
      ~max_steps:8_000_000 p
    |> arm name bound
  in
  arms ~agree:true E3b p [ run "atomic" false; run "collect" true ]

(* E7 (Theorem 7): Figure 3 at (5,1,2) over each snapshot
   implementation. *)
let e7 () =
  let p = Params.make ~n:5 ~m:1 ~k:2 in
  let bound = bound Bounds.Formulas.oneshot_non_anonymous.upper p in
  arms E7 p
    (List.map
       (fun impl ->
         Runner.run_oneshot ~impl
           ~sched:(Shm.Schedule.quantum_round_robin ~quantum:Spec.Counterex.quantum 5)
           ~max_steps:4_000_000 p
         |> arm (Instances.impl_name impl) bound)
       [ Instances.Atomic; Instances.Double_collect; Instances.Sw_based ])

let table ~max_n =
  let anon_max_n = min max_n 7 in
  e1 ~max_n @ e3 ~max_n:anon_max_n
  @ List.map e3b [ (4, 1, 2); (4, 2, 2); (5, 1, 3); (5, 2, 3) ]
  @ List.map
      (fun (n, m, k) -> theorem2 E2 (Params.make ~n ~m ~k))
      [ (4, 1, 1); (5, 1, 1); (5, 1, 2); (5, 2, 2); (6, 1, 3); (6, 2, 3) ]
  @ (Params.grid ~max_n:anon_max_n
    |> List.filter (fun (p : Params.t) -> p.n >= 3 && p.k = 1)
    |> List.map (theorem2 E6))
  @ List.map e4 [ (2, 1, 1); (3, 1, 1); (4, 1, 1); (3, 1, 2); (3, 2, 3); (3, 2, 2) ]
  @ List.init 8 (fun i -> e5 (i + 1))
  @ [ e7 () ]

(* Printing: one line of five cells per row. *)

let experiment_name = function
  | E1 -> "E1"
  | E2 -> "E2"
  | E3 -> "E3"
  | E3b -> "E3b"
  | E4 -> "E4"
  | E5 -> "E5"
  | E6 -> "E6"
  | E7 -> "E7"

let cells { experiment; params = p; measured; verdict } =
  let attacks unit b b' =
    let summary = function
      | Broke values -> Fmt.str "%d values" values
      | Resisted -> "resisted"
      | Failed -> "failed"
    in
    Fmt.str "%d %s: %s; %d: %s" b.budget unit (summary b.found) b'.budget (summary b'.found)
  in
  let bounds, measured =
    match measured with
    | Registers { bound; written; steps; _ } ->
      (Fmt.str "up %d" bound, Fmt.str "wrote %d in %d steps" written steps)
    | Theorem2 { lo; starved; full; written = None } ->
      (Fmt.str "lo %d" lo, attacks "regs" starved full)
    | Theorem2 { lo; starved; full; written = Some w } ->
      (Fmt.str "lo %d = up" lo, Fmt.str "wrote %d; %s" w (attacks "regs" starved full))
    | Clones { registers; at; below } ->
      (Fmt.str "r %d: %d slots" registers at.budget, attacks "slots" at below)
    | Arms arms ->
      (* one bound when the arms share it, else each arm's in order *)
      let bounds = List.map (fun a -> string_of_int a.bound) arms in
      let bounds =
        if List.for_all (( = ) (List.hd bounds)) bounds then [ List.hd bounds ] else bounds
      in
      let arm a = Fmt.str "%s %d in %d" a.name a.written a.steps in
      ("up " ^ String.concat "/" bounds, String.concat ", " (List.map arm arms) ^ " steps")
  in
  let verdict = match verdict with Ok () -> "ok" | Error why -> "FAILED: " ^ why in
  [ experiment_name experiment; Params.to_string p; bounds; measured; verdict ]

let pp ppf rows =
  let lines = [ "exp"; "(n,m,k)"; "bounds"; "measured"; "verdict" ] :: List.map cells rows in
  let width i = List.fold_left (fun w l -> max w (String.length (List.nth l i))) 0 lines in
  let widths = List.init 4 width in
  List.iter
    (List.iteri (fun i c ->
         if i < 4 then Fmt.pf ppf "%-*s  " (List.nth widths i) c else Fmt.pf ppf "%s@\n" c))
    lines
