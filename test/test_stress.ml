(* Tests for the stress harness and the Workload generators. *)

open Helpers
open Agreement

let oneshot_inputs n = Shm.Exec.oneshot_inputs (Array.init n (fun pid -> vi pid))

(* Correct systems survive. *)
let correct_survives () =
  let p = Params.make ~n:5 ~m:2 ~k:2 in
  match
    Spec.Stress.run ~runs:30 ~k:2 ~n:5
      ~build:(fun () -> Instances.oneshot p)
      ~inputs:(oneshot_inputs 5) ()
  with
  | Spec.Stress.Survived { runs } -> Alcotest.(check int) "all runs" 60 runs
  | Spec.Stress.Broken _ as v ->
    Alcotest.failf "correct system broke: %a" Spec.Stress.pp_verdict v

(* Register-starved systems are caught, with a replayable witness. *)
let starved_is_caught () =
  let p = Params.make ~n:5 ~m:2 ~k:2 in
  match
    Spec.Stress.run ~runs:100 ~k:2 ~n:5
      ~build:(fun () -> Instances.oneshot ~r:2 p)
      ~inputs:(oneshot_inputs 5) ()
  with
  | Spec.Stress.Broken { config; error; _ } ->
    Alcotest.(check bool) "error mentions agreement" true
      (String.length error > 0);
    (* the witness config independently re-checks *)
    Alcotest.(check bool) "witness re-checks" true
      (Spec.Properties.check_safety ~k:2 config |> Result.is_error)
  | Spec.Stress.Survived _ -> Alcotest.fail "starved system survived stress"

(* The m-bounded family also respects safety on correct systems. *)
let m_bounded_family () =
  let p = Params.make ~n:4 ~m:1 ~k:2 in
  match
    Spec.Stress.run ~runs:20
      ~families:[ Spec.Stress.M_bounded 1 ]
      ~k:2 ~n:4
      ~build:(fun () -> Instances.oneshot p)
      ~inputs:(oneshot_inputs 4) ()
  with
  | Spec.Stress.Survived _ -> ()
  | Spec.Stress.Broken _ as v -> Alcotest.failf "%a" Spec.Stress.pp_verdict v

(* The §7 gap between n+m−k and n+2m−k for Figure 4 at (4,2,2), two
   rounds of inputs 100·i + pid under bursty random schedules: on
   n+m−k = 4 registers, seeds 183 and 189 break 2-agreement in
   instance 2 (outputs 200, 201 and 202, after 60 and 62 steps); on 5
   registers (the gap) and on n+2m−k = 6 both schedules are safe.  So
   Theorem 2's n+m−k is not enough for Figure 4 here, and whether it
   needs all of n+2m−k stays open. *)
let gap_at_4_2_2 () =
  let p = Params.make ~n:4 ~m:2 ~k:2 in
  let run ~r seed =
    let inputs =
      Shm.Exec.repeated_inputs ~rounds:2 (fun pid i -> vi ((100 * i) + pid))
    in
    let sched = Shm.Schedule.bursty_random ~seed (List.init 4 Fun.id) in
    Shm.Exec.run ~sched ~inputs ~max_steps:60_000 (Instances.repeated ~r p)
  in
  List.iter
    (fun (seed, steps) ->
      let res = run ~r:4 seed in
      let config = res.Shm.Exec.config in
      Alcotest.(check int) (Fmt.str "seed %d steps" seed) steps res.Shm.Exec.steps;
      (match Spec.Properties.agreement_errors ~k:2 config with
      | [ e ] when String.starts_with ~prefix:"instance 2: 3 distinct outputs" e -> ()
      | errs -> Alcotest.failf "seed %d: %s" seed (String.concat "; " errs));
      let outputs =
        List.concat_map
          (fun (i, _, outs) -> if i = 2 then Spec.Properties.distinct_values outs else [])
          (Spec.Properties.by_instance config)
      in
      Alcotest.(check (list string)) (Fmt.str "seed %d: instance 2 outputs" seed)
        [ "200"; "201"; "202" ]
        (List.sort compare (List.map Shm.Value.to_string outputs)))
    [ (183, 60); (189, 62) ];
  List.iter
    (fun r ->
      List.iter
        (fun seed ->
          Alcotest.(check (list string)) (Fmt.str "r=%d seed %d safe" r seed) []
            (Spec.Properties.agreement_errors ~k:2 (run ~r seed).Shm.Exec.config))
        [ 183; 189 ])
    [ 5; 6 ]

(* ---- workloads ---- *)

let workload_shapes () =
  let n = 10 in
  Alcotest.(check int) "distinct has n values" n
    (Workload.distinct_inputs Workload.Distinct ~n);
  Alcotest.(check int) "identical has 1" 1
    (Workload.distinct_inputs Workload.Identical ~n);
  Alcotest.(check int) "two camps has 2" 2
    (Workload.distinct_inputs Workload.Two_camps ~n);
  Alcotest.(check bool) "skewed has a majority" true
    (let inputs = Workload.inputs Workload.Skewed ~n in
     Agreement.View.count (Shm.Value.equal (vi 100)) inputs > n / 2);
  Alcotest.(check bool) "binary has <= 2" true
    (Workload.distinct_inputs (Workload.Binary_random 3) ~n <= 2)

let workloads_all_safe () =
  Workload.all
  |> List.iter (fun w ->
         let n = 6 in
         let p = Params.make ~n ~m:1 ~k:2 in
         let inputs = Workload.inputs w ~n in
         for seed = 0 to 9 do
           let result =
             Runner.run_oneshot ~inputs ~sched:(Shm.Schedule.random ~seed n) p
           in
           assert_safe ~k:2 result
         done)

let workload_names_unique () =
  let names = List.map Workload.name Workload.all in
  Alcotest.(check int) "unique names" (List.length names)
    (List.length (List.sort_uniq compare names))

let suite =
  [
    test "stress: correct system survives" correct_survives;
    test "stress: starved system caught with witness" starved_is_caught;
    test "stress: m-bounded family" m_bounded_family;
    test "figure 4 at (4,2,2) breaks on n+m-k registers, not above" gap_at_4_2_2;
    test "workload shapes" workload_shapes;
    test "all workloads safe" workloads_all_safe;
    test "workload names unique" workload_names_unique;
  ]
