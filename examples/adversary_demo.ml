(* The Theorem 2 lower bound, live.

   We run the repeated k-set agreement algorithm twice: once with one
   register fewer than the paper's n+m−k lower bound — the Figure 2
   adversary then constructs an execution in which a single instance
   outputs k+1 different values — and once with the correct register
   count, against which the same adversary runs out of processes exactly
   as the proof's counting argument predicts.

   Run with:  dune exec examples/adversary_demo.exe *)

open Agreement
open Lowerbound

let attack ~label p ~registers =
  Fmt.pr "@.== %s: %s with %d registers (lower bound: %d) ==@." label
    (Params.to_string p) registers
    (Params.registers_lower p);
  let outcome =
    Theorem2.attack ~params:p ~registers
      ~make_config:(fun ~registers -> Instances.repeated ~r:registers p)
      ~icap:4 ()
  in
  Fmt.pr "%a@." Theorem2.pp_outcome outcome;
  match outcome with
  | Theorem2.Violation { config; groups; instance; _ } ->
    Fmt.pr "groups (Qj / Pj / Aj):@.";
    groups
    |> List.iter (fun g ->
           Fmt.pr "  j=%d  Q={%a}  P={%a}  A={%a}@." g.Theorem2.index
             Fmt.(list ~sep:(any ", ") int)
             g.Theorem2.final_q
             Fmt.(list ~sep:(any ", ") int)
             g.Theorem2.pset
             Fmt.(list ~sep:(any ", ") int)
             g.Theorem2.aset);
    (* Independent certification by the property checker. *)
    (match Spec.Properties.check_safety ~k:p.Params.k config with
    | Error e -> Fmt.pr "checker: %s@." e
    | Ok () -> Fmt.pr "checker found nothing?! (bug)@.");
    Fmt.pr "validity errors: %d (must be 0: the execution is legal)@."
      (List.length (Spec.Properties.validity_errors config));
    ignore instance
  | Theorem2.Out_of_processes _ | Theorem2.Gamma_failed _ -> ()

let () =
  let p = Params.make ~n:5 ~m:1 ~k:2 in
  (* n+m−k = 4: three registers are provably not enough. *)
  attack ~label:"starved" p ~registers:(Params.registers_lower p - 1);
  (* the algorithm's own budget resists *)
  attack ~label:"correct" p ~registers:(Params.r_oneshot p)
