(* sa-attack: run the paper's lower-bound constructions from the
   command line.

   Examples:
     sa_attack theorem2 -n 5 -m 1 -k 2 --registers 3
     sa_attack theorem2 -n 5 -m 1 -k 2            (defaults to lower-1)
     sa_attack clones -k 1 --registers 3 --slots 8 *)

open Cmdliner
open Lowerbound

let theorem2 p registers icap =
  let registers =
    match registers with Some r -> r | None -> Agreement.Params.registers_lower p - 1
  in
  Fmt.pr "Theorem 2 construction: %s with %d registers (lower bound %d, algorithm uses %d)@."
    (Agreement.Params.to_string p)
    registers
    (Agreement.Params.registers_lower p)
    (Agreement.Params.registers_upper p);
  let outcome =
    Theorem2.attack ~params:p ~registers
      ~make_config:(fun ~registers -> Agreement.Instances.repeated ~r:registers p)
      ~icap ()
  in
  Fmt.pr "%a@." Theorem2.pp_outcome outcome;
  match outcome with
  | Theorem2.Violation { config; groups; _ } ->
    groups
    |> List.iter (fun g ->
           Fmt.pr "  group %d: Q={%a} P={%a} A={%a}@." g.Theorem2.index
             Fmt.(list ~sep:comma int)
             g.Theorem2.final_q
             Fmt.(list ~sep:comma int)
             g.Theorem2.pset
             Fmt.(list ~sep:comma int)
             g.Theorem2.aset);
    (match Spec.Properties.check_safety ~k:p.Agreement.Params.k config with
    | Error e -> Fmt.pr "checker: %s@." e
    | Ok () -> Fmt.pr "checker: found nothing (unexpected)@.");
    0
  | Theorem2.Out_of_processes _ -> 1
  | Theorem2.Gamma_failed _ -> 2

let clones k registers slots =
  let c = k + 1 in
  let slots =
    match slots with
    | Some s -> s
    | None -> c * (1 + (((registers * registers) - registers) / 2))
  in
  let p = Cli.params ~n:slots ~m:1 ~k in
  Fmt.pr
    "Section 5 clone construction: k=%d, %d registers, %d process slots (theorem \
     threshold %d)@."
    k registers slots
    (c * (1 + (((registers * registers) - registers) / 2)));
  let outcome =
    Clones.attack ~params:p ~registers ~slots
      ~make_config:(fun ~registers ~slots ->
        Agreement.Instances.anonymous_oneshot ~r:registers ~slots p)
  in
  Fmt.pr "%a@." Clones.pp_outcome outcome;
  match outcome with Clones.Violation _ -> 0 | _ -> 1

let theorem2_cmd =
  let registers =
    Arg.(value & opt (some int) None & info [ "registers"; "r" ] ~doc:"Register budget.")
  in
  let icap = Arg.(value & opt int 4 & info [ "icap" ] ~doc:"Ordinary-instance cap.") in
  Cmd.v
    (Cmd.info "theorem2" ~doc:"Run the Figure 2 adversary against Figure 4")
    Term.(
      const theorem2 $ Cli.nmk ~n_doc:"Processes." ~n:5 ~m:1 ~k:2 () $ registers $ icap)

let clones_cmd =
  let k = Arg.(value & opt int 1 & info [ "k" ] ~doc:"Agreement bound.") in
  let registers = Arg.(value & opt int 3 & info [ "registers"; "r" ] ~doc:"Registers.") in
  let slots =
    Arg.(value & opt (some int) None & info [ "slots" ] ~doc:"Process slots.")
  in
  Cmd.v
    (Cmd.info "clones" ~doc:"Run the anonymous clone construction")
    Term.(const clones $ k $ registers $ slots)

let () =
  exit
    (Cmd.eval'
       (Cmd.group
          (Cmd.info "sa_attack" ~doc:"Executable lower bounds of the paper")
          [ theorem2_cmd; clones_cmd ]))
