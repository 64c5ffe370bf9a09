(* sa-table: print the paper's Figure 1 bounds table for concrete
   parameters, next to the registers our implementations actually use.

   Example:  sa_table -n 8 *)

open Cmdliner

let measure_repeated p =
  let n = p.Agreement.Params.n in
  let impl =
    if Agreement.Params.r_oneshot p <= n then Agreement.Instances.Atomic
    else Agreement.Instances.Sw_based
  in
  let result =
    Agreement.Runner.run_repeated ~impl ~rounds:2
      ~sched:(Shm.Schedule.quantum_round_robin ~quantum:500 n)
      ~max_steps:2_000_000 p
  in
  Agreement.Runner.registers_used result

let measure_anonymous p =
  let n = p.Agreement.Params.n in
  let result =
    Agreement.Runner.run_anonymous ~rounds:2
      ~sched:(Shm.Schedule.quantum_round_robin ~quantum:500 n)
      ~max_steps:4_000_000 p
  in
  Agreement.Runner.registers_used result

let print_table n =
  Fmt.pr "Figure 1 for n = %d (registers: paper bound vs measured)@." n;
  Fmt.pr "%-8s %-22s %-22s %-10s %s@." "(m,k)" "non-anon rep. [lo,up]"
    "anon rep. [lo,up]" "meas.rep" "meas.anon";
  for k = 1 to n - 1 do
    for m = 1 to k do
      let p = Cli.params ~n ~m ~k in
      let lo = Agreement.Params.registers_lower p in
      let up = Agreement.Params.registers_upper p in
      let alo = Agreement.Params.anon_lower_bound p in
      let aup = Agreement.Params.r_anonymous p + 1 in
      let meas = measure_repeated p in
      let ameas = measure_anonymous p in
      Fmt.pr "%-8s %-22s %-22s %-10d %d@." (Fmt.str "(%d,%d)" m k)
        (Fmt.str "[%d, %d]" lo up) (Fmt.str "[%.1f, %d]" alo aup) meas ameas
    done
  done

let cmd =
  let n = Arg.(value & opt int 6 & info [ "n" ] ~doc:"Number of processes.") in
  Cmd.v
    (Cmd.info "sa_table" ~doc:"Print the Figure 1 bounds table with measurements")
    Term.(const print_table $ n)

let () = exit (Cmd.eval cmd)
