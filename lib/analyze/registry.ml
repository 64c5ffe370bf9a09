(* The analyzer's algorithm registry: name → configuration + paper
   bound + dynamic measurement.  Bounds come from Bounds.Formulas so
   the analyzer and the bench tables can never disagree on Figure 1. *)

type entry = {
  name : string;
  figure : string;
  anonymous : bool;
  rounds : int;
  applicable : Agreement.Params.t -> bool;
  registers : Agreement.Params.t -> int;
  bound : Agreement.Params.t -> int;
  bound_label : string;
  config : Agreement.Params.t -> Shm.Config.t;
}

let cell_upper name p =
  match Bounds.Formulas.for_algorithm name with
  | Some c -> int_of_float (Float.ceil (c.Bounds.Formulas.upper p))
  | None -> invalid_arg ("Registry: no bounds cell for " ^ name)

let oneshot =
  {
    name = "oneshot";
    figure = "Figure 3";
    anonymous = false;
    rounds = 1;
    applicable = (fun _ -> true);
    registers =
      (fun p ->
        let impl = Agreement.Instances.space_optimal_impl p in
        Agreement.Instances.registers_for impl
          ~r:(Agreement.Params.r_oneshot p) ~n:p.Agreement.Params.n);
    bound = cell_upper "oneshot";
    bound_label = "Theorem 7: min(n+2m-k, n)";
    config =
      (fun p ->
        Agreement.Instances.oneshot
          ~impl:(Agreement.Instances.space_optimal_impl p) p);
  }

let repeated =
  {
    oneshot with
    name = "repeated";
    figure = "Figure 4";
    rounds = 2;
    bound = cell_upper "repeated";
    bound_label = "Theorem 8: min(n+2m-k, n)";
    config =
      (fun p ->
        Agreement.Instances.repeated
          ~impl:(Agreement.Instances.space_optimal_impl p) p);
  }

let anonymous =
  {
    name = "anonymous";
    figure = "Figure 5";
    anonymous = true;
    rounds = 2;
    applicable = (fun _ -> true);
    registers = (fun p -> Agreement.Params.r_anonymous p + 1);
    bound = cell_upper "anonymous";
    bound_label = "Theorem 11: (m+1)(n-k) + m^2 + 1";
    config = (fun p -> Agreement.Instances.anonymous p);
  }

let baseline =
  {
    name = "baseline";
    figure = "DFGR'13 (Section 4.1)";
    anonymous = false;
    rounds = 1;
    applicable =
      (fun p ->
        p.Agreement.Params.m = 1
        && Agreement.Baseline_dfgr13.supported ~n:p.Agreement.Params.n
             ~k:p.Agreement.Params.k);
    registers = (fun p -> Agreement.Params.r_dfgr13 p);
    bound = cell_upper "baseline";
    bound_label = "DFGR'13: 2(n-k)";
    config = (fun p -> Agreement.Instances.baseline p);
  }

let all = [ oneshot; repeated; anonymous; baseline ]

let names = List.map (fun e -> e.name) all

let find name = List.find_opt (fun e -> String.equal e.name name) all

(* Round-robin run with default inputs, stopped early once every
   register has been written: the written set only grows and cannot
   outgrow the memory, so the rest of the run (up to the 400,000-step
   fuel) could not change the result. *)
let measure_dynamic e p =
  let config = e.config p in
  let inputs ~pid ~instance =
    if instance <= e.rounds then
      Some (Agreement.Runner.default_input ~pid ~instance)
    else None
  in
  let size = Shm.Memory.size (Shm.Config.mem config) in
  let exception All_written of Shm.Memory.t in
  let probe ~step:_ ev c =
    match ev with
    | Shm.Event.Did_write _ ->
      let mem = Shm.Config.mem c in
      if Shm.Memory.num_written mem = size then raise (All_written mem)
    | _ -> ()
  in
  let mem =
    match
      Shm.Exec.run ~probe ~max_steps:400_000
        ~sched:(Shm.Schedule.round_robin (Shm.Config.n config))
        ~inputs config
    with
    | result -> Shm.Config.mem result.Shm.Exec.config
    | exception All_written mem -> mem
  in
  Shm.Memory.written_set mem

let grid = Agreement.Params.grid
