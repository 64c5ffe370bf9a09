(* Seeded broken protocols.  Both are hand-rolled programs over the
   raw Shm.Program constructors — no snapshot API indirection — so the
   offending step is exactly where the comment says it is and the
   witness paths in the tests stay short. *)

module P = Shm.Program
module V = Shm.Value

type mutant = {
  name : string;
  description : string;
  anonymous : bool;
  rounds : int;
  bound : Agreement.Params.t -> int;
  config : Agreement.Params.t -> Shm.Config.t;
}

(* ------------------------------------------------------------------ *)
(* Mutant 1: out-of-bound scratch write on a rare interleaving.        *)

let is_foreign_pair ~pid v =
  match V.view v with
  | V.Pair (_, id) -> (
    match V.view id with V.Int id -> id <> pid | _ -> false)
  | _ -> false

let oob_program ~m ~pid ~components =
  let pair pref = V.pair pref (V.int pid) in
  let rec loop pref i =
    P.write (i mod components) (pair pref) @@ fun () ->
    P.scan ~off:0 ~len:components @@ fun view ->
    if
      Array.exists (is_foreign_pair ~pid) view
      && Array.exists V.is_bot view
    then
      (* The bug: "remember" the race in a scratch register past the
         last component.  Sequential schedules never get here — the
         first process fills every component before anyone else runs,
         after which no ⊥ remains. *)
      P.write components (pair pref) (fun () -> loop pref (i + 1))
    else
      match Agreement.Oneshot.decide_check ~m view with
      | Some w -> P.yield w P.stop
      | None -> loop pref (i + 1)
  in
  P.await (fun input -> loop input pid)

let oob_oneshot =
  {
    name = "oob-oneshot";
    description =
      "Figure 3 variant writing one register beyond the Theorem 7 bound \
       on the branch 'scan shows a foreign pair while some component is \
       still bot'";
    anonymous = false;
    rounds = 1;
    bound = Agreement.Params.registers_upper;
    config =
      (fun p ->
        let components = Agreement.Params.registers_upper p in
        let procs =
          Array.init p.Agreement.Params.n (fun pid ->
              oob_program ~m:p.Agreement.Params.m ~pid ~components)
        in
        (* one scratch register past the bound, for the buggy branch *)
        Shm.Config.create ~registers:(components + 1) ~procs ());
  }

(* ------------------------------------------------------------------ *)
(* Mutant 2: anonymous protocol embedding the pid in written values.   *)

let leak_program ~m ~pid ~components =
  let rec loop pref i iter =
    P.scan ~off:0 ~len:components @@ fun view ->
    match Agreement.Anonymous_oneshot.decide_check ~m view with
    | Some w -> P.yield w P.stop
    | None ->
        let value =
          if iter <= 1 then pref
          else
            (* The bug: from the second write on, the stored value
               carries the process id — indistinguishable by register
               counts, caught by the lockstep anonymity lint. *)
            V.pair pref (V.int pid)
        in
        P.write (i mod components) value @@ fun () ->
        loop pref (i + 1) (iter + 1)
  in
  P.await (fun input -> loop input 0 1)

let pid_leak_anonymous =
  {
    name = "pid-leak-anonymous";
    description =
      "anonymous one-shot variant whose writes after the first embed \
       the process id in the written value";
    anonymous = true;
    rounds = 1;
    bound = Agreement.Params.r_anonymous;
    config =
      (fun p ->
        let components = Agreement.Params.r_anonymous p in
        let procs =
          Array.init p.Agreement.Params.n (fun pid ->
              leak_program ~m:p.Agreement.Params.m ~pid ~components)
        in
        Shm.Config.create ~registers:components ~procs ());
  }

let all = [ oob_oneshot; pid_leak_anonymous ]

let check mu p =
  Lint.check ~rounds:mu.rounds ~anonymous:mu.anonymous (mu.config p)

let rejected mu p =
  let summary, diags = check mu p in
  Absint.IntSet.cardinal summary.Absint.writes > mu.bound p
  || Lint.errors diags <> []
