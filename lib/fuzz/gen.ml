(* Sized random-protocol generation.

   Programs are first-order data (step lists) compiled to the free
   monad, not closures built directly: the corpus mutates them, the
   shrinker drops steps from them, and witnesses print them.  The
   invariants the rest of the fuzzer leans on — all register accesses
   in bounds, all iteration bounded, decide-then-halt — hold by
   construction here, and nowhere else needs to re-establish them. *)

(* The step language is [Shm.Vm]'s: every generated protocol is
   directly a dataflow/optimizer subject and a bytecode-compilation
   subject, and the corpus's textual form round-trips through
   [Analyze.Ir.parse].  The record is re-exported so its fields read
   as [p.Gen.steps]. *)
type program = Shm.Vm.proto = { registers : int; n : int; steps : Shm.Vm.step list }

type schedule = int list

(* Bump when generation, mutation or the textual form changes shape:
   corpus files carry it, and CI keys its corpus cache on it — stale
   seeds are regenerated rather than replayed wrongly. *)
let version = "2"

(* ------------------------------------------------------------------ *)
(* Generation *)

type sizes = {
  max_registers : int;
  max_procs : int;
  max_steps : int;
  max_loop : int;
  max_sched : int;
}

let default_sizes =
  { max_registers = 4; max_procs = 4; max_steps = 7; max_loop = 3; max_sched = 48 }

let gen_src rng : Shm.Vm.src =
  match Shm.Rng.int rng 4 with
  | 0 -> Input
  | 1 -> Const (Shm.Rng.int rng 3)
  | _ -> Last (* bias toward data flow: written values depend on reads *)

(* One step.  [depth] > 0 allows a (shallower) loop; loop bodies are
   decide-free so the body's step count is exact fuel. *)
let rec gen_step rng ~registers ~sizes ~depth : Shm.Vm.step =
  let reg () = Shm.Rng.int rng registers in
  match Shm.Rng.int rng (if depth > 0 then 10 else 8) with
  | 0 | 1 | 2 -> Read (reg ())
  | 3 | 4 | 5 -> Write (reg (), gen_src rng)
  | 6 | 7 ->
    let off = Shm.Rng.int rng registers in
    let len = 1 + Shm.Rng.int rng (registers - off) in
    Scan (off, len)
  | _ ->
    let count = 2 + Shm.Rng.int rng (max 1 (sizes.max_loop - 1)) in
    let body_len = 1 + Shm.Rng.int rng 2 in
    Loop
      ( count,
        List.init body_len (fun _ ->
            gen_step rng ~registers ~sizes ~depth:(depth - 1)) )

let generate ?(sizes = default_sizes) rng =
  let registers = 1 + Shm.Rng.int rng sizes.max_registers in
  let n = 2 + Shm.Rng.int rng (max 1 (sizes.max_procs - 1)) in
  let len = 1 + Shm.Rng.int rng sizes.max_steps in
  let steps =
    List.init len (fun _ -> gen_step rng ~registers ~sizes ~depth:1)
  in
  (* every process outputs: end on a Decide (mid-list Decides halt
     early, which is fine — the tail is dead code the shrinker eats) *)
  let steps =
    match List.rev steps with
    | Decide _ :: _ -> steps
    | _ -> steps @ [ Shm.Vm.Decide (gen_src rng) ]
  in
  { registers; n; steps }

let gen_schedule rng ~n =
  let len = n + Shm.Rng.int rng (max 1 (default_sizes.max_sched - n + 1)) in
  List.init len (fun _ -> Shm.Rng.int rng n)

(* ------------------------------------------------------------------ *)
(* Structure *)

let rec step_fuel : Shm.Vm.step -> int = function
  | Read _ | Write _ | Scan _ -> 1
  | Decide _ -> 1
  | Loop (count, body) ->
    count * List.fold_left (fun acc s -> acc + step_fuel s) 0 body

let flat_length p = List.fold_left (fun acc s -> acc + step_fuel s) 0 p.steps

(* ------------------------------------------------------------------ *)
(* Execution: replay through the shared stepping rule
   ([Shm.Schedule.replay] over [Shm.Config.advance]) so a fuzz schedule
   means exactly what a model-checker counterexample schedule means.
   Mutated schedules may carry pids from a program with more
   processes; the replay skips them like blocked pids. *)

let run ?backend p schedule =
  Shm.Exec.run ~record:true
    ~sched:(Shm.Schedule.replay ~n:p.n schedule)
    ~inputs:Agreement.Runner.proto_inputs
    ~max_steps:(List.length schedule + 1)
    (Shm.Vm.config ?backend p)

(* ------------------------------------------------------------------ *)
(* Schedule rendering (programs render through [Analyze.Ir]) *)

let schedule_to_string s = String.concat " " (List.map string_of_int s)

let schedule_of_string s =
  let fields =
    String.split_on_char ' ' (String.trim s)
    |> List.filter (fun f -> f <> "")
  in
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | f :: tl -> (
      match int_of_string_opt f with
      | Some pid -> go (pid :: acc) tl
      | None -> Error (Fmt.str "bad schedule entry %S" f))
  in
  go [] fields
