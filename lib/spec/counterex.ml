(* The common counterexample currency of the exploration stack.

   Every engine that can exhibit a safety violation — the naive
   exhaustive checker, the DPOR engine, the randomized stress harness —
   reports it as a value of this one type: the pid schedule that
   produced it, the checker's error message, and the final
   configuration.  The schedule is the replayable artifact: processes
   are deterministic, so a pid sequence pins down the entire execution,
   and [replay] reproduces (and re-grades) the violation from the
   initial configuration alone.  The shrinker (Spec.Shrink) works
   exclusively through [replay], so anything reported here can be
   minimized.

   The frontier-completion rule lives here too, since [replay] and
   every engine complete through it, along with its per-domain memo
   ([complete_check]). *)

open Shm

type t = {
  schedule : int list;  (* pids, in step order *)
  error : string;       (* what the property checker reported *)
  config : Config.t;    (* the configuration the checker rejected *)
}

let pp ppf { schedule; error; _ } =
  Fmt.pf ppf "schedule [%s]: %s"
    (String.concat " " (List.map string_of_int schedule))
    error

(* One step of [pid] under the single stepping rule every engine
   shares ([Config.advance]), so "schedule" means the same thing
   everywhere; halted and input-starved processes are left unchanged. *)
let step_pid ~inputs config pid =
  let has_input pid instance = Option.is_some (inputs ~pid ~instance) in
  if Config.runnable config ~has_input pid then fst (Config.advance ~inputs config pid)
  else config

(* [step_pid] over a pid schedule, skipping pids out of range too: the
   one re-execution of a schedule (see the interface). *)
let run_schedule ~inputs config schedule =
  let n = Config.n config in
  List.fold_left
    (fun config pid -> if pid >= 0 && pid < n then step_pid ~inputs config pid else config)
    config schedule

(* ---- frontier completion ---- *)

(* The completion rule of the model checkers: quantum round-robin
   ([Schedule.quantum_pick]) with q = 2000 from pid 0, long solo bursts
   that drive a configuration to quiescence deterministically, within a
   default budget of 50,000 steps. *)
let quantum = 2000
let completion_steps = 50_000

(* The completion memo: a direct-mapped flat table from (state key,
   cursor) at the first step of a burst to the number of steps the
   completion from there took to quiesce with an [Ok] verdict.  Six
   ints per slot — the four key ints, the cursor, the length (0: an
   empty slot; a stored length is at least the one step its burst
   starts with).  It starts at 32 slots (small enough for the minor
   heap) and doubles while half full, up to 2^16 slots (3 MB), so tiny
   explorations pay almost nothing. *)
type memo = { mutable slots : int array; mutable used : int; mutable hits : int }

let width = 6
let max_slots = 1 lsl 16
let memo () = { slots = Array.make (32 * width) 0; used = 0; hits = 0 }
let memo_hits m = m.hits
let memo_entries m = m.used

(* The slot of a (key, cursor) entry, from its five ints. *)
let index slots ~mem ~locals ~inp ~out ~cursor =
  let h = Value.mix (Value.mix (Value.mix (Value.mix mem locals) inp) out) cursor in
  (h land (Array.length slots / width - 1)) * width

let find m (k : Statehash.key) cursor =
  let s = m.slots in
  let i = index s ~mem:k.k_mem ~locals:k.k_locals ~inp:k.k_in ~out:k.k_out ~cursor in
  if
    s.(i + 5) > 0 && s.(i) = k.k_mem && s.(i + 1) = k.k_locals && s.(i + 2) = k.k_in
    && s.(i + 3) = k.k_out && s.(i + 4) = cursor
  then s.(i + 5)
  else 0

let put m ~mem ~locals ~inp ~out ~cursor len =
  let s = m.slots in
  let i = index s ~mem ~locals ~inp ~out ~cursor in
  if s.(i + 5) = 0 then m.used <- m.used + 1;
  s.(i) <- mem;
  s.(i + 1) <- locals;
  s.(i + 2) <- inp;
  s.(i + 3) <- out;
  s.(i + 4) <- cursor;
  s.(i + 5) <- len

(* Doubling re-files every entry; entries that then share a slot keep
   the last one, as a direct-mapped table always does. *)
let add m (k : Statehash.key) cursor len =
  let old = m.slots in
  let nslots = Array.length old / width in
  if 2 * m.used >= nslots && nslots < max_slots then begin
    m.slots <- Array.make (2 * Array.length old) 0;
    m.used <- 0;
    for e = 0 to nslots - 1 do
      let i = e * width in
      if old.(i + 5) > 0 then
        put m ~mem:old.(i) ~locals:old.(i + 1) ~inp:old.(i + 2) ~out:old.(i + 3)
          ~cursor:old.(i + 4) old.(i + 5)
    done
  end;
  put m ~mem:k.k_mem ~locals:k.k_locals ~inp:k.k_in ~out:k.k_out ~cursor len

(* How a completion run ended: out of fuel, quiescent, or at a memo
   hit that fit the remaining budget. *)
type ending = Fuel | Quiesced | Hit

type run = {
  final : Config.t;
  ending : ending;
  steps : int;  (* with a hit, the stored length included *)
  pending : (Statehash.key * int * int) list;  (* (key, cursor, step) looked up *)
}

(* The completion loop: the rule from cursor 0 with a full quantum,
   for at most [max_steps] steps.

   With [memo = Some (m, hash)] ([hash] is [config]'s Statehash) it
   looks up ([Statehash.inert_key], cursor) at the first step of every
   burst, the leaf itself included.  A burst start is a memoryless
   scheduler state (the cursor is the pid about to step, the quantum is
   full), so the key and the cursor determine the rest of the run.
   The key needs every process that has stepped to be inert, and
   inertness is permanent, so only the previous burst's pid needs a
   look; once it is still runnable (its quantum ran out), the run stops
   looking.  A hit whose length fits the remaining budget ends the
   run.  [cursor] is the pid that stepped last.  Nothing is allocated
   per step beyond [Config.advance]: [runnable] is static and
   [step_on], always applied in tail position, compiles to a jump. *)
let runnable has_input config pid = Config.runnable config ~has_input pid

let drive ?memo ~inputs ~max_steps config =
  let n = Config.n config in
  let has_input pid inst = Option.is_some (inputs ~pid ~instance:inst) in
  let rec go config step cursor left looking pending =
    if step >= max_steps then { final = config; ending = Fuel; steps = step; pending }
    else
      let pid = Schedule.quantum_pick ~runnable has_input config n ~cursor ~left in
      if pid < 0 then { final = config; ending = Quiesced; steps = step; pending }
      else
        let left = (if pid = cursor && left > 0 then left else quantum) - 1 in
        let fresh = left = quantum - 1 in
        let looking =
          looking && (not fresh || step = 0 || not (runnable has_input config cursor))
        in
        let step_on pending =
          let config, _ = Config.advance ~inputs config pid in
          go config (step + 1) pid left looking pending
        in
        match memo with
        | Some (m, hash) when looking && fresh ->
          let key = Statehash.inert_key hash ~has_input config in
          let len = find m key pid in
          if len > 0 && step + len <= max_steps then begin
            m.hits <- m.hits + 1;
            { final = config; ending = Hit; steps = step + len; pending }
          end
          else step_on ((key, pid, step) :: pending)
        | _ -> step_on pending
  in
  go config 0 0 quantum (memo <> None) []

(* Drive [config] to quiescence deterministically (long solo bursts),
   the completion rule of the model checkers; also the steps taken. *)
let complete ~inputs ~max_steps config =
  let { final; steps; _ } = drive ~inputs ~max_steps config in
  (final, steps)

(* The same rule over a compiled vm state, in place at [base]: the vm
   engine's leaf completion.  Returns the steps taken. *)
let complete_vm e st base ~max_steps =
  let n = (Vm.proto_env e).Vm.n in
  let runnable e st pid = Vm.runnable e st base pid in
  let rec go step cursor left =
    if step >= max_steps then step
    else
      let pid = Schedule.quantum_pick ~runnable e st n ~cursor ~left in
      if pid < 0 then step
      else begin
        Vm.step e st base pid;
        go (step + 1) pid ((if pid = cursor && left > 0 then left else quantum) - 1)
      end
  in
  go 0 0 quantum

(* [check (complete config)], answered from the memo where it can be:
   a hit is [Ok] with no further stepping and no [check] call.  A run
   that ends [Ok] without running out of fuel files every key it looked
   up with the steps that remained from there; a violation or a run out
   of fuel files nothing, so every error (and its string) comes from a
   real completion. *)
let complete_check ?memo ~inputs ~max_steps ~check config =
  let { final; ending; steps; pending } = drive ?memo ~inputs ~max_steps config in
  let verdict = if ending = Hit then Ok () else check final in
  (match memo with
  | Some (m, _) when ending <> Fuel && Result.is_ok verdict ->
    List.iter (fun (key, cursor, step) -> add m key cursor (steps - step)) pending
  | _ -> ());
  verdict

(* Tolerant replay: [run_schedule], optionally completed, re-checked.
   Tolerance matters for minimization: shrinking removes steps, which
   can strand later ones, and a candidate schedule with a stranded step
   is simply a shorter schedule, not an invalid one. *)
let replay ?completion_steps ~inputs ~check config schedule =
  let final = run_schedule ~inputs config schedule in
  let final =
    match completion_steps with
    | Some max_steps -> fst (complete ~inputs ~max_steps final)
    | None -> final
  in
  match check final with Ok () -> None | Error error -> Some (error, final)
