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
   every engine complete through it, along with its memo
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
   explorations pay almost nothing.

   Beside it, the solo-burst summaries: a direct-mapped table from
   (pid, its observation hash, its instance, the memory sum) at the
   start of a burst to that burst's net effect, for bursts that ended
   with their process inert inside one quantum and the budget.  Nine
   ints per slot — the four key ints, the burst's length (0: an empty
   slot), its change to each of the inert key's four sums — and the
   burst's [Config.patch] in a parallel array, read only when a run
   applies it.  It starts at 32 slots and doubles the same way. *)
type memo = {
  mutable slots : int array;
  mutable used : int;
  mutable hits : int;
  mutable sums : int array;
  mutable patches : Config.patch array;  (* empty until the first store *)
  mutable stored : int;
  mutable summary_hits : int;
}

let width = 6
let swidth = 9
let max_slots = 1 lsl 16

let memo () =
  { slots = Array.make (32 * width) 0; used = 0; hits = 0;
    sums = Array.make (32 * swidth) 0; patches = [||]; stored = 0; summary_hits = 0 }

let memo_hits m = m.hits
let memo_entries m = m.used
let summary_hits m = m.summary_hits

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

let summary_slot sums ~pid ~obs ~inst ~mem =
  Value.mix (Value.mix (Value.mix pid obs) inst) mem land (Array.length sums / swidth - 1)

(* The slot holding the key's summary, or -1. *)
let find_summary m ~pid ~obs ~inst ~mem =
  let s = m.sums in
  let e = summary_slot s ~pid ~obs ~inst ~mem in
  let i = e * swidth in
  if s.(i + 4) > 0 && s.(i) = pid && s.(i + 1) = obs && s.(i + 2) = inst && s.(i + 3) = mem
  then e
  else -1

(* File the [swidth] ints at [row.(off)] with their patch. *)
let file m row off patch =
  let s = m.sums in
  let e =
    summary_slot s ~pid:row.(off) ~obs:row.(off + 1) ~inst:row.(off + 2) ~mem:row.(off + 3)
  in
  if s.(e * swidth + 4) = 0 then m.stored <- m.stored + 1;
  Array.blit row off s (e * swidth) swidth;
  m.patches.(e) <- patch

(* Doubling re-files every entry, as [add] does; any patch fills the
   new patch array, since an empty slot's patch is never read. *)
let store m row patch =
  let old = m.sums and old_patches = m.patches in
  let nslots = Array.length old / swidth in
  if Array.length old_patches = 0 then m.patches <- Array.make nslots patch
  else if 2 * m.stored >= nslots && nslots < max_slots then begin
    m.sums <- Array.make (2 * Array.length old) 0;
    m.patches <- Array.make (2 * nslots) patch;
    m.stored <- 0;
    for e = 0 to nslots - 1 do
      if old.((e * swidth) + 4) > 0 then file m old (e * swidth) old_patches.(e)
    done
  end;
  file m row 0 patch

(* The completion rule from cursor 0 with a full quantum, for at most
   [max_steps] steps.  [runnable] is static, so the loop allocates
   nothing per step beyond [Config.advance]. *)
let runnable has_input config pid = Config.runnable config ~has_input pid

let complete ~inputs ~max_steps config =
  let n = Config.n config in
  let has_input pid inst = Option.is_some (inputs ~pid ~instance:inst) in
  let rec go config step cursor left =
    if step >= max_steps then (config, step)
    else
      let pid = Schedule.quantum_pick ~runnable has_input config n ~cursor ~left in
      if pid < 0 then (config, step)
      else
        let config, _ = Config.advance ~inputs config pid in
        go config (step + 1) pid ((if pid = cursor && left > 0 then left else quantum) - 1)
  in
  go config 0 0 quantum

(* ---- the memoized completion ---- *)

(* How a memoized run ended: out of fuel, quiescent, or at a memo hit
   that fit the remaining budget. *)
type ending = Fuel | Quiesced | Hit

type run = {
  final : Config.t;  (* with patches still pending on a hit *)
  ending : ending;
  steps : int;  (* with a hit, the stored length included *)
  pending : (Statehash.key * int * int) list;  (* (key, cursor, step) looked up *)
  summarized : bool;  (* some burst was answered from a summary *)
}

(* The burst being stepped for a summary: its process, that process's
   observation hash, the (settled) configuration and step it started
   at, the inert key there, and the registers it has written. *)
type burst = {
  b_pid : int;
  b_obs : int;
  b_start : Config.t;
  b_step : int;
  b_key : Statehash.key;
  mutable wrote : int list;
}

(* A run's state beyond [go]'s arguments.  [live] has bit p set iff p
   is runnable in the configuration the run has reached: a step
   changes only its own process's bit, so one [Config.runnable] per
   step keeps it.  Summarized bursts are not applied at once: their
   patches wait in [patches] (newest first) until a real step,
   quiescence or fuel needs the configuration ([settle]), and their
   processes are already clear in [live]. *)
type state = {
  m : memo;
  hash : Statehash.t;
  inputs : pid:int -> instance:int -> Value.t option;
  has_input : int -> int -> bool;
  max_steps : int;
  mutable live : int;
  mutable patches : Config.patch list;
  mutable summarized : bool;
  mutable burst : burst option;
  mutable looked_up : (Statehash.key * int * int) list;
}

let in_live live () pid = live land (1 lsl pid) <> 0

(* [live] has a bit per pid; with more processes than that the memo is
   not consulted (the DPOR engine takes at most 62 anyway) *)
let max_pids = Sys.int_size - 1

let settle r config =
  match r.patches with
  | [] -> config
  | ps ->
    r.patches <- [];
    Config.apply config (List.rev ps)

let finish r config ending steps =
  { final = config; ending; steps; pending = r.looked_up; summarized = r.summarized }

(* The recorded burst ended at [step]: file it if its pid is inert (a
   pid still runnable was cut off by its quantum), and return the inert
   key there, which the next lookup needs. *)
let close r config step =
  match r.burst with
  | None -> None
  | Some b ->
    r.burst <- None;
    if in_live r.live () b.b_pid then None
    else
      let key = Statehash.inert_key r.hash ~has_input:r.has_input config in
      let k0 = b.b_key in
      store r.m
        [| b.b_pid; b.b_obs; Config.instance b.b_start b.b_pid; k0.k_mem; step - b.b_step;
           key.k_mem - k0.k_mem; key.k_locals - k0.k_locals; key.k_in - k0.k_in;
           key.k_out - k0.k_out |]
        (Config.patch_of ~before:b.b_start config b.b_pid ~wrote:b.wrote);
      Some key

(* The completion loop with the memo: the rule of [complete], looking
   up ([Statehash.inert_key], cursor) at the first step of every burst
   but the leaf's own.  A burst start is a memoryless scheduler state
   (the cursor is the pid about to step, the quantum is full), so the
   key and the cursor determine the rest of the run.  The leaf's first
   burst is neither looked up nor filed: a leaf's key almost never
   recurs (300 of 143,474 at dpor-fig3's depth), so its probe would
   miss and its filing would evict keys that do; it goes straight to
   the summaries, with [Statehash.leaf_key] as the key they shift.
   The key needs every process that has stepped to be inert, and
   inertness is permanent, so only the previous burst's pid needs a
   look; once it is still runnable (its quantum ran out), the run stops
   looking.  A hit whose length fits the remaining budget ends the
   run.  [cursor] is the pid that stepped last.

   At the leaf's burst, and after a memo miss at a later one, the burst
   itself is looked up among the summaries: its pid has not stepped, so its observation hash in
   [hash] is current.  A summary that fits the budget stands in for
   the burst — its length is added to the step count, its change to
   the inert key (the next memo lookup's key, in O(1)), its pid leaves
   [live] — and a miss steps the burst for real and files it if it
   ends with its pid inert.  [known] is the inert key when the
   previous burst already gave it. *)
let rec go r config step cursor left looking known =
  if step >= r.max_steps then finish r (settle r config) Fuel step
  else
    let n = Config.n config in
    let pid = Schedule.quantum_pick ~runnable:in_live r.live () n ~cursor ~left in
    let left = (if pid = cursor && left > 0 then left else quantum) - 1 in
    let fresh = left = quantum - 1 in
    let known =
      if (fresh || pid < 0) && Option.is_some r.burst then close r config step else known
    in
    if pid < 0 then finish r (settle r config) Quiesced step
    else
      let looking = looking && (not fresh || step = 0 || not (in_live r.live () cursor)) in
      if not (looking && fresh) then step_on r (settle r config) step pid left looking
      else
        let key =
          match known with
          | Some k -> k
          | None when step = 0 -> Statehash.leaf_key r.hash ~live:r.live config
          | None -> Statehash.inert_key r.hash ~has_input:r.has_input config
        in
        let len = if step = 0 then 0 else find r.m key pid in
        if len > 0 && step + len <= r.max_steps then begin
          r.m.hits <- r.m.hits + 1;
          (* [check] is not called: the patches stay pending *)
          finish r config Hit (step + len)
        end
        else begin
          if step > 0 then r.looked_up <- (key, pid, step) :: r.looked_up;
          let obs = Statehash.observation r.hash pid in
          let inst = Config.instance config pid in
          let e = find_summary r.m ~pid ~obs ~inst ~mem:key.k_mem in
          let s = r.m.sums and i = e * swidth in
          if e >= 0 && step + s.(i + 4) <= r.max_steps then begin
            let len = s.(i + 4) in
            r.m.summary_hits <- r.m.summary_hits + 1;
            r.patches <- r.m.patches.(e) :: r.patches;
            r.live <- r.live land lnot (1 lsl pid);
            r.summarized <- true;
            go r config (step + len) pid (quantum - len) looking
              (Some
                 (Statehash.shift key ~mem:s.(i + 5) ~locals:s.(i + 6) ~inp:s.(i + 7)
                    ~out:s.(i + 8)))
          end
          else if e >= 0 then step_on r (settle r config) step pid left looking
          else
            let config = settle r config in
            r.burst <-
              Some { b_pid = pid; b_obs = obs; b_start = config; b_step = step; b_key = key;
                     wrote = [] };
            step_on r config step pid left looking
        end

and step_on r config step pid left looking =
  let config, ev = Config.advance ~inputs:r.inputs config pid in
  if not (Config.runnable config ~has_input:r.has_input pid) then
    r.live <- r.live land lnot (1 lsl pid);
  (match (r.burst, ev) with
  | Some b, Event.Did_write { reg; _ } -> b.wrote <- reg :: b.wrote
  | _ -> ());
  go r config (step + 1) pid left looking None

let drive m hash ~inputs ~max_steps config =
  let has_input pid inst = Option.is_some (inputs ~pid ~instance:inst) in
  let live = ref 0 in
  for pid = Config.n config - 1 downto 0 do
    live := (2 * !live) + Bool.to_int (Config.runnable config ~has_input pid)
  done;
  let r =
    { m; hash; inputs; has_input; max_steps; live = !live; patches = []; summarized = false;
      burst = None; looked_up = [] }
  in
  go r config 0 0 quantum true None

(* [check (complete config)], answered from the memo where it can be:
   a hit is [Ok] with no further stepping and no [check] call.  A run
   that ends [Ok] without running out of fuel files every key it looked
   up with the steps that remained from there; a violation or a run out
   of fuel files nothing.  A violation found after a summarized burst
   is re-run without the memo and that run's verdict reported, so every
   error (and its string) comes from a real completion. *)
let complete_check ?memo ~inputs ~max_steps ~check config =
  let plain () = check (fst (complete ~inputs ~max_steps config)) in
  match memo with
  | Some (m, hash) when Config.n config <= max_pids -> (
    let { final; ending; steps; pending; summarized } =
      drive m hash ~inputs ~max_steps config
    in
    let verdict = if ending = Hit then Ok () else check final in
    match verdict with
    | Ok () ->
      if ending <> Fuel then
        List.iter (fun (key, cursor, step) -> add m key cursor (steps - step)) pending;
      verdict
    | Error _ when summarized -> plain ()
    | Error _ -> verdict)
  | _ -> plain ()

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
