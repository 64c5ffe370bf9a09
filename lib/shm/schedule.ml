(* The scheduler zoo.

   A scheduler is the adversary of the asynchronous model: at each step
   it picks which runnable process moves.  Schedulers are stateful
   (cursors, PRNGs, phase counters) but constructed fresh per run, so
   runs remain reproducible from their seeds.

   The progress-condition schedulers matter most for this paper:
   [m_bounded] produces executions in which, after an arbitrary finite
   prefix, at most [m] processes take infinitely many steps — exactly
   the hypothesis of m-obstruction-freedom. *)

type t = {
  name : string;
  next : step:int -> runnable:(int -> bool) -> int option;
      (* [next ~step ~runnable] picks a runnable pid, or None to end the
         run (no process this scheduler is willing to run is runnable). *)
}

let name t = t.name

let first_runnable ~runnable pids = List.find_opt runnable pids

(* Round-robin over all n processes, skipping unrunnable ones. *)
let round_robin n =
  let cursor = ref 0 in
  let next ~step:_ ~runnable =
    let rec go tried =
      if tried >= n then None
      else
        let pid = !cursor in
        cursor := (!cursor + 1) mod n;
        if runnable pid then Some pid else go (tried + 1)
    in
    go 0
  in
  { name = "round-robin"; next }

(* The quantum rule, closure-free (see the interface): every quantum
   round-robin run, frontier completions included, picks through it. *)
let rec scan ~runnable env st n pid tried =
  if tried >= n then -1
  else if runnable env st pid then pid
  else scan ~runnable env st n ((pid + 1) mod n) (tried + 1)

let quantum_pick ~runnable env st n ~cursor ~left =
  scan ~runnable env st n (if left = 0 then (cursor + 1) mod n else cursor) 0

(* Round-robin with quantum [q]: each process takes q consecutive steps
   before the cursor advances.  Large quanta approximate solo runs. *)
let quantum_round_robin ~quantum n =
  if quantum <= 0 then invalid_arg "Schedule.quantum_round_robin: quantum must be positive";
  let cursor = ref 0 and left = ref quantum in
  let next ~step:_ ~runnable =
    let pid =
      quantum_pick ~runnable:(fun runnable () pid -> runnable pid) runnable () n
        ~cursor:!cursor ~left:!left
    in
    if pid < 0 then begin
      (* a probe that finds no one restarts a partly used quantum *)
      if !left > 0 then left := quantum;
      None
    end
    else begin
      left := (if pid = !cursor && !left > 0 then !left else quantum) - 1;
      cursor := pid;
      Some pid
    end
  in
  { name = Fmt.str "round-robin/q=%d" quantum; next }

(* Only [pid] ever runs: the solo executions of obstruction-freedom. *)
let solo pid =
  {
    name = Fmt.str "solo(p%d)" pid;
    next = (fun ~step:_ ~runnable -> if runnable pid then Some pid else None);
  }

(* Run exactly the processes in [pids], round-robin in list order. *)
let only pids =
  let arr = Array.of_list pids in
  let n = Array.length arr in
  if n = 0 then invalid_arg "Schedule.only: empty process set";
  let cursor = ref 0 in
  let next ~step:_ ~runnable =
    let rec go tried =
      if tried >= n then None
      else
        let pid = arr.(!cursor) in
        cursor := (!cursor + 1) mod n;
        if runnable pid then Some pid else go (tried + 1)
    in
    go 0
  in
  { name = Fmt.str "only(%a)" Fmt.(list ~sep:(any ",") int) pids; next }

(* Replay a pid list in order, skipping out-of-range and unrunnable
   entries (mutated or shrunk schedules strand some; a stranded entry
   makes the schedule shorter, not invalid); ends with the list. *)
let replay ~n pids =
  let cursor = ref pids in
  let rec next ~step ~runnable =
    match !cursor with
    | [] -> None
    | pid :: tl ->
      cursor := tl;
      if pid >= 0 && pid < n && runnable pid then Some pid else next ~step ~runnable
  in
  { name = "replay"; next }

(* Uniformly random runnable process. *)
let random ~seed n =
  let rng = Rng.create seed in
  let next ~step:_ ~runnable =
    let live = List.filter runnable (List.init n (fun i -> i)) in
    match live with [] -> None | _ -> Some (Rng.pick rng live)
  in
  { name = Fmt.str "random(seed=%d)" seed; next }

(* The m-obstruction-freedom adversary: a random prefix of [prefix]
   steps over all processes, after which only a random set of [m]
   processes keeps running.  Every correct process in that set must then
   terminate (paper, Section 2.1). *)
let m_bounded ~seed ~m ~prefix n =
  if m <= 0 || m > n then invalid_arg "Schedule.m_bounded: need 1 <= m <= n";
  let rng = Rng.create seed in
  let chosen = ref None in
  let choose () =
    let pids = Array.init n (fun i -> i) in
    Rng.shuffle rng pids;
    Array.to_list (Array.sub pids 0 m)
  in
  let next ~step ~runnable =
    if step < prefix then begin
      let live = List.filter runnable (List.init n (fun i -> i)) in
      match live with [] -> None | _ -> Some (Rng.pick rng live)
    end
    else begin
      let set =
        match !chosen with
        | Some s -> s
        | None ->
          let s = choose () in
          chosen := Some s;
          s
      in
      let live = List.filter runnable set in
      match live with [] -> None | _ -> Some (Rng.pick rng live)
    end
  in
  { name = Fmt.str "m-bounded(m=%d,seed=%d,prefix=%d)" m seed prefix; next }

(* Like [m_bounded] but the surviving set is given explicitly. *)
let eventually_only ~seed ~survivors ~prefix n =
  let rng = Rng.create seed in
  let next ~step ~runnable =
    let candidates =
      if step < prefix then List.init n (fun i -> i) else survivors
    in
    let live = List.filter runnable candidates in
    match live with [] -> None | _ -> Some (Rng.pick rng live)
  in
  {
    name =
      Fmt.str "eventually-only(%a,prefix=%d)"
        Fmt.(list ~sep:(any ",") int)
        survivors prefix;
    next;
  }

(* Random scheduler with random-length bursts: picks a process from
   [procs] and runs it for 1..burst_max steps before repicking.  Bursts
   produce the partially-sequential interleavings (one process plants an
   entry, another fills) that uniform random schedules almost never hit;
   the Lemma 1 search relies on this family. *)
let bursty_random ~seed ?(burst_max = 8) procs =
  let procs = Array.of_list procs in
  if Array.length procs = 0 then invalid_arg "Schedule.bursty_random: no processes";
  let rng = Rng.create seed in
  let cur = ref procs.(0) and left = ref 0 in
  let next ~step:_ ~runnable =
    if !left <= 0 then begin
      cur := procs.(Rng.int rng (Array.length procs));
      left := 1 + Rng.int rng burst_max
    end;
    decr left;
    if runnable !cur then Some !cur
    else begin
      left := 0;
      match List.filter runnable (Array.to_list procs) with
      | [] -> None
      | live -> Some (Rng.pick rng live)
    end
  in
  { name = Fmt.str "bursty-random(seed=%d)" seed; next }

(* Contention adversary: alternates short bursts of two process groups,
   the schedule that makes preference-flapping algorithms spin. *)
let alternating ~burst groups =
  if burst <= 0 then invalid_arg "Schedule.alternating: burst must be positive";
  let groups = Array.of_list groups in
  let g = Array.length groups in
  if g = 0 then invalid_arg "Schedule.alternating: no groups";
  let phase = ref 0 and left = ref burst and cursor = ref 0 in
  let next ~step:_ ~runnable =
    let rec go tried =
      if tried >= g then None
      else begin
        if !left = 0 then begin
          phase := (!phase + 1) mod g;
          left := burst;
          cursor := 0
        end;
        let group = groups.(!phase) in
        let len = List.length group in
        let rec in_group k =
          if k >= len then None
          else
            let pid = List.nth group (!cursor mod len) in
            incr cursor;
            if runnable pid then Some pid else in_group (k + 1)
        in
        match in_group 0 with
        | Some pid ->
          decr left;
          Some pid
        | None ->
          phase := (!phase + 1) mod g;
          left := burst;
          cursor := 0;
          go (tried + 1)
      end
    in
    go 0
  in
  { name = Fmt.str "alternating(burst=%d)" burst; next }

(* Crash adversary: wraps [inner]; process [pid] crashes (is never
   scheduled again) once the global step count passes its crash time. *)
let with_crashes ~crashes inner =
  let crashed step pid =
    List.exists (fun (p, at) -> p = pid && step >= at) crashes
  in
  let next ~step ~runnable =
    inner.next ~step ~runnable:(fun pid -> runnable pid && not (crashed step pid))
  in
  { name = Fmt.str "%s+crashes" inner.name; next }
