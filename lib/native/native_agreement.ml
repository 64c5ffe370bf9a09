(* Figure 3 on real multicore shared memory.

   The decision logic is *shared with the simulator*: the decide and
   adopt predicates are exactly Agreement.Oneshot.decide_check and
   Agreement.Oneshot.adopt_check, applied to the view a native scan
   returns.  Only the execution vehicle differs — OCaml 5 domains
   instead of simulated processes.

   Obstruction-freedom on real hardware is exactly the paper's
   introduction: the algorithm is safe under any interleaving, and
   progress comes from contention management.  We use randomized
   exponential backoff — after every non-deciding iteration a process
   sleeps for a random slice of a window that doubles (up to a cap), so
   some process soon runs long enough alone to decide, and then the
   others cascade: each sees ≤ m distinct pairs and decides too. *)

type t = {
  snap : Native_snapshot.t;
  n : int;
  m : int;
}

(* [create ~params] allocates the shared object: r = n+2m−k atomics. *)
let create ~(params : Agreement.Params.t) =
  let r = Agreement.Params.r_oneshot params in
  {
    snap = Native_snapshot.create ~components:r;
    n = params.Agreement.Params.n;
    m = params.Agreement.Params.m;
  }

let registers t = Native_snapshot.components t.snap

(* One process's Propose(v); call from its own domain.  [seed] feeds
   the backoff jitter only — never the algorithm.  [chaos] fires once
   per update-scan-check iteration: the conformance harness uses it to
   inject yield storms, stalls, and crash aborts (by raising) into the
   middle of a propose without touching the algorithm itself. *)
let propose ?(chaos = fun () -> ()) t ~pid ~seed v =
  let r = Native_snapshot.components t.snap in
  let h = Native_snapshot.handle t.snap ~pid in
  let rng = Shm.Rng.create (seed + (31 * pid)) in
  (* the backoff window is plain loop state, threaded through the
     recursion — the native layer holds no bare cells *)
  let backoff window =
    let slices = Shm.Rng.int rng window + 1 in
    for _ = 1 to slices * 50 do
      Domain.cpu_relax ()
    done;
    if window < 4096 then window * 2 else window
  in
  let rec loop pref i iters window =
    chaos ();
    let own = Agreement.Oneshot.pair ~pref ~pid in
    Native_snapshot.update h i own;
    let view = Native_snapshot.scan h in
    match Agreement.Oneshot.decide_check ~m:t.m view with
    | Some w -> w
    | None ->
      let pref, i =
        match Agreement.Oneshot.adopt_check ~pref ~own ~i view with
        | Some w -> (w, i)
        | None -> (pref, (i + 1) mod r)
      in
      let window = if iters mod r = r - 1 then backoff window else window in
      loop pref i (iters + 1) window
  in
  loop v 0 0 1

(* Run a full one-shot instance: spawn one domain per process, each
   proposing [inputs.(pid)]; returns the decisions in pid order. *)
let run_instance ?(seed = 0) ~(params : Agreement.Params.t) inputs =
  let t = create ~params in
  let domains =
    Array.init t.n (fun pid -> Domain.spawn (fun () -> propose t ~pid ~seed inputs.(pid)))
  in
  (t, Array.map Domain.join domains)
