(* Assembling runnable system configurations: algorithm × snapshot
   implementation × (possibly overridden) register budget.

   The [r] override exists for the lower-bound experiments: running the
   Figure 3/4 machinery with fewer components than n+2m−k deliberately
   voids its correctness argument, and the Theorem 2 adversary then
   exhibits executions with more than k outputs. *)

type impl =
  | Atomic          (* components are registers, scans atomic (paper's model) *)
  | Double_collect  (* honest register-level non-blocking snapshot *)
  | Sw_based        (* wait-free snapshot from n single-writer registers *)

let impl_name = function
  | Atomic -> "atomic"
  | Double_collect -> "double-collect"
  | Sw_based -> "sw-based"

(* API + total raw registers for one process. *)
let api_for impl ~r ~n ~pid =
  match impl with
  | Atomic -> (Snapshot.Atomic.make ~off:0 ~len:r, r)
  | Double_collect -> (Snapshot.Double_collect.make ~off:0 ~len:r ~pid (), r)
  | Sw_based -> (Snapshot.Mw_from_sw.make ~off:0 ~n ~components:r ~pid, n)

let registers_for impl ~r ~n =
  match impl with Atomic | Double_collect -> r | Sw_based -> n

(* The space-optimal implementation choice of Theorem 7's proof: atomic
   components when n+2m−k ≤ n, the n-single-writer-register snapshot
   otherwise — achieving min(n+2m−k, n) registers. *)
let space_optimal_impl (p : Params.t) =
  if Params.r_oneshot p <= p.Params.n then Atomic else Sw_based

(* One-shot instances (Figure 3). *)
let oneshot ?r ?(impl = Atomic) ?backend (p : Params.t) =
  let r = Option.value r ~default:(Params.r_oneshot p) in
  let n = p.Params.n in
  let procs =
    Array.init n (fun pid ->
        let api, _ = api_for impl ~r ~n ~pid in
        Oneshot.program ~m:p.Params.m ~pid ~api)
  in
  Shm.Config.create ?backend ~registers:(registers_for impl ~r ~n) ~procs ()

(* Repeated instances (Figure 4). *)
let repeated ?r ?(impl = Atomic) ?backend (p : Params.t) =
  let r = Option.value r ~default:(Params.r_oneshot p) in
  let n = p.Params.n in
  let procs =
    Array.init n (fun pid ->
        let api, _ = api_for impl ~r ~n ~pid in
        Repeated.program ~m:p.Params.m ~pid ~api)
  in
  Shm.Config.create ?backend ~registers:(registers_for impl ~r ~n) ~procs ()

(* DFGR'13 baseline (one-shot, m = 1, 2(n−k) registers). *)
let baseline ?(impl = Atomic) ?backend (p : Params.t) =
  let n = p.Params.n and k = p.Params.k in
  let r = Baseline_dfgr13.components ~n ~k in
  let procs =
    Array.init n (fun pid ->
        let api, _ = api_for impl ~r ~n ~pid in
        Baseline_dfgr13.program ~n ~k ~pid ~api)
  in
  Shm.Config.create ?backend ~registers:(registers_for impl ~r ~n) ~procs ()

(* Anonymous one-shot instances (Section 6, closing remark: no H, no
   watcher thread).  [slots] allows allocating more process slots than
   p.n — the clone machinery of the Section 5 lower bound needs room for
   clones, which is legitimate precisely because the program text is the
   same for every slot. *)
let anonymous_oneshot ?r ?slots (p : Params.t) =
  let r = Option.value r ~default:(Params.r_anonymous p) in
  let slots = Option.value slots ~default:p.Params.n in
  let procs =
    Array.init slots (fun _ ->
        Anonymous_oneshot.program ~params:p ~api:(Snapshot.Atomic.make ~off:0 ~len:r))
  in
  Shm.Config.create ~registers:r ~procs ()

(* Anonymous repeated instances (Figure 5): r components + register H.
   With [anonymous_collect] the snapshot is the anonymous double-collect
   implementation (non-blocking — the case Figure 5's thread 2 exists
   for); otherwise scans are atomic.  The per-process seed feeds only
   the freshness nonces, never the algorithm. *)
let anonymous ?r ?(anonymous_collect = false) ?(seed = 0xA70) ?backend (p : Params.t) =
  let r = Option.value r ~default:(Params.r_anonymous p) in
  let n = p.Params.n in
  let h_reg = r in
  let procs =
    Array.init n (fun pid ->
        let api =
          if anonymous_collect then
            Snapshot.Double_collect.make_anonymous ~off:0 ~len:r ~seed:(seed + (7919 * pid))
          else Snapshot.Atomic.make ~off:0 ~len:r
        in
        Anonymous.program ~params:p ~api ~h_reg)
  in
  Shm.Config.create ?backend ~registers:(r + 1) ~procs ()
