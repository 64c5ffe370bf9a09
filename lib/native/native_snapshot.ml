(* A real shared-memory snapshot over OCaml 5 atomics.

   Everything else in this repository runs inside the simulator, where
   every interleaving is schedulable and space is counted exactly.  This
   module is the bridge to actual hardware shared memory: an
   r-component multi-writer snapshot implemented over an
   [entry Atomic.t array] with the same double-collect construction as
   Snapshot.Double_collect — each entry carries a (pid, seq) freshness
   tag; a scan retries until two consecutive collects are identical and
   linearizes between them; updates are single atomic stores.

   Entries are immutable OCaml values, so a torn read is impossible and
   [Atomic.get]/[Atomic.set] give exactly the MWMR atomic registers of
   the paper's model.  The object is non-blocking, which is the honest
   register-level guarantee (Theorem 7's wait-free object would need
   the Afek construction; the algorithms only need scans to complete
   once contention drops — see Native_agreement's backoff). *)

type entry = { tag_pid : int; tag_seq : int; v : Shm.Value.t }

type t = {
  cells : entry option Atomic.t array;
}

let create ~components =
  { cells = Array.init components (fun _ -> Atomic.make None) }

let components t = Array.length t.cells

(* Per-process handle carrying the local freshness counter.  The
   counter is only ever bumped by the owning domain, but it is Atomic
   anyway: the native layer keeps every cell it does hold data-race-free by
   construction, so TSan findings are always real. *)
type handle = { snap : t; pid : int; seq : int Atomic.t }

let handle t ~pid = { snap = t; pid; seq = Atomic.make 0 }

let update h i v =
  let seq = 1 + Atomic.fetch_and_add h.seq 1 in
  Atomic.set h.snap.cells.(i) (Some { tag_pid = h.pid; tag_seq = seq; v })

let collect t = Array.map Atomic.get t.cells

let same_collect =
  Array.for_all2 (fun a b ->
      match (a, b) with
      | None, None -> true
      | Some x, Some y -> x.tag_pid = y.tag_pid && x.tag_seq = y.tag_seq
      | None, Some _ | Some _, None -> false)

(* Non-blocking scan: retry until a clean double collect, relaxing the
   CPU between attempts.  [on_collect] fires after every collect — i.e.
   inside the window between the two collects of a clean pair — which is
   where the conformance harness injects stalls to probe the
   double-collect's atomicity on real hardware. *)
let scan ?(on_collect = fun _attempt -> ()) h =
  let rec attempt n prev =
    let cur = collect h.snap in
    on_collect n;
    match prev with
    | Some p when same_collect p cur ->
      Array.map (function Some e -> e.v | None -> Shm.Value.bot) cur
    | Some _ | None ->
      Domain.cpu_relax ();
      attempt (n + 1) (Some cur)
  in
  attempt 0 None
