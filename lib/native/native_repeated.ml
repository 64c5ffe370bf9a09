(* Figure 4 on real multicore shared memory: repeated k-set agreement
   across OCaml 5 domains.

   As with Native_agreement, the decision logic is shared with the
   simulator — Agreement.Repeated's encode/decode and the find_higher /
   decide_check / adopt_check predicates are applied to views returned
   by the native double-collect snapshot.  Each domain keeps the
   persistent locals of Figure 4 (location i, instance t, history) in
   its own heap; the shared state is exactly the r = n+2m−k atomics. *)

type t = {
  snap : Native_snapshot.t;
  m : int;
  n : int;
  k : int;
}

let create ~(params : Agreement.Params.t) =
  {
    snap = Native_snapshot.create ~components:(Agreement.Params.r_oneshot params);
    m = params.Agreement.Params.m;
    n = params.Agreement.Params.n;
    k = params.Agreement.Params.k;
  }

let registers t = Native_snapshot.components t.snap

(* Per-domain session carrying Figure 4's persistent locals.  Owned by
   one domain, but Atomic anyway: the native layer keeps every mutable
   cell data-race-free by construction, so TSan findings are always
   real. *)
type session = {
  obj : t;
  h : Native_snapshot.handle;
  pid : int;
  rng : Shm.Rng.t;
  i : int Atomic.t;
  t_inst : int Atomic.t;
  history : Shm.Value.t list Atomic.t;
}

let session obj ~pid ~seed =
  {
    obj;
    h = Native_snapshot.handle obj.snap ~pid;
    pid;
    rng = Shm.Rng.create (seed + (97 * pid));
    i = Atomic.make 0;
    t_inst = Atomic.make 0;
    history = Atomic.make [];
  }

let nth_output history t =
  match List.nth_opt history (t - 1) with
  | Some w -> w
  | None -> invalid_arg "Native_repeated: adopted history shorter than instance"

(* One Propose, following Figure 4 with backoff between full cycles.
   When a trace collector is attached the call is bracketed in a
   ["propose"] span on the proposing domain (category ["native"],
   instance number in the args); detached, one atomic load. *)
let propose ?span s v =
  let r = registers s.obj in
  Atomic.incr s.t_inst;
  let t = Atomic.get s.t_inst in
  let body () =
  if List.length (Atomic.get s.history) >= t then
    nth_output (Atomic.get s.history) t
  else begin
    let backoff window =
      for _ = 1 to (Shm.Rng.int s.rng window + 1) * 50 do
        Domain.cpu_relax ()
      done;
      if window < 4096 then window * 2 else window
    in
    let rec loop pref iters window =
      let own =
        Agreement.Repeated.encode
          {
            Agreement.Repeated.pref;
            id = s.pid;
            t;
            history = Atomic.get s.history;
          }
      in
      Native_snapshot.update s.h (Atomic.get s.i) own;
      let view = Native_snapshot.scan ~on_retry:(fun _ -> Domain.cpu_relax ()) s.h in
      match Agreement.Repeated.find_higher ~t view with
      | Some tu ->
        Atomic.set s.history tu.Agreement.Repeated.history;
        nth_output tu.Agreement.Repeated.history t
      | None -> (
        match Agreement.Repeated.decide_check ~m:s.obj.m ~t view with
        | Some w ->
          Atomic.set s.history (Atomic.get s.history @ [ w ]);
          w
        | None ->
          let pref =
            match
              Agreement.Repeated.adopt_check ~pref ~own ~i:(Atomic.get s.i) ~t view
            with
            | Some w -> w
            | None ->
              Atomic.set s.i ((Atomic.get s.i + 1) mod r);
              pref
          in
          let window =
            if iters mod r = r - 1 then backoff window else window
          in
          loop pref (iters + 1) window)
    in
    loop v 0 1
  end
  in
  match Obs.Trace.attached () with
  | None -> body ()
  | Some tr ->
    let c =
      Obs.Trace.begin_span tr ?parent:span ~cat:"native"
        ~args:[ ("pid", Obs.Json.Int s.pid); ("t", Obs.Json.Int t) ]
        "propose"
    in
    Fun.protect ~finally:(fun () -> Obs.Trace.end_span tr c) body

(* Run [rounds] instances across n domains; returns decisions as
   [| pid |].(round-1). *)
let run ?(seed = 0) ~(params : Agreement.Params.t) ~rounds input =
  let obj = create ~params in
  let tr = Obs.Trace.attached () in
  let span =
    Option.map
      (fun trc ->
        Obs.Trace.begin_span trc ~cat:"native"
          ~args:[ ("n", Obs.Json.Int obj.n); ("rounds", Obs.Json.Int rounds) ]
          "run")
      tr
  in
  let domains =
    Array.init obj.n (fun pid ->
        Domain.spawn (fun () ->
            let s = session obj ~pid ~seed in
            Array.init rounds (fun j -> propose ?span s (input ~pid ~round:(j + 1)))))
  in
  let out = Array.map Domain.join domains in
  (match (tr, span) with
  | Some trc, Some c -> Obs.Trace.end_span trc c
  | _ -> ());
  (obj, out)
