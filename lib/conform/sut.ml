(* Systems under test for the snapshot conformance harness.

   [real] is the production object, Native_snapshot, with the chaos
   pause routed into its double-collect window ([on_collect]) and its
   retry backoff ([on_retry]).

   The mutants are deliberately broken variants used by the mutation
   smoke tests: each reintroduces a classic snapshot bug, and the
   harness must *reject* it within a bounded number of seeded runs —
   that is the evidence the checker has teeth.  Both mutants widen
   their own race windows with a short deterministic spin (plus the
   chaos pause), so detection does not depend on a lucky preemption:

   - [single_collect]: scan performs ONE collect, component by
     component, instead of retrying until two collects agree.  A writer
     that completes update(i,v) and then update(j,w) while the scan is
     between components i and j yields a view containing w but missing
     v — the new/old inversion an atomic snapshot can never return.

   - [torn_update]: update writes ⊥ (None) and then the real entry —
     a non-atomic two-step store.  A clean double collect landing
     inside the window observes the component regressed to ⊥ after a
     value was written, which no sequential snapshot history explains
     (nothing ever writes ⊥). *)

type handle = {
  update : int -> Shm.Value.t -> unit;
  scan : unit -> Shm.Value.t array;
}

type instance = { handle : pid:int -> pause:(unit -> unit) -> handle }

type t = {
  name : string;
  mutant : bool;
  create : components:int -> instance;
}

let real =
  {
    name = "native-snapshot";
    mutant = false;
    create =
      (fun ~components ->
        let s = Native.Native_snapshot.create ~components in
        {
          handle =
            (fun ~pid ~pause ->
              let h = Native.Native_snapshot.handle s ~pid in
              {
                update = (fun i v -> Native.Native_snapshot.update h i v);
                scan =
                  (fun () ->
                    Native.Native_snapshot.scan ~on_collect:(fun _ -> pause ()) h);
              });
        });
  }

(* Shared representation of the mutants: tagged entries in atomics,
   like the real object. *)
type entry = { tag_pid : int; tag_seq : int; v : Shm.Value.t }

let spin n =
  for _ = 1 to n do
    Domain.cpu_relax ()
  done

let value_of = function Some e -> e.v | None -> Shm.Value.bot

let single_collect =
  {
    name = "single-collect";
    mutant = true;
    create =
      (fun ~components ->
        let cells = Array.init components (fun _ -> Atomic.make None) in
        {
          handle =
            (fun ~pid ~pause ->
              let seq = ref 0 in
              {
                update =
                  (fun i v ->
                    incr seq;
                    Atomic.set cells.(i) (Some { tag_pid = pid; tag_seq = !seq; v }));
                scan =
                  (fun () ->
                    (* one collect, a window between component reads *)
                    Array.init components (fun i ->
                        if i > 0 then begin
                          spin 64;
                          pause ()
                        end;
                        value_of (Atomic.get cells.(i))));
              });
        });
  }

let torn_update =
  {
    name = "torn-update";
    mutant = true;
    create =
      (fun ~components ->
        let cells = Array.init components (fun _ -> Atomic.make None) in
        let same a b =
          match (a, b) with
          | None, None -> true
          | Some x, Some y -> x.tag_pid = y.tag_pid && x.tag_seq = y.tag_seq
          | None, Some _ | Some _, None -> false
        in
        {
          handle =
            (fun ~pid ~pause ->
              let seq = ref 0 in
              let collect () = Array.map Atomic.get cells in
              let rec double_collect prev =
                let cur = collect () in
                match prev with
                | Some p when Array.for_all2 same p cur -> Array.map value_of cur
                | _ ->
                  Domain.cpu_relax ();
                  double_collect (Some cur)
              in
              {
                update =
                  (fun i v ->
                    incr seq;
                    (* the bug: a two-step, non-atomic store *)
                    Atomic.set cells.(i) None;
                    spin 200;
                    pause ();
                    Atomic.set cells.(i) (Some { tag_pid = pid; tag_seq = !seq; v }));
                scan = (fun () -> double_collect None);
              });
        });
  }

let mutants = [ single_collect; torn_update ]

let all = real :: mutants

let by_name name = List.find_opt (fun t -> t.name = name) all
