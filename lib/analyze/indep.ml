(* Conditional independence of shared-memory steps.

   [Spec.Explore]'s baseline relation is footprint disjointness: two
   poised steps of different processes commute when neither writes a
   register the other touches.  This module refines it with
   Katz–Peled-style *conditional* independence — pairs that commute in
   the current state even though their footprints collide:

   - write/write of the same register storing equal values (both
     orders produce the identical configuration; [Value.equal] is a
     pointer test on hash-consed values);
   - a write that re-stores the value the register already holds
     (a no-op write) against any read or scan of that register —
     checked by peeking at the current memory, which is side-effect
     free ([Memory.read] does not count accesses; the stepping rule
     counts separately).

   Every rule is justified by state identity: executing the pair in
   either order yields configurations equal in memory content, local
   states, and access counters — the property the sleep-set filter
   needs and the QCheck commutation property in test/test_analyze.ml
   checks on both memory backends.  Footprint-dead register writes do
   NOT qualify (two unobservable writes of different values still
   produce different memories), so they feed the lint and the
   optimizer, never this relation.

   Static [facts] from the dataflow engine certify some pairs without
   looking at values (a constant register's writes all store one
   value); everything else falls back to the O(1) conditional checks.
   Returning [false] never hurts soundness — it only declines to
   refine. *)

module V = Shm.Value
module P = Shm.Program

type facts = {
  const_regs : (int * V.t) list;
      (** registers whose every write stores this one value *)
  dead_regs : int list;  (** written but never read — lint/optimizer only *)
  redundant : int list;  (** read/scan points with unconsumed observations *)
  widened : bool;  (** value analysis hit a cap; value claims dropped *)
}

let empty = { const_regs = []; dead_regs = []; redundant = []; widened = false }

let of_dataflow d =
  {
    const_regs = Dataflow.const_regs d;
    dead_regs = Dataflow.dead_regs d;
    redundant = Dataflow.redundant_points d;
    widened = d.Dataflow.widened;
  }

let of_prog ?inputs prog = of_dataflow (Dataflow.analyze ?inputs prog)

(* Facts for a free-monad configuration: registers dead by the abstract
   footprint (sound only when no process's exploration truncated), and
   constant registers read off the lowered point trees' concrete write
   values (sound only when no tree truncated). *)
let of_config config =
  let summary = Absint.analyze config in
  let truncated =
    Array.exists (fun p -> p.Absint.truncated) summary.Absint.per_process
  in
  let dead_regs =
    if truncated then []
    else
      Absint.IntSet.elements
        (Absint.IntSet.diff summary.Absint.writes summary.Absint.reads)
  in
  let lowered = Ir.lower config in
  let ltrunc = Array.exists (fun l -> l.Ir.ltruncated) lowered in
  let const_regs =
    if ltrunc then []
    else begin
      let acc : (int, V.t option) Hashtbl.t = Hashtbl.create 8 in
      Array.iter
        (fun l ->
          Array.iter
            (fun (pt : Ir.lpoint) ->
              match pt.Ir.lop with
              | Ir.LWrite (r, v) -> (
                match Hashtbl.find_opt acc r with
                | None -> Hashtbl.replace acc r (Some v)
                | Some (Some v') when V.equal v v' -> ()
                | Some _ -> Hashtbl.replace acc r None)
              | _ -> ())
            l.Ir.lpoints)
        lowered;
      Hashtbl.fold
        (fun r v acc -> match v with Some v -> (r, v) :: acc | None -> acc)
        acc []
      |> List.sort compare
    end
  in
  { const_regs; dead_regs; redundant = []; widened = truncated || ltrunc }

(* ------------------------------------------------------------------ *)
(* The refinement relation                                             *)

type refinement = mem:Shm.Memory.t -> P.op -> P.op -> bool

let scan_covers off len r = r >= off && r < off + len

let refinement ?(facts = empty) () : refinement =
  let const_value r =
    List.find_map
      (fun (r', v) -> if r' = r then Some v else None)
      facts.const_regs
  in
  let noop_write ~mem r v = V.equal (Shm.Memory.read mem r) v in
  fun ~mem a b ->
    match (a, b) with
    | P.Write (r1, v1), P.Write (r2, v2) ->
      r1 = r2
      && (V.equal v1 v2
         ||
         (* static certificate: every write to a constant register
            stores that one value (re-checked against the certificate,
            so stale facts cannot unsound the relation) *)
         match const_value r1 with
         | Some c -> V.equal v1 c && V.equal v2 c
         | None -> false)
    | P.Write (r, v), P.Read r' | P.Read r', P.Write (r, v) ->
      r = r' && noop_write ~mem r v
    | P.Write (r, v), P.Scan (off, len) | P.Scan (off, len), P.Write (r, v) ->
      scan_covers off len r && noop_write ~mem r v
    | _ -> false (* read/read pairs are footprint-independent already *)

(* ------------------------------------------------------------------ *)
(* Lint rules                                                          *)

(* Shortest entry path to a point, rendered one step per line — the
   same witness shape the abstract interpreter produces. *)
let witness_to (cfg : Ir.cfg) target =
  let n = Array.length cfg.points in
  if target < 0 || target >= n || not cfg.reachable.(target) then []
  else begin
    let prev = Array.make n (-2) in
    prev.(0) <- -1;
    let q = Queue.create () in
    Queue.push 0 q;
    let rec bfs () =
      if Queue.is_empty q then ()
      else
        let id = Queue.pop q in
        if id = target then ()
        else begin
          List.iter
            (fun s ->
              if prev.(s) = -2 then begin
                prev.(s) <- id;
                Queue.push s q
              end)
            cfg.points.(id).succs;
          bfs ()
        end
    in
    bfs ();
    let rec path id acc =
      if id < 0 then acc else path prev.(id) (id :: acc)
    in
    if prev.(target) = -2 then []
    else
      List.map
        (fun id ->
          Fmt.str "point %d: %s" id (Ir.pop_to_string cfg.points.(id).op))
        (path target [])
  end

let lint d =
  let facts = of_dataflow d in
  let cfg = d.Dataflow.cfg in
  let find_write_point r =
    let found = ref None in
    Array.iteri
      (fun id (pt : Ir.point) ->
        if !found = None && cfg.Ir.reachable.(id) then
          match pt.Ir.op with
          | Ir.PWrite (r', _) when r' = r -> found := Some id
          | _ -> ())
      cfg.Ir.points;
    !found
  in
  let dead =
    List.filter_map
      (fun r ->
        Option.map
          (fun id ->
            {
              Lint.rule = "flow/dead-register-write";
              severity = Lint.Warning;
              message =
                Fmt.str
                  "register R%d is written but no process ever reads it — \
                   the write at point %d is unobservable"
                  r id;
              witness = witness_to cfg id;
            })
          (find_write_point r))
      facts.dead_regs
  in
  let redundant =
    List.map
      (fun id ->
        let what =
          match cfg.Ir.points.(id).Ir.op with
          | Ir.PScan (_, 0) -> "zero-length scan observes nothing"
          | Ir.PScan _ -> "scan result is never consumed"
          | _ -> "read result is never consumed"
        in
        {
          Lint.rule = "flow/redundant-scan";
          severity = Lint.Warning;
          message = Fmt.str "point %d: %s (dead observation)" id what;
          witness = witness_to cfg id;
        })
      facts.redundant
  in
  let consts =
    List.filter_map
      (fun (r, v) ->
        Option.map
          (fun id ->
            {
              Lint.rule = "flow/constant-register";
              severity = Lint.Info;
              message =
                Fmt.str
                  "register R%d always holds %a once written — every write \
                   stores the same value"
                  r V.pp v;
              witness = witness_to cfg id;
            })
          (find_write_point r))
      facts.const_regs
  in
  dead @ redundant @ consts

let pp_facts ppf f =
  Fmt.pf ppf "@[<v>const: %a@,dead: {%a}@,redundant points: [%a]%s@]"
    Fmt.(list ~sep:(any ",") (pair ~sep:(any "=") int V.pp))
    f.const_regs
    Fmt.(list ~sep:(any ",") int)
    f.dead_regs
    Fmt.(list ~sep:(any ",") int)
    f.redundant
    (if f.widened then "  (widened)" else "")
