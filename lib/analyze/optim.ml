(* The protocol optimizer: dataflow-certified rewrites.

   Three rewrite families, each justified by an observability argument
   (verdict checkers see only inputs and outputs; docs/ANALYSIS.md):

   - constant folding — [W<-last] / [D last] whose [last] value set is
     a provable singleton integer becomes [W<-c] / [D c] (the stored
     value is unchanged, by the dataflow soundness argument);
   - redundant-scan collapse — reads and scans whose observation is
     never consumed (dead [last]) are dropped, as are zero-length
     scans: no local state anyone branches on changes;
   - dead-register elimination — writes to registers no process ever
     reads are dropped: the stored values are unobservable.

   Dropping operations shifts every later op's timing relative to a
   fixed schedule, so per-schedule output equality against the
   optimized program run standalone does NOT hold and is not claimed.
   The correctness statement is simulation: running the original under
   any schedule and feeding the optimized program the results of the
   kept operations yields identical visible behaviour (op shapes,
   written values, outputs).  [Fuzz.Oracle]'s [optim] oracle checks
   exactly that on random protocols; [kept_mask] is the bridge.

   Passes iterate to a fixpoint (dropping a read can kill the writes
   that fed it, and so on), composing the kept-masks across
   iterations. *)

module V = Shm.Value

type edit =
  | Keep of Shm.Vm.step
  | Fold of Shm.Vm.step * Shm.Vm.step
  | Drop of Shm.Vm.step
  | Eloop of int * edit list

type result = {
  original : Shm.Vm.proto;
  optimized : Shm.Vm.proto;
  edits : edit list;  (** last iteration's edits, for display *)
  kept : bool list;
      (** composed unrolled keep-mask over the original's executed op
          sequence (loops repeated, cut at the first decide) *)
  folded : int;
  dropped : int;
  iterations : int;
}

(* ------------------------------------------------------------------ *)
(* Unrolled executed-op sequences                                      *)

exception Decided

(* Shared-memory ops of [steps] in execution order: loops repeated,
   everything after the first Decide never runs. *)
let unrolled_ops steps =
  let acc = ref [] in
  let rec go steps =
    List.iter
      (fun (s : Shm.Vm.step) ->
        match s with
        | Shm.Vm.Read _ | Shm.Vm.Write _ | Shm.Vm.Scan _ -> acc := s :: !acc
        | Shm.Vm.Decide _ -> raise Decided
        | Shm.Vm.Loop (c, b) ->
          for _ = 1 to c do
            go b
          done)
      steps
  in
  (try go steps with Decided -> ());
  List.rev !acc

(* Same walk over an edit list, emitting the keep flag per executed op.
   A folded op is kept (it still executes, with the same value). *)
let unrolled_mask edits =
  let acc = ref [] in
  let rec go edits =
    List.iter
      (fun e ->
        match e with
        | Keep (Shm.Vm.Decide _) | Fold (Shm.Vm.Decide _, _) -> raise Decided
        | Drop (Shm.Vm.Decide _) ->
          (* only dead code drops decides, and the walk raises at the
             live decide before reaching any dead code *)
          assert false
        | Drop (Shm.Vm.Loop _) -> () (* empty or zero-count: executes nothing *)
        | Keep _ | Fold _ -> acc := true :: !acc
        | Drop _ -> acc := false :: !acc
        | Eloop (c, b) ->
          for _ = 1 to c do
            go b
          done)
      edits
  in
  (try go edits with Decided -> ());
  List.rev !acc

(* Compose: [m2] refines the kept positions of [m1]. *)
let compose_masks m1 m2 =
  let rest = ref m2 in
  List.map
    (fun k1 ->
      if not k1 then false
      else
        match !rest with
        | k2 :: tl ->
          rest := tl;
          k2
        | [] -> true (* m2 exhausted: the op was cut by a decide *))
    m1

(* ------------------------------------------------------------------ *)
(* One rewrite pass                                                    *)

let as_const v =
  match V.view v with V.Int c -> Some (Shm.Vm.Const c) | _ -> None

(* Walk the step list mirroring [Ir.cfg_of_prog]'s point emission order
   exactly, so dataflow facts indexed by point id line up. *)
let rewrite_pass (d : Dataflow.t) =
  let dead_regs = Dataflow.dead_regs d in
  let redundant_points = Dataflow.redundant_points d in
  let dead r = List.mem r dead_regs in
  let redundant id = List.mem id redundant_points in
  let next = ref 0 in
  let emit () =
    let id = !next in
    incr next;
    id
  in
  let rec go steps ~live =
    (* [live] false once a Decide was passed at this level: dead code *)
    match steps with
    | [] -> []
    | (s : Shm.Vm.step) :: tl -> (
      match s with
      | Shm.Vm.Read _ | Shm.Vm.Scan _ ->
        let id = emit () in
        let e =
          if (not live) || redundant id then Drop s
          else Keep s
        in
        e :: go tl ~live
      | Shm.Vm.Write (r, src) ->
        let id = emit () in
        let e =
          if (not live) || dead r then Drop s
          else
            match src with
            | Shm.Vm.Last -> (
              match Option.bind (Dataflow.folded_value d id) as_const with
              | Some c -> Fold (s, Shm.Vm.Write (r, c))
              | None -> Keep s)
            | _ -> Keep s
        in
        e :: go tl ~live
      | Shm.Vm.Decide src ->
        let id = emit () in
        let e =
          if not live then Drop s
          else
            match src with
            | Shm.Vm.Last -> (
              match Option.bind (Dataflow.folded_value d id) as_const with
              | Some c -> Fold (s, Shm.Vm.Decide c)
              | None -> Keep s)
            | _ -> Keep s
        in
        e :: go tl ~live:false
      | Shm.Vm.Loop (c, body) ->
        if c <= 0 || body = [] then Drop s :: go tl ~live
        else
          let b = go body ~live in
          let live_after =
            live
            && not
                 (List.exists
                    (let rec decides = function
                       | Keep (Shm.Vm.Decide _) | Fold (Shm.Vm.Decide _, _) -> true
                       | Eloop (_, es) -> List.exists decides es
                       | _ -> false
                     in
                     decides)
                    b)
          in
          Eloop (c, b) :: go tl ~live:live_after)
  in
  fun steps -> go steps ~live:true

(* Rebuild the step list an edit list denotes. *)
let rec apply_edits edits =
  List.filter_map
    (fun e ->
      match e with
      | Keep s -> Some s
      | Fold (_, s') -> Some s'
      | Drop _ -> None
      | Eloop (c, b) -> (
        match apply_edits b with [] -> None | b' -> Some (Shm.Vm.Loop (c, b'))))
    edits

let rec count_edits edits =
  List.fold_left
    (fun (f, dr) e ->
      match e with
      | Keep _ -> (f, dr)
      | Fold _ -> (f + 1, dr)
      | Drop (Shm.Vm.Loop _) -> (f, dr) (* empty/zero loops execute nothing *)
      | Drop _ -> (f, dr + 1)
      | Eloop (_, b) ->
        let f', dr' = count_edits b in
        (f + f', dr + dr'))
    (0, 0) edits

(* ------------------------------------------------------------------ *)

let max_iterations = 4

let optimize (prog : Shm.Vm.proto) =
  let rec iter p mask folded dropped last_edits i =
    if i >= max_iterations then (p, mask, folded, dropped, last_edits, i)
    else
      let d = Dataflow.analyze p in
      let edits = rewrite_pass d p.Shm.Vm.steps in
      let f, dr = count_edits edits in
      if f = 0 && dr = 0 then (p, mask, folded, dropped, last_edits, i)
      else
        let p' = { p with Shm.Vm.steps = apply_edits edits } in
        let mask' = compose_masks mask (unrolled_mask edits) in
        iter p' mask' (folded + f) (dropped + dr) (Some edits) (i + 1)
  in
  let id_mask = List.map (fun _ -> true) (unrolled_ops prog.Shm.Vm.steps) in
  let optimized, kept, folded, dropped, edits, iterations =
    iter prog id_mask 0 0 None 0
  in
  {
    original = prog;
    optimized;
    edits = Option.value edits ~default:(List.map (fun s -> Keep s) prog.Shm.Vm.steps);
    kept;
    folded;
    dropped;
    iterations;
  }

let kept_mask r = r.kept

(* ------------------------------------------------------------------ *)

let rec pp_edit ppf = function
  | Keep s -> Fmt.pf ppf "%s" (Ir.step_to_string s)
  | Fold (s, s') ->
    Fmt.pf ppf "%s=>%s" (Ir.step_to_string s) (Ir.step_to_string s')
  | Drop s -> Fmt.pf ppf "-%s" (Ir.step_to_string s)
  | Eloop (c, b) ->
    Fmt.pf ppf "L%d[%a]" c Fmt.(list ~sep:(any "; ") pp_edit) b

let pp ppf r =
  Fmt.pf ppf "@[<v>original:  %s@,optimized: %s@,edits: %a@,folded %d, dropped %d, %d iteration%s@]"
    (Ir.to_string r.original) (Ir.to_string r.optimized)
    Fmt.(list ~sep:(any "; ") pp_edit)
    r.edits r.folded r.dropped r.iterations
    (if r.iterations = 1 then "" else "s")
