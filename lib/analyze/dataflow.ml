(* Classic forward/backward dataflow over the protocol CFG.

   One analysis run covers all n processes at once: the protocol is
   symmetric (every process runs the same steps with its own input), so
   the CFG's writes are *all* possible writes, and the per-register
   collecting store ([Absdom], deliberately the same domain as the
   abstract interpreter's) seeded with every process's input
   over-approximates every interleaving — the same argument as
   [Absint], see docs/ANALYSIS.md.

   The analyses:
   - per-point [last] value sets (forward), feeding the global store to
     a joint fixpoint — constant detection and folding;
   - must-self-written registers (forward, intersection at joins),
     local to [analyze] — lets a read drop ⊥ when this process surely
     wrote the register and no write anywhere may write ⊥;
   - [last]-liveness (backward) — is the observation a read or scan
     produces ever consumed; dead observations are the redundant-scan
     lint and the optimizer's drop rule.

   The value-set analyses are sound only up to widening: when any set
   hits its cap, [widened] is set and downstream users must not trust
   value claims (syntactic facts — [last]-liveness and read/write
   sets — are exact on the CFG regardless). *)

module V = Shm.Value
module IntSet = Absint.IntSet

(* ------------------------------------------------------------------ *)
(* Small value sets (for [last]); ⊥ is an ordinary member.             *)

type vset = { vals : V.t list; capped : bool }

let vset_cap = 12

let vset_empty = { vals = []; capped = false }

let vset_mem v s = List.exists (V.equal v) s.vals

let vset_add s v =
  if vset_mem v s then s
  else if List.length s.vals >= vset_cap then { s with capped = true }
  else { s with vals = s.vals @ [ v ] }

let vset_union a b =
  let s = List.fold_left vset_add a b.vals in
  { s with capped = s.capped || b.capped }

let vset_of_list vs = List.fold_left vset_add vset_empty vs

let vset_size s = List.length s.vals

(* Monotone iteration: growth is the only change, so size+cap equality
   detects the fixpoint. *)
let vset_same a b = vset_size a = vset_size b && a.capped = b.capped

let singleton_value s =
  match s.vals with [ v ] when not s.capped -> Some v | _ -> None

let pp_vset ppf s =
  Fmt.pf ppf "{%a%s}" Fmt.(list ~sep:(any ",") V.pp) s.vals
    (if s.capped then ", …" else "")

(* ------------------------------------------------------------------ *)

type t = {
  prog : Shm.Vm.proto;
  cfg : Ir.cfg;
  inputs : V.t list;
  reg_values : V.t list array;  (** collected per-register values, ⊥ first *)
  read_regs : IntSet.t;  (** registers some reachable point reads or scans *)
  write_regs : IntSet.t;  (** registers some reachable point writes *)
  last_in : vset array;  (** per point: possible [last] values on entry *)
  may_write_bot : bool array;  (** per register: some write may store ⊥ *)
  last_live_out : bool array;  (** per point: is [last] consumed later *)
  widened : bool;
  passes : int;
}

let default_inputs n =
  List.init n (fun pid -> Agreement.Runner.default_input ~pid ~instance:1)

let preds_of (cfg : Ir.cfg) =
  let n = Array.length cfg.points in
  let preds = Array.make n [] in
  Array.iteri
    (fun id (pt : Ir.point) ->
      List.iter (fun s -> preds.(s) <- id :: preds.(s)) pt.succs)
    cfg.points;
  preds

let analyze (prog : Shm.Vm.proto) =
  let inputs = default_inputs prog.n in
  let cfg = Ir.cfg_of_prog prog in
  let npts = Array.length cfg.points in
  let regs = prog.registers in
  let preds = preds_of cfg in
  let reachable id = cfg.reachable.(id) in
  let op id = cfg.points.(id).op in
  let succs id = cfg.points.(id).succs in

  (* syntactic read/write sets over reachable points *)
  let read_regs = ref IntSet.empty and write_regs = ref IntSet.empty in
  for id = 0 to npts - 1 do
    if reachable id then
      match op id with
      | Ir.PRead r -> read_regs := IntSet.add r !read_regs
      | Ir.PWrite (r, _) -> write_regs := IntSet.add r !write_regs
      | Ir.PScan (off, len) ->
        for r = off to off + len - 1 do
          read_regs := IntSet.add r !read_regs
        done
      | Ir.PDecide _ -> ()
  done;

  (* must-self-written: forward, ∩ at joins; ⊤ init off the entry *)
  let all_regs =
    List.init regs Fun.id |> List.fold_left (fun s r -> IntSet.add r s) IntSet.empty
  in
  let must = Array.make npts all_regs in
  if npts > 0 then must.(0) <- IntSet.empty;
  let must_out p =
    match op p with
    | Ir.PWrite (r, _) -> IntSet.add r must.(p)
    | _ -> must.(p)
  in
  let must_changed = ref true in
  while !must_changed do
    must_changed := false;
    for id = 0 to npts - 1 do
      if reachable id && id > 0 then begin
        let inp =
          List.fold_left
            (fun acc p ->
              match acc with
              | None -> Some (must_out p)
              | Some a -> Some (IntSet.inter a (must_out p)))
            None
            (List.filter reachable preds.(id))
          |> Option.value ~default:IntSet.empty
        in
        if not (IntSet.equal inp must.(id)) then begin
          must.(id) <- inp;
          must_changed := true
        end
      end
    done
  done;

  (* value flow: per-point last sets + global collecting store, joint
     fixpoint (both monotone) *)
  let store = Absdom.create ~registers:regs ~set_cap:24 in
  let may_write_bot = Array.make regs false in
  let last_in = Array.make npts vset_empty in
  if npts > 0 then last_in.(0) <- vset_of_list [ V.bot ];
  let widened = ref false in
  let reg_result id r =
    (* what a read of [r] at point [id] may observe *)
    let vals = Absdom.values store r in
    let drop_bot =
      IntSet.mem r must.(id) && not may_write_bot.(r)
    in
    if drop_bot then List.filter (fun v -> not (V.is_bot v)) vals else vals
  in
  let last_out id =
    let li = last_in.(id) in
    match op id with
    | Ir.PRead r -> vset_of_list (reg_result id r)
    | Ir.PScan (_, 0) -> li
    | Ir.PScan (off, _) -> vset_of_list (reg_result id off)
    | Ir.PWrite _ | Ir.PDecide _ -> li
  in
  let passes = ref 0 in
  let max_passes = 16 in
  let flow_changed = ref true in
  while !flow_changed && !passes < max_passes do
    flow_changed := false;
    incr passes;
    let v0 = Absdom.version store in
    for id = 0 to npts - 1 do
      if reachable id then begin
        (* join predecessors' last_out *)
        let inp =
          List.fold_left
            (fun acc p -> vset_union acc (last_out p))
            (if id = 0 then vset_add last_in.(0) V.bot else last_in.(id))
            (List.filter reachable preds.(id))
        in
        if not (vset_same inp last_in.(id)) then begin
          last_in.(id) <- inp;
          flow_changed := true
        end;
        (* feed the store from writes *)
        match op id with
        | Ir.PWrite (r, src) -> (
          match src with
          | Shm.Vm.Const c -> Absdom.add store r (V.int c)
          | Shm.Vm.Input -> List.iter (Absdom.add store r) inputs
          | Shm.Vm.Last ->
            let li = last_in.(id) in
            if li.capped then widened := true;
            List.iter
              (fun v ->
                Absdom.add store r v;
                if V.is_bot v then
                  if not may_write_bot.(r) then begin
                    may_write_bot.(r) <- true;
                    flow_changed := true
                  end)
              li.vals)
        | _ -> ()
      end
    done;
    if Absdom.version store <> v0 then flow_changed := true
  done;
  if !passes >= max_passes && !flow_changed then widened := true;
  if Absdom.widened store then widened := true;
  Array.iteri
    (fun id s -> if reachable id && s.capped then widened := true)
    last_in;

  (* last-liveness: backward; uses are W<-last and D last, kills are
     Read and Scan(len>0) *)
  let last_live_out = Array.make npts false in
  let last_live_in id =
    match op id with
    | Ir.PWrite (_, Shm.Vm.Last) | Ir.PDecide Shm.Vm.Last -> true
    | Ir.PRead _ -> false (* killed before use *)
    | Ir.PScan (_, len) when len > 0 -> false
    | _ -> last_live_out.(id)
  in
  let ll_changed = ref true in
  while !ll_changed do
    ll_changed := false;
    for id = npts - 1 downto 0 do
      if reachable id then
        List.iter
          (fun s ->
            if (not last_live_out.(id)) && last_live_in s then begin
              last_live_out.(id) <- true;
              ll_changed := true
            end)
          (succs id)
    done
  done;

  {
    prog;
    cfg;
    inputs;
    reg_values = Array.init regs (Absdom.values store);
    read_regs = !read_regs;
    write_regs = !write_regs;
    last_in;
    may_write_bot;
    last_live_out;
    widened = !widened;
    passes = !passes;
  }

(* ------------------------------------------------------------------ *)
(* Derived facts                                                       *)

(* Registers every write of which provably stores the same value — and
   the value.  Requires an unwidened analysis (value sets incomplete
   otherwise). *)
let const_regs t =
  if t.widened then []
  else
    List.filter_map
      (fun r ->
        if not (IntSet.mem r t.write_regs) then None
        else
          match t.reg_values.(r) with
          | [ b; v ] when V.is_bot b -> Some (r, v)
          | _ -> None)
      (List.init t.prog.registers Fun.id)

(* Written but read by no process — their writes are unobservable. *)
let dead_regs t =
  IntSet.elements (IntSet.diff t.write_regs t.read_regs)

(* Reachable reads/scans whose observation is never consumed (or
   zero-length scans, which observe nothing at all). *)
let redundant_points t =
  let acc = ref [] in
  Array.iteri
    (fun id (pt : Ir.point) ->
      if t.cfg.reachable.(id) then
        match pt.op with
        | Ir.PScan (_, 0) -> acc := id :: !acc
        | Ir.PRead _ | Ir.PScan _ ->
          if not t.last_live_out.(id) then acc := id :: !acc
        | _ -> ())
    t.cfg.points;
  List.rev !acc

(* The provably-unique value [W<-last] at [id] writes (or [D last]
   decides), when the analysis is exact enough to name it. *)
let folded_value t id =
  if t.widened then None
  else
    match t.cfg.points.(id).op with
    | Ir.PWrite (_, Shm.Vm.Last) | Ir.PDecide Shm.Vm.Last ->
      singleton_value t.last_in.(id)
    | _ -> None

let pp ppf t =
  Fmt.pf ppf "@[<v>%s@,points: %d  passes: %d%s@," (Ir.to_string t.prog)
    (Array.length t.cfg.points) t.passes
    (if t.widened then "  (widened)" else "");
  Fmt.pf ppf "reads: {%a}  writes: {%a}@,"
    Fmt.(list ~sep:(any ",") int)
    (IntSet.elements t.read_regs)
    Fmt.(list ~sep:(any ",") int)
    (IntSet.elements t.write_regs);
  Array.iteri
    (fun r vals ->
      Fmt.pf ppf "R%d ∈ {%a}%s@," r Fmt.(list ~sep:(any ",") V.pp) vals
        (if t.may_write_bot.(r) then " (may rewrite ⊥)" else ""))
    t.reg_values;
  Array.iteri
    (fun id (pt : Ir.point) ->
      Fmt.pf ppf "%3d%s %-10s last∈%a%s@," id
        (if t.cfg.reachable.(id) then " " else "x")
        (Ir.pop_to_string pt.op) pp_vset t.last_in.(id)
        (if t.last_live_out.(id) then "" else "  [last dead]"))
    t.cfg.points;
  Fmt.pf ppf "@]"

let pp_facts ppf t =
  Fmt.pf ppf "@[<v>const: %a@,dead: {%a}@,redundant points: [%a]%s@]"
    Fmt.(list ~sep:(any ",") (pair ~sep:(any "=") int V.pp))
    (const_regs t)
    Fmt.(list ~sep:(any ",") int)
    (dead_regs t)
    Fmt.(list ~sep:(any ",") int)
    (redundant_points t)
    (if t.widened then "  (widened)" else "")
