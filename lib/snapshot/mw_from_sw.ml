(* Wait-free r-component multi-writer snapshot from n single-writer
   registers — the [min(n+2m−k, n)] branch of Theorems 7 and 8: when
   n < n+2m−k, "the snapshot can be implemented from n single-writer
   registers [1, 13]".

   Construction (standard, cf. Vitányi–Awerbuch timestamps layered under
   an Afek et al. single-writer snapshot):

   - process p's SW segment holds p's *row*: for every component j, the
     timestamped value (ts, p, v) of p's last update to j;
   - update(j, v): take an SW scan, compute ts = 1 + max timestamp seen
     for j, install the new row with an SW update (which takes its own
     embedded scan for helping: one scan cannot serve both);
   - scan(): one SW scan; component j's value is the maximum-(ts, pid)
     entry among all rows.

   Writes are totally ordered by (ts, pid); a write beginning after
   another's end sees its timestamp in the SW scan and exceeds it, and
   scans are atomic SW scans, so the simulated object is linearizable
   and wait-free.  Register footprint: exactly n.

   A row is a [List] of r slots [((ts, owner), v)] (⊥ before the first
   write).  Rows stay encoded: a scan reads each slot's stamp in place,
   and a process keeps its own row as written, so an update interns
   only the slot it changes. *)

let encode_slot ~ts ~owner v =
  Shm.Value.pair (Shm.Value.pair (Shm.Value.int ts) (Shm.Value.int owner)) v

(* Per component, the timestamp and value of the maximum-(ts, owner)
   slot across [rows]; 0 and ⊥ while every slot is empty (0, −1, ⊥). *)
let latest ~components rows =
  let ts = Array.make components 0 and owner = Array.make components (-1) in
  let v = Array.make components Shm.Value.bot in
  let slot j s =
    match Shm.Value.view s with
    | Shm.Value.Pair (stamp, sv)
      when (match Shm.Value.view stamp with Shm.Value.Pair _ -> true | _ -> false) ->
      let t = Shm.Value.to_int (Shm.Value.fst stamp) in
      let o = Shm.Value.to_int (Shm.Value.snd stamp) in
      if t > ts.(j) || (t = ts.(j) && o > owner.(j)) then (
        ts.(j) <- t; owner.(j) <- o; v.(j) <- sv)
    | _ -> invalid_arg (Fmt.str "Mw_from_sw.decode_slot: %a" Shm.Value.pp s)
  in
  Array.iter
    (fun row ->
      match Shm.Value.view row with
      | Shm.Value.Bot -> ()
      | Shm.Value.List l when List.compare_length_with l components = 0 -> List.iteri slot l
      | _ -> invalid_arg (Fmt.str "Mw_from_sw.decode_row: %a" Shm.Value.pp row))
    rows;
  (ts, v)

let make ~off ~n ~components ~pid : Snap_api.t =
  (* [row] is this process's row as it last wrote it. *)
  let rec api seq row : Snap_api.t =
    let update j v k =
      if j < 0 || j >= components then invalid_arg "Mw_from_sw.update: component out of range";
      Afek.scan ~off ~n (fun rows ->
          let ts = 1 + (fst (latest ~components rows)).(j) in
          let set i s = if i = j then encode_slot ~ts ~owner:pid v else s in
          let row' = Shm.Value.list (List.mapi set (Shm.Value.to_list row)) in
          Afek.update ~off ~n ~pid ~seq row' (fun seq' -> k (api seq' row')))
    in
    let rec self = { Snap_api.components; update; scan }
    and scan k = Afek.scan ~off ~n (fun rows -> k self (snd (latest ~components rows))) in
    self
  in
  let empty = encode_slot ~ts:0 ~owner:(-1) Shm.Value.bot in
  api 0 (Shm.Value.list (List.init components (fun _ -> empty)))

let footprint ~n =
  {
    Snap_api.registers = n;
    wait_free = true;
    description = "wait-free MW snapshot from n single-writer registers";
  }
