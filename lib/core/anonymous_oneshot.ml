(* One-shot anonymous m-obstruction-free k-set agreement.

   This is Figure 5 specialized to a single instance, as Section 6's
   closing remark describes: register H and the watcher thread are not
   required, instance numbers and histories disappear, so entries are
   bare preference values.  It uses a snapshot object with
   r = (m+1)(n−k) + m² components (Theorem 11 minus the one register).

   Rules per iteration (cf. Figure 5 lines 18–29):
   - decide when every component is non-⊥ and at most m distinct values
     are present: output the most frequent value;
   - adopt value [new] when fewer than ℓ = n+m−k components hold the
     current preference but at least ℓ hold [new];
   - the location i advances every iteration. *)

open Shm

let decide_check ~m view =
  if (not (View.contains_bot view)) && View.distinct_count view <= m then
    View.most_frequent view ~project:Fun.id
  else None

let count_value view v0 = View.count (Value.equal v0) view

(* The value to adopt, if the current preference has fewer than ℓ
   copies and some other value has at least ℓ. *)
let adoption ~ell ~pref view =
  if count_value view pref >= ell then None
  else
    let r = Array.length view in
    let rec go j =
      if j >= r then None
      else
        let v = view.(j) in
        if (not (Value.is_bot v)) && count_value view v >= ell then Some v
        else go (j + 1)
    in
    go 0

(* The process program — identical for every process (no id anywhere). *)
let program ~params ~api =
  let ell = Params.ell params in
  let m = params.Params.m in
  let r = api.Snapshot.Snap_api.components in
  Program.await @@ fun v ->
  let rec loop (api : Snapshot.Snap_api.t) pref i =
    api.update i pref @@ fun api ->
    api.scan @@ fun api view ->
    match decide_check ~m view with
    | Some w -> Program.yield w Program.stop
    | None ->
      let pref = match adoption ~ell ~pref view with Some w -> w | None -> pref in
      loop api pref ((i + 1) mod r)
  in
  loop api v 0
