(* Figure 4: repeated m-obstruction-free k-set agreement, same snapshot
   object (r = n + 2m − k components) as the one-shot algorithm.

   Stored entries are tuples (pref, id, t, history) where t is the
   instance the writer is working on and history its sequence of outputs
   for instances 1..t−1.  Persistent locals i, t, history survive across
   Propose invocations ("the first location of a Propose is the last
   location of the previous Propose").

   Shortcuts relative to Figure 3:
   - line 15: a tuple with t' > t in the scan lets the process adopt
     that writer's history and output its t-th entry immediately;
   - line 17: deciding requires every entry to be a tuple of instance
     exactly t (lower-instance tuples are treated like ⊥ and block the
     decision; higher ones were caught by line 15);
   - line 22: adoption compares raw register contents against ⊥ and the
     process's own tuple, and requires two *identical t-tuples*. *)

open Shm

type tuple = { pref : Value.t; id : int; t : int; history : Value.t list }

let encode { pref; id; t; history } =
  Value.list [ pref; Value.int id; Value.int t; Value.list history ]

let decode v =
  match Value.view v with
  | Value.List [ pref; id; t; history ]
    when (match Value.view id with Value.Int _ -> true | _ -> false)
         && (match Value.view t with Value.Int _ -> true | _ -> false)
         && (match Value.view history with Value.List _ -> true | _ -> false) ->
    Some
      {
        pref;
        id = Value.to_int id;
        t = Value.to_int t;
        history = Value.to_list history;
      }
  | Value.Bot -> None
  | _ -> invalid_arg (Fmt.str "Repeated.decode: %a" Value.pp v)

let is_instance t v =
  match decode v with Some tu -> tu.t = t | None -> false

(* Line 15: an entry by a process already past instance t, with maximal
   t' for determinism (any such entry would do; t' > t guarantees its
   history has at least t outputs). *)
let find_higher ~t view =
  Array.fold_left
    (fun best v ->
      match decode v with
      | Some tu when tu.t > t -> (
        match best with
        | Some b when b.t >= tu.t -> best
        | Some _ | None -> Some tu)
      | Some _ | None -> best)
    None view

(* Line 17: every entry is a tuple of instance exactly t (neither ⊥ nor
   a lower instance; higher instances are handled by line 15 first) and
   at most m distinct entries. *)
let decide_check ~m ~t view =
  let all_current =
    Array.for_all (fun v -> match decode v with Some tu -> tu.t >= t | None -> false) view
  in
  if all_current && View.distinct_count view <= m then
    let j =
      match View.min_duplicate_index view with Some j -> j | None -> 0
    in
    match decode view.(j) with Some tu -> Some tu.pref | None -> None
  else None

(* Line 22: no component other than i holds ⊥ or the process's own
   tuple, and two components hold identical t-tuples (j1 is the minimum
   duplicated index among t-tuples, line 23).  As in Figure 3 (see
   Oneshot.adopt_check, "pseudocode errata") an adoption whose value
   already equals pref falls through to the i increment, the reading
   that makes the Lemma 5 argument reused in Appendix A sound.  [own]
   is the entry the process just wrote, already encoded, and [pref] the
   preference in it, so the scan compares values without rebuilding the
   t-long history. *)
let adopt_check ~pref ~own ~i ~t view =
  let ok = ref true in
  Array.iteri
    (fun j v -> if j <> i && (Value.is_bot v || Value.equal v own) then ok := false)
    view;
  if !ok then
    match View.min_duplicate_index ~eligible:(is_instance t) view with
    | Some j -> (
      match decode view.(j) with
      | Some tu when not (Value.equal tu.pref pref) -> Some tu.pref
      | Some _ | None -> None)
    | None -> None
  else None

let nth_output history t =
  match List.nth_opt history (t - 1) with
  | Some w -> w
  | None -> invalid_arg "Repeated: adopted history shorter than instance"

(* The process program.  Persistent locals (api, i, t, history) are
   threaded through the recursion; each [Await] is the next Propose.
   The history is carried as its interned value [hv] = [Value.list
   history], rebuilt only when the history changes (a decision or a
   line-15 adoption), so writing the entry costs O(1) per step rather
   than a hash of all t−1 earlier outputs. *)
let program ~m ~pid ~api =
  let r = api.Snapshot.Snap_api.components in
  let rec next_propose (api : Snapshot.Snap_api.t) i t hv =
    Program.await @@ fun v ->
    let t = t + 1 in
    let history = Value.to_list hv in
    if List.length history >= t then
      Program.yield (nth_output history t) (next_propose api i t hv)
    else loop api v i t hv
  and loop (api : Snapshot.Snap_api.t) pref i t hv =
    let own = Value.list [ pref; Value.int pid; Value.int t; hv ] in
    api.update i own @@ fun api ->
    api.scan @@ fun api view ->
    match find_higher ~t view with
    | Some tu ->
      Program.yield (nth_output tu.history t)
        (next_propose api i t (Value.list tu.history))
    | None -> (
      match decide_check ~m ~t view with
      | Some w ->
        Program.yield w (next_propose api i t (Value.list (Value.to_list hv @ [ w ])))
      | None -> (
        match adopt_check ~pref ~own ~i ~t view with
        | Some w -> loop api w i t hv
        | None -> loop api pref ((i + 1) mod r) t hv))
  in
  next_propose api 0 0 (Value.list [])
