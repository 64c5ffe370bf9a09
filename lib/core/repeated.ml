(* Figure 4: repeated m-obstruction-free k-set agreement, same snapshot
   object (r = n + 2m − k components) as the one-shot algorithm.

   Stored entries are tuples (pref, id, t, history) where t is the
   instance the writer is working on and history its sequence of outputs
   for instances 1..t−1.  Persistent locals i, t, history survive across
   Propose invocations ("the first location of a Propose is the last
   location of the previous Propose").

   The history is a snoc chain: [Value.list []] for no outputs, and
   [Value.pair prev w] for [prev] followed by [w].  Appending is O(1) to
   build and to hash, and [encode]/[decode] never walk it.  The chain
   holds the same sequence as a list would, and two chains are equal
   exactly when their sequences are, so tuple equality and the encoded
   sequence of outputs are those of the paper's tuple.  An instance-1
   entry prints as before ([[pref;id;1;[]]]); a later one shows its
   history as nested pairs, and so does an [--events] log, whose
   {"pair":[…]} objects [Obs.Jsonl] reads back to the same value.

   Shortcuts relative to Figure 3:
   - line 15: a tuple with t' > t in the scan lets the process adopt
     that writer's history and output its t-th entry immediately;
   - line 17: deciding requires every entry to be a tuple of instance
     exactly t (lower-instance tuples are treated like ⊥ and block the
     decision; higher ones were caught by line 15);
   - line 22: adoption compares raw register contents against ⊥ and the
     process's own tuple, and requires two *identical t-tuples*. *)

open Shm

type tuple = { pref : Value.t; id : int; t : int; history : Value.t }

let empty_history = Value.list []

let history_of_list ws = List.fold_left Value.pair empty_history ws

let malformed what v = invalid_arg (Fmt.str "Repeated.decode: %s %a" what Value.pp v)

let history_to_list h =
  let rec go acc h =
    match Value.view h with
    | Value.List [] -> acc
    | Value.Pair (prev, w) -> go (w :: acc) prev
    | _ -> malformed "history link" h
  in
  go [] h

let encode { pref; id; t; history } =
  Value.list [ pref; Value.int id; Value.int t; history ]

let is_int v = match Value.view v with Value.Int _ -> true | _ -> false

let decode v =
  match Value.view v with
  | Value.List [ pref; id; t; history ] when is_int id && is_int t -> (
    match Value.view history with
    | Value.List [] | Value.Pair _ ->
      Some { pref; id = Value.to_int id; t = Value.to_int t; history }
    | _ -> malformed "history" history)
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
   entry. *)
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

(* The output of instance [t] from a chain holding the outputs of
   instances 1..[upto]: [upto − t] links back from its end. *)
let rec nth_output ~upto history t =
  match Value.view history with
  | Value.Pair (prev, w) -> if upto = t then w else nth_output ~upto:(upto - 1) prev t
  | _ -> malformed "history shorter than its instance" history

(* The process program.  Persistent locals (api, i, t, history) are
   threaded through the recursion; each [Await] is the next Propose.
   [hv] is the history chain and [upto] the last instance it covers:
   t − 1 while the process runs instance t, more after a line-15
   adoption, whose chain covers the writer's t' − 1 instances.  No
   step walks or copies the chain except [nth_output] after an
   adoption. *)
let program ~m ~pid ~api =
  let r = api.Snapshot.Snap_api.components in
  let rec next_propose (api : Snapshot.Snap_api.t) i t hv upto =
    Program.await @@ fun v ->
    let t = t + 1 in
    if upto >= t then Program.yield (nth_output ~upto hv t) (next_propose api i t hv upto)
    else loop api v i t hv
  and loop (api : Snapshot.Snap_api.t) pref i t hv =
    let own = encode { pref; id = pid; t; history = hv } in
    api.update i own @@ fun api ->
    api.scan @@ fun api view ->
    match find_higher ~t view with
    | Some tu ->
      let upto = tu.t - 1 in
      Program.yield (nth_output ~upto tu.history t) (next_propose api i t tu.history upto)
    | None -> (
      match decide_check ~m ~t view with
      | Some w -> Program.yield w (next_propose api i t (Value.pair hv w) t)
      | None -> (
        match adopt_check ~pref ~own ~i ~t view with
        | Some w -> loop api w i t hv
        | None -> loop api pref ((i + 1) mod r) t hv))
  in
  next_propose api 0 0 empty_history 0
