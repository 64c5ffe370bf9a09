(* Figure 5: anonymous m-obstruction-free repeated k-set agreement with
   a snapshot object of r = (m+1)(n−k) + m² components plus one extra
   register H.

   Processes have no identifiers: entries are (pref, t, history) with no
   id field, and every process runs this same program text.  Because the
   snapshot implementation available anonymously is only non-blocking
   (Section 6), a process may starve inside scan while others advance;
   the algorithm therefore runs two threads in parallel until one
   outputs — thread 1 is the set-agreement loop, thread 2 watches H,
   where fast processes publish their histories at the start of every
   Propose.

   Thread parallelism is realized by [par], a fair interleaving of two
   programs at shared-memory-step granularity: whichever thread reaches
   its output first wins the Propose, the other is abandoned.  Each
   thread carries its own copy of the persistent locals, so the paper's
   requirement that history updates be uninterrupted by the sibling
   thread holds by construction. *)

open Shm

type tuple = { pref : Value.t; t : int; history : Value.t list }

(* Entries carry no id, so processes build equal entries apart and
   every scan compares them: [Value.share] makes equal entries (and
   equal histories, also published in H) one block, so [View]'s
   comparisons are pointer tests.  [entry] takes the history already
   shared, as the program carries it. *)
let entry ~pref ~t hv = Value.share (Value.list [ pref; Value.int t; hv ])

let encode { pref; t; history } = entry ~pref ~t (Value.share (Value.list history))

let decode v =
  match Value.view v with
  | Value.List [ pref; t; history ]
    when (match Value.view t with Value.Int _ -> true | _ -> false)
         && (match Value.view history with Value.List _ -> true | _ -> false) ->
    Some { pref; t = Value.to_int t; history = Value.to_list history }
  | Value.Bot -> None
  | _ -> invalid_arg (Fmt.str "Anonymous.decode: %a" Value.pp v)

let decode_h v =
  match Value.view v with
  | Value.Bot -> []
  | Value.List vs -> vs
  | _ -> invalid_arg (Fmt.str "Anonymous.decode_h: %a" Value.pp v)

(* Fair interleaving of two threads; first Yield wins the operation. *)
let rec par a b =
  match a with
  | Program.Yield _ -> a
  | Program.Stop | Program.Await _ -> b
  | Program.Op (op, k) -> Program.Op (op, fun res -> par b (k res))

(* Line 20: some entry is a tuple of a higher instance. *)
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

(* Line 23: at most m distinct entries and every entry is a t-tuple. *)
let decide_check ~m ~t view =
  let all_t =
    Array.for_all (fun v -> match decode v with Some tu -> tu.t = t | None -> false) view
  in
  if all_t && View.distinct_count view <= m then
    View.most_frequent view ~project:(fun v ->
        match decode v with Some tu -> tu.pref | None -> Value.bot)
  else None

(* |{j : s[j] = (v, t, ∗)}|: components holding a t-tuple with value v. *)
let count_value ~t view v0 =
  View.count
    (fun v -> match decode v with Some tu -> tu.t = t && Value.equal tu.pref v0 | None -> false)
    view

(* Lines 27–28: the first value (by component index) with ≥ ℓ copies,
   when the current preference has fewer than ℓ. *)
let adoption ~ell ~t ~pref view =
  if count_value ~t view pref >= ell then None
  else
    let r = Array.length view in
    let rec go j =
      if j >= r then None
      else
        match decode view.(j) with
        | Some tu when tu.t = t && count_value ~t view tu.pref >= ell -> Some tu.pref
        | Some _ | None -> go (j + 1)
    in
    go 0

let nth_output history t =
  match List.nth_opt history (t - 1) with
  | Some w -> w
  | None -> invalid_arg "Anonymous: adopted history shorter than instance"

(* The process program.  [h_reg] is the index of register H.  The same
   program text serves every process: the only per-process distinction
   is the freshness seed hidden inside the anonymous snapshot [api],
   which the algorithm itself never observes. *)
let program ~params ~api ~h_reg =
  let ell = Params.ell params in
  let m = params.Params.m in
  let r = api.Snapshot.Snap_api.components in
  let rec next_propose (api : Snapshot.Snap_api.t) i t history =
    Program.await @@ fun v ->
    (* Line 9: publish our history in H before starting instance t+1.
       [hv] is that history as one shared value, built once per Propose
       rather than once per entry written. *)
    let hv = Value.share (Value.list history) in
    Program.write h_reg hv @@ fun () ->
    let t = t + 1 in
    if List.length history >= t then
      Program.yield (nth_output history t) (next_propose api i t history)
    else par (thread1 api v i t history hv) (thread2 api i t history)
  and thread1 (api : Snapshot.Snap_api.t) pref i t history hv =
    api.update i (entry ~pref ~t hv) @@ fun api ->
    api.scan @@ fun api view ->
    match find_higher ~t view with
    | Some tu ->
      Program.yield (nth_output tu.history t) (next_propose api i t tu.history)
    | None -> (
      match decide_check ~m ~t view with
      | Some w -> Program.yield w (next_propose api i t (history @ [ w ]))
      | None ->
        let pref =
          match adoption ~ell ~t ~pref view with Some w -> w | None -> pref
        in
        (* Line 29: i advances every iteration (unlike Figs. 3–4). *)
        thread1 api pref ((i + 1) mod r) t history hv)
  and thread2 (api : Snapshot.Snap_api.t) i t history =
    Program.read h_reg @@ fun h ->
    let hs = decode_h h in
    if List.length hs >= t then
      let w = List.nth hs (t - 1) in
      Program.yield w (next_propose api i t (history @ [ w ]))
    else thread2 api i t history
  in
  next_propose api 0 0 []
