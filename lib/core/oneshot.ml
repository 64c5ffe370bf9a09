(* Figure 3: one-shot m-obstruction-free k-set agreement over a
   snapshot object with r = n + 2m − k components.

   Each process keeps a preferred value [pref] (initially its input) and
   a location [i].  It repeatedly stores (pref, id) in component i and
   scans:

   - decide (lines 9–10) when the scan holds at most m distinct pairs
     and no ⊥: output the value of the smallest-index duplicated pair;
   - adopt (lines 11–13) when no copy of its own pair is visible
     anywhere except the component it just wrote, and some other pair
     appears twice: adopt that pair's value, keep i;
   - otherwise advance i to (i+1) mod r.

   [m] and the component count r come from the supplied snapshot API, so
   the same code runs correct instances (r = n+2m−k) and deliberately
   register-starved ones (the lower-bound experiments). *)

open Shm

let pair ~pref ~pid = Value.pair pref (Value.int pid)

let value_of_pair = Value.fst

(* Lines 9–10.  In a correct instance r > m forces a duplicate whenever
   the scan has ≤ m distinct non-⊥ entries; starved instances (r ≤ m)
   may have none, in which case entry 0 is output — still one of the
   scanned values, so Validity is unaffected. *)
let decide_check ~m view =
  if View.distinct_count view <= m && not (View.contains_bot view) then
    match View.min_duplicate_index view with
    | Some j -> Some (value_of_pair view.(j))
    | None -> Some (value_of_pair view.(0))
  else None

(* Lines 11–12: when no component but [i] holds ⊥ or a copy of [own],
   the paper's j1, the minimum duplicated index (over all duplicates).
   [own] is the pair the process just wrote to component [i], already
   interned, so the scan compares by pointer. *)
let adoptable ~own ~i view =
  let ok = ref true in
  Array.iteri
    (fun j v -> if j <> i && (Value.is_bot v || Value.equal v own) then ok := false)
    view;
  if !ok then View.min_duplicate_index view else None

(* Lines 11–13: adoption — with one erratum fix found by running the
   pseudocode.  Read literally, line 13 assigns pref ← value(s[j1]) even
   when that value already equals pref (two stale copies of a halted
   process's pair suffice), so a solo process can take the adopt branch
   forever without advancing i and never terminate — our simulator
   exhibits this under m-bounded schedules.  The proof of Lemma 5
   (Case 2) silently assumes every execution of line 13 *changes* the
   preferred value; the reading that makes the proof sound is: compute
   the paper's j1; if value(s[j1]) = pref, fall through to the i
   increment.  Safety is unaffected: pref still only ever becomes the
   value of a duplicated pair, and the new increment path spreads a
   pref that equals a duplicated pair's value, which after C0 lies in
   V by Lemma 4's induction.  See EXPERIMENTS.md, "pseudocode errata".
   [pref] is the preference in [own]. *)
let adopt_check ~pref ~own ~i view =
  match adoptable ~own ~i view with
  | Some j ->
    let w = value_of_pair view.(j) in
    if Value.equal w pref then None else Some w
  | None -> None

(* Lines 11–13 exactly as printed in the paper — pref ← value(s[j1])
   even when that value equals pref.  Kept only so the erratum is
   executable: the regression test in test_errata.ml shows a solo
   process livelocking under this rule, which the repaired
   [adopt_check] above cannot. *)
let adopt_check_paper_literal ~pref:_ ~own ~i view =
  Option.map (fun j -> value_of_pair view.(j)) (adoptable ~own ~i view)

(* The body of Propose(v); [finish w] builds what the process does after
   outputting w (Stop for one-shot; the repeated algorithm of Figure 4
   has its own, richer loop and does not reuse this body).  [adopt]
   selects the adoption rule; the repaired one is the default.  The
   loop carries the interned pair [own] beside [pref] and rebuilds it
   only when [pref] changes, on adoption. *)
let propose ?(adopt = adopt_check) ~m ~pid ~(api : Snapshot.Snap_api.t) v ~finish () =
  let r = api.Snapshot.Snap_api.components in
  let rec loop (api : Snapshot.Snap_api.t) pref own i =
    api.update i own @@ fun api ->
    api.scan @@ fun api view ->
    match decide_check ~m view with
    | Some w -> Program.yield w (finish w)
    | None -> (
      match adopt ~pref ~own ~i view with
      | Some w when not (Value.equal w pref) -> loop api w (pair ~pref:w ~pid) i
      | Some _ -> loop api pref own i  (* literal rule: "adopt" same value, keep i *)
      | None -> loop api pref own ((i + 1) mod r))
  in
  loop api v (pair ~pref:v ~pid) 0

(* The full one-shot process program: await the single invocation, run
   Propose, halt. *)
let program ~m ~pid ~api =
  Program.await (fun v -> propose ~m ~pid ~api v ~finish:(fun _ -> Program.stop) ())

(* The program under the paper's literal adoption rule (for the erratum
   regression test only). *)
let program_paper_literal ~m ~pid ~api =
  Program.await (fun v ->
      propose ~adopt:adopt_check_paper_literal ~m ~pid ~api v
        ~finish:(fun _ -> Program.stop)
        ())
