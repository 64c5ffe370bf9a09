(* The closed forms of Figure 1, the paper's results table, plus the
   corollaries discussed in Sections 1 and 7.  Lowerbound.Figure1 and
   Analyze.Registry check measurements against them. *)

type cell = {
  label : string;
  lower : Agreement.Params.t -> float;  (* registers, as a real (√ bounds) *)
  upper : Agreement.Params.t -> float;
}

let fi = float_of_int

(* Row 1: non-anonymous, repeated.  Lower: Theorem 2.  Upper: Thm 8. *)
let repeated_non_anonymous =
  {
    label = "non-anonymous repeated";
    lower = (fun p -> fi (Agreement.Params.registers_lower p));
    upper = (fun p -> fi (Agreement.Params.registers_upper p));
  }

(* Row 1': non-anonymous one-shot.  Lower: 2 (from [4]).  Upper: Thm 7. *)
let oneshot_non_anonymous =
  {
    label = "non-anonymous one-shot";
    lower = (fun _ -> 2.);
    upper = (fun p -> fi (Agreement.Params.registers_upper p));
  }

(* Row 2: anonymous repeated.  Lower: Theorem 2 applies verbatim (the
   table lists n+m−k for anonymous repeated too).  Upper: Theorem 11. *)
let repeated_anonymous =
  {
    label = "anonymous repeated";
    lower = (fun p -> fi (Agreement.Params.registers_lower p));
    upper = (fun p -> fi (Agreement.Params.r_anonymous p + 1));
  }

(* Row 2': anonymous one-shot.  Lower: Theorem 10 (strictly more than
   √(m(n/k − 2)), for D = IN).  Upper: Theorem 11 without H. *)
let oneshot_anonymous =
  {
    label = "anonymous one-shot";
    lower = (fun p -> Agreement.Params.anon_lower_bound p);
    upper = (fun p -> fi (Agreement.Params.r_anonymous p));
  }

(* §4.1 baseline row: the DFGR'13 algorithm itself (m = 1 only) — the
   register count the paper improves on.  Lower = upper = 2(n−k): the
   cell records the baseline's own cost, not a bound of this paper. *)
let dfgr13_baseline =
  {
    label = "DFGR'13 baseline (m = 1)";
    lower = (fun p -> fi (Agreement.Params.r_dfgr13 p));
    upper = (fun p -> fi (Agreement.Params.r_dfgr13 p));
  }

let all = [ repeated_non_anonymous; oneshot_non_anonymous; repeated_anonymous; oneshot_anonymous ]

(* Lookup by registry algorithm name (see Analyze.Registry). *)
let for_algorithm = function
  | "oneshot" -> Some oneshot_non_anonymous
  | "repeated" -> Some repeated_non_anonymous
  | "anonymous" | "anonymous-repeated" -> Some repeated_anonymous
  | "anonymous-oneshot" -> Some oneshot_anonymous
  | "baseline" | "dfgr13" -> Some dfgr13_baseline
  | _ -> None

(* Headline corollaries. *)

(* §1: "obstruction-free repeated consensus requires exactly n
   registers" (m = k = 1): both bounds below collapse to n. *)
let repeated_consensus_exact ~n =
  let p = Agreement.Params.make ~n ~m:1 ~k:1 in
  (Agreement.Params.registers_lower p, Agreement.Params.registers_upper p)

(* §4.1: improvement over DFGR'13 at m = 1: 2(n−k) vs n−k+2, Figure
   3's component count (at k = 1 that is n+1, one more than Theorem 7's
   min(n+2m−k, n)). *)
let dfgr13_comparison ~n ~k =
  let p = Agreement.Params.make ~n ~m:1 ~k in
  (Agreement.Params.r_dfgr13 p, Agreement.Params.r_oneshot p)
