(** The closed forms of Figure 1, the paper's results table, plus the
    corollaries of Sections 1 and 4.1.  [Lowerbound.Figure1] checks
    measured registers and the lower-bound constructions against them,
    and the analyzer's registry ([Analyze.Registry]) its static
    footprints. *)

type cell = {
  label : string;
  lower : Agreement.Params.t -> float;  (** registers (real-valued: √ bounds) *)
  upper : Agreement.Params.t -> float;
}

(** Row 1: Theorem 2 lower, Theorem 8 upper. *)
val repeated_non_anonymous : cell

(** Row 1': lower 2 (DFGR'13), Theorem 7 upper min(n+2m−k, n). *)
val oneshot_non_anonymous : cell

(** Row 2: Theorem 2 lower, Theorem 11 upper. *)
val repeated_anonymous : cell

(** Figure 1's four rows in order: 1, 1' (one-shot, lower 2 from
    DFGR'13, upper Theorem 7), 2 and 2' (anonymous one-shot, Theorem
    10 lower, Theorem 11 minus H upper). *)
val all : cell list

(** The cell a registry algorithm ({!Analyze.Registry}) is measured
    against: ["oneshot"], ["repeated"], ["anonymous"] (alias
    ["anonymous-repeated"]), ["anonymous-oneshot"], ["baseline"] (alias
    ["dfgr13"]).  [None] on unknown names. *)
val for_algorithm : string -> cell option

(** m = k = 1: both bounds collapse to n ("repeated consensus requires
    exactly n registers"). *)
val repeated_consensus_exact : n:int -> int * int

(** Section 4.1: (2(n−k), n−k+2) at m = 1: the DFGR'13 baseline's
    registers and Figure 3's components. *)
val dfgr13_comparison : n:int -> k:int -> int * int
