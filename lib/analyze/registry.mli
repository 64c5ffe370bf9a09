(** The algorithms the analyzer knows, each bound to its paper bound
    from {!Bounds.Formulas}.

    One entry per implemented algorithm: Figure 3 (one-shot), Figure 4
    (repeated), Figure 5 (anonymous repeated) and the DFGR'13 baseline.
    An entry packages everything a sweep needs: applicability of a
    parameter triple, the runnable configuration (built with the
    space-optimal snapshot implementation where the paper's theorem
    picks one), the paper's register bound, and a dynamic register
    measurement under a deterministic schedule. *)

type entry = {
  name : string;  (** registry key, also {!Bounds.Formulas.for_algorithm} key *)
  figure : string;  (** where in the paper, e.g. "Figure 3" *)
  anonymous : bool;  (** subject to the anonymity lint *)
  rounds : int;  (** invocations per process for analysis and lints *)
  applicable : Agreement.Params.t -> bool;
  registers : Agreement.Params.t -> int;  (** allocated by [config] *)
  bound : Agreement.Params.t -> int;  (** the paper's register bound *)
  bound_label : string;
  config : Agreement.Params.t -> Shm.Config.t;
}

val all : entry list
val names : string list
val find : string -> entry option

(** Registers actually written by a concrete run of the entry under a
    round-robin schedule with default inputs (the written set of the
    final memory) — the dynamic measure the static footprint must
    contain.  The run stops at the first write that leaves every
    register written; the set is the full run's, as it only grows. *)
val measure_dynamic : entry -> Agreement.Params.t -> Absint.IntSet.t

(** The (n ≤ max_n, 1 ≤ m ≤ k < n) parameter grid of the sweep. *)
val grid : max_n:int -> Agreement.Params.t list
