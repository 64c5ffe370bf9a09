(** Static-vs-paper-vs-dynamic reporting: the rows behind
    [sa_run analyze] and [BENCH_analyze.json] (EXPERIMENTS.md, E15).

    One row per (algorithm, parameter triple): the allocated register
    count, the paper bound from {!Bounds.Formulas}, the static write
    footprint from {!Absint}, the registers a concrete run wrote
    ({!Registry.measure_dynamic}), and the lint diagnostics.  The
    row is [ok] iff static ≤ bound, dynamic ⊆ static, and no lint
    error fired — three containments that must hold of every honest
    algorithm and that the seeded mutants ({!Mutants}) violate. *)

type row = {
  algo : string;
  params : Agreement.Params.t;
  registers : int;  (** allocated *)
  bound : int;  (** the paper's register bound *)
  bound_label : string;
  static_writes : int;  (** |static write footprint| *)
  static_reads : int;
  dynamic_writes : int;  (** |dynamically written registers| *)
  static_within_bound : bool;  (** static_writes ≤ bound *)
  dynamic_within_static : bool;  (** dynamic set ⊆ static set *)
  lint_errors : int;
  diags : Lint.diag list;
  converged : bool;
  widened : bool;
  passes : int;
  steps : int;
  ok : bool;
}

(** Analyze one registry entry at one parameter triple: abstract
    interpretation + lints + dynamic measurement.  [dynamic:false]
    skips the concrete run (dynamic fields 0/true). *)
val row_for : ?dynamic:bool -> Registry.entry -> Agreement.Params.t -> row

(** Every applicable (entry, params) pair of {!Registry.grid}
    [~max_n] × the entries named in [algos] (all entries when [algos]
    is empty), in sweep order. *)
val cells :
  max_n:int -> algos:string list -> (Registry.entry * Agreement.Params.t) list

(** The abstract-interpretation totals of a set of rows: steps and
    passes (as in the rows), and the {!Absdom} alternative lookups and
    how many of them rebuilt their answer. *)
type stats = { steps : int; passes : int; lookups : int; recomputes : int }

(** {!row_for} over [cells], with the totals of their analyses. *)
val measure :
  dynamic:bool -> (Registry.entry * Agreement.Params.t) list -> row list * stats

(** The rows of every entry's {!cells}, [max_n] defaulting to 6. *)
val sweep : ?dynamic:bool -> ?max_n:int -> unit -> row list

val violations : row list -> row list

(** One row as a [BENCH_analyze.json] row object (diagnostics included
    as structured objects). *)
val row_to_json : row -> Obs.Json.t

(** The rows of a [BENCH_analyze.json] document, as both [sa_run analyze
    --json] and [bench table analyze] write it: every sweep row tagged
    ["kind": "sweep"], then one ["kind": "mutant"] row per
    [(mutant, rejected)] verdict at [p]. *)
val bench_rows :
  row list -> p:Agreement.Params.t -> (Mutants.mutant * bool) list -> Obs.Json.t list

(** The one row of an [analyze-protocol] document ([sa_run protocol
    --json]): the protocol, its dataflow facts, the
    number of flow diagnostics and, when it was optimized, the
    rewrite. *)
val protocol_row :
  Shm.Vm.proto -> Dataflow.t -> flow_diags:int -> Optim.result option -> Obs.Json.t

(** One [name: value] line per {!stats} field, named as the bench
    counters ([analyze.absint_steps], …, [analyze.absdom_recomputes]). *)
val pp_stats : Format.formatter -> stats -> unit

val pp_header : Format.formatter -> unit -> unit
val pp_row : Format.formatter -> row -> unit
