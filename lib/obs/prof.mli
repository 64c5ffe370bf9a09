(** Phase-attribution profiling of the exploration hot path.

    Attribution ({!add}) is two array stores — allocation-free — so a
    profiling run can bracket every phase of every node without
    distorting what it measures.  Callers use explicit clock reads,
    never closure-based helpers (closures allocate):

    {[
      let t0 = if profiling then Trace.now_ns () else 0 in
      (* ... work ... *)
      if profiling then Prof.add p Prof.Interp (Trace.now_ns () - t0)
    ]} *)

(** Where exploration time goes. *)
type phase =
  | Interp  (** step interpretation ([Config.advance]) *)
  | Footprint  (** footprint + independence computation *)
  | Hash  (** state hashing / key construction *)
  | Cache  (** seen-state cache lookup + insert *)
  | Replay
      (** charged by nothing; kept because [bench/e2e] reads it as
          [spec.prof.replay_s] *)
  | Check  (** leaf completion + property checking *)
  | Vm_step  (** bytecode stepping ([Vm.step], key maintenance included) *)
  | Vm_batch  (** vm frontier batching (arena snapshots, stack ops) *)

type t

val create : unit -> t

(** [add t phase dns] attributes [dns] nanoseconds (and one hit) to
    [phase].  Allocation-free. *)
val add : t -> phase -> int -> unit

val ns : t -> phase -> int
val count : t -> phase -> int
val total_ns : t -> int

val is_empty : t -> bool
val to_json : t -> Json.t

(** Breakdown table: per-phase milliseconds, hits, share of total. *)
val pp : Format.formatter -> t -> unit
