(** Checkers for the properties of repeated k-set agreement
    (Section 2.1 of the paper), evaluated on finished configurations:

    - Validity: ∀i, Out_i(α) ⊆ In_i(α)
    - k-Agreement: ∀i, |Out_i(α)| ≤ k
    - termination helpers for runs whose scheduler guarantees progress. *)

(** Deduplicate, preserving first-occurrence order. *)
val distinct_values : Shm.Value.t list -> Shm.Value.t list

(** Instance → (inputs, outputs) over bare (pid, instance, value)
    record lists — engine-neutral: the interpreter passes
    [Config.inputs]/[Config.outputs], the vm the decoded lists of
    [Shm.Vm.final].  The checkers only inspect per-instance multisets,
    so record order does not matter. *)
val by_instance_io :
  inputs:(int * int * Shm.Value.t) list ->
  outputs:(int * int * Shm.Value.t) list ->
  (int * Shm.Value.t list * Shm.Value.t list) list

(** Instance → (inputs, outputs), in instance order, with multiplicity
    and chronological inner order. *)
val by_instance :
  Shm.Config.t -> (int * Shm.Value.t list * Shm.Value.t list) list

(** One message per output value that is not an input of its instance. *)
val validity_errors : Shm.Config.t -> string list

(** One message per instance with more than [k] distinct outputs. *)
val agreement_errors : k:int -> Shm.Config.t -> string list

(** Validity ∧ k-Agreement over bare i/o record lists (the vm leaf
    check; {!check_safety} is this applied to a configuration). *)
val check_safety_io :
  k:int ->
  inputs:(int * int * Shm.Value.t) list ->
  outputs:(int * int * Shm.Value.t) list ->
  (unit, string) result

(** Validity ∧ k-Agreement over every instance. *)
val check_safety : k:int -> Shm.Config.t -> (unit, string) result

(** Completed operations of one process (= recorded outputs). *)
val completed_ops : Shm.Config.t -> int -> int

(** One message per process short of [expected pid] operations. *)
val termination_errors : expected:(int -> int) -> Shm.Config.t -> string list
