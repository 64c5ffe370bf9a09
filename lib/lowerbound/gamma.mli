(** γ-fragment construction (proof of Theorem 2): from a configuration,
    a group Q of processes runs — alone — until each completes every
    instance below the fresh instance [t], then executes its [t]-th
    Propose so that the group outputs |Q| distinct values (Lemma 1).
    Every step is guarded: an escape is returned to the caller, which
    treats it as the δ-fragment of the Figure 2 loop. *)

type result =
  | Ok_gamma of Shm.Config.t   (** |Q| distinct outputs at instance [t] *)
  | Escape of Explore.escape   (** poised write outside the allowed set *)
  | Failed of string           (** bounded search exhausted *)

(** Distinct values output at instance [t] by processes in [procs]. *)
val distinct_at : Shm.Config.t -> procs:int list -> t:int -> Shm.Value.t list

(** All permutations of a list (plan enumeration helper). *)
val permutations : 'a list -> 'a list list

(** [build ~allowed ~inputs ~max_steps ~t ~procs config]: the full γ
    fragment.  [tries] bounds the randomized fallback (default 60). *)
val build :
  allowed:(int -> bool) ->
  inputs:(pid:int -> instance:int -> Shm.Value.t option) ->
  max_steps:int ->
  t:int ->
  procs:int list ->
  ?tries:int ->
  Shm.Config.t ->
  result
