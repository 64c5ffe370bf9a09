(** The general Lemma 9 / Theorem 10 construction, for group size
    m ≥ 1: glue c = ⌈(k+1)/m⌉ recorded α executions — one per disjoint
    group of m anonymous processes — with clone block-writes so that one
    one-shot instance outputs cm ≥ k+1 distinct values.

    One α schedule is searched once and pid-renamed for every group
    (anonymity makes the renamed execution isomorphic, which also
    guarantees the common register-sequence prefix Lemma 9 requires);
    replays are verified step-by-step against the recording.  The slot
    budget matches the theorem's ⌈(k+1)/m⌉(m + (r²−r)/2). *)

type outcome =
  | Violation of {
      outputs : Shm.Value.t list;
      config : Shm.Config.t;
      clones_used : int;
      registers_written : int list;
    }
  | Out_of_slots of { clones_used : int; slots : int; round : int }
  | Alpha_failed of string
  | Diverged of string
  | Stuck of string

val pp_outcome : Format.formatter -> outcome -> unit

(** [attack ~params ~registers ~slots ~make_config]: run the gluing.
    The α search makes at most 3000 tries of at most 30,000 steps
    each. *)
val attack :
  params:Agreement.Params.t ->
  registers:int ->
  slots:int ->
  make_config:(registers:int -> slots:int -> Shm.Config.t) ->
  outcome
