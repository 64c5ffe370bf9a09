(** Randomized safety stress: hammer a system builder with seeded
    schedules from several families and report the first safety
    violation.  Scales to any n (unlike the model checker) and needs no
    theory (unlike the lower-bound constructions); [Survived] is
    evidence, not proof. *)

type family = Bursty | Uniform | M_bounded of int

type verdict =
  | Survived of { runs : int }
  | Broken of {
      seed : int;
      family : family;
      error : string;
      config : Shm.Config.t;
      schedule : int list;
          (** the pid sequence that produced the violation — replays
              the run exactly (processes are deterministic) *)
    }

val pp_verdict : Format.formatter -> verdict -> unit

(** The witness (if any) as the stack's common counterexample
    currency, ready for {!Counterex.replay} (without completion) and
    {!Shrink.minimize}. *)
val counterex_of : verdict -> Counterex.t option

(** [run ~k ~n ~build ~inputs ()]: [runs] seeds per family (default
    100 × {Bursty, Uniform}), fresh system per run via [build], each
    capped at [max_steps] (default 60k). *)
val run :
  ?runs:int ->
  ?max_steps:int ->
  ?families:family list ->
  k:int ->
  n:int ->
  build:(unit -> Shm.Config.t) ->
  inputs:(pid:int -> instance:int -> Shm.Value.t option) ->
  unit ->
  verdict
