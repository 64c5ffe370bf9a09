(** Runtime checks of the paper's key data-structure invariants, over
    recorded traces: Lemma 3 (one-shot: all pairs in A with the same id
    carry the same value) and Lemma 12 (repeated: all t-tuples in A
    with the same id are identical), evaluated after every write. *)

type violation = { at_step : int; register : int; message : string }

val pp_violation : Format.formatter -> violation -> unit

val check_lemma3 : registers:int -> Shm.Event.t list -> violation list
val check_lemma12 : registers:int -> Shm.Event.t list -> violation list
