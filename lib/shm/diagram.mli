(** ASCII space-time diagrams of executions: one row per process, one
    column per step (I invoke, wN write, rN read, s scan, O output,
    . idle).  For small traces — CLI [--diagram], debugging the
    lower-bound constructions; cut long traces to their first [len]
    steps. *)

val symbol : Event.t -> string

(** Render rows for processes [0..n-1]. *)
val pp : ?len:int -> n:int -> Format.formatter -> Event.t list -> unit

(** The whole trace, rendered as by {!pp}. *)
val to_string : n:int -> Event.t list -> string
