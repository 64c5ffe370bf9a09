(** Tickets — the async submission surface.

    Submitting a command yields a {!ticket} immediately; the command
    commits later, when its shard's next agreement slot decides a batch
    containing it.  {!Server.pump} returns the tickets each round
    resolved. *)

type state =
  | Pending  (** submitted, not yet decided *)
  | Done of { reply : Shm.Value.t; slot : int; finish_ns : int }
      (** committed in [slot]; [reply] is the application's answer *)
  | Failed of string  (** the shard could not commit it (stuck slot) *)

type ticket = {
  tag : int;           (** caller's correlation id (e.g. client index) *)
  shard : int;         (** shard the command was routed to *)
  cmd : Shm.Value.t;
  submit_ns : int;     (** monotonic ns at submission *)
  mutable state : state;  (** written by shard [shard] when its slot decides *)
}

val make_ticket : tag:int -> shard:int -> cmd:Shm.Value.t -> submit_ns:int -> ticket

(** Submission-to-commit latency, once done. *)
val latency_ns : ticket -> int option
