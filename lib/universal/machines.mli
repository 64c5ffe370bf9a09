(** A catalog of state machines for the universal construction, with
    their command constructors.  Commands are Shm.Value encodings so
    they travel through the agreement layer unchanged. *)

(** Decode a command into its [(tag, argument)] pair, if it is one. *)
val tagged : Shm.Value.t -> (string * Shm.Value.t) option

(** Counter command [("add", x)]; the service's counter app applies it. *)
val add : int -> Shm.Value.t

(** Last-writer-wins register; commands {!write}. *)
val register : Shm.Value.t Rsm.machine

val write : Shm.Value.t -> Shm.Value.t

type queue_state = { items : Shm.Value.t list; dequeued : Shm.Value.t list }

(** FIFO queue — the object Herlihy's universality paper motivates
    with; commands {!enq} and {!deq} (dequeue of empty records ⊥). *)
val fifo_queue : queue_state Rsm.machine

val enq : Shm.Value.t -> Shm.Value.t
val deq : Shm.Value.t

(** Bank account: deposits always apply, withdrawals only when covered
    — the balance is never negative on any replica. *)
val bank : int Rsm.machine

val deposit : int -> Shm.Value.t
val withdraw : int -> Shm.Value.t
