(* A small catalog of state machines for the universal construction —
   the objects one actually replicates with it.

   Commands are Shm.Value encodings so they travel through the
   agreement layer unchanged; each machine documents its command
   grammar.  [counter] and [register] are the textbook examples;
   [fifo_queue] is the object Herlihy's paper uses to motivate
   universality (queues have no wait-free register implementation, yet
   the construction replicates one); [bank] exercises conditional
   commands (withdrawals can fail deterministically, and every replica
   agrees on which did). *)

open Shm

(* Commands are ("tag", arg) pairs; [tagged] is the shared decoder. *)
let tagged cmd =
  match Value.view cmd with
  | Value.Pair (tag, arg) -> (
    match Value.view tag with Value.Str s -> Some (s, arg) | _ -> None)
  | _ -> None

(* counter command ("add", x), applied by the service's counter app *)
let add x = Value.pair (Value.str "add") (Value.int x)

(* last-writer-wins register: commands ("write", v) *)
let register =
  {
    Rsm.init = Value.bot;
    apply =
      (fun s cmd ->
        match tagged cmd with Some ("write", v) -> v | _ -> s);
  }

let write v = Value.pair (Value.str "write") v

(* FIFO queue: commands ("enq", v) and ("deq", _).  The state is
   (queue contents, dequeued-so-far), both in order; dequeue on empty
   is a no-op recorded as ⊥. *)
type queue_state = { items : Value.t list; dequeued : Value.t list }

let fifo_queue =
  {
    Rsm.init = { items = []; dequeued = [] };
    apply =
      (fun s cmd ->
        match tagged cmd with
        | Some ("enq", v) -> { s with items = s.items @ [ v ] }
        | Some ("deq", _) -> (
          match s.items with
          | [] -> { s with dequeued = s.dequeued @ [ Value.bot ] }
          | x :: rest -> { items = rest; dequeued = s.dequeued @ [ x ] })
        | _ -> s);
  }

let enq v = Value.pair (Value.str "enq") v
let deq = Value.pair (Value.str "deq") Value.bot

(* bank account: ("deposit", x) always applies; ("withdraw", x) applies
   only when covered.  Balance can therefore never go negative, on any
   replica, regardless of proposal interleaving. *)
let bank =
  {
    Rsm.init = 0;
    apply =
      (fun balance cmd ->
        match tagged cmd with
        | Some ("deposit", x) -> balance + Value.to_int x
        | Some ("withdraw", x) when Value.to_int x <= balance ->
          balance - Value.to_int x
        | _ -> balance);
  }

let deposit x = Value.pair (Value.str "deposit") (Value.int x)
let withdraw x = Value.pair (Value.str "withdraw") (Value.int x)
