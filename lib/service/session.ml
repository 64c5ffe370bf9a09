(* Tickets: the async handle for one submitted command.  Its state
   starts [Pending] and is written once, by the shard it was routed to,
   when the slot deciding its batch commits or fails. *)

open Shm

type state =
  | Pending
  | Done of { reply : Value.t; slot : int; finish_ns : int }
  | Failed of string

type ticket = {
  tag : int;
  shard : int;
  cmd : Value.t;
  submit_ns : int;
  mutable state : state;
}

let make_ticket ~tag ~shard ~cmd ~submit_ns =
  { tag; shard; cmd; submit_ns; state = Pending }

let latency_ns ticket =
  match ticket.state with
  | Done d -> Some (d.finish_ns - ticket.submit_ns)
  | _ -> None
