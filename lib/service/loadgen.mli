(** Closed-loop load generation with Zipfian key skew.

    Simulates [clients] independent clients from one driver thread:
    each client has a fixed key drawn once from a Zipf distribution
    (hot keys make hot shards), keeps exactly one command in flight,
    and submits its next command the moment the previous one commits.
    Everything derives from the seed and the driver pumps the server
    itself, so runs replay byte for byte, including every shard's
    committed log. *)

(** Zipf(θ) over [0..keys-1]: weight of key i ∝ 1/(i+1)^θ; θ = 0 is
    uniform. *)
module Zipf : sig
  type t

  (** Normalized weights — the distribution tests check against. *)
  val pmf : keys:int -> theta:float -> float array

  val create : keys:int -> theta:float -> seed:int -> t

  (** Draw one key (deterministic per seed). *)
  val sample : t -> int
end

type config = {
  clients : int;
  ops_per_client : int;
  keys : int;    (** key-space size (keys hash onto shards) *)
  theta : float; (** Zipf skew; 0 = uniform *)
  seed : int;
}

type report = {
  ops : int;              (** commands committed *)
  wall_ns : int;
  throughput_cps : float; (** committed commands per second *)
  p50_ns : float;         (** submit-to-commit latency quantiles *)
  p99_ns : float;
  max_ns : int;
  mean_ns : float;
  stalls : int;           (** submissions initially refused by backpressure *)
  failed : int;
      (** commands that never committed: failed by a shard that got
          stuck, refused by one, or never issued because their client
          was blocked behind such a refusal.  [ops + failed =
          clients × ops_per_client]. *)
}

(** The default command stream for the counter app: [("add", 1)]. *)
val counter_workload : Shm.Rng.t -> client:int -> op:int -> Shm.Value.t

(** A read/write mix for the register app ([read_pct]% reads, default
    50); writes carry a unique [(client, op)] payload. *)
val register_workload :
  ?read_pct:int -> unit -> Shm.Rng.t -> client:int -> op:int -> Shm.Value.t

(** [run server cfg] drives the closed loop to completion on the calling
    domain and reports.  Each round pumps every shard once, retries
    clients parked on backpressure, then resubmits for the clients
    whose tickets resolved (in shard order, then batch order).  A round
    that resolves no ticket and admits no parked client ends the run:
    only a stuck shard gets there, and what it never committed is
    counted in [failed].  [command] overrides the
    app-matched default workload.  Raises [Invalid_argument] if
    [clients <= 0] or [ops_per_client < 0]. *)
val run :
  ?command:(Shm.Rng.t -> client:int -> op:int -> Shm.Value.t) ->
  Server.t ->
  config ->
  report
