(** Metrics registry: counters, gauges, and log-bucketed histograms.

    Histograms bucket observations by octave (powers of two) and
    interpolate linearly inside a bucket: O(1) memory per histogram,
    quantiles exact to within one octave. *)

module Counter : sig
  type t

  val create : unit -> t
  val incr : ?by:int -> t -> unit

  (** [add t n] is [incr ~by:n t] without the optional-argument boxing:
      the allocation-free path for per-event code. *)
  val add : t -> int -> unit

  val value : t -> int
end

module Gauge : sig
  type t

  val create : unit -> t
  val set : t -> float -> unit
end

module Histogram : sig
  type t

  val create : unit -> t

  (** Record one (non-negative) observation. *)
  val observe : t -> int -> unit

  (** A histogram of the given observations, e.g.
      {!Shm.Analysis.t.latencies}. *)
  val of_list : int list -> t

  val count : t -> int
  val sum : t -> int
  val min_value : t -> int
  val max_value : t -> int
  val mean : t -> float

  (** [quantile t q] for [q] in [0,1]; 0 on an empty histogram. *)
  val quantile : t -> float -> float

  val p50 : t -> float
  val p90 : t -> float
  val p99 : t -> float
  val pp : Format.formatter -> t -> unit
end

(** A named registry.  [counter]/[gauge]/[histogram] get-or-create;
    asking for an existing name with a different kind raises
    [Invalid_argument]. *)
type t

val create : unit -> t
val counter : t -> string -> Counter.t
val gauge : t -> string -> Gauge.t
val histogram : t -> string -> Histogram.t

(** Registered names, in registration order. *)
val names : t -> string list

val pp : Format.formatter -> t -> unit
