(** Problem parameters (n, m, k) and the register counts of Figure 1.

    Throughout: [n] processes, m-obstruction-freedom, k-set agreement,
    with the paper's standing assumption 1 ≤ m ≤ k < n (the problem is
    unsolvable for m > k and trivial for k ≥ n). *)

type t = { n : int; m : int; k : int }

(** [Ok ()] iff 1 ≤ m ≤ k < n and n > 1. *)
val validate : t -> (unit, string) result

(** Validating constructor; raises [Invalid_argument] on bad triples. *)
val make : n:int -> m:int -> k:int -> t

(** Every valid triple with n ≤ max_n (1 ≤ m ≤ k < n), ordered by n,
    then k, then m: the parameter grid of the Figure 1 sweeps. *)
val grid : max_n:int -> t list

(** Snapshot components of the Figure 3/4 algorithms: n + 2m − k. *)
val r_oneshot : t -> int

(** ℓ = n + m − k: the paper's "last ℓ deciders output ≤ m values"
    threshold, and the Theorem 2 lower bound. *)
val ell : t -> int

(** Components of the anonymous Figure 5 algorithm, (m+1)(n−k) + m²
    (plus one register H in the repeated case). *)
val r_anonymous : t -> int

(** Theorem 7/8 upper bound: min(n+2m−k, n). *)
val registers_upper : t -> int

(** Theorem 2 lower bound for repeated k-set agreement: n+m−k. *)
val registers_lower : t -> int

(** Theorem 10 anonymous one-shot lower bound, √(m(n/k − 2)) (0 when
    vacuous, i.e. n ≤ 2k). *)
val anon_lower_bound : t -> float

(** DFGR'13 baseline register count 2(n−k) (m = 1 only). *)
val r_dfgr13 : t -> int

val to_string : t -> string
