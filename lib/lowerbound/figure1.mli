(** Figure 1 of the paper as one checked table: each row runs one
    Figure 1 claim at one (n, m, k) and carries its bounds (from
    {!Bounds.Formulas}), what was measured and a verdict.

    - E1 (Theorem 8): Figure 4 over the space-optimal snapshot, two
      rounds under quantum-500 round-robin, writes at most
      min(n+2m−k, n) registers; 4 ≤ n ≤ max_n, 1 ≤ m ≤ k < n.
    - E3 (Theorem 11): Figure 5, two rounds under quantum-800
      round-robin, writes at most (m+1)(n−k)+m²+1; the same grid.
    - E2 (Theorem 2): the Figure 2 adversary ({!Theorem2}, 4 ordinary
      instances) breaks Figure 4 over lo − 1 = n+m−k−1 components and
      runs out of processes against its n+2m−k; six fixed instances.
    - E6 (Theorem 2 at m = k = 1, n ≥ 3): the same, and Figure 4 over
      the single-writer snapshot (quantum 800) writes exactly n.
    - E4 (Theorem 10): with r registers, the clone construction
      ({!Clones}, m = 1) and its gluing for m ≥ 2 ({!Lemma9}) break the
      anonymous one-shot algorithm at ⌈(k+1)/m⌉(m + (r²−r)/2) process
      slots and run out of clone slots with one fewer; six instances.

    Three claims are checked over several arms, each against its own
    bound, independently of [max_n]:

    - E5 (§4.1): at n = 10, m = 1, 1 ≤ k ≤ 8, under quantum-400
      round-robin, the DFGR'13 baseline writes at most 2(n−k) registers
      and Figure 3 at most n−k+2.
    - E3b (Theorem 11): Figure 5 over the atomic snapshot and over the
      non-blocking anonymous collect, two rounds under quantum-4000
      round-robin, write the same number of registers, at most
      (m+1)(n−k)+m²+1; four instances.
    - E7 (Theorem 7): Figure 3 at (5,1,2) over each snapshot
      implementation writes at most min(n+2m−k, n). *)

type experiment = E1 | E2 | E3 | E3b | E4 | E5 | E6 | E7

(** A construction's outcome: a violation with this many distinct
    outputs that {!Spec.Properties.agreement_errors} confirms; out of
    processes or clone slots; or anything else. *)
type finding = Broke of int | Resisted | Failed

(** One run of a construction: its register (E2, E6) or slot (E4)
    budget, and its own one-line report. *)
type attack = { budget : int; found : finding; report : string }

(** One arm of a several-arm claim: what ran, its register bound, the
    registers it wrote and the steps it took. *)
type arm = { name : string; bound : int; written : int; steps : int }

type measured =
  | Registers of { bound : int; written : int; steps : int; latencies : int list }
      (** E1/E3: registers written against the upper bound, the run's
          steps and the step latency of every completed propose. *)
  | Theorem2 of { lo : int; starved : attack; full : attack; written : int option }
      (** E2/E6: the adversary at lo − 1 and at n+2m−k; E6 also the
          registers Figure 4 writes. *)
  | Clones of { registers : int; at : attack; below : attack }
      (** E4: at the slot count and one below. *)
  | Arms of arm list  (** E3b, E5, E7: every arm of the claim. *)

type row = {
  experiment : experiment;
  params : Agreement.Params.t;
  measured : measured;
  verdict : (unit, string) result;  (** [Error] says what failed *)
}

(** E1, E3, E3b, E2, E6, E4, E5, E7 in that order.  [max_n] caps
    every swept n (E1, E3, E6); E3 and E6 also stop at 7. *)
val table : max_n:int -> row list

(** ["E1"], ["E3b"], …: the name a row prints under. *)
val experiment_name : experiment -> string

(** One line per row under a header, each column padded to its widest
    cell. *)
val pp : row list Fmt.t
