(** The executable Theorem 2 adversary: the Figure 2 construction run
    against a (supposed) m-obstruction-free repeated k-set agreement
    system over a given register count.

    Against r ≤ n+m−k−1 registers it builds a legal execution in which
    one instance outputs k+1 distinct values; against a correct
    algorithm it fails by running out of replacement processes — the
    counting step of the paper's proof.  Deviations from the
    non-constructive proof (bounded δ/γ search, fixed fresh instance)
    are listed in DESIGN.md; any reported Violation is certified
    independently by the property checker. *)

type group = {
  index : int;          (** j *)
  final_q : int list;   (** Qj at loop exit: the spliced-fragment runners *)
  pset : int list;      (** Pj: block writers, in poise order *)
  aset : int list;      (** Aj: covered registers *)
}

type outcome =
  | Violation of {
      instance : int;            (** the attacked fresh instance T *)
      outputs : Shm.Value.t list;(** distinct outputs of instance T *)
      config : Shm.Config.t;     (** final configuration *)
      groups : group list;
    }
  | Out_of_processes of { group : int; aset_size : int; groups_built : int }
  | Gamma_failed of { group : int; reason : string }

val pp_outcome : Format.formatter -> outcome -> unit

(** [attack ~params ~registers ~make_config ()] runs the construction.
    [icap] caps ordinary instances (the fresh instance is icap+1);
    each guarded fragment runs at most 30,000 steps; [gamma_tries]
    bounds the Lemma 1 search. *)
val attack :
  params:Agreement.Params.t ->
  registers:int ->
  make_config:(registers:int -> Shm.Config.t) ->
  ?icap:int ->
  ?gamma_tries:int ->
  unit ->
  outcome
