(** The scheduler zoo.

    A scheduler is the adversary of the asynchronous model: at each
    step it picks which runnable process moves.  Schedulers are
    stateful (cursors, PRNGs, phase counters) but constructed fresh per
    run, so runs remain reproducible from their seeds.

    The progress-condition schedulers matter most for this paper:
    {!m_bounded} produces executions in which, after an arbitrary
    finite prefix, at most [m] processes take infinitely many steps —
    exactly the hypothesis of m-obstruction-freedom. *)

type t = {
  name : string;
  next : step:int -> runnable:(int -> bool) -> int option;
      (** [next ~step ~runnable] picks a runnable pid, or [None] to end
          the run (nothing this scheduler is willing to run is
          runnable). *)
}

val name : t -> string

(** First runnable pid of a list, if any. *)
val first_runnable : runnable:(int -> bool) -> int list -> int option

(** Round-robin over all [n] processes, skipping unrunnable ones. *)
val round_robin : int -> t

(** The quantum rule, closure-free.  [quantum_pick ~runnable env st n
    ~cursor ~left], with [cursor] the pid that stepped last and [left]
    the steps left in its quantum, is the pid that steps next ([-1]:
    none is runnable): [cursor] while runnable with [left > 0], else
    the next runnable pid after it, whose quantum starts full — so
    after the step [left - 1] steps are left if [pid = cursor] and
    [left > 0], else [quantum - 1].  [runnable env st pid] tests a pid
    in state [st]; passing [env] and [st] explicitly lets a caller use
    one static function rather than build a closure per run.
    {!quantum_round_robin} and [Spec.Counterex]'s completions pick
    through it. *)
val quantum_pick :
  runnable:('e -> 's -> int -> bool) -> 'e -> 's -> int -> cursor:int -> left:int -> int

(** Round-robin where each process takes [quantum] consecutive steps.
    Large quanta approximate solo runs, which obstruction-freedom turns
    into a termination guarantee. *)
val quantum_round_robin : quantum:int -> int -> t

(** Only [pid] ever runs — the solo executions of obstruction-freedom. *)
val solo : int -> t

(** Run exactly these processes, round-robin in list order. *)
val only : int list -> t

(** [replay ~n pids] runs the listed pids in order, skipping entries
    outside [0..n-1] and entries not runnable when their turn comes; it
    ends when the list is exhausted.  The one replay of a pid schedule
    (fuzz inputs, counterexamples, engine differentials). *)
val replay : n:int -> int list -> t

(** Uniformly random runnable process among [0..n-1]. *)
val random : seed:int -> int -> t

(** The m-obstruction-freedom adversary: a random prefix of [prefix]
    steps over all [n] processes, after which only a random set of [m]
    processes keeps running. *)
val m_bounded : seed:int -> m:int -> prefix:int -> int -> t

(** Like {!m_bounded} with an explicit surviving set. *)
val eventually_only : seed:int -> survivors:int list -> prefix:int -> int -> t

(** Random scheduler with random-length bursts (1..[burst_max]) over
    [procs]; produces the partially-sequential interleavings the
    Lemma 1 search relies on. *)
val bursty_random : seed:int -> ?burst_max:int -> int list -> t

(** Contention adversary: alternates [burst]-step turns of the process
    groups. *)
val alternating : burst:int -> int list list -> t

(** Crash adversary: wraps [inner]; process [p] is never scheduled once
    the global step count reaches its crash time [(p, at)]. *)
val with_crashes : crashes:(int * int) list -> t -> t
