(* Process programs as a free monad over shared-memory operations.

   A process is a pure value of type [t]: the head constructor is the
   step the process is poised to perform, and continuations produce the
   rest of the program.  This representation gives us, for free, the
   three things the paper's proofs need from the model:

   - determinism: the next step is a function of the local state;
   - clonability: configurations are persistent values, so the
     Theorem 2 adversary can branch executions and splice fragments;
   - poised-step inspection: "process q is poised to write register R"
     (the covering argument) is a pattern match on the head.

   [Yield] is the response step of the current operation (step kind (4)
   in Section 2 of the paper): the process outputs a value and proceeds.
   [Await] models an idle process: it performs no step until the
   environment invokes its next operation with an input value. *)

type op =
  | Read of int                  (* read one register *)
  | Write of int * Value.t       (* write one register *)
  | Scan of int * int            (* atomic scan: offset, length *)

type res =
  | RUnit
  | RVal of Value.t
  | RVec of Value.t array

type t =
  | Stop                          (* halted: takes no more steps *)
  | Op of op * (res -> t)         (* poised to perform a shared-memory step *)
  | Yield of Value.t * t          (* respond to current operation with a value *)
  | Await of (Value.t -> t)       (* idle: waiting for the next invocation *)

(* Smart constructors hide the [res] unpacking. *)

let read r k =
  Op (Read r, function RVal v -> k v | RUnit | RVec _ -> assert false)

let write r v k =
  Op (Write (r, v), function RUnit -> k () | RVal _ | RVec _ -> assert false)

let scan ~off ~len k =
  Op (Scan (off, len), function RVec a -> k a | RUnit | RVal _ -> assert false)

let yield v rest = Yield (v, rest)

let await k = Await k

let stop = Stop

let pp_op ppf = function
  | Read r -> Fmt.pf ppf "read R%d" r
  | Write (r, v) -> Fmt.pf ppf "write R%d := %a" r Value.pp v
  | Scan (off, len) -> Fmt.pf ppf "scan [%d..%d]" off (off + len - 1)

(* Poised-step inspection, used by the lower-bound constructions. *)

let poised_op = function Op (o, _) -> Some o | Stop | Yield _ | Await _ -> None

(* The memory footprint of the poised step — which registers executing
   it would read and write.  Yield and Await steps (and halted
   processes) touch no shared memory: their footprint is empty, which
   makes them independent of every other process's steps.  The
   exploration core (Spec.Explore) uses footprints to decide, without
   executing anything, whether two enabled steps commute. *)

type footprint = { reads : int list; writes : int list }

let empty_footprint = { reads = []; writes = [] }

let footprint = function
  | Op (Read r, _) -> { reads = [ r ]; writes = [] }
  | Op (Write (r, _), _) -> { reads = []; writes = [ r ] }
  | Op (Scan (off, len), _) -> { reads = List.init len (fun i -> off + i); writes = [] }
  | Stop | Yield _ | Await _ -> empty_footprint

let footprint_is_local { reads; writes } = reads = [] && writes = []

(* Two steps of *different* processes are independent iff neither
   writes a register the other touches: performing them in either order
   yields the same memory and the same results (read/read pairs and
   accesses to distinct registers commute; write/write to the same
   register, and read/write of the same register, do not). *)
let independent a b =
  let disjoint xs ys = not (List.exists (fun x -> List.mem x ys) xs) in
  disjoint a.writes (b.reads @ b.writes) && disjoint b.writes (a.reads @ a.writes)

let poised_write = function
  | Op (Write (r, _), _) -> Some r
  | Stop | Op ((Read _ | Scan _), _) | Yield _ | Await _ -> None

(* Abstract stepping hooks.  A static analyzer (lib/analyze) drives a
   program without any memory: it decides what each read observes and
   applies the continuation to that fabricated result.  [feed] checks
   the result shape against the poised operation first, so the smart
   constructors' shape assertions can never fire through this path; the
   continuation itself may still raise (algorithms decode register
   values and fail loudly on encodings that no single execution could
   produce — an abstract memory can) and callers are expected to catch. *)

let feed p res =
  match (p, res) with
  | Op (Read _, k), RVal _ -> Some (k res)
  | Op (Write _, k), RUnit -> Some (k res)
  | Op (Scan (_, len), k), RVec a when Array.length a = len -> Some (k res)
  | Op _, _ | Stop, _ | Yield _, _ | Await _, _ -> None

let feed_read p v = feed p (RVal v)

let feed_write_ack p = feed p RUnit

let feed_scan p view = feed p (RVec view)

let take_yield = function
  | Yield (v, rest) -> Some (v, rest)
  | Stop | Op _ | Await _ -> None

let start p v = match p with
  | Await k -> Some (k v)
  | Stop | Op _ | Yield _ -> None

let is_idle = function Await _ -> true | Stop | Op _ | Yield _ -> false

let is_halted = function Stop -> true | Op _ | Yield _ | Await _ -> false
