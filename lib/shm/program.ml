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

(* Step independence, decided on the poised heads without executing
   anything and without allocating.  A step's footprint is the
   registers it reads and writes: a read or a write touches one
   register, a scan the registers of its range.  Yield and Await steps
   (and halted processes) touch no shared memory, so they commute with
   every other process's steps; so does a zero-length scan.  The
   exploration core (Spec.Explore) builds its ample and sleep sets on
   these two tests. *)

let is_local = function
  | Op (Scan (_, len), _) -> len <= 0
  | Op ((Read _ | Write _), _) -> false
  | Stop | Yield _ | Await _ -> true

let touches o r =
  match o with
  | Read r' | Write (r', _) -> r = r'
  | Scan (off, len) -> r >= off && r < off + len

(* [p] writes a register that [q]'s poised step touches *)
let writes_into p q =
  match (p, q) with
  | Op (Write (r, _), _), Op (o, _) -> touches o r
  | _ -> false

(* Two steps of *different* processes commute iff neither writes a
   register the other touches: performing them in either order yields
   the same memory and the same results (read/read pairs and accesses
   to distinct registers commute; write/write to the same register,
   and a write against a read or scan of it, do not). *)
let commute p q = not (writes_into p q || writes_into q p)

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
