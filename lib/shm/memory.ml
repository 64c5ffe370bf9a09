(* Shared register memory with exact space accounting, over one of two
   backends.

   The interface is persistent either way: [write t r v] returns a new
   memory and leaves [t] readable, so configurations can be cloned and
   replayed — the lower-bound adversary of Theorem 2 depends on this.
   [written] records the set of registers that have ever been written,
   which is the space measure the paper reports: an algorithm "uses" a
   register iff some execution writes it (registers that are only read
   never need to exist distinctly).

   Backends:

   - [Persistent] — a persistent map from register index to value.
     The reference implementation: every operation is obviously
     correct, at the cost of O(log n) allocation per write and O(log n)
     per read.

   - [Journaled] — a flat [Value.t array] shared by a whole family of
     versions, plus an undo journal (Baker's trick, as in
     Conchon–Filliâtre persistent arrays).  Each version is a mutable
     cell that either owns the array ([Arr]) or records a one-register
     delta against another version ([Diff]).  A write is O(1): the new
     version takes the array, and the old version becomes a Diff
     remembering the overwritten value — exactly an undo-log entry.
     Reading any version first *reroots* it: the chain of Diffs between
     the version and the array is replayed onto the array (applying the
     undo log), reversing each entry so the previously-current versions
     remain readable.  The depth-first push/pop cycle of the explorers
     (Spec.Explore, Spec.Modelcheck.exhaustive, Spec.Stress replay, the
     Theorem 2 clone-and-replay) touches versions in stack order, so
     rerooting costs amortized O(1) per step: a checkpoint is just the
     [t] value in hand, and rolling back to it is the reroot its next
     access performs.

     Concurrency: a version family is owned by one domain at a time —
     rerooting mutates shared cells.  A config that crosses domains
     (work stealing) must either be rebuilt by schedule replay or
     detached with [unshare], which copies the current contents into a
     fresh single-version family.  Spec.Explore does exactly that; see
     docs/PERFORMANCE.md for the ownership argument.

   Bookkeeping (written set, step counters) lives in the immutable
   per-version handle, not in the journal, so it needs no undo and the
   handle copy is a few words per operation. *)

module Imap = Map.Make (Int)
module Iset = Set.Make (Int)

type backend = Persistent | Journaled

let backend_name = function Persistent -> "persistent" | Journaled -> "journal"

let backend_of_string = function
  | "persistent" | "map" -> Some Persistent
  | "journal" | "journaled" -> Some Journaled
  | _ -> None

(* The process-wide default backend, set once at startup (sa_run
   --memory-backend); reads during simulation are race-free because
   every create call site runs after CLI parsing. *)
let default = Atomic.make Journaled

let set_default b = Atomic.set default b

(* ---- journaled versions ---- *)

type version = cell ref

and cell =
  | Arr of Value.t array               (* this version owns the array *)
  | Diff of int * Value.t * version    (* this version = that one, except reg r held v *)

(* Reroot [ver]: make it the Arr-owning version by replaying the Diff
   chain onto the array, reversing each entry.  Iterative — chains can
   be as long as the schedule distance between two versions. *)
let reroot ver =
  match !ver with
  | Arr _ -> ()
  | Diff _ ->
    (* collect the path from [ver] to the current root *)
    let rec path acc v =
      match !v with Arr _ -> v :: acc | Diff (_, _, next) -> path (v :: acc) next
    in
    (match path [] ver with
    | root :: rest ->
      let arr = match !root with Arr a -> a | Diff _ -> assert false in
      (* walk towards [ver], swapping each Diff into the array *)
      List.fold_left
        (fun prev v ->
          (match !v with
          | Diff (r, value, _) ->
            let old = arr.(r) in
            arr.(r) <- value;
            prev := Diff (r, old, v)
          | Arr _ -> assert false);
          v)
        root rest
      |> fun last ->
      last := Arr arr
    | [] -> assert false)

type repr = Pmap of Value.t Imap.t | Jrnl of version

type t = {
  size : int;              (* number of allocated registers *)
  repr : repr;
  written : Iset.t;        (* registers written at least once *)
  write_count : int;       (* total number of write steps *)
  read_count : int;        (* total number of read steps (scan = len reads) *)
}

let create ?backend size =
  if size < 0 then invalid_arg "Memory.create: negative size";
  let backend = match backend with Some b -> b | None -> Atomic.get default in
  let repr =
    match backend with
    | Persistent -> Pmap Imap.empty
    | Journaled -> Jrnl (ref (Arr (Array.make size Value.bot)))
  in
  { size; repr; written = Iset.empty; write_count = 0; read_count = 0 }

let backend t = match t.repr with Pmap _ -> Persistent | Jrnl _ -> Journaled

let size t = t.size

let check t r op =
  if r < 0 || r >= t.size then
    invalid_arg (Fmt.str "Memory.%s: register %d out of range [0,%d)" op r t.size)

let read t r =
  check t r "read";
  match t.repr with
  | Pmap regs -> ( match Imap.find_opt r regs with Some v -> v | None -> Value.bot)
  | Jrnl ver ->
    reroot ver;
    (match !ver with Arr a -> a.(r) | Diff _ -> assert false)

let write t r v =
  check t r "write";
  let repr =
    match t.repr with
    | Pmap regs -> Pmap (Imap.add r v regs)
    | Jrnl ver ->
      reroot ver;
      (match !ver with
      | Arr a ->
        let old = a.(r) in
        a.(r) <- v;
        let fresh = ref (Arr a) in
        ver := Diff (r, old, fresh);
        Jrnl fresh
      | Diff _ -> assert false)
  in
  {
    t with
    repr;
    written = Iset.add r t.written;
    write_count = t.write_count + 1;
  }

(* Atomic multi-read of [len] consecutive registers starting at [off];
   used to give snapshot objects their atomic-scan semantics. *)
let scan t ~off ~len =
  if len < 0 || off < 0 || off + len > t.size then
    invalid_arg
      (Fmt.str "Memory.scan: range off=%d len=%d out of range [0,%d)" off len t.size);
  match t.repr with
  | Pmap regs ->
    Array.init len (fun i ->
        match Imap.find_opt (off + i) regs with Some v -> v | None -> Value.bot)
  | Jrnl ver ->
    reroot ver;
    (match !ver with Arr a -> Array.sub a off len | Diff _ -> assert false)

(* Detach this version into a fresh single-version family (Persistent
   memories are already freely shareable).  The copy no longer shares
   journal cells with anything, so another domain may own it. *)
let unshare t =
  match t.repr with
  | Pmap _ -> t
  | Jrnl ver ->
    reroot ver;
    (match !ver with
    | Arr a -> { t with repr = Jrnl (ref (Arr (Array.copy a))) }
    | Diff _ -> assert false)

let count_read t n = { t with read_count = t.read_count + n }

(* The net effect of a run of steps: its writes, in order, with the
   step counters advanced by the run's own counts. *)
let patch t writes ~write_steps ~read_steps =
  let t' = List.fold_left (fun t (r, v) -> write t r v) t writes in
  { t' with write_count = t.write_count + write_steps; read_count = t.read_count + read_steps }

let written_set t = t.written

let num_written t = Iset.cardinal t.written

let write_count t = t.write_count

let read_count t = t.read_count

let pp ppf t =
  Fmt.pf ppf "@[<v>";
  for r = 0 to t.size - 1 do
    Fmt.pf ppf "R%d = %a@," r Value.pp (read { t with read_count = 0 } r)
  done;
  Fmt.pf ppf "@]"
