(* Bytecode compiler and arena execution engine for first-order
   protocols.

   The free-monad interpreter ([Config.step] driven by [Exec.run]) pays
   per step for closure dispatch, continuation allocation, and the
   persistent-structure updates of [Config.t].  For *first-order*
   protocols — the step-list language shared by the fuzzer and the
   static analyzer (both use the types below) — none of
   that is necessary: the program is finite straight-line data with
   bounded loops, so it lowers to a flat array of int-coded
   instructions, and a configuration lowers to a flat slice of ints
   (register value codes, per-process instruction pointers and
   observation hashes, i/o logs) that a tight match-on-int loop mutates
   in place.

   Semantics are pinned to the interpreter, observation for
   observation.  [to_program] is the free-monad compiler (moved here
   from [Fuzz.Gen] so both engines share one source of truth), and the
   bytecode engine must be event-equivalent to running [to_program]
   under [Exec.run]: same events in the same order, same final memory,
   same i/o record multisets, same step counts.  The fuzzer's vm
   oracle and the QCheck equivalence suite enforce this on random
   protocols; the design notes live in docs/PERFORMANCE.md.

   Three representation choices carry the speed:

   - Values are int codes.  [Value.t] is already hash-consed, but a
     code is better than a pointer: even codes are immediate ints
     (code asr 1), code 1 is ⊥, and remaining odd codes index a small
     side table of interned [Value.t] (non-int inputs; constants are
     always ints).  Codes are canonical — interning dedups, so equal
     values always carry equal codes — which lets the state key hash
     codes directly, never touching the heap.

   - A configuration is a slice of one flat int array.  [state_words]
     gives the slice size; [init]/[step] address fields at fixed
     offsets.  Exploration engines keep thousands of configurations in
     one arena array and snapshot with [Array.blit] ([Spec.Modelcheck]).

   - The state key (the DPOR cache key) is maintained incrementally
     inside [step], so [key] is four loads.  The step language has no
     data-dependent control flow, so a configuration's future depends
     only on the machine state itself: register codes, each process's
     (ip, last, input, instance, pc, loop counters), and the i/o
     records.  The key hashes exactly that — commutative sums of
     salted mixes, one summand per register, per process, and per i/o
     record — so states reached by any two equivalent interleavings
     collide by construction, and each [step] refreshes only the
     summands it touched.  This is deliberately coarser than
     [Spec.Statehash], which hashes observation *histories* (all the
     interpreter can see incrementally): histories that converge to
     the same machine state share one key here, which is strictly
     more cache hits under the same soundness argument (the checked
     predicates are functions of the state).

   Control instructions (loop set/jump) execute transparently inside
   [step]: the interpreter unrolls loops at compile time, so loop
   bookkeeping must consume no scheduler steps here either. *)

(* ------------------------------------------------------------------ *)
(* The first-order protocol language.  [Analyze.Ir] and [Fuzz.Gen]
   use these constructors directly, so a fuzz corpus line, an analyzer
   subject, and a vm subject are literally the same value. *)

type src = Const of int | Input | Last

type step =
  | Read of int
  | Write of int * src
  | Scan of int * int
  | Loop of int * step list
  | Decide of src

type proto = { registers : int; n : int; steps : step list }

(* ------------------------------------------------------------------ *)
(* Compilation to the free monad — the reference semantics.  CPS over
   the step list, threading the process's "last observation" (⊥ until
   the first read; a scan observes its first component).  Loops unroll
   at compile time — counts are constants.  (Moved from [Fuzz.Gen],
   which now delegates here.) *)

let value_of s ~input ~last =
  match s with Const c -> Value.int c | Input -> input | Last -> last

let to_program p ~pid:_ =
  let rec seq steps ~input ~last k =
    match steps with
    | [] -> k last
    | Read r :: tl -> Program.read r (fun v -> seq tl ~input ~last:v k)
    | Write (r, s) :: tl ->
      Program.write r (value_of s ~input ~last) (fun () -> seq tl ~input ~last k)
    | Scan (off, len) :: tl ->
      Program.scan ~off ~len (fun view ->
          let last = if len = 0 then last else view.(0) in
          seq tl ~input ~last k)
    | Loop (count, body) :: tl ->
      let rec iter i last =
        if i = 0 then seq tl ~input ~last k
        else seq body ~input ~last (fun last -> iter (i - 1) last)
      in
      iter count last
    | Decide s :: _ -> Program.yield (value_of s ~input ~last) Program.stop
  in
  Program.await (fun input -> seq p.steps ~input ~last:Value.bot (fun _ -> Program.stop))

let config ?backend p =
  Config.create ?backend ~registers:p.registers
    ~procs:(Array.init p.n (fun pid -> to_program p ~pid))
    ()

(* ------------------------------------------------------------------ *)
(* Value codes *)

(* even code        -> Int (code asr 1)        immediate fast path
   code 1           -> ⊥
   odd code 2j+1    -> side table slot j (j ≥ 1): interned Value.t *)

let code_bot = 1

type code = {
  proto : proto;
  ops : int array;  (* stride 3: opcode, operand a, operand b *)
  n : int;
  registers : int;
  slots : int;  (* loop-counter slots per process = max loop nesting *)
  mutable table : Value.t array;  (* odd-code side table; slot 0 unused *)
  mutable table_len : int;
}

(* Interning only happens at compile time (large constants) and at
   [env] construction (non-int inputs) — never inside [step] — so the
   table is frozen before any parallel exploration starts and reads
   need no synchronization. *)
let intern c v =
  let rec find j =
    if j >= c.table_len then -1
    else if Value.equal c.table.(j) v then j
    else find (j + 1)
  in
  match find 1 with
  | j when j >= 0 -> (j lsl 1) lor 1
  | _ ->
    if c.table_len >= Array.length c.table then begin
      let t = Array.make (2 * Array.length c.table) Value.bot in
      Array.blit c.table 0 t 0 c.table_len;
      c.table <- t
    end;
    let j = c.table_len in
    c.table.(j) <- v;
    c.table_len <- j + 1;
    (j lsl 1) lor 1

(* [min_int] is reserved as the no-input sentinel, so the one int
   whose doubling lands on it goes through the side table instead. *)
let encode c v =
  match Value.view v with
  | Value.Bot -> code_bot
  | Value.Int i when (i lsl 1) asr 1 = i && i lsl 1 <> min_int -> i lsl 1
  | _ -> intern c v

let decode c k =
  if k land 1 = 0 then Value.int (k asr 1)
  else if k = code_bot then Value.bot
  else c.table.(k asr 1)

(* ------------------------------------------------------------------ *)
(* Opcodes *)

let op_halt = 0
let op_read = 1 (* a = register *)
let op_write_c = 2 (* a = register, b = value code *)
let op_write_in = 3 (* a = register *)
let op_write_last = 4 (* a = register *)
let op_scan = 5 (* a = off, b = len *)
let op_decide_c = 6 (* a = value code *)
let op_decide_in = 7
let op_decide_last = 8
let op_loop_set = 9 (* a = counter slot, b = count; transparent *)
let op_loop_jmp = 10 (* a = counter slot, b = target index; transparent *)

(* ------------------------------------------------------------------ *)
(* Compiler: one linear pass, loops become set/decrement-jump around
   the emitted body, nesting depth picks the counter slot.  Register
   bounds are checked by [validate] — statically, once, dead loop
   bodies included — instead of per access at run time; the
   interpreter checks lazily at execution, so the two agree on every
   valid protocol (the fuzz oracle skips the others). *)

let validate (p : proto) =
  let rec bad = function
    | (Read r | Write (r, _)) when r < 0 || r >= p.registers ->
      Some (Fmt.str "register %d out of bounds [0..%d)" r p.registers)
    | Scan (off, len) when off < 0 || len < 0 || off + len > p.registers ->
      Some (Fmt.str "scan [%d..%d) out of bounds [0..%d)" off (off + len) p.registers)
    | Loop (count, _) when count < 0 -> Some (Fmt.str "negative loop count %d" count)
    | Loop (_, body) -> List.find_map bad body
    | Read _ | Write _ | Scan _ | Decide _ -> None
  in
  if p.n < 1 then Error "protocol needs at least one process"
  else if p.registers < 0 then Error "negative register count"
  else Option.fold ~none:(Ok ()) ~some:Result.error (List.find_map bad p.steps)

let compile (p : proto) =
  Result.iter_error (fun e -> invalid_arg ("Vm.compile: " ^ e)) (validate p);
  let buf = ref (Array.make 64 0) in
  let len = ref 0 in
  let c =
    {
      proto = p;
      ops = [||];
      n = p.n;
      registers = p.registers;
      slots = 0;
      table = Array.make 4 Value.bot;
      table_len = 1;
    }
  in
  let push op a b =
    if !len + 3 > Array.length !buf then begin
      let t = Array.make (2 * Array.length !buf) 0 in
      Array.blit !buf 0 t 0 !len;
      buf := t
    end;
    !buf.(!len) <- op;
    !buf.(!len + 1) <- a;
    !buf.(!len + 2) <- b;
    len := !len + 3
  in
  let slots = ref 0 in
  let rec emit depth steps =
    match steps with
    | [] -> ()
    | Read r :: tl ->
      push op_read r 0;
      emit depth tl
    | Write (r, s) :: tl ->
      (match s with
      | Const v -> push op_write_c r (encode c (Value.int v))
      | Input -> push op_write_in r 0
      | Last -> push op_write_last r 0);
      emit depth tl
    | Scan (off, slen) :: tl ->
      push op_scan off slen;
      emit depth tl
    | Loop (count, body) :: tl ->
      if count > 0 && body <> [] then begin
        if depth + 1 > !slots then slots := depth + 1;
        push op_loop_set depth count;
        let entry = !len in
        emit (depth + 1) body;
        push op_loop_jmp depth entry
      end;
      emit depth tl
    | Decide s :: tl ->
      (match s with
      | Const v -> push op_decide_c (encode c (Value.int v)) 0
      | Input -> push op_decide_in 0 0
      | Last -> push op_decide_last 0 0);
      (* the tail is dead (the interpreter ignores it too); emitting it
         keeps the compiler one pass and costs nothing at run time *)
      emit depth tl
  in
  emit 0 p.steps;
  push op_halt 0 0;
  { c with ops = Array.sub !buf 0 !len; slots = !slots }

(* ------------------------------------------------------------------ *)
(* Execution environment: compiled code + invocation schedule (each
   process's one input, pre-encoded) + the state-slice layout.  A vm
   run is one round: every process is invoked at most once, as
   instance 1, so the input, i/o-log and instance fields are indexed by
   pid alone. *)

let no_input = min_int

type env = {
  c : code;
  inp : int array;  (* pid -> value code, or [no_input] *)
  (* per-register / per-process key salts, precomputed once *)
  msalt : int array;
  lsalt : int array;
  iosalt : int array;
  (* field offsets within a state slice *)
  o_wmask : int;
  o_ip : int;
  o_last : int;
  o_input : int;
  o_inst : int;
  o_pc : int;
  o_ctr : int;
  o_lsl : int;  (* per-process current k_locals summand *)
  o_inlog : int;
  o_outlog : int;
  o_scal : int;
  words : int;  (* total slice size *)
}

(* scalar slots at [o_scal] *)
let s_kmem = 0
let s_klocals = 1
let s_kin = 2
let s_kout = 3
let s_nwritten = 4
let s_wcount = 5
let s_rcount = 6
let n_scal = 7

let env c ~inputs =
  let n = c.n in
  let inp =
    Array.init n (fun pid ->
        match inputs ~pid ~instance:1 with
        | Some v -> encode c v
        | None -> no_input)
  in
  let o_wmask = c.registers in
  let wwords = (c.registers + 62) / 63 in
  let o_ip = o_wmask + wwords in
  let o_last = o_ip + n in
  let o_input = o_last + n in
  let o_inst = o_input + n in
  let o_pc = o_inst + n in
  let o_ctr = o_pc + n in
  let o_lsl = o_ctr + (n * c.slots) in
  let o_inlog = o_lsl + n in
  let o_outlog = o_inlog + n in
  let o_scal = o_outlog + n in
  {
    c; inp;
    msalt = Array.init c.registers (fun r -> Value.mix 0x6d r);
    lsalt = Array.init n (fun pid -> Value.mix 0x1c pid);
    iosalt = Array.init n (fun pid -> Value.mix 0x2e pid);
    o_wmask; o_ip; o_last; o_input; o_inst; o_pc; o_ctr; o_lsl;
    o_inlog; o_outlog; o_scal; words = o_scal + n_scal }

let state_words e = e.words
let proto_env e = e.c.proto

(* Key summands.  Each is one salted mix over machine-state fields —
   see the header comment for why state, not history, is the right
   thing to hash.  [poly] folds multi-field words positionally before
   the final mix (odd 62-bit constant; wrap-around is fine, this is
   hashing). *)
let mix = Value.mix
let poly = 0x2545F4914F6CDD1D

(* Unchecked indexing for the engine's inner loop.  Every index below
   derives from layout offsets computed once in [env] and operands
   validated once in [compile] (register bounds, scan ranges, loop
   nesting), so the checks the compiler cannot eliminate would only
   re-verify what construction already guarantees.  Nothing outside
   this file uses these: callers go through the checked API. *)
let ( .!() ) = Array.unsafe_get
let ( .!()<- ) = Array.unsafe_set

(* instruction pointer sentinels *)
let ip_await = -1
let ip_halted = -2

(* The [k_locals] summand for [pid]: a salted mix of the fields that
   are genuinely independent state — ip, last observation, instance,
   and the live loop counters, folded positionally.  [pc] and [input]
   are deliberately absent: ip plus the counter vector determines the
   position in the unrolled program (hence pc), and the invocation
   schedule is fixed per env, so (pid, inst) determines input. *)
let local_slot e st base pid =
  let a = st.!(base + e.o_ip + pid) in
  let a = (a * poly) + st.!(base + e.o_last + pid) in
  let a = (a * poly) + st.!(base + e.o_inst + pid) in
  let slots = e.c.slots in
  let rec ctrs a j =
    if j >= slots then a
    else ctrs ((a * poly) + st.!(base + e.o_ctr + (pid * slots) + j)) (j + 1)
  in
  mix e.lsalt.!(pid) (ctrs a 0)

(* The summand for one i/o record (invocation input / decision). *)
let io_slot e pid inst vcode = mix e.iosalt.!(pid) ((inst * poly) + vcode)

(* Refresh [pid]'s stored k_locals summand after a step changed its
   fields — the one key update every step kind shares. *)
let refresh_local e st base pid =
  let i = base + e.o_lsl + pid in
  let slot = local_slot e st base pid in
  let scal = base + e.o_scal in
  st.!(scal + s_klocals) <- st.!(scal + s_klocals) - st.!(i) + slot;
  st.!(i) <- slot

let init e st base =
  Array.fill st base e.words 0;
  let c = e.c in
  let k_mem = ref 0 in
  for r = 0 to c.registers - 1 do
    st.(base + r) <- code_bot;
    k_mem := !k_mem + mix e.msalt.(r) code_bot
  done;
  for i = 0 to c.n - 1 do
    st.(base + e.o_inlog + i) <- no_input;
    st.(base + e.o_outlog + i) <- no_input
  done;
  let k_locals = ref 0 in
  for pid = 0 to c.n - 1 do
    st.(base + e.o_ip + pid) <- ip_await;
    st.(base + e.o_last + pid) <- code_bot;
    st.(base + e.o_input + pid) <- no_input;
    let slot = local_slot e st base pid in
    st.(base + e.o_lsl + pid) <- slot;
    k_locals := !k_locals + slot
  done;
  st.(base + e.o_scal + s_kmem) <- !k_mem;
  st.(base + e.o_scal + s_klocals) <- !k_locals

type key = { k_mem : int; k_locals : int; k_in : int; k_out : int }

let key e st base =
  {
    k_mem = st.(base + e.o_scal + s_kmem);
    k_locals = st.(base + e.o_scal + s_klocals);
    k_in = st.(base + e.o_scal + s_kin);
    k_out = st.(base + e.o_scal + s_kout);
  }

let key_words e st base k =
  Array.blit st (base + e.o_scal + s_kmem) k 0 4

(* The four components folded down to one non-negative hash, read
   straight off the slice — no record allocation, one mix, for
   per-step use (cache probes, the bench loops). *)
let key_hash e st base =
  let scal = base + e.o_scal in
  mix
    ((st.!(scal + s_kmem) * poly) + st.!(scal + s_klocals))
    ((st.!(scal + s_kin) * poly) + st.!(scal + s_kout))
  land max_int

let has_input e st base pid =
  let inst = st.!(base + e.o_inst + pid) in
  inst = 0 && e.inp.!(pid) <> no_input

let runnable e st base pid =
  let ip = st.!(base + e.o_ip + pid) in
  if ip >= 0 then true
  else if ip = ip_await then has_input e st base pid
  else false

let quiescent e st base =
  let rec go pid = pid >= e.c.n || ((not (runnable e st base pid)) && go (pid + 1)) in
  go 0

(* Run the transparent control instructions at [i] and return the index
   of the next *observable* instruction (or [ip_halted]).  Loop counts
   are compile-time constants, so this terminates. *)
let rec advance e st base pid i =
  let ops = e.c.ops in
  let op = ops.!(i) in
  if op = op_loop_set then begin
    st.!(base + e.o_ctr + (pid * e.c.slots) + ops.!(i + 1)) <- ops.!(i + 2);
    advance e st base pid (i + 3)
  end
  else if op = op_loop_jmp then begin
    let slot = base + e.o_ctr + (pid * e.c.slots) + ops.!(i + 1) in
    let left = st.!(slot) - 1 in
    st.!(slot) <- left;
    if left > 0 then advance e st base pid ops.!(i + 2)
    else advance e st base pid (i + 3)
  end
  else if op = op_halt then ip_halted
  else i

(* Fast path for the post-step [advance]: the next op is almost
   always observable (read/write/scan/decide), in which case there is
   nothing to run — skip the call.  [op_halt] is 0 and the control ops
   are > [op_decide_last], so one range check covers it. *)
let[@inline] advance_fast e st base pid i =
  let op = e.c.ops.!(i) in
  if op >= op_read && op <= op_decide_last then i else advance e st base pid i

(* The footprint of the step [pid] would take next, as (reads_off,
   reads_len, write_reg): (-1,0,-1) for local steps (invoke, decide).
   Mirrors [Config.footprint] for compiled protocols; the vm DPOR
   independence test works on these triples without allocating. *)
let poised_footprint e st base pid =
  let ip = st.!(base + e.o_ip + pid) in
  if ip < 0 then (-1, 0, -1)
  else
    let ops = e.c.ops in
    let op = ops.!(ip) in
    if op = op_read then (ops.!(ip + 1), 1, -1)
    else if op = op_write_c || op = op_write_in || op = op_write_last then
      (-1, 0, ops.!(ip + 1))
    else if op = op_scan then (ops.!(ip + 1), ops.!(ip + 2), -1)
    else (-1, 0, -1)

(* True iff [pid]'s next step touches no shared memory (invoke or
   decide) — the ample-set test. *)
let poised_local e st base pid =
  let ip = st.!(base + e.o_ip + pid) in
  ip < 0
  ||
  let op = e.c.ops.!(ip) in
  op = op_decide_c || op = op_decide_in || op = op_decide_last

(* One step of [pid], in place.  This is the engine's inner loop: int
   loads and stores only — no allocation, no Value.t construction —
   ending in one [refresh_local] that re-sums the process's key
   summand from the fields the step just wrote.  Slice addresses are
   hoisted once, and the dispatch chain is ordered by frequency in
   collect-style protocols (scan, write, read, decide). *)
let step e st base pid =
  let c = e.c in
  let ops = c.ops in
  let scal = base + e.o_scal in
  let i_ip = base + e.o_ip + pid in
  let i_pc = base + e.o_pc + pid in
  let i_last = base + e.o_last + pid in
  let ip = st.!(i_ip) in
  (if ip >= 0 then begin
     let op = ops.!(ip) in
     if op = op_scan then begin
       let off = ops.!(ip + 1) and len = ops.!(ip + 2) in
       (* the view is pure observation: it reaches the trace and, via
          [last], the process's own state — nothing else.  Only [last]
          enters the key, so a scan costs O(1) key work. *)
       if len > 0 then st.!(i_last) <- st.!(base + off);
       st.!(i_pc) <- st.!(i_pc) + 1;
       st.!(scal + s_rcount) <- st.!(scal + s_rcount) + len;
       st.!(i_ip) <- advance_fast e st base pid (ip + 3)
     end
     else if op = op_write_c || op = op_write_in || op = op_write_last then begin
       let r = ops.!(ip + 1) in
       let vcode =
         if op = op_write_c then ops.!(ip + 2)
         else if op = op_write_in then st.!(base + e.o_input + pid)
         else st.!(i_last)
       in
       let msalt = e.msalt.!(r) in
       st.!(scal + s_kmem) <-
         st.!(scal + s_kmem) - mix msalt st.!(base + r) + mix msalt vcode;
       st.!(base + r) <- vcode;
       let w = base + e.o_wmask + (r / 63) in
       let bit = 1 lsl (r mod 63) in
       if st.!(w) land bit = 0 then begin
         st.!(w) <- st.!(w) lor bit;
         st.!(scal + s_nwritten) <- st.!(scal + s_nwritten) + 1
       end;
       st.!(scal + s_wcount) <- st.!(scal + s_wcount) + 1;
       st.!(i_pc) <- st.!(i_pc) + 1;
       st.!(i_ip) <- advance_fast e st base pid (ip + 3)
     end
     else if op = op_read then begin
       st.!(i_last) <- st.!(base + ops.!(ip + 1));
       st.!(i_pc) <- st.!(i_pc) + 1;
       st.!(scal + s_rcount) <- st.!(scal + s_rcount) + 1;
       st.!(i_ip) <- advance_fast e st base pid (ip + 3)
     end
     else begin
       (* decide: the poised-yield step — output, then halt.  Does not
          advance [pc]: only shared-memory ops are program points. *)
       let vcode =
         if op = op_decide_c then ops.!(ip + 1)
         else if op = op_decide_in then st.!(base + e.o_input + pid)
         else st.!(i_last)
       in
       let inst = st.!(base + e.o_inst + pid) in
       st.!(scal + s_kout) <- st.!(scal + s_kout) + io_slot e pid inst vcode;
       st.!(base + e.o_outlog + pid) <- vcode;
       st.!(i_ip) <- ip_halted
     end
   end
   else if ip = ip_await then begin
     (* invoke *)
     let inst = st.!(base + e.o_inst + pid) + 1 in
     let vcode = if inst = 1 then e.inp.!(pid) else no_input in
     if vcode = no_input then
       invalid_arg (Fmt.str "Vm.step: p%d idle with no input" pid);
     st.!(scal + s_kin) <- st.!(scal + s_kin) + io_slot e pid inst vcode;
     st.!(base + e.o_inst + pid) <- inst;
     st.!(i_pc) <- 0;
     st.!(base + e.o_input + pid) <- vcode;
     st.!(base + e.o_inlog + pid) <- vcode;
     st.!(i_ip) <- advance e st base pid 0
   end
   else invalid_arg (Fmt.str "Vm.step: p%d halted" pid));
  refresh_local e st base pid

(* [step], but also report what happened as an [Event.t] — the oracle
   and trace paths.  Decodes operands *before* mutating so the event
   carries the values the interpreter's event would. *)
let step_ev e st base pid =
  let c = e.c in
  let ip = st.(base + e.o_ip + pid) in
  let ev =
    if ip = ip_await then
      let inst = st.(base + e.o_inst + pid) + 1 in
      let vcode = if inst = 1 then e.inp.(pid) else no_input in
      if vcode = no_input then
        invalid_arg (Fmt.str "Vm.step: p%d idle with no input" pid)
      else Event.Invoke { pid; instance = inst; input = decode c vcode }
    else if ip = ip_halted then invalid_arg (Fmt.str "Vm.step: p%d halted" pid)
    else
      let op = c.ops.(ip) in
      if op = op_read then
        let r = c.ops.(ip + 1) in
        Event.Did_read { pid; reg = r; value = decode c st.(base + r) }
      else if op = op_write_c || op = op_write_in || op = op_write_last then
        let r = c.ops.(ip + 1) in
        let vcode =
          if op = op_write_c then c.ops.(ip + 2)
          else if op = op_write_in then st.(base + e.o_input + pid)
          else st.(base + e.o_last + pid)
        in
        Event.Did_write { pid; reg = r; value = decode c vcode }
      else if op = op_scan then
        Event.Did_scan { pid; off = c.ops.(ip + 1); len = c.ops.(ip + 2) }
      else
        let vcode =
          if op = op_decide_c then c.ops.(ip + 1)
          else if op = op_decide_in then st.(base + e.o_input + pid)
          else st.(base + e.o_last + pid)
        in
        Event.Output
          { pid; instance = st.(base + e.o_inst + pid); value = decode c vcode }
  in
  step e st base pid;
  ev

(* ------------------------------------------------------------------ *)
(* Decoding a state back into inspectable data *)

type final = {
  memory : Value.t array;
  written : int list;
  num_written : int;
  write_count : int;
  read_count : int;
  inputs : (int * int * Value.t) list;
  outputs : (int * int * Value.t) list;
}

let io e st base =
  let c = e.c in
  let log o =
    let acc = ref [] in
    for pid = c.n - 1 downto 0 do
      let k = st.(base + o + pid) in
      if k <> no_input then acc := (pid, 1, decode c k) :: !acc
    done;
    !acc
  in
  (log e.o_inlog, log e.o_outlog)

let snapshot e st base =
  let c = e.c in
  let inputs, outputs = io e st base in
  {
    memory = Array.init c.registers (fun r -> decode c st.(base + r));
    written =
      List.filter
        (fun r -> st.(base + e.o_wmask + (r / 63)) land (1 lsl (r mod 63)) <> 0)
        (List.init c.registers Fun.id);
    num_written = st.(base + e.o_scal + s_nwritten);
    write_count = st.(base + e.o_scal + s_wcount);
    read_count = st.(base + e.o_scal + s_rcount);
    inputs;
    outputs;
  }

(* ------------------------------------------------------------------ *)
(* Drivers, mirroring [Exec.run]'s loop (fuel check before the
   scheduler probe; invalid-pick errors match). *)

let make_state e =
  let st = Array.make e.words 0 in
  init e st 0;
  st

(* Event-free driver, in place, under any scheduler. *)
let drive e st base ~sched ~max_steps =
  let vm_step = step in
  let runnable = runnable e st base in
  let rec go step =
    if step >= max_steps then (step, Exec.Fuel_exhausted)
    else
      match sched.Schedule.next ~step ~runnable with
      | None -> (step, Exec.All_quiescent)
      | Some pid ->
        vm_step e st base pid;
        go (step + 1)
  in
  go 0

type vresult = {
  steps : int;
  stopped : Exec.stop_reason;
  trace : Event.t list;  (* chronological; empty unless [record] *)
  final : final;
}

let run ?(record = false) ?sink ?(max_steps = 1_000_000) ~sched e =
  let st = make_state e in
  let observe = match sink with Some f -> f | None -> fun _ -> () in
  let runnable = runnable e st 0 in
  let rec go step trace =
    if step >= max_steps then (step, Exec.Fuel_exhausted, trace)
    else
      match sched.Schedule.next ~step ~runnable with
      | None -> (step, Exec.All_quiescent, trace)
      | Some pid ->
        let ev = step_ev e st 0 pid in
        observe ev;
        go (step + 1) (if record then ev :: trace else trace)
  in
  let steps, stopped, trace = go 0 [] in
  { steps; stopped; trace = List.rev trace; final = snapshot e st 0 }

(* ------------------------------------------------------------------ *)
(* The one run comparison: interpreter runs are decoded into the same
   summary, so engine, backend and determinism differentials all state
   one contract. *)

module Iset = Set.Make (Int)

let of_exec (r : Exec.result) =
  let c = r.Exec.config in
  let mem = Config.mem c in
  {
    steps = r.Exec.steps;
    stopped = r.Exec.stopped;
    trace = r.Exec.trace;
    final =
      {
        memory = Memory.scan mem ~off:0 ~len:(Memory.size mem);
        written = Iset.elements (Memory.written_set mem);
        num_written = Memory.num_written mem;
        write_count = Memory.write_count mem;
        read_count = Memory.read_count mem;
        inputs = Config.inputs c;
        outputs = Config.outputs c;
      };
  }

let event_equal (a : Event.t) (b : Event.t) =
  match (a, b) with
  | Invoke a, Invoke b ->
    a.pid = b.pid && a.instance = b.instance && Value.equal a.input b.input
  | Did_read a, Did_read b ->
    a.pid = b.pid && a.reg = b.reg && Value.equal a.value b.value
  | Did_write a, Did_write b ->
    a.pid = b.pid && a.reg = b.reg && Value.equal a.value b.value
  | Did_scan a, Did_scan b -> a.pid = b.pid && a.off = b.off && a.len = b.len
  | Output a, Output b ->
    a.pid = b.pid && a.instance = b.instance && Value.equal a.value b.value
  | _ -> false

(* i/o records as multisets: the vm keeps (instance, pid) order, the
   interpreter chronological order *)
let io_equal a b =
  let cmp (p1, i1, v1) (p2, i2, v2) =
    match compare (p1, i1) (p2, i2) with 0 -> Value.compare v1 v2 | c -> c
  in
  List.equal (fun x y -> cmp x y = 0) (List.sort cmp a) (List.sort cmp b)

let diff a b =
  let fa = a.final and fb = b.final in
  let unless ok msg = if ok then None else Some msg in
  let ints what x y = if x = y then None else Some (Fmt.str "%s %d vs %d" what x y) in
  let trace () =
    let la = List.length a.trace and lb = List.length b.trace in
    if la <> lb then Some (Fmt.str "trace lengths %d vs %d" la lb)
    else
      List.find_mapi
        (fun i (x, y) ->
          if event_equal x y then None
          else Some (Fmt.str "trace[%d]: %a vs %a" i Event.pp x Event.pp y))
        (List.combine a.trace b.trace)
  in
  List.find_map
    (fun check -> check ())
    [
      (fun () -> ints "steps" a.steps b.steps);
      (fun () -> unless (a.stopped = b.stopped) "stop reasons differ");
      trace;
      (fun () ->
        unless
          (Array.length fa.memory = Array.length fb.memory
          && Array.for_all2 Value.equal fa.memory fb.memory)
          "final memories differ");
      (fun () -> unless (fa.written = fb.written) "written sets differ");
      (fun () -> ints "num_written" fa.num_written fb.num_written);
      (fun () -> ints "write_count" fa.write_count fb.write_count);
      (fun () -> ints "read_count" fa.read_count fb.read_count);
      (fun () -> unless (io_equal fa.inputs fb.inputs) "invocation records differ");
      (fun () -> unless (io_equal fa.outputs fb.outputs) "output records differ");
    ]
