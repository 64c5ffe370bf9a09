(* Canonical hashing of configurations, for exploration-time state
   caching — maintained *incrementally* across steps.

   Two schedules that interleave independent steps differently reach
   configurations that are *behaviourally* the same state, and the
   engine should explore from it once.  The obstacle is the local state
   of a process: it is an OCaml closure, which cannot be inspected or
   compared structurally.  We exploit determinism instead: a process's
   local state is a function of its initial program and the sequence of
   values it has consumed (invocation inputs, read results, scan
   views).  So alongside the configuration we thread one observation
   hash per process, folded over exactly those observations, and the
   canonical key of a state combines

     memory contents
     ∥ per-process observation hashes and instance counters
     ∥ the input and output records as multisets

   Incrementality.  Each component is a commutative sum of per-element
   mixes, so one step updates the key in O(1) (O(len) for a scan):

   - memory: Σ_r mix(r, hash v_r); a write knows the old and new value
     of the one register it touches and adjusts the sum by the
     difference — the journal's undo information, surfaced through the
     before-configuration;
   - locals: Σ_p mix(p, obs_p, instance_p); one summand changes per
     step;
   - i/o records: Σ mix(pid, instance, hash v); append-only, so each
     event adds one summand.  A commutative sum is exactly a multiset
     hash, which is the sortedness the old full digest achieved by
     sorting the records before hashing.

   This eliminates the per-node full-configuration Buffer + MD5 +
   to_hex churn of the original implementation.  That reference path
   is preserved behind [~audit:true]: the per-process digests are then
   *also* maintained as MD5 strings, and [repr]/[full_key] rebuild the
   old uncompressed canonical form, so tests can certify on full
   enumerations that the incremental keys induce the same partition of
   states as the full digests (the collision audit), and the perf
   benchmark can measure old-vs-new on the same run.

   Soundness direction matters, same as before.  A cache must never
   *merge* two states that behave differently; merging too little only
   costs cache hits.  The incremental key is a hash, so distinct states
   can collide in principle — 63-bit mixes per component, 4 components,
   audited against the full digest (see test_explore.ml); the DPOR
   cache additionally only prunes subtrees that a previous visit with
   the same key explored, so a collision can at worst skip work that
   re-checking would duplicate, within the same depth bound.  The
   deliberate exclusions are unchanged and documented in
   docs/EXPLORATION.md:

   - step/space bookkeeping (read/write counters, the written-register
     set) is *excluded*: it does not affect behaviour, and including
     it would make commuted schedules never merge;
   - the i/o records are multiset-hashed, so orders that differ only by
     commuted independent steps merge; the property checkers must
     therefore not depend on record order (the bundled ones do not);
   - distinct histories can produce the same local state (a process
     re-reading an unchanged register grows its history without
     changing state), so some genuinely equal states fail to merge —
     a missed optimization, never a missed behaviour. *)

open Shm

(* The flat incremental key: cheap to compare, hash, and store. *)
type key = { k_mem : int; k_locals : int; k_in : int; k_out : int }

let key_equal (a : key) (b : key) =
  a.k_mem = b.k_mem && a.k_locals = b.k_locals && a.k_in = b.k_in && a.k_out = b.k_out

let key_hash (k : key) =
  let h = Value.mix k.k_mem k.k_locals in
  Value.mix (Value.mix h k.k_in) k.k_out land max_int

let pp_key ppf k =
  Fmt.pf ppf "%x.%x.%x.%x"
    (k.k_mem land max_int) (k.k_locals land max_int)
    (k.k_in land max_int) (k.k_out land max_int)

type t = {
  obs : int array;               (* per-pid observation hash *)
  digests : string array option; (* per-pid MD5 digests, audit mode only *)
  key : key;                     (* incrementally maintained state key *)
}

let mix = Value.mix

(* Per-component summands.  Domain-separation constants keep e.g. a
   read of v from register r distinct from a write of v to r. *)
let mem_slot r v = mix (mix 0x6d r) (Value.hash v)

let local_slot pid obs instance = mix (mix (mix 0x1c pid) obs) instance

let io_slot pid instance v = mix (mix (mix 0x2e pid) instance) (Value.hash v)

(* The local summand of an inert process: no observation hash, since
   its history can no longer affect anything (see [inert_key]). *)
let inert_slot pid instance = mix (mix 0x1d pid) instance

let obs0 = 0x5eed

(* The components a configuration determines by itself, folded from
   scratch: O(registers + records). *)
let mem_sum config =
  let mem = Config.mem config in
  let sum = ref 0 in
  Memory.scan mem ~off:0 ~len:(Memory.size mem)
  |> Array.iteri (fun r v -> sum := !sum + mem_slot r v);
  !sum

let io_sum records =
  List.fold_left (fun acc (pid, inst, v) -> acc + io_slot pid inst v) 0 records

let create ?(audit = false) config =
  let n = Config.n config in
  let k_locals = ref 0 in
  for pid = 0 to n - 1 do
    k_locals := !k_locals + local_slot pid obs0 (Config.instance config pid)
  done;
  {
    obs = Array.make n obs0;
    digests = (if audit then Some (Array.make n (Digest.string "init")) else None);
    key =
      {
        k_mem = mem_sum config;
        k_locals = !k_locals;
        k_in = io_sum (Config.inputs config);
        k_out = io_sum (Config.outputs config);
      };
  }

(* Fold one event into the stepping process's observation hash.
   [after] is the configuration *after* the step: scans need their
   result vector, which the event does not carry; a scan does not
   change memory, so reading it back from [after] reproduces what the
   process saw. *)
let fold_obs obs after ev =
  match ev with
  | Event.Invoke { instance; input; _ } ->
    mix (mix (mix obs 0x11) instance) (Value.hash input)
  | Event.Did_read { reg; value; _ } ->
    mix (mix (mix obs 0x12) reg) (Value.hash value)
  | Event.Did_write { reg; value; _ } ->
    mix (mix (mix obs 0x13) reg) (Value.hash value)
  | Event.Did_scan { off; len; _ } ->
    let h = ref (mix (mix (mix obs 0x14) off) len) in
    Memory.scan (Config.mem after) ~off ~len
    |> Array.iter (fun v -> h := mix !h (Value.hash v));
    !h
  | Event.Output { instance; value; _ } ->
    mix (mix (mix obs 0x15) instance) (Value.hash value)

(* The audit-mode MD5 fold — byte-for-byte the original per-step digest
   (the old hot path the perf benchmark measures as its reference). *)
let fold_digest digest after ev =
  let buf = Buffer.create 64 in
  Buffer.add_string buf digest;
  (match ev with
  | Event.Invoke { instance; input; _ } ->
    Buffer.add_string buf (Fmt.str "I%d=%s" instance (Value.to_string input))
  | Event.Did_read { reg; value; _ } ->
    Buffer.add_string buf (Fmt.str "r%d=%s" reg (Value.to_string value))
  | Event.Did_write { reg; value; _ } ->
    Buffer.add_string buf (Fmt.str "w%d=%s" reg (Value.to_string value))
  | Event.Did_scan { off; len; _ } ->
    Buffer.add_string buf (Fmt.str "s%d+%d=" off len);
    Memory.scan (Config.mem after) ~off ~len
    |> Array.iter (fun v ->
           Buffer.add_string buf (Value.to_string v);
           Buffer.add_char buf ';')
  | Event.Output { instance; value; _ } ->
    Buffer.add_string buf (Fmt.str "O%d=%s" instance (Value.to_string value)));
  Digest.string (Buffer.contents buf)

let record t ~before after ev =
  let pid = Event.pid ev in
  let obs' = fold_obs t.obs.(pid) after ev in
  let k = t.key in
  (* locals: replace this pid's summand (instance can change on Invoke) *)
  let k_locals =
    k.k_locals
    - local_slot pid t.obs.(pid) (Config.instance before pid)
    + local_slot pid obs' (Config.instance after pid)
  in
  (* memory: only a write changes it, by exactly one register *)
  let k_mem =
    match ev with
    | Event.Did_write { reg; value; _ } ->
      let old = Memory.read (Config.mem before) reg in
      k.k_mem - mem_slot reg old + mem_slot reg value
    | Event.Invoke _ | Event.Did_read _ | Event.Did_scan _ | Event.Output _ -> k.k_mem
  in
  let k_in, k_out =
    match ev with
    | Event.Invoke { instance; input; _ } -> (k.k_in + io_slot pid instance input, k.k_out)
    | Event.Output { instance; value; _ } -> (k.k_in, k.k_out + io_slot pid instance value)
    | Event.Did_read _ | Event.Did_write _ | Event.Did_scan _ -> (k.k_in, k.k_out)
  in
  let obs = Array.copy t.obs in
  obs.(pid) <- obs';
  let digests =
    Option.map
      (fun ds ->
        let ds = Array.copy ds in
        ds.(pid) <- fold_digest ds.(pid) after ev;
        ds)
      t.digests
  in
  { obs; digests; key = { k_mem; k_locals; k_in; k_out } }

let key t = t.key

let observation t pid = t.obs.(pid)

(* Each component is a sum, so a change between two keys carries over
   to any key by addition. *)
let shift k ~mem ~locals ~inp ~out =
  { k_mem = k.k_mem + mem; k_locals = k.k_locals + locals; k_in = k.k_in + inp;
    k_out = k.k_out + out }

(* The key of [config], reached from [t]'s configuration by steps of
   processes that are all inert now.  An inert process — halted, or
   idle with no input for its next instance — never steps again, so
   its local state can no longer influence the run: every inert process
   gets the one summand [inert_slot], whatever history led there, and
   only the others (which have not stepped, so [t.obs] is current) keep
   their observation hash.  Frontier completion is a series of solo
   bursts that mostly end halted, so this key merges completions that
   [record]'s history key keeps apart. *)
let inert_locals t ~runnable config =
  let k_locals = ref 0 in
  for pid = 0 to Config.n config - 1 do
    let instance = Config.instance config pid in
    k_locals :=
      !k_locals
      + (if runnable pid then local_slot pid t.obs.(pid) instance
         else inert_slot pid instance)
  done;
  !k_locals

let inert_key t ~has_input config =
  {
    k_mem = mem_sum config;
    k_locals = inert_locals t ~runnable:(Config.runnable config ~has_input) config;
    k_in = io_sum (Config.inputs config);
    k_out = io_sum (Config.outputs config);
  }

(* At [t]'s own configuration the other three sums are [t.key]'s. *)
let leaf_key t ~live config =
  let runnable pid = live land (1 lsl pid) <> 0 in
  { t.key with k_locals = inert_locals t ~runnable config }

(* ---- the full-digest reference path (audit mode) ---- *)

let compare_io (p1, i1, v1) (p2, i2, v2) =
  let c = Stdlib.compare (p1 : int) p2 in
  if c <> 0 then c
  else
    let c = Stdlib.compare (i1 : int) i2 in
    if c <> 0 then c else Value.compare v1 v2

(* The uncompressed canonical form; [full_key] is its MD5.  Exposed so
   the test suite can certify that the incremental keys partition an
   enumerated state space exactly as the full canonical forms do. *)
let repr t config =
  let digests =
    match t.digests with
    | Some ds -> ds
    | None -> invalid_arg "Statehash.repr: create with ~audit:true for the full digest"
  in
  let buf = Buffer.create 256 in
  let mem = Config.mem config in
  let size = Memory.size mem in
  Buffer.add_string buf (Fmt.str "mem%d:" size);
  Memory.scan mem ~off:0 ~len:size
  |> Array.iter (fun v ->
         Buffer.add_string buf (Value.to_string v);
         Buffer.add_char buf ';');
  Buffer.add_string buf "|locals:";
  Array.iteri
    (fun pid d ->
      Buffer.add_string buf (Digest.to_hex d);
      Buffer.add_string buf (Fmt.str "#%d;" (Config.instance config pid)))
    digests;
  let add_io tag io =
    Buffer.add_string buf tag;
    List.sort compare_io io
    |> List.iter (fun (pid, inst, v) ->
           Buffer.add_string buf (Fmt.str "%d.%d=%s;" pid inst (Value.to_string v)))
  in
  add_io "|in:" (Config.inputs config);
  add_io "|out:" (Config.outputs config);
  Buffer.contents buf

let full_key t config = Digest.string (repr t config)
