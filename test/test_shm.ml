(* Unit tests for the shared-memory substrate: values, PRNG, memory,
   programs, configurations. *)

open Helpers
open Shm

(* ---- Value ---- *)

let value_equality () =
  Alcotest.(check bool) "bot = bot" true (Value.equal Value.bot Value.bot);
  Alcotest.(check bool) "int" true (Value.equal (vi 3) (vi 3));
  Alcotest.(check bool) "int neq" false (Value.equal (vi 3) (vi 4));
  Alcotest.(check bool) "pair" true
    (Value.equal (Value.pair (vi 1) (vi 2)) (Value.pair (vi 1) (vi 2)));
  Alcotest.(check bool) "pair neq" false
    (Value.equal (Value.pair (vi 1) (vi 2)) (Value.pair (vi 2) (vi 1)));
  Alcotest.(check bool) "list" true
    (Value.equal (Value.list [ vi 1; Value.bot ]) (Value.list [ vi 1; Value.bot ]));
  Alcotest.(check bool) "list length matters" false
    (Value.equal (Value.list [ vi 1 ]) (Value.list [ vi 1; vi 1 ]));
  Alcotest.(check bool) "cross-kind" false (Value.equal (vi 0) Value.bot)

(* Constructors build a fresh block each time; [share] maps equal
   values to one block per domain, and Figure 5's entries are shared. *)
let value_share () =
  let build () = Value.list [ vi 1; Value.pair (Value.str "x") (vi 2) ] in
  let a = build () and b = build () in
  Alcotest.(check bool) "built apart: two blocks" false (a == b);
  Alcotest.(check bool) "shared: one block" true (Value.share a == Value.share b);
  Alcotest.(check bool) "share keeps the value" true (Value.equal (Value.share b) b);
  let entry () =
    Agreement.Anonymous.encode { Agreement.Anonymous.pref = vi 4; t = 2; history = [ vi 3 ] }
  in
  Alcotest.(check bool) "equal anonymous entries: one block" true (entry () == entry ())

let value_compare_total_order () =
  let vs =
    [ Value.bot; vi (-1); vi 5; Value.str "a"; Value.pair (vi 1) (vi 2);
      Value.list [ vi 1 ]; Value.list [] ]
  in
  (* reflexive, antisymmetric-ish, transitive by sort stability *)
  List.iter (fun v -> Alcotest.(check int) "refl" 0 (Value.compare v v)) vs;
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          let c1 = Value.compare a b and c2 = Value.compare b a in
          Alcotest.(check int) "antisym" 0 (compare (c1 > 0) (c2 < 0) |> abs |> min 0))
        vs)
    vs;
  let sorted = List.sort Value.compare vs in
  Alcotest.(check int) "sort keeps all" (List.length vs) (List.length sorted)

let value_accessors () =
  check_value "fst" (vi 1) (Value.fst (Value.pair (vi 1) (vi 2)));
  check_value "snd" (vi 2) (Value.snd (Value.pair (vi 1) (vi 2)));
  Alcotest.(check int) "to_int" 7 (Value.to_int (vi 7));
  Alcotest.check_raises "to_int on pair"
    (Invalid_argument "Value.to_int: (1,2)")
    (fun () -> ignore (Value.to_int (Value.pair (vi 1) (vi 2))))

(* ---- Rng ---- *)

let rng_deterministic () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.next_int64 a) (Rng.next_int64 b)
  done

let rng_bounds () =
  let r = Rng.create 7 in
  for _ = 1 to 1000 do
    let x = Rng.int r 13 in
    Alcotest.(check bool) "in range" true (x >= 0 && x < 13)
  done

let rng_distribution_rough () =
  let r = Rng.create 99 in
  let counts = Array.make 4 0 in
  for _ = 1 to 4000 do
    counts.(Rng.int r 4) <- counts.(Rng.int r 4 |> fun _ -> Rng.int r 4) + 1
  done;
  (* each bucket should get a decent share; very loose bound *)
  Array.iter (fun c -> Alcotest.(check bool) "bucket populated" true (c > 500)) counts

let rng_split_independent () =
  let r = Rng.create 1 in
  let s = Rng.split r in
  let x = Rng.next_int64 r and y = Rng.next_int64 s in
  Alcotest.(check bool) "streams differ" true (x <> y)

let rng_shuffle_permutes () =
  let r = Rng.create 5 in
  let a = Array.init 20 Fun.id in
  Rng.shuffle r a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "permutation" (Array.init 20 Fun.id) sorted

(* ---- Memory ---- *)

let memory_read_write () =
  let m = Memory.create 4 in
  check_value "initial bot" Value.bot (Memory.read m 2);
  let m = Memory.write m 2 (vi 9) in
  check_value "written" (vi 9) (Memory.read m 2);
  check_value "others untouched" Value.bot (Memory.read m 3);
  Alcotest.(check int) "one register written" 1 (Memory.num_written m);
  Alcotest.(check int) "one write op" 1 (Memory.write_count m)

let memory_persistence () =
  let m0 = Memory.create 2 in
  let m1 = Memory.write m0 0 (vi 1) in
  let m2 = Memory.write m1 0 (vi 2) in
  check_value "m1 unchanged" (vi 1) (Memory.read m1 0);
  check_value "m2 sees latest" (vi 2) (Memory.read m2 0);
  check_value "m0 still bot" Value.bot (Memory.read m0 0)

let memory_scan_atomic () =
  let m = Memory.create 5 in
  let m = Memory.write m 1 (vi 1) in
  let m = Memory.write m 3 (vi 3) in
  let view = Memory.scan m ~off:1 ~len:3 in
  Alcotest.(check int) "len" 3 (Array.length view);
  check_value "v1" (vi 1) view.(0);
  check_value "v2" Value.bot view.(1);
  check_value "v3" (vi 3) view.(2)

(* Negative paths on both backends: the error messages are part of the
   interface (scripts match on them), so read, write, and scan must
   report the offending index/range in the same [0,size) style. *)
let memory_bounds_checked () =
  List.iter
    (fun backend ->
      let m = Memory.create ~backend 2 in
      Alcotest.check_raises "read oob"
        (Invalid_argument "Memory.read: register 2 out of range [0,2)") (fun () ->
          ignore (Memory.read m 2));
      Alcotest.check_raises "read negative"
        (Invalid_argument "Memory.read: register -3 out of range [0,2)") (fun () ->
          ignore (Memory.read m (-3)));
      Alcotest.check_raises "write oob"
        (Invalid_argument "Memory.write: register -1 out of range [0,2)") (fun () ->
          ignore (Memory.write m (-1) (vi 0)));
      Alcotest.check_raises "write oob high"
        (Invalid_argument "Memory.write: register 7 out of range [0,2)") (fun () ->
          ignore (Memory.write m 7 (vi 0)));
      Alcotest.check_raises "scan past end"
        (Invalid_argument "Memory.scan: range off=1 len=2 out of range [0,2)")
        (fun () -> ignore (Memory.scan m ~off:1 ~len:2));
      Alcotest.check_raises "scan negative off"
        (Invalid_argument "Memory.scan: range off=-1 len=1 out of range [0,2)")
        (fun () -> ignore (Memory.scan m ~off:(-1) ~len:1));
      Alcotest.check_raises "scan negative len"
        (Invalid_argument "Memory.scan: range off=0 len=-2 out of range [0,2)")
        (fun () -> ignore (Memory.scan m ~off:0 ~len:(-2)));
      (* boundary cases that must NOT raise *)
      Alcotest.(check int) "empty scan ok" 0
        (Array.length (Memory.scan m ~off:2 ~len:0));
      Alcotest.(check int) "full scan ok" 2
        (Array.length (Memory.scan m ~off:0 ~len:2)))
    [ Memory.Persistent; Memory.Journaled ]

(* ---- Program / Config ---- *)

let program_poised_inspection () =
  let p = Program.write 3 (vi 1) (fun () -> Program.stop) in
  Alcotest.(check (option int)) "poised write" (Some 3) (Program.poised_write p);
  let q = Program.read 0 (fun _ -> Program.stop) in
  Alcotest.(check (option int)) "read is not a write" None (Program.poised_write q);
  Alcotest.(check bool) "idle" true (Program.is_idle (Program.await (fun _ -> Program.stop)));
  Alcotest.(check bool) "halted" true (Program.is_halted Program.stop)

let config_step_semantics () =
  let prog =
    Program.await (fun v ->
        Program.write 0 v (fun () ->
            Program.read 0 (fun w -> Program.yield w Program.stop)))
  in
  let c = Config.create ~registers:1 ~procs:[| prog |] () in
  Alcotest.(check bool) "idle initially" true (Program.is_idle (Config.proc c 0));
  let c, _ = Config.invoke c 0 (vi 42) in
  let c, ev1 = Config.step c 0 in
  (match ev1 with
  | Event.Did_write { reg = 0; _ } -> ()
  | _ -> Alcotest.fail "expected write event");
  let c, _ = Config.step c 0 in
  let c, ev3 = Config.step c 0 in
  (match ev3 with
  | Event.Output { value; instance = 1; _ } -> check_value "echo" (vi 42) value
  | _ -> Alcotest.fail "expected output event");
  Alcotest.(check bool) "halted at end" true (Program.is_halted (Config.proc c 0));
  Alcotest.(check int) "output recorded" 1 (List.length (Config.outputs c))

let config_persistence_branches () =
  let prog =
    Program.await (fun v -> Program.write 0 v (fun () -> Program.yield v Program.stop))
  in
  let c0 = Config.create ~registers:1 ~procs:[| prog; prog |] () in
  let c0, _ = Config.invoke c0 0 (vi 1) in
  let c0, _ = Config.invoke c0 1 (vi 2) in
  (* branch A: p0 writes; branch B: p1 writes.  Both from c0. *)
  let ca, _ = Config.step c0 0 in
  let cb, _ = Config.step c0 1 in
  check_value "branch A sees p0" (vi 1) (Memory.read (Config.mem ca) 0);
  check_value "branch B sees p1" (vi 2) (Memory.read (Config.mem cb) 0);
  check_value "root untouched" Value.bot (Memory.read (Config.mem c0) 0)

let config_block_write () =
  let writer r v = Program.write r (vi v) (fun () -> Program.stop) in
  let c = Config.create ~registers:3 ~procs:[| writer 0 10; writer 2 12 |] () in
  let c, evs = Config.block_write c [ 0; 1 ] in
  Alcotest.(check int) "two events" 2 (List.length evs);
  check_value "r0" (vi 10) (Memory.read (Config.mem c) 0);
  check_value "r2" (vi 12) (Memory.read (Config.mem c) 2)

let config_block_write_requires_poised () =
  let c =
    Config.create ~registers:1
      ~procs:[| Program.read 0 (fun _ -> Program.stop) |] ()
  in
  Alcotest.check_raises "not poised"
    (Invalid_argument "Config.block_write: p0 is not poised to write") (fun () ->
      ignore (Config.block_write c [ 0 ]))

let footprint_scan_heads () =
  let scan ~off ~len = Program.scan ~off ~len (fun _ -> Program.stop) in
  let rd r = Program.read r (fun _ -> Program.stop) in
  let wr r = Program.write r (vi 1) (fun () -> Program.stop) in
  let covers p r = not (Program.commute p (wr r)) in
  (* a scan reads exactly its range: a write conflicts inside it only *)
  Alcotest.(check (list bool)) "full-range scan reads R0-R2" [ true; true; true; false ]
    (List.map (covers (scan ~off:0 ~len:3)) [ 0; 1; 2; 3 ]);
  Alcotest.(check (list bool)) "offset scan reads R2-R3" [ false; true; true; false ]
    (List.map (covers (scan ~off:2 ~len:2)) [ 1; 2; 3; 4 ]);
  Alcotest.(check (list bool)) "singleton scan reads R1" [ false; true; false ]
    (List.map (covers (scan ~off:1 ~len:1)) [ 0; 1; 2 ]);
  Alcotest.(check bool) "scan writes nothing" true
    (Program.commute (scan ~off:0 ~len:3) (rd 1));
  Alcotest.(check bool) "scan touches shared memory" false
    (Program.is_local (scan ~off:0 ~len:3));
  Alcotest.(check bool) "zero-length scan reads nothing" false (covers (scan ~off:5 ~len:0) 5);
  Alcotest.(check bool) "zero-length scan is local" true
    (Program.is_local (scan ~off:5 ~len:0))

let footprint_scan_independence () =
  (* a zero-length scan commutes with everything; an overlapping write
     does not commute with a scan covering it *)
  let scan ~off ~len = Program.scan ~off ~len (fun _ -> Program.stop) in
  let wr r = Program.write r (vi 1) (fun () -> Program.stop) in
  Alcotest.(check bool) "covered write conflicts" false
    (Program.commute (scan ~off:0 ~len:3) (wr 1));
  Alcotest.(check bool) "disjoint write commutes" true
    (Program.commute (scan ~off:0 ~len:3) (wr 9));
  Alcotest.(check bool) "empty scan commutes with writes" true
    (Program.commute (scan ~off:0 ~len:0) (wr 1))

(* The independence tests allocate nothing: 10,000 calls each of
   [commute] (a 62-wide scan against a write inside its range and one
   outside it) and [is_local] leave the minor heap untouched. *)
let independence_allocates_nothing () =
  let scan = Program.scan ~off:0 ~len:62 (fun _ -> Program.stop) in
  let inside = Program.write 30 (vi 1) (fun () -> Program.stop) in
  let outside = Program.write 62 (vi 1) (fun () -> Program.stop) in
  let words f =
    let before = Gc.minor_words () in
    let hits = ref 0 in
    for _ = 1 to 10_000 do
      if f () then incr hits
    done;
    (Gc.minor_words () -. before, !hits)
  in
  ignore (words (fun () -> Program.commute scan inside));
  let w, hits = words (fun () -> Program.commute scan inside || Program.commute outside scan) in
  Alcotest.(check int) "the outside write commutes every time" 10_000 hits;
  Alcotest.(check (float 0.)) "commute: minor words" 0. w;
  let w, hits = words (fun () -> Program.is_local scan || Program.is_local inside) in
  Alcotest.(check int) "neither is local" 0 hits;
  Alcotest.(check (float 0.)) "is_local: minor words" 0. w

(* The printer [Value.pp] replaced: the parts through Fmt, one Format
   token each, kept as the reference for the bytes. *)
let rec fmt_pp ppf v =
  match Value.view v with
  | Value.Bot -> Fmt.string ppf "⊥"
  | Value.Int i -> Fmt.int ppf i
  | Value.Str s -> Fmt.pf ppf "%S" s
  | Value.Pair (a, b) -> Fmt.pf ppf "(%a,%a)" fmt_pp a fmt_pp b
  | Value.List vs -> Fmt.pf ppf "[%a]" (Fmt.list ~sep:(Fmt.any ";") fmt_pp) vs

(* [Value.to_string] of a 1,000-int tuple allocates at most 8 words
   per component, minor and direct major words together (through Fmt
   it took about 40).  Nested tuples print the reference's bytes, alone
   and between break hints in a box narrower than they are. *)
let value_pp_allocation () =
  let words f =
    let m0 = Gc.minor_words () and _, p0, j0 = Gc.counters () in
    ignore (Sys.opaque_identity (f ()));
    let m1 = Gc.minor_words () and _, p1, j1 = Gc.counters () in
    m1 -. m0 +. (j1 -. j0 -. (p1 -. p0))
  in
  let tuple = Value.list (List.init 1000 vi) in
  Alcotest.(check string) "tuple bytes" (Fmt.str "%a" fmt_pp tuple) (Value.to_string tuple);
  let w = words (fun () -> Value.to_string tuple) in
  if w > 8. *. 1000. then Alcotest.failf "to_string of 1,000 ints: %.0f words" w;
  let rng = Random.State.make [| 7 |] in
  let rec gen depth =
    match Random.State.int rng (if depth = 0 then 3 else 5) with
    | 0 -> Value.bot
    | 1 -> vi (Random.State.int rng 2001 - 1000)
    | 2 -> Value.str (String.init (Random.State.int rng 4) (fun _ -> Char.chr (Random.State.int rng 256)))
    | 3 -> Value.pair (gen (depth - 1)) (gen (depth - 1))
    | _ -> Value.list (List.init (Random.State.int rng 4) (fun _ -> gen (depth - 1)))
  in
  for _ = 1 to 200 do
    let a = gen 4 and b = gen 4 in
    let boxed pp =
      let buf = Buffer.create 64 in
      let ppf = Format.formatter_of_buffer buf in
      Format.pp_set_margin ppf 20;
      Format.fprintf ppf "@[<hov 2>x@ %a@ %a@ y@]@?" pp a pp b;
      Buffer.contents buf
    in
    Alcotest.(check string) "nested bytes" (Fmt.str "%a" fmt_pp a) (Value.to_string a);
    Alcotest.(check string) "bytes in a box" (boxed fmt_pp) (boxed Value.pp)
  done

let suite =
  [
    test "value equality" value_equality;
    test "value compare is a total order" value_compare_total_order;
    test "value accessors" value_accessors;
    test "value printing: bytes and allocation" value_pp_allocation;
    test "rng determinism" rng_deterministic;
    test "rng bounds" rng_bounds;
    test "rng rough uniformity" rng_distribution_rough;
    test "rng split independence" rng_split_independent;
    test "rng shuffle permutes" rng_shuffle_permutes;
    test "memory read/write/accounting" memory_read_write;
    test "memory persistence" memory_persistence;
    test "memory atomic scan" memory_scan_atomic;
    test "memory bounds checked" memory_bounds_checked;
    test "program poised inspection" program_poised_inspection;
    test "footprint of scan heads" footprint_scan_heads;
    test "scan footprint independence" footprint_scan_independence;
    test "independence tests allocate nothing (Gc-pinned)" independence_allocates_nothing;
    test "config step semantics" config_step_semantics;
    test "config branches are independent" config_persistence_branches;
    test "config block write" config_block_write;
    test "block write requires poised writers" config_block_write_requires_poised;
    test "value share returns one block" value_share;
  ]
