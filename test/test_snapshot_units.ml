(* Focused unit tests for the snapshot implementations' internals:
   Afek scan/update subprograms, double-collect retry behaviour,
   footprints, and the MW-from-SW timestamp logic. *)

open Helpers
open Shm

let run_solo ?(max_steps = 10_000) prog ~registers =
  let config = Config.create ~registers ~procs:[| prog |] () in
  let inputs = Exec.oneshot_inputs [| vi 0 |] in
  Exec.run ~record:true ~sched:(Schedule.solo 0) ~inputs ~max_steps config

(* Afek: a solo update then scan returns the written segment. *)
let afek_update_then_scan () =
  let n = 3 in
  let prog =
    Program.await (fun _ ->
        Snapshot.Afek.update ~off:0 ~n ~pid:0 ~seq:0 (vi 42) (fun seq ->
            Alcotest.(check int) "seq incremented" 1 seq;
            Snapshot.Afek.scan ~off:0 ~n (fun segments ->
                Program.yield (Value.list (Array.to_list segments)) Program.stop)))
  in
  let res = run_solo prog ~registers:n in
  match Config.outputs res.Exec.config with
  | [ (_, _, out) ] when (match Value.view out with Value.List [ _; _; _ ] -> true | _ -> false) ->
    let s0, s1, s2 =
      match Value.to_list out with [ a; b; c ] -> (a, b, c) | _ -> assert false
    in
    check_value "own segment" (vi 42) s0;
    check_value "others bot" Value.bot s1;
    check_value "others bot" Value.bot s2
  | _ -> Alcotest.fail "unexpected output shape"

(* Afek scans are genuinely atomic under interference: a writer and a
   scanner interleaved at every possible offset never tear. *)
let afek_scan_never_tears () =
  let n = 2 in
  (* writer: updates its segment 5 times with increasing values *)
  let writer =
    Program.await (fun _ ->
        let rec go seq k =
          if k > 5 then Program.stop
          else
            Snapshot.Afek.update ~off:0 ~n ~pid:0 ~seq (vi k) (fun seq -> go seq (k + 1))
        in
        go 0 1)
  in
  (* scanner: two scans; outputs both *)
  let scanner =
    Program.await (fun _ ->
        Snapshot.Afek.scan ~off:0 ~n (fun v1 ->
            Snapshot.Afek.scan ~off:0 ~n (fun v2 ->
                Program.yield (Value.pair v1.(0) v2.(0)) Program.stop)))
  in
  for seed = 0 to 39 do
    let config = Config.create ~registers:n ~procs:[| writer; scanner |] () in
    let inputs = Exec.oneshot_inputs [| vi 0; vi 0 |] in
    let res = Exec.run ~sched:(Schedule.random ~seed 2) ~inputs ~max_steps:20_000 config in
    match Config.outputs res.Exec.config with
    | [ (1, _, p) ] when (match Value.view p with Value.Pair _ -> true | _ -> false) ->
      let a = Value.fst p and b = Value.snd p in
      (* monotone: the second scan never sees an older value *)
      let to_i v = match Value.view v with Value.Int i -> i | Value.Bot -> 0 | _ -> -1 in
      if to_i b < to_i a then
        Alcotest.failf "seed %d: scans went backwards (%a then %a)" seed Value.pp a
          Value.pp b
    | _ -> Alcotest.failf "seed %d: missing scanner output" seed
  done

(* An Afek register value: sequence number, segment, embedded view. *)
let afek_cell seq data view = Value.list [ vi seq; data; Value.list view ]

(* Afek borrowing, on a scripted schedule: the scanner (p1) collects
   around two whole updates of the writer (p0), so it sees register 0
   at seqs 0, 1 and 2 and returns the view p0 embedded in its second
   update — p0's first segment, with the other two still ⊥ — though
   register 0 already holds 20. *)
let afek_scan_borrows_embedded_view () =
  let n = 3 in
  let writer =
    Program.await (fun _ ->
        Snapshot.Afek.update ~off:0 ~n ~pid:0 ~seq:0 (vi 10) (fun seq ->
            Snapshot.Afek.update ~off:0 ~n ~pid:0 ~seq (vi 20) (fun _ -> Program.stop)))
  in
  let scanner =
    Program.await (fun _ ->
        Snapshot.Afek.scan ~off:0 ~n (fun view ->
            Program.yield (Value.list (Array.to_list view)) Program.stop))
  in
  let idle = Program.await (fun _ -> Program.stop) in
  let config = Config.create ~registers:n ~procs:[| writer; scanner; idle |] () in
  let inputs = Exec.oneshot_inputs [| vi 0; vi 0; vi 0 |] in
  (* A solo update is two clean collects and a write, 7 steps; a
     collect is 3.  Each process's first step is its invocation, and
     the scanner's last its output. *)
  let steps pid count = List.init count (fun _ -> pid) in
  let sched =
    Schedule.replay ~n
      (List.concat [ steps 1 4; steps 0 8; steps 1 3; steps 0 7; steps 1 4 ])
  in
  let res = Exec.run ~sched ~inputs ~max_steps:1_000 config in
  check_value "register 0 holds the second update"
    (afek_cell 2 (vi 20) [ vi 10; Value.bot; Value.bot ])
    (Memory.read (Config.mem res.Exec.config) 0);
  match Config.outputs res.Exec.config with
  | [ (1, _, out) ] ->
    check_value "borrowed view" (Value.list [ vi 10; Value.bot; Value.bot ]) out
  | _ -> Alcotest.fail "missing scanner output"

(* Feed [prog] the scripted read results [vs] in order. *)
let feed_reads prog vs =
  List.fold_left
    (fun p v ->
      match Program.feed_read p v with
      | Some p -> p
      | None -> Alcotest.fail "program not poised at a read")
    prog vs

(* Register values scripted per collect: a register seen at three
   distinct seqs lends the view its last cell embeds — the view the
   writer embedded while every other segment was ⊥, and n × ⊥ for a
   register last read unwritten. *)
let afek_scan_borrows_scripted () =
  let n = 2 in
  let out vs =
    match
      Program.take_yield
        (feed_reads (Snapshot.Afek.scan ~off:0 ~n (fun view ->
             Program.yield (Value.list (Array.to_list view)) Program.stop)) vs)
    with
    | Some (v, _) -> v
    | None -> Alcotest.fail "scan did not return"
  in
  let bot = Value.bot in
  check_value "embedded all-⊥ view"
    (Value.list [ bot; bot ])
    (out [ bot; bot; afek_cell 1 (vi 5) [ bot; bot ]; bot; afek_cell 2 (vi 6) [ bot; bot ]; bot ]);
  check_value "unwritten register lends n × ⊥"
    (Value.list [ bot; bot ])
    (out [ afek_cell 1 (vi 5) [ vi 5; bot ]; bot; afek_cell 2 (vi 6) [ vi 6; bot ]; bot; bot; bot ])

(* Malformed register values raise at the read that delivers them
   (Afek) or at the scan's last read (a Mw_from_sw row), with the
   decoder's message. *)
let malformed_values_raise () =
  let bot = Value.bot in
  let afek = Snapshot.Afek.scan ~off:0 ~n:2 (fun _ -> Program.stop) in
  Alcotest.check_raises "non-cell register value" (Invalid_argument "Afek.decode: 7")
    (fun () -> ignore (feed_reads afek [ bot; vi 7 ]));
  Alcotest.check_raises "cell with a non-list view"
    (Invalid_argument "Afek.decode: [1;5;5]")
    (fun () -> ignore (feed_reads afek [ Value.list [ vi 1; vi 5; vi 5 ] ]));
  let row_scan row =
    let api = Snapshot.Mw_from_sw.make ~off:0 ~n:1 ~components:2 ~pid:0 in
    let scan = api.Snapshot.Snap_api.scan (fun _ _ -> Program.stop) in
    let cell = afek_cell 1 row [ bot ] in
    fun () -> ignore (feed_reads scan [ cell; cell ])
  in
  let slot ts owner v = Value.pair (Value.pair (vi ts) (vi owner)) v in
  Alcotest.check_raises "row not a list" (Invalid_argument "Mw_from_sw.decode_row: 3")
    (row_scan (vi 3));
  Alcotest.check_raises "row of the wrong length"
    (Invalid_argument "Mw_from_sw.decode_row: [((1,0),4)]")
    (row_scan (Value.list [ slot 1 0 (vi 4) ]));
  Alcotest.check_raises "malformed slot" (Invalid_argument "Mw_from_sw.decode_slot: (1,4)")
    (row_scan (Value.list [ slot 1 0 (vi 4); Value.pair (vi 1) (vi 4) ]))

(* A collect's read checks the cell and keeps its embedded view
   encoded, so one read allocates the same at n = 4 and n = 32 (26
   words); decoding the view into an n-array made it 37 and 65 words. *)
let afek_read_allocation_independent_of_n () =
  let words_per_read n =
    let cell = afek_cell 1 (vi 0) (List.init n vi) in
    let scan = Snapshot.Afek.scan ~off:0 ~n (fun _ -> Program.stop) in
    let reps = 1_000 in
    let before = Gc.minor_words () in
    for _ = 1 to reps do
      ignore (Program.feed_read scan cell)
    done;
    (Gc.minor_words () -. before) /. float_of_int reps
  in
  let small = words_per_read 4 in
  let big = words_per_read 32 in
  Alcotest.(check bool)
    (Fmt.str "words per read: n = 4 %.1f, n = 32 %.1f" small big)
    true (big < 1.5 *. small)

(* Double collect with max_retries: a perpetually-interfered scan fails
   loudly instead of spinning. *)
let double_collect_retry_bound () =
  let api = Snapshot.Double_collect.make ~off:0 ~len:2 ~pid:1 ~max_retries:3 () in
  let scanner =
    Program.await (fun _ -> api.Snapshot.Snap_api.scan (fun _ view ->
        Program.yield view.(0) Program.stop))
  in
  (* interferer: writes register 0 forever (raw writes with fresh tags) *)
  let interferer =
    Program.await (fun _ ->
        let rec go k =
          Program.write 0 (Value.pair (vi k) (vi k)) (fun () -> go (k + 1))
        in
        go 0)
  in
  let config = Config.create ~registers:2 ~procs:[| scanner; interferer |] () in
  let inputs = Exec.oneshot_inputs [| vi 0; vi 0 |] in
  (* alternate strictly so every double collect sees a change *)
  let sched = Schedule.round_robin 2 in
  Alcotest.check_raises "scan gives up"
    (Failure "Double_collect.scan: no clean double collect after 3 attempts")
    (fun () -> ignore (Exec.run ~sched ~inputs ~max_steps:5_000 config))

(* Footprints document the space story. *)
let footprints () =
  let f1 = Snapshot.Atomic.footprint ~len:7 in
  Alcotest.(check int) "atomic regs" 7 f1.Snapshot.Snap_api.registers;
  Alcotest.(check bool) "atomic wait-free" true f1.Snapshot.Snap_api.wait_free;
  let f2 = Snapshot.Double_collect.footprint ~len:7 in
  Alcotest.(check int) "collect regs" 7 f2.Snapshot.Snap_api.registers;
  Alcotest.(check bool) "collect not wait-free" false f2.Snapshot.Snap_api.wait_free;
  let f3 = Snapshot.Mw_from_sw.footprint ~n:5 in
  Alcotest.(check int) "sw regs = n" 5 f3.Snapshot.Snap_api.registers;
  Alcotest.(check bool) "sw wait-free" true f3.Snapshot.Snap_api.wait_free

(* MW-from-SW: two writers to the same component; reader sees the later
   write once both finished (timestamp order respects real time). *)
let mw_sw_timestamp_order () =
  let n = 3 in
  let mk pid v =
    let api = Snapshot.Mw_from_sw.make ~off:0 ~n ~components:2 ~pid in
    Program.await (fun _ ->
        api.Snapshot.Snap_api.update 0 (vi v) (fun _ -> Program.stop))
  in
  let reader =
    let api = Snapshot.Mw_from_sw.make ~off:0 ~n ~components:2 ~pid:2 in
    Program.await (fun _ ->
        api.Snapshot.Snap_api.scan (fun _ view -> Program.yield view.(0) Program.stop))
  in
  let config = Config.create ~registers:n ~procs:[| mk 0 10; mk 1 20; reader |] () in
  let inputs = Exec.oneshot_inputs [| vi 0; vi 0; vi 0 |] in
  (* strictly sequential: writer 0 entirely, then writer 1, then reader *)
  let sched = Schedule.quantum_round_robin ~quantum:10_000 3 in
  let res = Exec.run ~sched ~inputs ~max_steps:100_000 config in
  match Config.outputs res.Exec.config with
  | [ (2, _, v) ] -> check_value "later write wins" (vi 20) v
  | _ -> Alcotest.fail "missing reader output"

(* Anonymous double collect produces distinct tags across processes
   (no aliasing in practice). *)
let anonymous_tags_fresh () =
  let mk seed =
    let api = Snapshot.Double_collect.make_anonymous ~off:0 ~len:1 ~seed in
    Program.await (fun _ ->
        api.Snapshot.Snap_api.update 0 (vi 1) (fun _ -> Program.stop))
  in
  let config = Config.create ~registers:1 ~procs:[| mk 1; mk 2 |] () in
  let inputs = Exec.oneshot_inputs [| vi 0; vi 0 |] in
  let res =
    Exec.run ~record:true ~sched:(Schedule.round_robin 2) ~inputs ~max_steps:100 config
  in
  let tags =
    res.Exec.trace
    |> List.filter_map (fun ev ->
           match ev with
           | Event.Did_write { value; _ } -> (
             match Value.view value with
             | Value.Pair (tag, _) -> Some tag
             | _ -> None)
           | _ -> None)
  in
  Alcotest.(check int) "two writes" 2 (List.length tags);
  match tags with
  | [ a; b ] -> Alcotest.(check bool) "distinct tags" false (Value.equal a b)
  | _ -> assert false

let suite =
  [
    test "afek: update then scan" afek_update_then_scan;
    test "afek: scans never tear under interference" afek_scan_never_tears;
    test "afek: a scan borrows the writer's embedded view" afek_scan_borrows_embedded_view;
    test "afek: scripted collects borrow the last cell's view" afek_scan_borrows_scripted;
    test "afek and mw-from-sw: malformed values raise" malformed_values_raise;
    test "afek: a read allocates the same at any n" afek_read_allocation_independent_of_n;
    test "double collect: retry bound fails loudly" double_collect_retry_bound;
    test "footprints" footprints;
    test "mw-from-sw: timestamp order respects real time" mw_sw_timestamp_order;
    test "anonymous tags are fresh" anonymous_tags_fresh;
  ]
