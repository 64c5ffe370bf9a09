(* Golden tests for the pretty-printers — the strings developers and
   the CLI actually see. *)

open Helpers
open Shm

let str pp x = Fmt.str "%a" pp x

let value_pp () =
  Alcotest.(check string) "bot" "⊥" (Value.to_string Value.bot);
  Alcotest.(check string) "int" "42" (Value.to_string (vi 42));
  Alcotest.(check string) "str" "\"hi\"" (Value.to_string (Value.str "hi"));
  Alcotest.(check string) "pair" "(1,2)" (Value.to_string (Value.pair (vi 1) (vi 2)));
  Alcotest.(check string) "list" "[1;⊥]"
    (Value.to_string (Value.list [ vi 1; Value.bot ]));
  Alcotest.(check string) "nested" "((1,⊥),[])"
    (Value.to_string (Value.pair (Value.pair (vi 1) Value.bot) (Value.list [])))

let event_pp () =
  Alcotest.(check string) "invoke" "p2: invoke #1 Propose(7)"
    (str Event.pp (Event.Invoke { pid = 2; instance = 1; input = vi 7 }));
  Alcotest.(check string) "write" "p0: write R3 := (1,0)"
    (str Event.pp (Event.Did_write { pid = 0; reg = 3; value = Value.pair (vi 1) (vi 0) }));
  Alcotest.(check string) "read" "p1: read R0 -> ⊥"
    (str Event.pp (Event.Did_read { pid = 1; reg = 0; value = Value.bot }));
  Alcotest.(check string) "scan" "p1: scan [0..4]"
    (str Event.pp (Event.Did_scan { pid = 1; off = 0; len = 5 }));
  Alcotest.(check string) "output" "p3: output #2 -> 9"
    (str Event.pp (Event.Output { pid = 3; instance = 2; value = vi 9 }))

let program_op_pp () =
  Alcotest.(check string) "read" "read R7" (str Program.pp_op (Program.Read 7));
  Alcotest.(check string) "write" "write R2 := 5"
    (str Program.pp_op (Program.Write (2, vi 5)));
  Alcotest.(check string) "scan" "scan [1..3]" (str Program.pp_op (Program.Scan (1, 3)))

let params_pp () =
  Alcotest.(check string) "params" "(n=5,m=2,k=3)"
    (Agreement.Params.to_string (Agreement.Params.make ~n:5 ~m:2 ~k:3))

let diagram_symbols () =
  Alcotest.(check string) "invoke" "I"
    (Diagram.symbol (Event.Invoke { pid = 0; instance = 1; input = vi 0 }));
  Alcotest.(check string) "write" "w3"
    (Diagram.symbol (Event.Did_write { pid = 0; reg = 3; value = vi 0 }));
  Alcotest.(check string) "read" "r0"
    (Diagram.symbol (Event.Did_read { pid = 0; reg = 0; value = vi 0 }));
  Alcotest.(check string) "scan" "s"
    (Diagram.symbol (Event.Did_scan { pid = 0; off = 0; len = 2 }));
  Alcotest.(check string) "output" "O"
    (Diagram.symbol (Event.Output { pid = 0; instance = 1; value = vi 0 }))

let schedule_names () =
  Alcotest.(check string) "round robin" "round-robin" (Schedule.name (Schedule.round_robin 3));
  Alcotest.(check string) "solo" "solo(p2)" (Schedule.name (Schedule.solo 2));
  Alcotest.(check string) "random" "random(seed=9)" (Schedule.name (Schedule.random ~seed:9 3));
  Alcotest.(check string) "quantum" "round-robin/q=5"
    (Schedule.name (Schedule.quantum_round_robin ~quantum:5 3));
  Alcotest.(check string) "crashes suffix" "solo(p0)+crashes"
    (Schedule.name (Schedule.with_crashes ~crashes:[] (Schedule.solo 0)))

(* ---- error paths ---- *)

let error_paths () =
  Alcotest.check_raises "params: m>k"
    (Invalid_argument "Params.make: need m <= k, got m=3 k=2 (unsolvable otherwise)")
    (fun () -> ignore (Agreement.Params.make ~n:5 ~m:3 ~k:2));
  Alcotest.check_raises "baseline n=k+1"
    (Invalid_argument
       "Baseline_dfgr13.program: reconstruction requires n-k >= 2 (n=4 k=3); see module \
        comment") (fun () ->
      ignore
        (Agreement.Baseline_dfgr13.program ~n:4 ~k:3 ~pid:0
           ~api:(Snapshot.Atomic.make ~off:0 ~len:2)));
  let c = Config.create ~registers:1 ~procs:[| Program.stop |] () in
  Alcotest.check_raises "step halted" (Invalid_argument "Config.step: p0 halted")
    (fun () -> ignore (Config.step c 0));
  Alcotest.check_raises "invoke active" (Invalid_argument "Config.invoke: p0 is not idle")
    (fun () -> ignore (Config.invoke c 0 (vi 1)));
  let no_input ~pid:_ ~instance:_ = None in
  Alcotest.check_raises "advance halted" (Invalid_argument "Config.advance: p0 halted")
    (fun () -> ignore (Config.advance ~inputs:no_input c 0));
  let idle =
    Config.create ~registers:1 ~procs:[| Program.await (fun _ -> Program.stop) |] ()
  in
  Alcotest.check_raises "advance idle without input"
    (Invalid_argument "Config.advance: p0 has no input for instance 1")
    (fun () -> ignore (Config.advance ~inputs:no_input idle 0));
  Alcotest.check_raises "bad scheduler quantum"
    (Invalid_argument "Schedule.quantum_round_robin: quantum must be positive")
    (fun () -> ignore (Schedule.quantum_round_robin ~quantum:0 2));
  Alcotest.check_raises "rng bad bound" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Rng.int (Rng.create 0) 0))

let suite =
  [
    test "Value.pp golden" value_pp;
    test "Event.pp golden" event_pp;
    test "Program.pp_op golden" program_op_pp;
    test "Params.pp golden" params_pp;
    test "Diagram symbols" diagram_symbols;
    test "Schedule names" schedule_names;
    test "error paths raise precise messages" error_paths;
  ]
