(* Tests for Lowerbound.Figure1, the checked Figure 1 table. *)

open Agreement
open Lowerbound

let table = lazy (Figure1.table ~max_n:5)

(* Every row of a small table holds, and every experiment is in it. *)
let every_row_ok () =
  let rows = Lazy.force table in
  List.iter
    (fun (r : Figure1.row) ->
      match r.verdict with
      | Ok () -> ()
      | Error why -> Alcotest.failf "%s: %s" (Params.to_string r.params) why)
    rows;
  List.iter
    (fun e ->
      Alcotest.(check bool) "experiment present" true
        (List.exists (fun (r : Figure1.row) -> r.experiment = e) rows))
    Figure1.[ E1; E2; E3; E3b; E4; E5; E6; E7 ];
  Alcotest.(check int) "E1 points at n <= 5" 16
    (List.length (List.filter (fun (r : Figure1.row) -> r.experiment = Figure1.E1) rows))

(* The starved E2 run at (5,1,2), on lo - 1 = 3 registers, carries
   k+1 = 3 distinct outputs that the property checker confirms; the run
   on n+2m-k = 5 is resisted. *)
let starved_row_violates () =
  let p = Params.make ~n:5 ~m:1 ~k:2 in
  match
    List.find_map
      (fun (r : Figure1.row) ->
        match r.measured with
        | Figure1.Theorem2 { lo; starved; full; written }
          when r.experiment = Figure1.E2 && r.params = p ->
          Some (lo, starved, full, written)
        | _ -> None)
      (Lazy.force table)
  with
  | Some (lo, starved, full, written) ->
    Alcotest.(check int) "lo = n+m-k" 4 lo;
    Alcotest.(check int) "starved budget" 3 starved.Figure1.budget;
    Alcotest.(check bool) "k+1 outputs, certified" true (starved.found = Figure1.Broke 3);
    Alcotest.(check bool) "report names the violation" true
      (String.starts_with ~prefix:"VIOLATION: instance 5 decided 3" starved.report);
    Alcotest.(check int) "full budget" 5 full.budget;
    Alcotest.(check bool) "resisted" true (full.found = Figure1.Resisted);
    Alcotest.(check bool) "E2 measures no registers" true (written = None)
  | None -> Alcotest.fail "no E2 row at (5,1,2)"

(* Every construction report is one line, however many values it lists
   (the longest pass the 80-column margin). *)
let reports_one_line () =
  let one_line (a : Figure1.attack) =
    if String.contains a.report '\n' then Alcotest.failf "report wraps: %S" a.report
  in
  List.iter
    (fun (r : Figure1.row) ->
      match r.measured with
      | Figure1.Registers _ | Figure1.Arms _ -> ()
      | Figure1.Theorem2 { starved; full; _ } -> List.iter one_line [ starved; full ]
      | Figure1.Clones { at; below; _ } -> List.iter one_line [ at; below ])
    (Lazy.force table)

let suite =
  [
    Alcotest.test_case "every row ok at max-n 5" `Quick every_row_ok;
    Alcotest.test_case "a starved Theorem 2 row carries its violation" `Quick
      starved_row_violates;
    Alcotest.test_case "construction reports print on one line" `Quick reports_one_line;
  ]
