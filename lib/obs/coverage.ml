(* The paper-grounded view of an execution: which registers are
   *covered* (some process is poised to write them — the covering
   argument of Delporte-Gallet et al.) and which have been *written*
   (Memory.written_set, the space measure) at each step.

   [probe] adapts a trace collector to the [?probe] hook of
   [Shm.Exec.run]: after every event it appends one sample to the
   "registers covered" and "registers written" counter tracks of the
   executing domain, plus a per-write instant; with [~sets:true] each
   event also carries the covered-register set itself, so the trace
   reconstructs the full covering timeline, not just its
   cardinality. *)

open Shm
module IS = Set.Make (Int)

(* [(pid, reg)] pairs: every process poised at a write, with its
   target.  Several processes poised at the same register is precisely
   a block-write in formation; [covered] deduplicates them into the
   sorted set of covered registers. *)
let covering config =
  let n = Config.n config in
  let rec go pid acc =
    if pid >= n then List.rev acc
    else
      match Program.poised_write (Config.proc config pid) with
      | Some reg -> go (pid + 1) ((pid, reg) :: acc)
      | None -> go (pid + 1) acc
  in
  go 0 []

let covered config =
  List.sort_uniq compare (List.map snd (covering config))

let num_covered config = List.length (covered config)

let written config = Memory.written_set (Config.mem config)
let num_written config = Memory.num_written (Config.mem config)

let json_of_int_list l = Json.Arr (List.map (fun i -> Json.Int i) l)

let track_covered = "registers covered"
let track_written = "registers written"

let probe ?(sets = false) tr ~step ev config =
  (match ev with
  | Event.Did_write { pid; reg; value = _ } ->
    Trace.instant tr ~cat:"coverage"
      ~args:[ ("pid", Json.Int pid); ("reg", Json.Int reg); ("step", Json.Int step) ]
      "write"
  | _ -> ());
  if sets then
    Trace.instant tr ~cat:"coverage"
      ~args:
        [
          ("step", Json.Int step);
          ("covered", json_of_int_list (covered config));
          ("written", json_of_int_list (IS.elements (written config)));
        ]
      "cov";
  Trace.counter tr ~track:track_covered (float_of_int (num_covered config));
  Trace.counter tr ~track:track_written (float_of_int (num_written config))

(* The Exec.run probe, bound to the ambient collector if any.  Returns
   None when disabled so Exec's hoisted hook stays zero-cost. *)
let ambient_probe ?sets () =
  match Trace.attached () with
  | None -> None
  | Some tr -> Some (fun ~step ev config -> probe ?sets tr ~step ev config)
