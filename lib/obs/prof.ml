(* Phase-attribution profiling of the exploration hot path.

   A [t] is a pair of fixed int arrays — nanoseconds and hit counts per
   phase — so attribution is two array stores and allocates nothing.
   The caller brackets work with explicit clock reads, never closures
   (closures allocate):

     let t0 = if profiling then Trace.now_ns () else 0 in
     ... work ...
     if profiling then Prof.add p Prof.Interp (Trace.now_ns () - t0)

   A DPOR search charges one [t], the phase breakdown that
   [sa_run explore --stats] prints. *)

type phase =
  | Interp
  | Footprint
  | Hash
  | Cache
  | Replay
  | Check
  | Vm_step
  | Vm_batch

let n_phases = 8

let index = function
  | Interp -> 0
  | Footprint -> 1
  | Hash -> 2
  | Cache -> 3
  | Replay -> 4
  | Check -> 5
  | Vm_step -> 6
  | Vm_batch -> 7

let phases = [ Interp; Footprint; Hash; Cache; Replay; Check; Vm_step; Vm_batch ]

let name = function
  | Interp -> "interp"
  | Footprint -> "footprint"
  | Hash -> "hash"
  | Cache -> "cache"
  | Replay -> "replay"
  | Check -> "check"
  | Vm_step -> "vm.step"
  | Vm_batch -> "vm.batch"

type t = { ns : int array; count : int array }

let create () = { ns = Array.make n_phases 0; count = Array.make n_phases 0 }

(* Allocation-free: the hot-path attribution primitive. *)
let add t phase dns =
  let i = index phase in
  t.ns.(i) <- t.ns.(i) + dns;
  t.count.(i) <- t.count.(i) + 1

let ns t phase = t.ns.(index phase)
let count t phase = t.count.(index phase)
let total_ns t = Array.fold_left ( + ) 0 t.ns

let is_empty t = total_ns t = 0 && Array.fold_left ( + ) 0 t.count = 0

let to_json t =
  Json.Obj
    (List.map
       (fun p ->
         ( name p,
           Json.Obj [ ("ns", Json.Int (ns t p)); ("count", Json.Int (count t p)) ] ))
       phases)

let pp ppf t =
  let total = max 1 (total_ns t) in
  Fmt.pf ppf "%-10s %12s %10s %6s@." "phase" "time (ms)" "hits" "share";
  List.iter
    (fun p ->
      if count t p > 0 || ns t p > 0 then
        Fmt.pf ppf "%-10s %12.3f %10d %5.1f%%@." (name p)
          (float_of_int (ns t p) /. 1e6)
          (count t p)
          (100. *. float_of_int (ns t p) /. float_of_int total))
    phases;
  Fmt.pf ppf "%-10s %12.3f" "total" (float_of_int (total_ns t) /. 1e6)
