(* ASCII space-time diagrams of executions.

   Renders a recorded trace as one row per process and one column per
   step, the classic whiteboard picture of a shared-memory execution:

     p0 |I w0    r0     s    O|
     p1 |   I  w1    s     O  |

   Symbols: I invoke, wN write to register N, rN read of register N,
   s scan, O output, . idle.  Multi-digit register indices widen their
   column.  Intended for small traces (CLI --diagram, debugging the
   lower-bound constructions); long traces can be cut to their first
   [?len] steps. *)


let symbol = function
  | Event.Invoke _ -> "I"
  | Event.Did_read { reg; _ } -> Fmt.str "r%d" reg
  | Event.Did_write { reg; _ } -> Fmt.str "w%d" reg
  | Event.Did_scan _ -> "s"
  | Event.Output _ -> "O"

(* The grid: rows indexed by pid, columns by step. *)
let grid ~n trace =
  let cols = List.length trace in
  let g = Array.make_matrix n cols "" in
  List.iteri
    (fun t ev ->
      let pid = Event.pid ev in
      if pid < n then g.(pid).(t) <- symbol ev)
    trace;
  g

let pp ?len ~n ppf trace =
  let trace =
    match len with Some l -> List.filteri (fun i _ -> i < l) trace | None -> trace
  in
  let g = grid ~n trace in
  let cols = match g with [||] -> 0 | _ -> Array.length g.(0) in
  (* column widths *)
  let width = Array.make cols 1 in
  Array.iter
    (Array.iteri (fun c cell -> if String.length cell > width.(c) then width.(c) <- String.length cell))
    g;
  for pid = 0 to n - 1 do
    Fmt.pf ppf "p%d |" pid;
    for c = 0 to cols - 1 do
      let cell = if g.(pid).(c) = "" then "." else g.(pid).(c) in
      Fmt.pf ppf "%-*s" (width.(c) + 1) cell
    done;
    Fmt.pf ppf "|@,"
  done

let to_string ~n trace = Fmt.str "@[<v>%a@]" (fun ppf -> pp ~n ppf) trace
