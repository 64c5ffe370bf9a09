(* First-order protocol IR and control-flow graphs of program points.

   The fuzzer's protocol language (step lists with bounded loops,
   [Shm.Vm.proto]) is *this* language, so the dataflow analyses and the
   optimizer work on fuzz protocols exactly.

   A program point is one shared-memory operation occurrence (or a
   decide).  Points are identified by their index in execution order,
   which is exactly the per-process op counter [Shm.Config.pc] exposes
   at run time — the bridge between a dynamic step and its static
   point. *)

(* The language itself lives in [Shm.Vm]: the bytecode compiler and
   the free-monad compiler must agree on one set of constructors, and
   shm sits below every layer that consumes them.  Annotations below
   select its constructors by type. *)

(* ------------------------------------------------------------------ *)
(* Rendering (the fuzzer's compact one-line replay form)               *)

let src_to_string : Shm.Vm.src -> string = function
  | Const c -> string_of_int c
  | Input -> "in"
  | Last -> "last"

let rec step_to_string : Shm.Vm.step -> string = function
  | Read r -> Fmt.str "R%d" r
  | Write (r, s) -> Fmt.str "W%d<-%s" r (src_to_string s)
  | Scan (off, len) -> Fmt.str "S%d+%d" off len
  | Loop (count, body) ->
    Fmt.str "L%d[%s]" count (String.concat "; " (List.map step_to_string body))
  | Decide s -> Fmt.str "D %s" (src_to_string s)

let to_string (p : Shm.Vm.proto) =
  Fmt.str "r%d n%d : %s" p.registers p.n
    (String.concat "; " (List.map step_to_string p.steps))

(* ------------------------------------------------------------------ *)
(* Parsing: the exact inverse of [to_string], so corpus files and
   command lines round-trip. *)

exception Parse of string

let parse s =
  let len = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Parse (Fmt.str "%s at offset %d" msg !pos)) in
  let peek () = if !pos < len then Some s.[!pos] else None in
  let skip_ws () = while !pos < len && s.[!pos] = ' ' do incr pos done in
  let expect c =
    if peek () = Some c then incr pos
    else fail (Fmt.str "expected %C" c)
  in
  let int () =
    skip_ws ();
    let start = !pos in
    if peek () = Some '-' then incr pos;
    while !pos < len && s.[!pos] >= '0' && s.[!pos] <= '9' do incr pos done;
    if !pos = start || (s.[start] = '-' && !pos = start + 1) then
      fail "expected integer";
    int_of_string (String.sub s start (!pos - start))
  in
  let src () : Shm.Vm.src =
    skip_ws ();
    match peek () with
    | Some ('-' | '0' .. '9') -> Const (int ())
    | _ ->
      let start = !pos in
      while !pos < len && s.[!pos] >= 'a' && s.[!pos] <= 'z' do incr pos done;
      (match String.sub s start (!pos - start) with
      | "in" -> Input
      | "last" -> Last
      | w -> fail (Fmt.str "unknown source %S" w))
  in
  let rec step () : Shm.Vm.step =
    skip_ws ();
    match peek () with
    | Some 'R' ->
      incr pos;
      Read (int ())
    | Some 'W' ->
      incr pos;
      let r = int () in
      expect '<';
      expect '-';
      Write (r, src ())
    | Some 'S' ->
      incr pos;
      let off = int () in
      expect '+';
      Scan (off, int ())
    | Some 'L' ->
      incr pos;
      let count = int () in
      expect '[';
      let body = if peek () = Some ']' then [] else steps () in
      skip_ws ();
      expect ']';
      Loop (count, body)
    | Some 'D' ->
      incr pos;
      Decide (src ())
    | _ -> fail "expected a step (R/W/S/L/D)"
  and steps () =
    let acc = ref [ step () ] in
    skip_ws ();
    while peek () = Some ';' do
      incr pos;
      acc := step () :: !acc;
      skip_ws ()
    done;
    List.rev !acc
  in
  match
    skip_ws ();
    expect 'r';
    let registers = int () in
    skip_ws ();
    expect 'n';
    let n = int () in
    skip_ws ();
    expect ':';
    skip_ws ();
    let steps = if !pos >= len then [] else steps () in
    skip_ws ();
    if !pos <> len then fail "trailing input";
    if registers < 1 then fail "registers must be >= 1";
    if n < 1 then fail "n must be >= 1";
    ({ registers; n; steps } : Shm.Vm.proto)
  with
  | p -> Ok p
  | exception Parse msg -> Error msg
  | exception Failure _ -> Error "integer out of range"

(* ------------------------------------------------------------------ *)
(* Control-flow graphs over program points                             *)

type pop =
  | PRead of int
  | PWrite of int * Shm.Vm.src
  | PScan of int * int
  | PDecide of Shm.Vm.src

type point = { op : pop; succs : int list }

type cfg = { points : point array; reachable : bool array }

let pop_to_string = function
  | PRead r -> Fmt.str "R%d" r
  | PWrite (r, s) -> Fmt.str "W%d<-%s" r (src_to_string s)
  | PScan (off, len) -> Fmt.str "S%d+%d" off len
  | PDecide s -> Fmt.str "D %s" (src_to_string s)

(* Flatten the step list into points, one per Read/Write/Scan/Decide
   occurrence (loop bodies once, not per iteration).  [Loop (c, body)]
   with c >= 1 contributes body entry edges, a back edge from the body
   exits when c >= 2, and a forward edge past the loop; c <= 0 is a
   bypass.  [Decide] is terminal — anything after it on the same path
   is dead code (emitted, marked unreachable). *)
let cfg_of_prog (p : Shm.Vm.proto) =
  let points = ref [] (* (id, pop) reversed *) in
  let next = ref 0 in
  let succs : (int, int list) Hashtbl.t = Hashtbl.create 16 in
  let emit op =
    let id = !next in
    incr next;
    points := (id, op) :: !points;
    id
  in
  let connect srcs dst =
    List.iter
      (fun s ->
        let cur = Option.value (Hashtbl.find_opt succs s) ~default:[] in
        if not (List.mem dst cur) then Hashtbl.replace succs s (dst :: cur))
      srcs
  in
  (* [pending] are point ids whose successor is the next point emitted;
     returns the dangling ids at the end of [steps]. *)
  let rec seq steps pending =
    match steps with
    | [] -> pending
    | st :: tl -> (
      match (st : Shm.Vm.step) with
      | Read r ->
        let id = emit (PRead r) in
        connect pending id;
        seq tl [ id ]
      | Write (r, s) ->
        let id = emit (PWrite (r, s)) in
        connect pending id;
        seq tl [ id ]
      | Scan (off, len) ->
        let id = emit (PScan (off, len)) in
        connect pending id;
        seq tl [ id ]
      | Decide s ->
        let id = emit (PDecide s) in
        connect pending id;
        (* terminal: the tail is dead code; compile it disconnected *)
        ignore (seq tl []);
        []
      | Loop (count, body) ->
        if count <= 0 || body = [] then seq tl pending
        else begin
          let bentry = !next in
          let exits = seq body pending in
          if !next = bentry then seq tl exits
          else begin
            if count >= 2 then connect exits bentry;
            seq tl exits
          end
        end)
  in
  let final = seq p.steps [ -1 ] in
  ignore final;
  let n = !next in
  let arr = Array.make n { op = PDecide Shm.Vm.Last; succs = [] } in
  List.iter
    (fun (id, op) ->
      let ss =
        Option.value (Hashtbl.find_opt succs id) ~default:[] |> List.sort compare
      in
      arr.(id) <- { op; succs = ss })
    !points;
  (* reachability from the entry (point 0, when it exists) *)
  let reachable = Array.make n false in
  let rec visit id =
    if id >= 0 && id < n && not (reachable.(id)) then begin
      reachable.(id) <- true;
      List.iter visit arr.(id).succs
    end
  in
  if n > 0 then visit 0;
  { points = arr; reachable }

let pp_cfg ppf cfg =
  Array.iteri
    (fun id (pt : point) ->
      Fmt.pf ppf "%3d%s %-10s -> [%a]@." id
        (if cfg.reachable.(id) then " " else "x")
        (pop_to_string pt.op)
        Fmt.(list ~sep:(any ",") int)
        pt.succs)
    cfg.points
