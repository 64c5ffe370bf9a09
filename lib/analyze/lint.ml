(* Well-formedness lints.  The abstract-interpretation rules reuse an
   Absint.summary; the solo-termination and anonymity rules run their
   own small *concrete* interpreters over the Program abstract-step
   hooks — exact, deterministic, and cheap because solo executions of
   obstruction-free algorithms are short. *)

type severity = Error | Warning | Info

type diag = {
  rule : string;
  severity : severity;
  message : string;
  witness : Absint.witness;
}

let severity_name = function
  | Error -> "error"
  | Warning -> "warning"
  | Info -> "info"

let errors ds = List.filter (fun d -> d.severity = Error) ds

let pp_diag ppf d =
  Fmt.pf ppf "@[<v2>[%s] %s: %s%a@]" (severity_name d.severity) d.rule
    d.message
    (fun ppf -> function
      | [] -> ()
      | w -> Fmt.pf ppf "@,%a" Absint.pp_witness w)
    d.witness

(* Long witness paths (solo runs are hundreds of steps) keep only both
   ends; [clip f] renders just the kept elements with [f]. *)
let clip f w =
  let n = List.length w in
  if n <= 14 then List.map f w
  else
    let keep lo hi = List.map f (List.filteri (fun i _ -> lo <= i && i < hi) w) in
    keep 0 6 @ (Fmt.str "... (%d steps elided)" (n - 12) :: keep (n - 6) n)

let clip_witness = clip Fun.id

(* One step of a concrete run, kept structured until a diagnostic
   keeps it: [who] is ["p<pid>"] or ["both"], [note] tags invocations. *)
type step = Invoke of int * Shm.Value.t | Output of Shm.Value.t | Op of Shm.Program.op

let render_step ~who ~note = function
  | Invoke (inst, v) -> Fmt.str "%s: invoke #%d %a (%s)" who inst Shm.Value.pp v note
  | Output v -> Fmt.str "%s: output %a" who Shm.Value.pp v
  | Op op -> Fmt.str "%s: %a" who Shm.Program.pp_op op

(* ------------------------------------------------------------------ *)
(* Rules over an existing abstract summary.                            *)

let of_summary (s : Absint.summary) =
  let per =
    Array.to_list s.per_process
    |> List.concat_map (fun (p : Absint.process_summary) ->
           let oob =
             List.map
               (fun (descr, wit) ->
                 {
                   rule = "space/out-of-bounds";
                   severity = Error;
                   message =
                     Fmt.str
                       "process %d accesses memory outside registers [0, %d): \
                        %s"
                       p.pid s.registers descr;
                   witness = clip_witness wit;
                 })
               p.oob
           in
           let wad =
             match p.write_after_decide with
             | None -> []
             | Some wit ->
                 [
                   {
                     rule = "decide/write-after-decide";
                     severity = Error;
                     message =
                       Fmt.str
                         "process %d writes shared memory after outputting \
                          and before its next invocation"
                         p.pid;
                     witness = clip_witness wit;
                   };
                 ]
           in
           let aborted =
             List.map
               (fun (descr, wit) ->
                 {
                   rule = "absint/path-abandoned";
                   severity = Info;
                   message = Fmt.str "process %d: %s" p.pid descr;
                   witness = clip_witness wit;
                 })
               p.aborted
           in
           oob @ wad @ aborted)
  in
  let widened =
    if s.widened then
      [
        {
          rule = "absint/widened";
          severity = Warning;
          message =
            "some value set hit the widening cap; value coverage is \
             incomplete (register coverage is unaffected)";
          witness = [];
        };
      ]
    else []
  in
  per @ widened

(* ------------------------------------------------------------------ *)
(* Concrete solo interpretation.                                       *)

(* Solo runs are deterministic and linear, so fuel is cheap: give the
   lint 4x the abstract widening depth before calling a loop
   unbounded. *)
let default_fuel config =
  let registers = Shm.Memory.size (Shm.Config.mem config) in
  let n = Shm.Config.n config in
  4 * (Absint.budgets_for ~registers ~n).max_depth

(* Execute [prog] solo against concrete memory [mem]; returns
   [`Output rest], [`Stop], or a failure with its chronological steps.
   The steps are accumulated in reverse in [wit]. *)
let rec solo_step ~registers ~fuel mem prog wit =
  if fuel <= 0 then `Fuel (List.rev wit)
  else
    match prog with
    | Shm.Program.Stop -> `Stop
    | Shm.Program.Await _ -> `Idle prog
    | Shm.Program.Yield (_, rest) -> `Output rest
    | Shm.Program.Op (op, _) -> (
        let wit = Op op :: wit in
        match
          match op with
          | Shm.Program.Read r ->
              if r < 0 || r >= registers then `Oob
              else `Go (Shm.Program.feed_read prog (Shm.Memory.read !mem r))
          | Shm.Program.Write (r, v) ->
              if r < 0 || r >= registers then `Oob
              else begin
                mem := Shm.Memory.write !mem r v;
                `Go (Shm.Program.feed_write_ack prog)
              end
          | Shm.Program.Scan (off, len) ->
              if off < 0 || len < 0 || off + len > registers then `Oob
              else `Go (Shm.Program.feed_scan prog (Shm.Memory.scan !mem ~off ~len))
        with
        | `Oob -> `Oob (List.rev wit)
        | `Go None -> `Shape (List.rev wit)
        | `Go (Some p') -> solo_step ~registers ~fuel:(fuel - 1) mem p' wit
        | exception e -> `Exn (e, List.rev wit))

(* Concrete solo execution of every process ([default_fuel] ops per
   invocation, each process proposing [Runner.default_input]); diagnoses
   [loop/unbounded-solo]. *)
let solo_termination ~rounds config =
  let registers = Shm.Memory.size (Shm.Config.mem config) in
  let fuel = default_fuel config in
  let inputs = Agreement.Runner.default_input in
  let n = Shm.Config.n config in
  let diags = ref [] in
  let emit d = diags := !diags @ [ d ] in
  for pid = 0 to n - 1 do
    let mem = ref (Shm.Memory.create registers) in
    let prog = ref (Shm.Config.proc config pid) in
    let inst = ref 0 in
    let stop = ref false in
    while (not !stop) && !inst < rounds do
      (match !prog with
      | Shm.Program.Await _ -> (
          incr inst;
          let v = inputs ~pid ~instance:!inst in
          match Shm.Program.start !prog v with
          | Some p -> prog := p
          | None -> stop := true)
      | _ -> ());
      if not !stop then begin
        let invoke = Invoke (!inst, inputs ~pid ~instance:!inst) in
        let witness = clip (render_step ~who:(Fmt.str "p%d" pid) ~note:"solo") in
        match solo_step ~registers ~fuel mem !prog [ invoke ] with
        | `Output rest -> prog := rest
        | `Stop | `Idle _ ->
            (* outputting is via Yield; Stop/idle without output is the
               oneshot tail after its final Yield — fine. *)
            stop := true
        | `Fuel wit ->
            emit
              {
                rule = "loop/unbounded-solo";
                severity = Error;
                message =
                  Fmt.str
                    "process %d running solo performs %d steps in instance \
                     %d without outputting or halting"
                    pid fuel !inst;
                witness = witness wit;
              };
            stop := true
        | `Oob wit ->
            emit
              {
                rule = "space/out-of-bounds";
                severity = Error;
                message =
                  Fmt.str
                    "process %d (solo run) accesses memory outside \
                     registers [0, %d)"
                    pid registers;
                witness = witness wit;
              };
            stop := true
        | `Shape wit | `Exn (_, wit) ->
            emit
              {
                rule = "loop/unbounded-solo";
                severity = Warning;
                message =
                  Fmt.str "process %d: solo run aborted before outputting"
                    pid;
                witness = witness wit;
              };
            stop := true
      end
    done
  done;
  !diags

(* ------------------------------------------------------------------ *)
(* Anonymity: lockstep differential execution.                         *)

let anonymity ?(rounds = 1) config =
  let n = Shm.Config.n config in
  if n < 2 then []
  else begin
    let registers = Shm.Memory.size (Shm.Config.mem config) in
    let fuel = 2 * default_fuel config in
    let input = Shm.Value.int 1 in
    let mem = ref (Shm.Memory.create registers) in
    let violation = ref None in
    let wit = ref [] in
    let push d = wit := d :: !wit in
    let diverge msg =
      if !violation = None then violation := Some (msg, List.rev !wit)
    in
    let p0 = ref (Shm.Config.proc config 0) in
    let p1 = ref (Shm.Config.proc config 1) in
    let inst = ref 0 in
    let steps = ref 0 in
    let stop = ref false in
    while (not !stop) && !violation = None && !steps < fuel do
      incr steps;
      match (!p0, !p1) with
      | Shm.Program.Stop, Shm.Program.Stop -> stop := true
      | Shm.Program.Await _, Shm.Program.Await _ ->
          if !inst >= rounds then stop := true
          else begin
            incr inst;
            push (Invoke (!inst, input));
            match
              (Shm.Program.start !p0 input, Shm.Program.start !p1 input)
            with
            | Some a, Some b ->
                p0 := a;
                p1 := b
            | _ -> stop := true
          end
      | Shm.Program.Yield (v0, r0), Shm.Program.Yield (v1, r1) ->
          push (Output v0);
          if not (Shm.Value.equal v0 v1) then
            diverge
              (Fmt.str "outputs differ under identical inputs: %a vs %a"
                 Shm.Value.pp v0 Shm.Value.pp v1)
          else begin
            p0 := r0;
            p1 := r1
          end
      | Shm.Program.Op (op0, _), Shm.Program.Op (op1, _) -> (
          push (Op op0);
          let feed_both f =
            match (f !p0, f !p1) with
            | Some a, Some b ->
                p0 := a;
                p1 := b
            | _ -> stop := true
            | exception _ -> stop := true
          in
          match (op0, op1) with
          | Shm.Program.Read a, Shm.Program.Read b when a = b ->
              if a >= 0 && a < registers then
                feed_both (fun p ->
                    Shm.Program.feed_read p (Shm.Memory.read !mem a))
              else stop := true
          | Shm.Program.Scan (o0, l0), Shm.Program.Scan (o1, l1)
            when o0 = o1 && l0 = l1 ->
              if o0 >= 0 && l0 >= 0 && o0 + l0 <= registers then
                feed_both (fun p ->
                    Shm.Program.feed_scan p (Shm.Memory.scan !mem ~off:o0 ~len:l0))
              else stop := true
          | Shm.Program.Write (r0, v0), Shm.Program.Write (r1, v1)
            when r0 = r1 && Shm.Value.equal v0 v1 ->
              if r0 >= 0 && r0 < registers then begin
                mem := Shm.Memory.write !mem r0 v0;
                feed_both Shm.Program.feed_write_ack
              end
              else stop := true
          | Shm.Program.Write (r0, v0), Shm.Program.Write (r1, v1)
            when r0 = r1 ->
              diverge
                (Fmt.str
                   "written values differ under identical executions: R%d \
                    := %a vs %a — the value construction depends on the \
                    process identity"
                   r0 Shm.Value.pp v0 Shm.Value.pp v1)
          | _ ->
              diverge
                (Fmt.str
                   "operations diverge under identical executions: %a vs %a"
                   Shm.Program.pp_op op0 Shm.Program.pp_op op1))
      | _ ->
          diverge
            "control shape diverges under identical executions (one \
             process outputs/halts while the other does not)"
    done;
    match !violation with
    | None -> []
    | Some (msg, w) ->
        [
          {
            rule = "anon/pid-dependent-value";
            severity = Error;
            message = msg;
            witness = clip (render_step ~who:"both" ~note:"identical input") w;
          };
        ]
  end

(* ------------------------------------------------------------------ *)
(* The flow/* rules, read off a first-order protocol's dataflow facts   *)

(* Shortest entry path to a point, rendered one step per line — the
   same witness shape the abstract interpreter produces. *)
let witness_to (cfg : Ir.cfg) target =
  let n = Array.length cfg.points in
  if target < 0 || target >= n || not cfg.reachable.(target) then []
  else begin
    let prev = Array.make n (-2) in
    prev.(0) <- -1;
    let q = Queue.create () in
    Queue.push 0 q;
    let rec bfs () =
      if Queue.is_empty q then ()
      else
        let id = Queue.pop q in
        if id = target then ()
        else begin
          List.iter
            (fun s ->
              if prev.(s) = -2 then begin
                prev.(s) <- id;
                Queue.push s q
              end)
            cfg.points.(id).succs;
          bfs ()
        end
    in
    bfs ();
    let rec path id acc =
      if id < 0 then acc else path prev.(id) (id :: acc)
    in
    if prev.(target) = -2 then []
    else
      List.map
        (fun id ->
          Fmt.str "point %d: %s" id (Ir.pop_to_string cfg.points.(id).op))
        (path target [])
  end

let flow d =
  let cfg = d.Dataflow.cfg in
  let find_write_point r =
    let found = ref None in
    Array.iteri
      (fun id (pt : Ir.point) ->
        if !found = None && cfg.Ir.reachable.(id) then
          match pt.Ir.op with
          | Ir.PWrite (r', _) when r' = r -> found := Some id
          | _ -> ())
      cfg.Ir.points;
    !found
  in
  let dead =
    List.filter_map
      (fun r ->
        Option.map
          (fun id ->
            {
              rule = "flow/dead-register-write";
              severity = Warning;
              message =
                Fmt.str
                  "register R%d is written but no process ever reads it — \
                   the write at point %d is unobservable"
                  r id;
              witness = witness_to cfg id;
            })
          (find_write_point r))
      (Dataflow.dead_regs d)
  in
  let redundant =
    List.map
      (fun id ->
        let what =
          match cfg.Ir.points.(id).Ir.op with
          | Ir.PScan (_, 0) -> "zero-length scan observes nothing"
          | Ir.PScan _ -> "scan result is never consumed"
          | _ -> "read result is never consumed"
        in
        {
          rule = "flow/redundant-scan";
          severity = Warning;
          message = Fmt.str "point %d: %s (dead observation)" id what;
          witness = witness_to cfg id;
        })
      (Dataflow.redundant_points d)
  in
  let consts =
    List.filter_map
      (fun (r, v) ->
        Option.map
          (fun id ->
            {
              rule = "flow/constant-register";
              severity = Info;
              message =
                Fmt.str
                  "register R%d always holds %a once written — every write \
                   stores the same value"
                  r Shm.Value.pp v;
              witness = witness_to cfg id;
            })
          (find_write_point r))
      (Dataflow.const_regs d)
  in
  dead @ redundant @ consts

(* ------------------------------------------------------------------ *)

let check ?budgets ?(rounds = 1) ?summary ~anonymous config =
  let summary =
    match summary with
    | Some s -> s
    | None -> Absint.analyze ?budgets ~rounds config
  in
  let diags =
    of_summary summary
    @ solo_termination ~rounds config
    @ (if anonymous then anonymity ~rounds config else [])
  in
  (summary, diags)
