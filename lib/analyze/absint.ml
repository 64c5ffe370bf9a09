(* Abstract interpretation of process programs: drive each program's
   opaque continuations with fabricated results drawn from a shared
   collecting memory (Absdom), accumulate read/write footprints, and
   iterate to a joint fixpoint so values flow between processes.  See
   absint.mli and docs/ANALYSIS.md for the soundness statement. *)

module IntSet = Set.Make (Int)

type witness = string list

type budgets = {
  max_depth : int;
  max_forks : int;
  branch_width : int;
  exhaustive_cap : int;
  max_steps_per_pass : int;
  max_passes : int;
  set_cap : int;
}

(* Depth must cover a full solo completion of the costliest registry
   algorithm: the Figure 4 construction over single-writer snapshots
   performs ~4n+6 ops per adopt/advance iteration for up to ~3n
   iterations (r = n+2m−k ≤ 3n), i.e. Θ(n²); the register count bounds
   the cheap cases.  8·registers + 14·n² with a constant floor covers
   both with slack. *)
let budgets_for ~registers ~n =
  let registers = max registers 1 and n = max n 1 in
  {
    max_depth = 64 + (8 * registers) + (14 * n * n);
    max_forks = 2;
    branch_width = 3;
    exhaustive_cap = 3;
    max_steps_per_pass = 200_000;
    max_passes = 4;
    set_cap = 24;
  }

let exhaustive ~registers ~n =
  let b = budgets_for ~registers ~n in
  {
    b with
    max_forks = 1_000;
    branch_width = 64;
    exhaustive_cap = 64;
    max_passes = 6;
    set_cap = 64;
  }

(* One step of an explored path, kept structured: the path is consed on
   every abstract step, but rendered to a [witness] only when a
   diagnostic stores it, so the common case allocates one cell and
   formats nothing.  A first-write path is stored as it is and rendered
   by [write_witness] on demand. *)
type event =
  | Invoke of int * Shm.Value.t  (* instance, input *)
  | Output of Shm.Value.t
  | Step of Shm.Program.op

(* reversed: newest step first *)
type path = event list

type process_summary = {
  pid : int;
  reads : IntSet.t;
  writes : IntSet.t;
  write_witness : (int * path) list;
  oob : (string * witness) list;
  write_after_decide : witness option;
  yields : int;
  halted : bool;
  truncated : bool;
  aborted : (string * witness) list;
}

type summary = {
  registers : int;
  per_process : process_summary array;
  reads : IntSet.t;
  writes : IntSet.t;
  dead : IntSet.t;
  converged : bool;
  widened : bool;
  passes : int;
  steps : int;
  lookups : int;
  recomputes : int;
}

(* Mutable accumulator per process, shared by every pass: footprints
   and diagnostics only ever grow, which is what makes the fixpoint
   check a comparison of cardinalities. *)
type acc = {
  a_pid : int;
  mutable a_reads : IntSet.t;
  mutable a_writes : IntSet.t;
  mutable a_wwit : (int * path) list;
  mutable a_oob : (string * witness) list;
  mutable a_wad : witness option;
  mutable a_yields : int;
  mutable a_halted : bool;
  mutable a_truncated : bool;
  mutable a_aborted : (string * witness) list;
}

let fresh_acc pid =
  {
    a_pid = pid;
    a_reads = IntSet.empty;
    a_writes = IntSet.empty;
    a_wwit = [];
    a_oob = [];
    a_wad = None;
    a_yields = 0;
    a_halted = false;
    a_truncated = false;
    a_aborted = [];
  }

let descr_of pid what = Fmt.str "p%d: %s" pid what

let descr_event pid = function
  | Invoke (inst, v) ->
    descr_of pid (Fmt.str "invoke #%d %a" inst Shm.Value.pp v)
  | Output v -> descr_of pid (Fmt.str "output %a" Shm.Value.pp v)
  | Step op -> descr_of pid (Fmt.str "%a" Shm.Program.pp_op op)

(* [path] is reversed; the witness is chronological. *)
let render pid path = List.rev_map (descr_event pid) path

(* Diagnostic lists are capped so pathological programs can't grow
   unbounded witness state across passes. *)
let diag_cap = 32

let record diags pid descr path =
  if List.length diags < diag_cap
     && not (List.exists (fun (d, _) -> String.equal d descr) diags)
  then diags @ [ (descr, render pid path) ]
  else diags

let record_oob acc descr path =
  acc.a_oob <- record acc.a_oob acc.a_pid descr path

let record_abort acc descr path =
  acc.a_aborted <- record acc.a_aborted acc.a_pid descr path

(* One pass of path exploration for a single process.  [path] is the
   reversed path so far; [forks] counts branching choice points on the
   current path; [decided] is set between a Yield and the next
   Await/Stop (the write-after-decide window); [just_wrote] is the last
   value this path wrote (feeds the uniform-own scan template). *)
let explore ~b ~mem ~registers ~inputs ~rounds acc prog0 =
  let steps = ref 0 in
  let rec go prog ~depth ~forks ~decided ~inst ~just_wrote ~path =
    if depth >= b.max_depth || !steps >= b.max_steps_per_pass then
      acc.a_truncated <- true
    else begin
      incr steps;
      match prog with
      | Shm.Program.Stop -> acc.a_halted <- true
      | Shm.Program.Await _ ->
        if inst < rounds then begin
          let alts = inputs ~pid:acc.a_pid ~instance:(inst + 1) in
          branch prog alts ~forks ~width:b.branch_width (fun v forks ->
              match Shm.Program.start prog v with
              | Some p' ->
                go p' ~depth:(depth + 1) ~forks ~decided:false
                  ~inst:(inst + 1) ~just_wrote
                  ~path:(Invoke (inst + 1, v) :: path)
              | None -> ())
        end
      | Shm.Program.Yield (v, rest) ->
        acc.a_yields <- acc.a_yields + 1;
        go rest ~depth:(depth + 1) ~forks ~decided:true ~inst ~just_wrote
          ~path:(Output v :: path)
      | Shm.Program.Op (op, _) ->
        let ev = Step op in
        let path' = ev :: path in
        let descr () = descr_event acc.a_pid ev in
        let continue next ~forks ~just_wrote =
          match next with
          | Some p' ->
            go p' ~depth:(depth + 1) ~forks ~decided ~inst ~just_wrote
              ~path:path'
          | None -> record_abort acc (descr () ^ " (result shape)") path'
        in
        let apply f ~forks ~just_wrote =
          (* The continuation is the algorithm's own code; abstract
             value mixes can violate its decode invariants.  Such an
             exception kills one explored path, not the analysis. *)
          match f () with
          | next -> continue next ~forks ~just_wrote
          | exception e ->
            record_abort acc
              (Fmt.str "%s (path abandoned: %s)" (descr ())
                 (Printexc.to_string e))
              path'
        in
        (match op with
        | Shm.Program.Read r ->
          if r < 0 || r >= registers then record_oob acc (descr ()) path'
          else begin
            acc.a_reads <- IntSet.add r acc.a_reads;
            let alts = Absdom.read_alternatives mem ~width:b.branch_width r in
            branch prog alts ~forks ~width:b.branch_width (fun v forks ->
                apply (fun () -> Shm.Program.feed_read prog v) ~forks
                  ~just_wrote)
          end
        | Shm.Program.Write (r, v) ->
          if decided && Option.is_none acc.a_wad then
            acc.a_wad <- Some (render acc.a_pid path');
          if r < 0 || r >= registers then record_oob acc (descr ()) path'
          else begin
            if not (IntSet.mem r acc.a_writes) then
              acc.a_wwit <- (r, path') :: acc.a_wwit;
            acc.a_writes <- IntSet.add r acc.a_writes;
            Absdom.add mem r v;
            apply
              (fun () -> Shm.Program.feed_write_ack prog)
              ~forks ~just_wrote:(Some v)
          end
        | Shm.Program.Scan (off, len) ->
          if off < 0 || len < 0 || off + len > registers then
            record_oob acc (descr ()) path'
          else begin
            for i = off to off + len - 1 do
              acc.a_reads <- IntSet.add i acc.a_reads
            done;
            let views =
              Absdom.scan_views mem ~width:b.branch_width
                ~exhaustive_cap:b.exhaustive_cap ?just_wrote ~off ~len ()
            in
            branch prog views ~forks ~width:b.branch_width (fun view forks ->
                apply (fun () -> Shm.Program.feed_scan prog view) ~forks
                  ~just_wrote)
          end)
    end
  (* Explore [alts] (preferred first).  Taking more than one alternative
     consumes a fork; once the path's fork budget is spent only the
     preferred alternative is followed. *)
  and branch : 'a. Shm.Program.t -> 'a list -> forks:int -> width:int ->
      ('a -> int -> unit) -> unit =
   fun _prog alts ~forks ~width k ->
    match alts with
    | [] -> ()
    | [ v ] -> k v forks
    | v :: _ when forks >= b.max_forks -> k v forks
    | _ ->
      List.iteri (fun i v -> if i < width then k v (forks + 1)) alts
  in
  go prog0 ~depth:0 ~forks:0 ~decided:false ~inst:0 ~just_wrote:None
    ~path:[];
  !steps

let default_inputs ~pid ~instance =
  [ Agreement.Runner.default_input ~pid ~instance ]

(* Fingerprint of everything monotone: when a full pass leaves it
   unchanged, another pass explores the exact same paths. *)
let fingerprint mem accs =
  let per_acc a =
    ( IntSet.cardinal a.a_reads,
      IntSet.cardinal a.a_writes,
      List.length a.a_oob,
      List.length a.a_aborted,
      a.a_wad <> None,
      a.a_halted )
  in
  (Absdom.version mem, Array.map per_acc accs)

let analyze ?budgets ?(inputs = default_inputs) ?(rounds = 1) config =
  let registers = Shm.Memory.size (Shm.Config.mem config) in
  let n = Shm.Config.n config in
  let b =
    match budgets with Some b -> b | None -> budgets_for ~registers ~n
  in
  let mem = Absdom.create ~registers ~set_cap:b.set_cap in
  let accs = Array.init n fresh_acc in
  let total_steps = ref 0 in
  let passes = ref 0 in
  let converged = ref false in
  while (not !converged) && !passes < b.max_passes do
    let before = fingerprint mem accs in
    for pid = 0 to n - 1 do
      total_steps :=
        !total_steps
        + explore ~b ~mem ~registers ~inputs ~rounds accs.(pid)
            (Shm.Config.proc config pid)
    done;
    incr passes;
    if fingerprint mem accs = before then converged := true
  done;
  let per_process =
    Array.map
      (fun a ->
        {
          pid = a.a_pid;
          reads = a.a_reads;
          writes = a.a_writes;
          write_witness = a.a_wwit;
          oob = a.a_oob;
          write_after_decide = a.a_wad;
          yields = a.a_yields;
          halted = a.a_halted;
          truncated = a.a_truncated;
          aborted = a.a_aborted;
        })
      accs
  in
  let union f =
    Array.fold_left (fun s p -> IntSet.union s (f p)) IntSet.empty per_process
  in
  let reads = union (fun p -> p.reads) in
  let writes = union (fun p -> p.writes) in
  let dead =
    IntSet.filter
      (fun r -> not (IntSet.mem r writes))
      (IntSet.of_list (List.init registers Fun.id))
  in
  {
    registers;
    per_process;
    reads;
    writes;
    dead;
    converged = !converged;
    widened = Absdom.widened mem;
    passes = !passes;
    steps = !total_steps;
    lookups = Absdom.lookups mem;
    recomputes = Absdom.recomputes mem;
  }

let write_witness s r =
  Array.fold_left
    (fun found p ->
      match found with
      | Some _ -> found
      | None -> Option.map (render p.pid) (List.assoc_opt r p.write_witness))
    None s.per_process

let pp_witness ppf w =
  Fmt.pf ppf "@[<v>%a@]" Fmt.(list ~sep:cut string) w
