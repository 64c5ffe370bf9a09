(* Deterministic corpus with well-formedness-preserving mutations.

   All randomness flows from the single PRNG created with the seed;
   nothing here reads clocks, addresses, or global state, which is
   what makes a whole campaign replayable from (seed, budget). *)

type entry = { program : Gen.program; schedule : Gen.schedule; credit : int }

type t = {
  rng : Shm.Rng.t;
  mutable items : entry list;  (* newest first *)
  mutable total_credit : int;
}

let create ~seed () = { rng = Shm.Rng.create seed; items = []; total_credit = 0 }

let size t = List.length t.items

let entries t = List.rev t.items

(* ------------------------------------------------------------------ *)
(* Mutation operators.  Each preserves the Gen invariants: indices in
   [0, registers), scan ranges fitted, loops bounded, so mutated
   programs are exactly as well-formed as generated ones. *)

let take k l = List.filteri (fun i _ -> i < k) l

let drop k l = List.filteri (fun i _ -> i >= k) l

(* Re-fit every access of [steps] into [registers] (used when a splice
   or renumber changes the frame).  Scan lengths are clamped to the
   space left of their offset. *)
let rec refit ~registers steps =
  List.map
    (function
      | Shm.Vm.Read r -> Shm.Vm.Read (r mod registers)
      | Shm.Vm.Write (r, s) -> Shm.Vm.Write (r mod registers, s)
      | Shm.Vm.Scan (off, len) ->
        let off = off mod registers in
        Shm.Vm.Scan (off, min len (registers - off))
      | Shm.Vm.Loop (c, body) -> Shm.Vm.Loop (c, refit ~registers body)
      | Shm.Vm.Decide s -> Shm.Vm.Decide s)
    steps

let splice rng (a : Gen.program) (b : Gen.program) =
  let registers = max a.Gen.registers b.Gen.registers in
  let cut xs = Shm.Rng.int rng (1 + List.length xs) in
  let head = take (cut a.Gen.steps) a.Gen.steps in
  let tail = drop (cut b.Gen.steps) b.Gen.steps in
  let steps = refit ~registers (head @ tail) in
  let steps = if steps = [] then [ Shm.Vm.Decide Shm.Vm.Last ] else steps in
  { Gen.registers; n = (if Shm.Rng.bool rng then a.Gen.n else b.Gen.n); steps }

let insert_step rng (p : Gen.program) =
  let s =
    (* draw through a 1-step generated program so loop nesting and
       range invariants come from the one generator *)
    match
      (Gen.generate ~sizes:{ Gen.default_sizes with Gen.max_steps = 1 } rng).Gen.steps
    with
    | s :: _ -> refit ~registers:p.Gen.registers [ s ]
    | [] -> []
  in
  let at = Shm.Rng.int rng (1 + List.length p.Gen.steps) in
  { p with Gen.steps = take at p.Gen.steps @ s @ drop at p.Gen.steps }

let delete_step rng (p : Gen.program) =
  match p.Gen.steps with
  | [] | [ _ ] -> p
  | steps ->
    let at = Shm.Rng.int rng (List.length steps) in
    { p with Gen.steps = List.filteri (fun i _ -> i <> at) steps }

let renumber rng (p : Gen.program) =
  let perm = Array.init p.Gen.registers Fun.id in
  Shm.Rng.shuffle rng perm;
  let rec go steps =
    List.map
      (function
        | Shm.Vm.Read r -> Shm.Vm.Read perm.(r)
        | Shm.Vm.Write (r, s) -> Shm.Vm.Write (perm.(r), s)
        | Shm.Vm.Scan (off, len) ->
          (* a permuted range need not stay contiguous; renumber the
             offset and re-fit the length instead *)
          let off = perm.(off) in
          Shm.Vm.Scan (off, min len (p.Gen.registers - off))
        | Shm.Vm.Loop (c, body) -> Shm.Vm.Loop (c, go body)
        | Shm.Vm.Decide s -> Shm.Vm.Decide s)
      steps
  in
  { p with Gen.steps = go p.Gen.steps }

let mutate_schedule rng ~n sched =
  match Shm.Rng.int rng 3 with
  | 0 ->
    (* splice with a fresh tail *)
    let head = take (Shm.Rng.int rng (1 + List.length sched)) sched in
    head @ Gen.gen_schedule rng ~n
  | 1 ->
    let at = Shm.Rng.int rng (1 + List.length sched) in
    take at sched @ (Shm.Rng.int rng n :: drop at sched)
  | _ -> (
    match sched with
    | [] | [ _ ] -> Gen.gen_schedule rng ~n
    | _ ->
      let at = Shm.Rng.int rng (List.length sched) in
      List.filteri (fun i _ -> i <> at) sched)

(* ------------------------------------------------------------------ *)
(* Selection and admission *)

let pick_biased t =
  (* roulette over credit: entries that opened more coverage get
     proportionally more mutation budget *)
  let total = max 1 t.total_credit in
  let target = Shm.Rng.int t.rng total in
  let rec go acc = function
    | [] -> List.hd t.items
    | e :: tl -> if acc + e.credit > target then e else go (acc + e.credit) tl
  in
  go 0 t.items

let next t =
  if t.items = [] || Shm.Rng.int t.rng 4 = 0 then begin
    let p = Gen.generate t.rng in
    (p, Gen.gen_schedule t.rng ~n:p.Gen.n)
  end
  else begin
    let e = pick_biased t in
    let p =
      match Shm.Rng.int t.rng 5 with
      | 0 ->
        let other =
          if t.items = [] then e.program else (pick_biased t).program
        in
        splice t.rng e.program other
      | 1 -> insert_step t.rng e.program
      | 2 -> delete_step t.rng e.program
      | 3 -> renumber t.rng e.program
      | _ -> e.program (* keep the program, mutate only the schedule *)
    in
    let sched = mutate_schedule t.rng ~n:p.Gen.n e.schedule in
    (p, sched)
  end

let record t program schedule ~credit =
  if credit > 0 then begin
    t.items <- { program; schedule; credit } :: t.items;
    t.total_credit <- t.total_credit + credit
  end

(* ------------------------------------------------------------------ *)
(* Corpus files: one `credit | program | schedule` line per entry. *)

let save path entries =
  try
    Out_channel.with_open_text path (fun oc ->
        List.iter
          (fun e ->
            Printf.fprintf oc "%d | %s | %s\n" e.credit (Analyze.Ir.to_string e.program)
              (Gen.schedule_to_string e.schedule))
          entries);
    Ok ()
  with Sys_error e -> Error e

let load ?(warn = prerr_endline) path =
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error e -> Error e
  | text ->
    let parse_line lineno line =
      let skip why =
        warn (Printf.sprintf "%s:%d: skipping %s" path lineno why);
        None
      in
      match String.split_on_char '|' line with
      | [ _credit; prog; sched ] -> (
        match
          (Analyze.Ir.parse (String.trim prog), Gen.schedule_of_string (String.trim sched))
        with
        | Ok p, Ok s -> Some (p, s)
        | Error msg, _ | _, Error msg -> skip ("corpus line (" ^ msg ^ ")"))
      | _ -> skip "malformed corpus line"
    in
    String.split_on_char '\n' text
    |> List.mapi (fun i line -> (i + 1, String.trim line))
    |> List.filter_map (fun (lineno, line) ->
           if line = "" || line.[0] = '#' then None else parse_line lineno line)
    |> Result.ok
