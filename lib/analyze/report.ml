(* Static-vs-paper-vs-dynamic rows; see report.mli. *)

type row = {
  algo : string;
  params : Agreement.Params.t;
  registers : int;
  bound : int;
  bound_label : string;
  static_writes : int;
  static_reads : int;
  dynamic_writes : int;
  static_within_bound : bool;
  dynamic_within_static : bool;
  lint_errors : int;
  diags : Lint.diag list;
  converged : bool;
  widened : bool;
  passes : int;
  steps : int;
  ok : bool;
}

let analyzed ?(dynamic = true) (e : Registry.entry) p =
  let config = e.config p in
  let summary, diags =
    Lint.check ~rounds:e.rounds ~anonymous:e.anonymous config
  in
  let static_set = summary.Absint.writes in
  let dynamic_set =
    if dynamic then Registry.measure_dynamic e p else Absint.IntSet.empty
  in
  let bound = e.bound p in
  let static_writes = Absint.IntSet.cardinal static_set in
  let lint_errors = List.length (Lint.errors diags) in
  let static_within_bound = static_writes <= bound in
  let dynamic_within_static = Absint.IntSet.subset dynamic_set static_set in
  ( {
      algo = e.name;
      params = p;
      registers = e.registers p;
      bound;
      bound_label = e.bound_label;
      static_writes;
      static_reads = Absint.IntSet.cardinal summary.Absint.reads;
      dynamic_writes = Absint.IntSet.cardinal dynamic_set;
      static_within_bound;
      dynamic_within_static;
      lint_errors;
      diags;
      converged = summary.Absint.converged;
      widened = summary.Absint.widened;
      passes = summary.Absint.passes;
      steps = summary.Absint.steps;
      ok = static_within_bound && dynamic_within_static && lint_errors = 0;
    },
    summary )

let row_for ?dynamic e p = fst (analyzed ?dynamic e p)

let cells ~max_n ~algos =
  let entries =
    if algos = [] then Registry.all
    else List.filter (fun (e : Registry.entry) -> List.mem e.name algos) Registry.all
  in
  List.concat_map
    (fun (e : Registry.entry) ->
      Registry.grid ~max_n |> List.filter e.applicable |> List.map (fun p -> (e, p)))
    entries

type stats = { steps : int; passes : int; lookups : int; recomputes : int }

(* Summaries hold witness paths: fold them into the totals one row at a
   time rather than keeping them all until the sweep ends. *)
let measure ~dynamic cells =
  let add t (s : Absint.summary) =
    {
      steps = t.steps + s.steps;
      passes = t.passes + s.passes;
      lookups = t.lookups + s.lookups;
      recomputes = t.recomputes + s.recomputes;
    }
  in
  let rows, totals =
    List.fold_left
      (fun (rows, t) (e, p) ->
        let row, s = analyzed ~dynamic e p in
        (row :: rows, add t s))
      ([], { steps = 0; passes = 0; lookups = 0; recomputes = 0 })
      cells
  in
  (List.rev rows, totals)

let sweep ?(dynamic = true) ?(max_n = 6) () =
  fst (measure ~dynamic (cells ~max_n ~algos:[]))

let violations rows = List.filter (fun r -> not r.ok) rows

let diag_to_json (d : Lint.diag) =
  Obs.Json.Obj
    [
      ("rule", Obs.Json.String d.rule);
      ("severity", Obs.Json.String (Lint.severity_name d.severity));
      ("message", Obs.Json.String d.message);
      ( "witness",
        Obs.Json.Arr (List.map (fun s -> Obs.Json.String s) d.witness) );
    ]

let row_fields r =
  let { Agreement.Params.n; m; k } = r.params in
  [
    ("algo", Obs.Json.String r.algo);
    ("n", Obs.Json.Int n);
    ("m", Obs.Json.Int m);
    ("k", Obs.Json.Int k);
    ("registers", Obs.Json.Int r.registers);
    ("bound", Obs.Json.Int r.bound);
    ("bound_label", Obs.Json.String r.bound_label);
    ("static_writes", Obs.Json.Int r.static_writes);
    ("static_reads", Obs.Json.Int r.static_reads);
    ("dynamic_writes", Obs.Json.Int r.dynamic_writes);
    ("static_within_bound", Obs.Json.Bool r.static_within_bound);
    ("dynamic_within_static", Obs.Json.Bool r.dynamic_within_static);
    ("lint_errors", Obs.Json.Int r.lint_errors);
    ("converged", Obs.Json.Bool r.converged);
    ("widened", Obs.Json.Bool r.widened);
    ("passes", Obs.Json.Int r.passes);
    ("steps", Obs.Json.Int r.steps);
    ("ok", Obs.Json.Bool r.ok);
    ( "diags",
      Obs.Json.Arr
        (List.map diag_to_json
           (List.filter (fun (d : Lint.diag) -> d.severity <> Lint.Info)
              r.diags)) );
  ]

let row_to_json r = Obs.Json.Obj (row_fields r)

let bench_rows rows ~p mutants =
  let { Agreement.Params.n; m; k } = p in
  List.map (fun r -> Obs.Json.Obj (("kind", Obs.Json.String "sweep") :: row_fields r)) rows
  @ List.map
      (fun ((mu : Mutants.mutant), rejected) ->
        Obs.Json.Obj
          [
            ("kind", Obs.Json.String "mutant");
            ("algo", Obs.Json.String mu.name);
            ("n", Obs.Json.Int n);
            ("m", Obs.Json.Int m);
            ("k", Obs.Json.Int k);
            ("rejected", Obs.Json.Bool rejected);
          ])
      mutants

let protocol_row (prog : Shm.Vm.proto) (d : Dataflow.t) ~flow_diags opt =
  let ints l = Obs.Json.Arr (List.map (fun r -> Obs.Json.Int r) l) in
  Obs.Json.Obj
    ([
       ("kind", Obs.Json.String "protocol");
       ("protocol", Obs.Json.String (Ir.to_string prog));
       ("registers", Obs.Json.Int prog.registers);
       ("n", Obs.Json.Int prog.n);
       ("widened", Obs.Json.Bool d.widened);
       ("const_regs", ints (List.map fst (Dataflow.const_regs d)));
       ("dead_regs", ints (Dataflow.dead_regs d));
       ("flow_diags", Obs.Json.Int flow_diags);
     ]
    @
    match opt with
    | None -> []
    | Some (r : Optim.result) ->
      [
        ("optimized", Obs.Json.String (Ir.to_string r.optimized));
        ("folded", Obs.Json.Int r.folded);
        ("dropped", Obs.Json.Int r.dropped);
      ])

let pp_stats ppf s =
  Fmt.pf ppf
    "@[<v>analyze.absint_steps: %d@,analyze.absint_passes: %d@,\
     analyze.absdom_lookups: %d@,analyze.absdom_recomputes: %d@]"
    s.steps s.passes s.lookups s.recomputes

let pp_header ppf () =
  Fmt.pf ppf "%-10s %-12s %4s %6s %7s %7s %5s %s" "algo" "(n,m,k)" "regs"
    "bound" "static" "dynamic" "lint" "verdict"

let pp_row ppf r =
  let { Agreement.Params.n; m; k } = r.params in
  Fmt.pf ppf "%-10s (%d,%d,%d)%6s %4d %6d %7d %7d %5d %s" r.algo n m k ""
    r.registers r.bound r.static_writes r.dynamic_writes r.lint_errors
    (if r.ok then "ok" else "VIOLATION")
