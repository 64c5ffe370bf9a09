(* Property-based tests (qcheck) on substrate invariants and the
   paper's safety properties under randomized schedules. *)

open Shm

(* PRNG state derives from SA_TEST_SEED (default fixed): property
   failures are reproducible and the seed is printed on failure *)
let to_alcotest = Helpers.qcheck_to_alcotest

(* ---- generators ---- *)

let value_gen =
  QCheck.Gen.(
    sized @@ fix (fun self size ->
        if size <= 1 then
          oneof [ return Value.bot; map (fun i -> Value.int i) small_int ]
        else
          frequency
            [
              (3, map (fun i -> Value.int i) small_int);
              (1, return Value.bot);
              (1, map (fun s -> Value.str s) (string_size (int_bound 4)));
              (2, map2 (fun a b -> Value.pair a b) (self (size / 2)) (self (size / 2)));
              (1, map (fun l -> Value.list l) (list_size (int_bound 3) (self (size / 3))));
            ]))

let value_arb = QCheck.make ~print:Value.to_string value_gen

(* valid (n, m, k) triples with small n *)
let params_gen =
  QCheck.Gen.(
    int_range 2 6 >>= fun n ->
    int_range 1 (n - 1) >>= fun k ->
    int_range 1 k >>= fun m -> return (Agreement.Params.make ~n ~m ~k))

let params_arb =
  QCheck.make ~print:Agreement.Params.to_string params_gen

(* ---- Value laws ---- *)

let prop_equal_reflexive =
  QCheck.Test.make ~name:"Value.equal is reflexive" ~count:500 value_arb (fun v ->
      Value.equal v v)

let prop_compare_equal_consistent =
  QCheck.Test.make ~name:"Value.compare = 0 iff Value.equal" ~count:500
    (QCheck.pair value_arb value_arb) (fun (a, b) ->
      Value.equal a b = (Value.compare a b = 0))

let prop_compare_antisymmetric =
  QCheck.Test.make ~name:"Value.compare antisymmetric" ~count:500
    (QCheck.pair value_arb value_arb) (fun (a, b) ->
      let c = Value.compare a b and c' = Value.compare b a in
      (c > 0 && c' < 0) || (c < 0 && c' > 0) || (c = 0 && c' = 0))

let prop_compare_transitive =
  QCheck.Test.make ~name:"Value.compare transitive" ~count:500
    (QCheck.triple value_arb value_arb value_arb) (fun (a, b, c) ->
      let le x y = Value.compare x y <= 0 in
      (not (le a b && le b c)) || le a c)

(* Hash-consing invariant: equal values hash equal.  Random pairs are
   almost never equal, so also rebuild a structurally identical copy
   through fresh constructor calls — the pair (v, rebuild v) exercises
   the law on the equal side every time. *)
let rec rebuild v =
  match Value.view v with
  | Value.Bot -> Value.bot
  | Value.Int i -> Value.int i
  | Value.Str s -> Value.str s
  | Value.Pair (a, b) -> Value.pair (rebuild a) (rebuild b)
  | Value.List l -> Value.list (List.map rebuild l)

let prop_hash_agrees_with_equal =
  QCheck.Test.make ~name:"Value.hash agrees with Value.equal" ~count:500
    (QCheck.pair value_arb value_arb) (fun (a, b) ->
      let a' = rebuild a in
      Value.equal a a'
      && Value.hash a = Value.hash a'
      && Value.compare a a' = 0
      && ((not (Value.equal a b)) || Value.hash a = Value.hash b))

(* ---- Memory model ---- *)

let prop_memory_model =
  (* a random op sequence agrees with a naive assoc-list model *)
  QCheck.Test.make ~name:"Memory agrees with assoc model" ~count:300
    QCheck.(list (pair (int_bound 7) small_int))
    (fun writes ->
      let mem =
        List.fold_left (fun m (r, v) -> Memory.write m r (Value.int v)) (Memory.create 8)
          writes
      in
      let model r =
        match List.find_opt (fun (r', _) -> r' = r) (List.rev writes) with
        | Some (_, v) -> Value.int v
        | None -> Value.bot
      in
      List.init 8 Fun.id
      |> List.for_all (fun r -> Value.equal (Memory.read mem r) (model r)))

(* ---- View helpers vs naive specs ---- *)

let view_arb =
  QCheck.make
    QCheck.Gen.(
      map Array.of_list
        (list_size (int_range 1 8)
           (oneof [ return Value.bot; map (fun i -> Value.int (i mod 4)) small_int ])))

let prop_distinct_count_spec =
  QCheck.Test.make ~name:"View.distinct_count matches sort-uniq" ~count:500 view_arb
    (fun view ->
      let naive =
        Array.to_list view |> List.sort_uniq Value.compare |> List.length
      in
      Agreement.View.distinct_count view = naive)

let prop_min_duplicate_spec =
  QCheck.Test.make ~name:"View.min_duplicate_index matches naive search" ~count:500
    view_arb (fun view ->
      let n = Array.length view in
      let naive =
        let rec outer j1 =
          if j1 >= n then None
          else if
            List.exists
              (fun j2 -> j2 > j1 && Value.equal view.(j1) view.(j2))
              (List.init n Fun.id)
          then Some j1
          else outer (j1 + 1)
        in
        outer 0
      in
      Agreement.View.min_duplicate_index view = naive)

(* ---- Safety of the algorithms under random schedules ---- *)

let safety_arb = QCheck.pair params_arb (QCheck.make QCheck.Gen.(int_bound 9999))

let prop_oneshot_safety =
  QCheck.Test.make ~name:"one-shot: validity + k-agreement under random schedules"
    ~count:150 safety_arb (fun (p, seed) ->
      let n = p.Agreement.Params.n in
      let result =
        Agreement.Runner.run_oneshot ~sched:(Schedule.random ~seed n) ~max_steps:40_000 p
      in
      match Spec.Properties.check_safety ~k:p.Agreement.Params.k result.Exec.config with
      | Ok () -> true
      | Error _ -> false)

let prop_repeated_safety =
  QCheck.Test.make ~name:"repeated: validity + k-agreement under random schedules"
    ~count:80 safety_arb (fun (p, seed) ->
      let n = p.Agreement.Params.n in
      let result =
        Agreement.Runner.run_repeated ~rounds:3 ~sched:(Schedule.random ~seed n)
          ~max_steps:60_000 p
      in
      match Spec.Properties.check_safety ~k:p.Agreement.Params.k result.Exec.config with
      | Ok () -> true
      | Error _ -> false)

let prop_anonymous_safety =
  QCheck.Test.make ~name:"anonymous: validity + k-agreement under random schedules"
    ~count:40 safety_arb (fun (p, seed) ->
      let n = p.Agreement.Params.n in
      let result =
        Agreement.Runner.run_anonymous ~rounds:2 ~sched:(Schedule.random ~seed n)
          ~max_steps:60_000 p
      in
      match Spec.Properties.check_safety ~k:p.Agreement.Params.k result.Exec.config with
      | Ok () -> true
      | Error _ -> false)

(* ---- m-obstruction-freedom as a property ---- *)

let prop_m_obstruction_freedom =
  QCheck.Test.make
    ~name:"one-shot: m survivors always terminate (m-obstruction-freedom)" ~count:80
    safety_arb (fun (p, seed) ->
      let n = p.Agreement.Params.n and m = p.Agreement.Params.m in
      let sched = Schedule.m_bounded ~seed ~m ~prefix:(20 + (seed mod 40)) n in
      let result = Agreement.Runner.run_oneshot ~sched ~max_steps:200_000 p in
      result.Exec.stopped = Exec.All_quiescent)

(* ---- tuple codec roundtrips ---- *)

let history_gen =
  QCheck.Gen.(list_size (int_bound 4) (map (fun i -> Value.int i) small_int))

let repeated_tuple_arb =
  QCheck.make
    QCheck.Gen.(
      map2
        (fun (pref, id) (t, history) ->
          { Agreement.Repeated.pref = Value.int pref; id; t = t + 1; history })
        (pair small_int (int_bound 15))
        (pair (int_bound 9) history_gen))

let prop_repeated_codec =
  QCheck.Test.make ~name:"Repeated tuple encode/decode roundtrip" ~count:300
    repeated_tuple_arb (fun tu ->
      match Agreement.Repeated.decode (Agreement.Repeated.encode tu) with
      | Some tu' ->
        Value.equal tu.Agreement.Repeated.pref tu'.Agreement.Repeated.pref
        && tu.Agreement.Repeated.id = tu'.Agreement.Repeated.id
        && tu.Agreement.Repeated.t = tu'.Agreement.Repeated.t
        && List.for_all2 Value.equal tu.Agreement.Repeated.history
             tu'.Agreement.Repeated.history
      | None -> false)

let anonymous_tuple_arb =
  QCheck.make
    QCheck.Gen.(
      map2
        (fun pref (t, history) ->
          { Agreement.Anonymous.pref = Value.int pref; t = t + 1; history })
        small_int
        (pair (int_bound 9) history_gen))

let prop_anonymous_codec =
  QCheck.Test.make ~name:"Anonymous tuple encode/decode roundtrip" ~count:300
    anonymous_tuple_arb (fun tu ->
      match Agreement.Anonymous.decode (Agreement.Anonymous.encode tu) with
      | Some tu' ->
        Value.equal tu.Agreement.Anonymous.pref tu'.Agreement.Anonymous.pref
        && tu.Agreement.Anonymous.t = tu'.Agreement.Anonymous.t
        && List.for_all2 Value.equal tu.Agreement.Anonymous.history
             tu'.Agreement.Anonymous.history
      | None -> false)

let prop_bot_decodes_to_none =
  QCheck.Test.make ~name:"⊥ decodes to None in both codecs" ~count:1 QCheck.unit
    (fun () ->
      Agreement.Repeated.decode Value.bot = None
      && Agreement.Anonymous.decode Value.bot = None)

(* ---- the Theorem 2 adversary as a property ---- *)

let small_params_gen =
  QCheck.Gen.(
    int_range 4 6 >>= fun n ->
    int_range 1 (min 3 (n - 1)) >>= fun k ->
    int_range 1 (min 2 k) >>= fun m -> return (Agreement.Params.make ~n ~m ~k))

let prop_starved_always_breaks =
  QCheck.Test.make ~name:"Theorem 2: every starved instance breaks" ~count:25
    (QCheck.make ~print:Agreement.Params.to_string small_params_gen) (fun p ->
      let registers = Agreement.Params.registers_lower p - 1 in
      registers < 1
      ||
      match
        Lowerbound.Theorem2.attack ~params:p ~registers
          ~make_config:(fun ~registers -> Agreement.Instances.repeated ~r:registers p)
          ~icap:3 ()
      with
      | Lowerbound.Theorem2.Violation { config; _ } ->
        Spec.Properties.validity_errors config = []
        && Spec.Properties.agreement_errors ~k:p.Agreement.Params.k config <> []
      | _ -> false)

let prop_correct_always_resists =
  QCheck.Test.make ~name:"Theorem 2: every correct instance resists" ~count:25
    (QCheck.make ~print:Agreement.Params.to_string small_params_gen) (fun p ->
      match
        Lowerbound.Theorem2.attack ~params:p
          ~registers:(Agreement.Params.r_oneshot p)
          ~make_config:(fun ~registers -> Agreement.Instances.repeated ~r:registers p)
          ~icap:3 ()
      with
      | Lowerbound.Theorem2.Out_of_processes _ -> true
      | _ -> false)

(* ---- register budget as a property ---- *)

let prop_register_budget =
  QCheck.Test.make ~name:"one-shot never writes outside n+2m-k components" ~count:100
    safety_arb (fun (p, seed) ->
      let n = p.Agreement.Params.n in
      let result =
        Agreement.Runner.run_oneshot ~sched:(Schedule.random ~seed n) ~max_steps:40_000 p
      in
      Agreement.Runner.registers_used result <= Agreement.Params.r_oneshot p)

(* ---- one-pass safety grouping vs the assoc-list oracle ---- *)

(* The per-instance grouping [Spec.Properties] built before it sorted
   records in one pass: an assoc list rebuilt per record, kept here as
   the oracle, with the error messages formatted as they were. *)
module Assoc_oracle = struct
  let by_instance_io ~inputs ~outputs =
    let add map (_, inst, v) side =
      let ins, outs = try List.assoc inst map with Not_found -> ([], []) in
      let entry = match side with `In -> (v :: ins, outs) | `Out -> (ins, v :: outs) in
      (inst, entry) :: List.remove_assoc inst map
    in
    let map = List.fold_left (fun m e -> add m e `In) [] inputs in
    let map = List.fold_left (fun m e -> add m e `Out) map outputs in
    List.sort (fun (a, _) (b, _) -> compare a b) map
    |> List.map (fun (i, (ins, outs)) -> (i, List.rev ins, List.rev outs))

  let check_safety_io ~k ~inputs ~outputs =
    let groups = by_instance_io ~inputs ~outputs in
    let validity =
      List.concat_map
        (fun (inst, ins, outs) ->
          Spec.Properties.distinct_values outs
          |> List.filter_map (fun v ->
                 if List.exists (Value.equal v) ins then None
                 else
                   Some
                     (Fmt.str "instance %d: output %a is not an input (inputs: %a)" inst
                        Value.pp v
                        Fmt.(list ~sep:(any ", ") Value.pp)
                        ins)))
        groups
    and agreement =
      List.filter_map
        (fun (inst, _, outs) ->
          let d = Spec.Properties.distinct_values outs in
          if List.length d <= k then None
          else
            Some
              (Fmt.str "instance %d: %d distinct outputs > k=%d (%a)" inst
                 (List.length d) k
                 Fmt.(list ~sep:(any ", ") Value.pp)
                 d))
        groups
    in
    match validity @ agreement with
    | [] -> Ok ()
    | errs -> Error (String.concat "; " errs)
end

(* Record lists over a few instances (negative ones included), half of
   them already in instance order so the stable sort is also checked on
   input that is already sorted. *)
let io_records_gen =
  QCheck.Gen.(
    let record = triple (int_bound 3) (int_range (-1) 4) (map Value.int (int_bound 3)) in
    let records =
      map2
        (fun sorted l ->
          if sorted then List.stable_sort (fun (_, a, _) (_, b, _) -> compare a b) l else l)
        bool
        (list_size (int_bound 25) record)
    in
    triple (int_range 1 3) records records)

let io_records_arb =
  let print_records =
    QCheck.Print.list (fun (p, i, v) -> Printf.sprintf "(%d,%d,%s)" p i (Value.to_string v))
  in
  QCheck.make
    ~print:(fun (k, ins, outs) ->
      Printf.sprintf "k=%d inputs=%s outputs=%s" k (print_records ins) (print_records outs))
    io_records_gen

let prop_grouping_matches_oracle =
  QCheck.Test.make ~name:"by_instance_io and check_safety_io match the assoc-list oracle"
    ~count:500 io_records_arb (fun (k, inputs, outputs) ->
      let same_values = List.equal Value.equal in
      List.equal
        (fun (i, ins, outs) (i', ins', outs') ->
          i = i' && same_values ins ins' && same_values outs outs')
        (Spec.Properties.by_instance_io ~inputs ~outputs)
        (Assoc_oracle.by_instance_io ~inputs ~outputs)
      && Spec.Properties.check_safety_io ~k ~inputs ~outputs
         = Assoc_oracle.check_safety_io ~k ~inputs ~outputs)

let suite =
  List.map to_alcotest
    [
      prop_equal_reflexive;
      prop_compare_equal_consistent;
      prop_compare_antisymmetric;
      prop_compare_transitive;
      prop_hash_agrees_with_equal;
      prop_memory_model;
      prop_distinct_count_spec;
      prop_min_duplicate_spec;
      prop_oneshot_safety;
      prop_repeated_safety;
      prop_anonymous_safety;
      prop_m_obstruction_freedom;
      prop_register_budget;
      prop_repeated_codec;
      prop_anonymous_codec;
      prop_bot_decodes_to_none;
      prop_starved_always_breaks;
      prop_correct_always_resists;
      prop_grouping_matches_oracle;
    ]
