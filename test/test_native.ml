(* Tests of the native multicore backend: the Figure 3 algorithm
   running on real OCaml 5 domains over atomics.

   Safety must hold on every real interleaving the hardware produces;
   termination comes from the backoff contention management (the
   paper's own framing of obstruction-freedom).  These tests use small
   n so they run on any machine. *)

open Helpers
open Agreement

let check_instance ~k inputs decisions =
  let distinct = Spec.Properties.distinct_values (Array.to_list decisions) in
  Alcotest.(check bool)
    (Printf.sprintf "at most %d distinct decisions (got %d)" k (List.length distinct))
    true
    (List.length distinct <= k);
  Array.iter
    (fun d ->
      Alcotest.(check bool) "validity" true
        (Array.exists (Shm.Value.equal d) inputs))
    decisions

let consensus_on_domains () =
  let params = Params.make ~n:3 ~m:1 ~k:1 in
  for trial = 0 to 9 do
    let inputs = Array.init 3 (fun pid -> vi ((10 * trial) + pid)) in
    let _, decisions = Native.Native_agreement.run_instance ~seed:trial ~params inputs in
    check_instance ~k:1 inputs decisions;
    (* consensus: all three agree *)
    check_value "p1 = p0" decisions.(0) decisions.(1);
    check_value "p2 = p0" decisions.(0) decisions.(2)
  done

let set_agreement_on_domains () =
  let params = Params.make ~n:4 ~m:2 ~k:2 in
  for trial = 0 to 9 do
    let inputs = Array.init 4 (fun pid -> vi ((100 * trial) + pid)) in
    let _, decisions = Native.Native_agreement.run_instance ~seed:trial ~params inputs in
    check_instance ~k:2 inputs decisions
  done

let identical_inputs_native () =
  let params = Params.make ~n:4 ~m:1 ~k:2 in
  let inputs = Array.make 4 (vi 7) in
  let _, decisions = Native.Native_agreement.run_instance ~params inputs in
  Array.iter (fun d -> check_value "the common input" (vi 7) d) decisions

let register_count_native () =
  let params = Params.make ~n:4 ~m:1 ~k:2 in
  let t = Native.Native_agreement.create ~params in
  Alcotest.(check int) "r = n+2m-k atomics" (Params.r_oneshot params)
    (Native.Native_agreement.registers t)

(* The native snapshot alone: sequential semantics. *)
let native_snapshot_sequential () =
  let s = Native.Native_snapshot.create ~components:3 in
  let h = Native.Native_snapshot.handle s ~pid:0 in
  Native.Native_snapshot.update h 1 (vi 5);
  Native.Native_snapshot.update h 2 (vi 6);
  let view = Native.Native_snapshot.scan h in
  check_value "c0" Shm.Value.bot view.(0);
  check_value "c1" (vi 5) view.(1);
  check_value "c2" (vi 6) view.(2)

(* Concurrent smoke: writers hammer the snapshot while a scanner takes
   clean double collects; each scan must be a plausible memory state
   (values from the writers' domains only). *)
let native_snapshot_concurrent () =
  let s = Native.Native_snapshot.create ~components:2 in
  let writer pid =
    Domain.spawn (fun () ->
        let h = Native.Native_snapshot.handle s ~pid in
        for j = 1 to 500 do
          Native.Native_snapshot.update h (pid mod 2) (vi ((1000 * pid) + j))
        done)
  in
  let scanner =
    Domain.spawn (fun () ->
        let h = Native.Native_snapshot.handle s ~pid:9 in
        let views = ref [] in
        for _ = 1 to 50 do
          views := Native.Native_snapshot.scan h :: !views
        done;
        !views)
  in
  let w1 = writer 1 and w2 = writer 2 in
  let views = Domain.join scanner in
  Domain.join w1;
  Domain.join w2;
  List.iter
    (fun view ->
      Array.iter
        (fun v ->
          match Shm.Value.view v with
          | Shm.Value.Bot -> ()
          | Shm.Value.Int x ->
            Alcotest.(check bool) "value from a writer" true (x >= 1000 && x < 3000)
          | _ -> Alcotest.fail "unexpected value shape")
        view)
    views

(* The space claim, swept: every native object allocates exactly
   n+2m−k atomics. *)
let register_count_sweep () =
  [ (2, 1, 1); (3, 1, 1); (4, 1, 2); (4, 2, 2); (6, 2, 3); (8, 3, 3); (8, 2, 4) ]
  |> List.iter (fun (n, m, k) ->
         let params = Params.make ~n ~m ~k in
         let expected = Params.r_oneshot params in
         Alcotest.(check int)
           (Printf.sprintf "one-shot n=%d m=%d k=%d: %d = n+2m-k" n m k expected)
           expected
           (Native.Native_agreement.registers (Native.Native_agreement.create ~params));
         Alcotest.(check int) "and that is n+2m-k" ((n + (2 * m)) - k) expected)

let suite =
  [
    slow_test "consensus across 3 domains, 10 trials" consensus_on_domains;
    slow_test "identical inputs decide that value (native)" identical_inputs_native;
    test "native register count = n+2m-k" register_count_native;
    slow_test "2-set agreement across 4 domains, 10 trials" set_agreement_on_domains;
    test "native register count sweep" register_count_sweep;
    test "native snapshot: sequential semantics" native_snapshot_sequential;
    slow_test "native snapshot: concurrent scans are clean" native_snapshot_concurrent;
  ]
