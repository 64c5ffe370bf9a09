(* Set agreement on real multicore: the Figure 3 algorithm executed by
   OCaml 5 domains over atomics — no simulator anywhere.  Safety comes
   from the algorithm (any hardware interleaving is one the paper's
   model allows); progress comes from randomized exponential backoff,
   exactly the contention-management story of the paper's introduction.

   Run with:  dune exec examples/native_demo.exe *)

let () =
  let params = Agreement.Params.make ~n:4 ~m:2 ~k:2 in
  Fmt.pr "native 2-set agreement: 4 domains, %d atomic registers@."
    (Agreement.Params.r_oneshot params);
  for trial = 1 to 5 do
    let inputs = Array.init 4 (fun pid -> Shm.Value.int ((10 * trial) + pid)) in
    let t0 = Unix.gettimeofday () in
    let _, decisions = Native.Native_agreement.run_instance ~seed:trial ~params inputs in
    let dt = (Unix.gettimeofday () -. t0) *. 1e6 in
    let distinct =
      Spec.Properties.distinct_values (Array.to_list decisions)
    in
    Fmt.pr "trial %d: inputs {%a} -> decisions {%a} (%d distinct <= k=2) in %.0f us@."
      trial
      Fmt.(list ~sep:(any ", ") Shm.Value.pp)
      (Array.to_list inputs |> Spec.Properties.distinct_values)
      Fmt.(list ~sep:(any ", ") Shm.Value.pp)
      (Array.to_list decisions)
      (List.length distinct) dt;
    assert (List.length distinct <= 2)
  done;
  Fmt.pr "all trials safe.@."
