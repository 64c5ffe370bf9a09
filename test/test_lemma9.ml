(* Tests for the general (m ≥ 1) Lemma 9 clone-gluing construction. *)

open Helpers
open Agreement
open Lowerbound

let attack p ~registers ~slots =
  Lemma9.attack ~params:p ~registers ~slots
    ~make_config:(fun ~registers ~slots ->
      Instances.anonymous_oneshot ~r:registers ~slots p)

(* m = 2, k = 3, r = 3: two groups of two; the glued execution outputs
   4 > k values.  Slot budget: ⌈(k+1)/m⌉(m + (r²−r)/2) = 2·(2+3) = 10. *)
let breaks_m2_k3 () =
  let p = Params.make ~n:10 ~m:2 ~k:3 in
  match attack p ~registers:3 ~slots:10 with
  | Lemma9.Violation { outputs; config; clones_used; registers_written } ->
    Alcotest.(check int) "four distinct outputs" 4 (List.length outputs);
    Alcotest.(check bool) "checker confirms" true
      (Spec.Properties.agreement_errors ~k:3 config <> []);
    (* the four values are joined on one line, with no break hints *)
    List.iter
      (fun e -> Alcotest.(check bool) (Fmt.str "one line: %S" e) false (String.contains e '\n'))
      (Spec.Properties.agreement_errors ~k:3 config);
    Alcotest.(check (list string)) "validity holds" []
      (Spec.Properties.validity_errors config);
    (* c·(r²−r)/2 = 2·3 clones *)
    Alcotest.(check int) "clone count matches the theorem" 6 clones_used;
    Alcotest.(check int) "full register sequence" 3 (List.length registers_written)
  | o -> Alcotest.failf "expected violation, got: %a" Lemma9.pp_outcome o

(* m = 2, k = 2: c = 2 groups (sizes 2 and 2 would give 4 > 3 = k+1…
   c = ⌈3/2⌉ = 2, outputs 4 > k = 2). *)
let breaks_m2_k2 () =
  let p = Params.make ~n:10 ~m:2 ~k:2 in
  match attack p ~registers:3 ~slots:10 with
  | Lemma9.Violation { outputs; config; _ } ->
    Alcotest.(check bool) "more than k outputs" true (List.length outputs > 2);
    Alcotest.(check bool) "checker confirms" true
      (Spec.Properties.agreement_errors ~k:2 config <> [])
  | o -> Alcotest.failf "expected violation, got: %a" Lemma9.pp_outcome o

(* The m = 1 special case agrees with the dedicated Clones module. *)
let m1_matches_clones () =
  let p = Params.make ~n:8 ~m:1 ~k:1 in
  (match attack p ~registers:3 ~slots:8 with
  | Lemma9.Violation { outputs; clones_used; _ } ->
    Alcotest.(check int) "two outputs" 2 (List.length outputs);
    Alcotest.(check int) "six clones" 6 clones_used
  | o -> Alcotest.failf "lemma9 m=1 failed: %a" Lemma9.pp_outcome o);
  match
    Clones.attack ~params:p ~registers:3 ~slots:8
      ~make_config:(fun ~registers ~slots ->
        Instances.anonymous_oneshot ~r:registers ~slots p)
  with
  | Clones.Violation { clones_used; _ } ->
    Alcotest.(check int) "same clone count" 6 clones_used
  | o -> Alcotest.failf "clones m=1 failed: %a" Clones.pp_outcome o

(* Sharpness: one slot fewer and the construction runs out of clones. *)
let threshold_sharp_m2 () =
  let p = Params.make ~n:9 ~m:2 ~k:3 in
  match attack p ~registers:3 ~slots:9 with
  | Lemma9.Out_of_slots _ -> ()
  | o -> Alcotest.failf "expected out-of-slots, got: %a" Lemma9.pp_outcome o

(* A well-provisioned anonymous algorithm resists. *)
let proper_r_resists () =
  let p = Params.make ~n:10 ~m:2 ~k:3 in
  let proper = Params.r_anonymous p in
  match attack p ~registers:proper ~slots:10 with
  | Lemma9.Out_of_slots _ | Lemma9.Alpha_failed _ -> ()
  | Lemma9.Violation _ -> Alcotest.fail "violated a well-provisioned algorithm!"
  | o -> Alcotest.failf "unexpected outcome: %a" Lemma9.pp_outcome o

let suite =
  [
    slow_test "breaks m=2 k=3 with 3 registers" breaks_m2_k3;
    slow_test "breaks m=2 k=2 with 3 registers" breaks_m2_k2;
    slow_test "m=1 agrees with the Clones module" m1_matches_clones;
    slow_test "slot threshold is sharp at m=2" threshold_sharp_m2;
    slow_test "proper register count resists" proper_r_resists;
  ]
