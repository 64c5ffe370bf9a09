(* Tests for the anonymous lower-bound (Section 5) clone construction. *)

open Helpers
open Agreement
open Lowerbound

let make p ~registers ~slots =
  Instances.anonymous_oneshot ~r:registers ~slots p

let attack ?(slots = 16) p ~registers =
  Clones.attack ~params:p ~registers ~slots
    ~make_config:(fun ~registers ~slots -> make p ~registers ~slots)

(* Consensus (k = 1) with 3 registers among enough processes: the glued
   execution outputs two distinct values. *)
let breaks_starved_anonymous_consensus () =
  let p = Params.make ~n:8 ~m:1 ~k:1 in
  match attack ~slots:8 p ~registers:3 with
  | Clones.Violation { outputs; config; clones_used; registers_written } ->
    Alcotest.(check int) "two distinct outputs" 2 (List.length outputs);
    Alcotest.(check bool) "checker confirms" true
      (Spec.Properties.agreement_errors ~k:1 config <> []);
    Alcotest.(check (list string)) "validity holds" []
      (Spec.Properties.validity_errors config);
    (* The paper's counting: c·(m + (r²−r)/2) processes suffice; with
       c = 2, m = 1, r = 3 that is 8 = 2 mains + 6 clones. *)
    Alcotest.(check int) "6 clones as the bound predicts" 6 clones_used;
    Alcotest.(check (list int)) "registers discovered in order" [ 0; 1; 2 ]
      registers_written
  | o -> Alcotest.failf "expected violation, got: %a" Clones.pp_outcome o

(* k = 2: three groups, 3 registers, needs 3·(1+3) = 12 slots. *)
let breaks_starved_k2 () =
  let p = Params.make ~n:12 ~m:1 ~k:2 in
  match attack ~slots:12 p ~registers:3 with
  | Clones.Violation { outputs; config; _ } ->
    Alcotest.(check int) "three distinct outputs" 3 (List.length outputs);
    Alcotest.(check bool) "checker confirms" true
      (Spec.Properties.agreement_errors ~k:2 config <> [])
  | o -> Alcotest.failf "expected violation, got: %a" Clones.pp_outcome o

(* Too few slots: the construction must fail by running out of clone
   room, not by violating anything. *)
let not_enough_processes_resists () =
  let p = Params.make ~n:7 ~m:1 ~k:1 in
  match attack ~slots:7 p ~registers:3 with
  | Clones.Out_of_slots _ -> ()
  | o -> Alcotest.failf "expected out-of-slots, got: %a" Clones.pp_outcome o

(* A properly-provisioned algorithm (its r beats √(m(n/k−2))) resists
   because the clone count grows quadratically in r. *)
let correct_register_count_resists () =
  let p = Params.make ~n:8 ~m:1 ~k:1 in
  let proper_r = Params.r_anonymous p in
  match attack ~slots:8 p ~registers:proper_r with
  | Clones.Out_of_slots _ -> ()
  | Clones.Violation _ -> Alcotest.fail "violated a well-provisioned algorithm!"
  | o -> Alcotest.failf "unexpected outcome: %a" Clones.pp_outcome o

(* The theorem's threshold is tight in our construction: with r = 2 and
   k = 1 the bound asks for 2·(1+1) = 4 processes; 4 slots succeed and 3
   fail. *)
let threshold_is_sharp () =
  let attack_with ~slots ~n =
    let p = Params.make ~n ~m:1 ~k:1 in
    attack ~slots p ~registers:2
  in
  (match attack_with ~slots:4 ~n:4 with
  | Clones.Violation _ -> ()
  | o -> Alcotest.failf "4 slots should break r=2: %a" Clones.pp_outcome o);
  match attack_with ~slots:3 ~n:3 with
  | Clones.Out_of_slots _ -> ()
  | o -> Alcotest.failf "3 slots should not suffice: %a" Clones.pp_outcome o

let suite =
  [
    test "glued execution breaks anonymous consensus, r=3" breaks_starved_anonymous_consensus;
    test "glued execution breaks k=2, r=3" breaks_starved_k2;
    test "not enough processes: attack fails safely" not_enough_processes_resists;
    test "proper register count resists" correct_register_count_resists;
    test "process threshold matches the counting" threshold_is_sharp;
  ]
