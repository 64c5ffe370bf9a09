(* Problem parameters (n, m, k) and the register counts from Figure 1.

   Throughout: n processes, m-obstruction-freedom, k-set agreement, with
   the paper's standing assumption 1 ≤ m ≤ k < n (Section 2.1: the
   problem is unsolvable for m > k and trivial for k ≥ n). *)

type t = { n : int; m : int; k : int }

let validate { n; m; k } =
  if n <= 1 then Error (Fmt.str "need n > 1, got n=%d" n)
  else if m < 1 then Error (Fmt.str "need m >= 1, got m=%d" m)
  else if m > k then Error (Fmt.str "need m <= k, got m=%d k=%d (unsolvable otherwise)" m k)
  else if k >= n then Error (Fmt.str "need k < n, got k=%d n=%d (trivial otherwise)" k n)
  else Ok ()

let make ~n ~m ~k =
  let t = { n; m; k } in
  match validate t with Ok () -> t | Error msg -> invalid_arg ("Params.make: " ^ msg)

let grid ~max_n =
  let ps = ref [] in
  for n = 2 to max_n do
    for k = 1 to n - 1 do
      for m = 1 to k do
        ps := make ~n ~m ~k :: !ps
      done
    done
  done;
  List.rev !ps

(* Snapshot components used by the Figure 3 / Figure 4 algorithms. *)
let r_oneshot { n; m; k } = n + (2 * m) - k

(* ℓ = n + m − k: the paper ensures the *last* ℓ deciding processes
   output at most m values; also the Theorem 2 lower bound. *)
let ell { n; m; k } = n + m - k

(* Components used by the anonymous Figure 5 algorithm (plus 1 register
   for H in the repeated case). *)
let r_anonymous { n; m; k } = ((m + 1) * (n - k)) + (m * m)

(* Upper bound actually achievable with registers: Theorem 7/8. *)
let registers_upper t = min (r_oneshot t) t.n

(* Theorem 2 lower bound for repeated k-set agreement. *)
let registers_lower t = ell t

(* Theorem 10 anonymous one-shot lower bound: strictly more than
   sqrt(m(n/k − 2)) registers. *)
let anon_lower_bound { n; m; k } =
  (* the bound is vacuous (≤ 0) when n ≤ 2k *)
  sqrt (Float.max 0. (float_of_int m *. ((float_of_int n /. float_of_int k) -. 2.)))

(* DFGR'13 baseline register count (1-obstruction-free only). *)
let r_dfgr13 { n; k; _ } = 2 * (n - k)

let pp ppf { n; m; k } = Fmt.pf ppf "(n=%d,m=%d,k=%d)" n m k

let to_string t = Fmt.str "%a" pp t
