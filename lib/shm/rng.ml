(* Deterministic SplitMix64 pseudo-random generator.

   Every randomized schedule in the simulator is driven by this PRNG so
   that runs are reproducible from a single integer seed, independent of
   the OCaml stdlib Random state.  SplitMix64 is the standard seeding
   generator of Vigna; it has a full 2^64 period and passes BigCrush. *)

let golden = 0x9E3779B97F4A7C15L

(* Pure one-step variant: returns the output and the advanced state.
   Used where PRNG state must be a persistent value (programs that the
   lower-bound machinery clones). *)
let pure_step state =
  let state' = Int64.add state golden in
  let z = state' in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  (Int64.logxor z (Int64.shift_right_logical z 31), state')

type t = { mutable state : int64 }

let create seed = { state = Int64.of_int seed }

let next_int64 t =
  let v, state = pure_step t.state in
  t.state <- state;
  v

(* Uniform int in [0, bound). *)
let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  let r = Int64.shift_right_logical (next_int64 t) 1 in
  Int64.to_int (Int64.rem r (Int64.of_int bound))

let bool t = Int64.logand (next_int64 t) 1L = 1L

(* Derive an independent stream; used to give each process its own
   deterministic local source (e.g. anonymous freshness nonces). *)
let split t =
  let s = next_int64 t in
  { state = Int64.mul s 0x2545F4914F6CDD1DL }

let shuffle t arr =
  let n = Array.length arr in
  for i = n - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done

let pick t = function
  | [] -> invalid_arg "Rng.pick: empty list"
  | xs -> List.nth xs (int t (List.length xs))
