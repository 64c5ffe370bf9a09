(* Universal register value type, hash-consed.

   Registers in the simulated shared memory hold values of this single
   type so that configurations are first-class, comparable, printable
   data.  The algorithms in the paper store tuples such as [(pref, id)]
   (Figure 3) or [(pref, id, t, history)] (Figure 4); these are encoded
   with [pair] and [list].

   Representation.  Every node carries its structural hash, computed
   once at construction from the children's stored hashes, so [hash] is
   O(1) and [equal] can reject almost all unequal pairs with a single
   int comparison.  On top of that, constructors intern nodes in a
   per-domain weak set: within a domain, structurally equal values
   built through this interface are physically equal, so [equal] is a
   pointer test on the hot paths (state hashing, abstract value sets,
   linearization matching).  Interning is per-domain on purpose — a
   global table would put a lock on the simulator's hottest allocation
   path, and the native layer and its conformance harness build values
   on several domains at once.  Values that cross domains are still
   compared correctly: [equal] falls back to a
   hash-guarded structural walk whose recursive calls hit the pointer
   fast path as soon as the two values share interned substructure.

   The stored hash is a pure function of the structure (never of
   physical identity — the GC moves blocks), so hashes and the orders
   derived from them are deterministic across runs and domains. *)

type t = { node : view; h : int }

and view =
  | Bot                       (* the initial value ⊥ of every register *)
  | Int of int
  | Str of string
  | Pair of t * t
  | List of t list

let view t = t.node

let hash t = t.h

(* ---- structural hashing (64-bit-ish mixing on native ints) ---- *)

(* SplitMix-style finalizer adapted to OCaml's 63-bit native ints (the
   multipliers are the usual 64-bit constants truncated to fit). *)
let mix h k =
  let h = (h lxor k) * 0x2545F4914F6CDD1D in
  let h = (h lxor (h lsr 29)) * 0x1B03738712FAD5C9 in
  h lxor (h lsr 32)

let hash_string s =
  (* FNV-1a (offset truncated to 63 bits); strings here are tiny *)
  let h = ref 0x2bf29ce484222325 in
  String.iter (fun c -> h := (!h lxor Char.code c) * 0x100000001b3) s;
  !h

let hash_of_node = function
  | Bot -> 0x42644f54 (* arbitrary fixed constants per head *)
  | Int i -> mix 0x17 i
  | Str s -> mix 0x2b (hash_string s)
  | Pair (a, b) -> mix (mix 0x3d a.h) b.h
  | List vs -> List.fold_left (fun h v -> mix h v.h) 0x51 vs

(* ---- shallow equality for the intern table: children by pointer
   first, then full recursive equality (cross-domain constituents) ---- *)

let rec equal a b =
  a == b
  || a.h = b.h
     &&
     match (a.node, b.node) with
     | Bot, Bot -> true
     | Int x, Int y -> x = y
     | Str x, Str y -> String.equal x y
     | Pair (x1, y1), Pair (x2, y2) -> equal x1 x2 && equal y1 y2
     | List xs, List ys -> (
       try List.for_all2 equal xs ys with Invalid_argument _ -> false)
     | (Bot | Int _ | Str _ | Pair _ | List _), _ -> false

(* ---- per-domain interning ---- *)

module W = Weak.Make (struct
  type nonrec t = t

  let equal = equal
  let hash t = t.h land max_int
end)

let table_key = Domain.DLS.new_key (fun () -> W.create 1024)

let intern node =
  let candidate = { node; h = hash_of_node node } in
  W.merge (Domain.DLS.get table_key) candidate

(* ---- constructors ---- *)

let bot = intern Bot

let int i = intern (Int i)

let str s = intern (Str s)

let pair a b = intern (Pair (a, b))

let list vs = intern (List vs)

(* Encoding of small tuples, so that structural equality matches the
   paper's tuple equality. *)
let tuple = function
  | [] -> list []
  | [ v ] -> v
  | vs -> list vs

(* ---- ordering ---- *)

(* Total order consistent with [equal]; purely structural (independent
   of the stored hash), so the order is stable and readable.  The
   physical-equality shortcut makes comparisons of interned values that
   share structure cheap. *)
let rec compare a b =
  if a == b then 0
  else
    let tag = function
      | Bot -> 0
      | Int _ -> 1
      | Str _ -> 2
      | Pair _ -> 3
      | List _ -> 4
    in
    match (a.node, b.node) with
    | Bot, Bot -> 0
    | Int x, Int y -> Stdlib.compare x y
    | Str x, Str y -> String.compare x y
    | Pair (x1, y1), Pair (x2, y2) ->
      let c = compare x1 x2 in
      if c <> 0 then c else compare y1 y2
    | List xs, List ys -> List.compare compare xs ys
    | _, _ -> Stdlib.compare (tag a.node) (tag b.node)

(* Printing renders the whole value into one buffer and gives Format a
   single string: a Format token per part costs a token record and a
   queue cell each, some 40 words per component of a long list.  No
   break hint is printed, so the bytes are those of printing the parts
   one by one, in any box; a string prints as OCaml's %S does. *)
let rec add b t =
  match t.node with
  | Bot -> Buffer.add_string b "⊥"
  | Int i -> Buffer.add_string b (Int.to_string i)
  | Str s ->
    Buffer.add_char b '"';
    Buffer.add_string b (String.escaped s);
    Buffer.add_char b '"'
  | Pair (x, y) ->
    Buffer.add_char b '(';
    add b x;
    Buffer.add_char b ',';
    add b y;
    Buffer.add_char b ')'
  | List [] -> Buffer.add_string b "[]"
  | List (v :: vs) ->
    Buffer.add_char b '[';
    add b v;
    List.iter
      (fun v ->
        Buffer.add_char b ';';
        add b v)
      vs;
    Buffer.add_char b ']'

let to_string t =
  let b = Buffer.create 64 in
  add b t;
  Buffer.contents b

let pp ppf t = Format.pp_print_string ppf (to_string t)

let is_bot t = match t.node with
  | Bot -> true
  | Int _ | Str _ | Pair _ | List _ -> false

(* Accessors used by the algorithms; they fail loudly on encoding bugs. *)

let to_int t =
  match t.node with
  | Int i -> i
  | _ -> invalid_arg (Fmt.str "Value.to_int: %a" pp t)

let fst t =
  match t.node with
  | Pair (a, _) -> a
  | _ -> invalid_arg (Fmt.str "Value.fst: %a" pp t)

let snd t =
  match t.node with
  | Pair (_, b) -> b
  | _ -> invalid_arg (Fmt.str "Value.snd: %a" pp t)

let to_list t =
  match t.node with
  | List vs -> vs
  | _ -> invalid_arg (Fmt.str "Value.to_list: %a" pp t)
