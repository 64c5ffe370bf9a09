(* The abstract value domain: one growing value set per register.

   Collecting semantics over all explored paths of all processes: a
   register's set holds every value some explored execution may have
   stored there, ⊥ included.  Joins forget interleavings on purpose —
   any schedule whose writes stay inside the collected sets reads only
   collected values, which is the over-approximation the footprint
   soundness argument rests on (docs/ANALYSIS.md).

   Sets are kept newest first with a linear membership test: the
   widening cap keeps them tiny, and insertion order is load-bearing —
   [latest] drives the preferred, no-fork path of the interpreter.

   The interpreter asks for a register's read alternatives about 200
   times for every time that register's set grows, so the answers are
   cached: each register keeps its read alternatives, and each scanned
   range its views, until a register they depend on grows.  A query is
   then a lookup, and the rebuild cost is paid once per growth. *)

module V = Shm.Value

type reg = {
  mutable rev : V.t list;  (* newest first, ⊥ last *)
  mutable count : int;
  mutable grown : int;  (* [version] at this register's last growth *)
  mutable ordered : V.t list option;  (* [List.rev rev], built on demand *)
  mutable reads : (int * V.t list) option;  (* (width, read alternatives) *)
}

(* The views of one scanned range, computed when [version] was
   [built]: the full enumeration when [exhaustive], else the
   deduplicated templates without the per-call [just_wrote] view.
   Neither depends on the width, which each call applies. *)
type scan = {
  built : int;
  cap : int;
  exhaustive : bool;
  views : V.t array list;
}

type t = {
  regs : reg array;
  set_cap : int;
  scans : (int, scan) Hashtbl.t;  (* keyed by [off * (registers + 1) + len] *)
  mutable version : int;
  mutable widened : bool;
  mutable lookups : int;
  mutable recomputes : int;
}

let unwritten () = { rev = [ V.bot ]; count = 1; grown = 0; ordered = None; reads = None }

let create ~registers ~set_cap =
  if registers < 0 then invalid_arg "Absdom.create: negative registers";
  if set_cap < 2 then invalid_arg "Absdom.create: set_cap < 2";
  {
    regs = Array.init registers (fun _ -> unwritten ());
    set_cap;
    scans = Hashtbl.create 8;
    version = 0;
    widened = false;
    lookups = 0;
    recomputes = 0;
  }

let version t = t.version

let widened t = t.widened

let lookups t = t.lookups

let recomputes t = t.recomputes

let in_range t r = r >= 0 && r < Array.length t.regs

(* An out-of-range register reads as a fresh, never-written one. *)
let reg t r = if in_range t r then t.regs.(r) else unwritten ()

let add t r v =
  if in_range t r then begin
    let reg = t.regs.(r) in
    if not (List.exists (V.equal v) reg.rev) then
      if reg.count >= t.set_cap then t.widened <- true
      else begin
        t.version <- t.version + 1;
        reg.rev <- v :: reg.rev;
        reg.count <- reg.count + 1;
        reg.grown <- t.version;
        reg.ordered <- None;
        reg.reads <- None
      end
  end

let ordered reg =
  match reg.ordered with
  | Some l -> l
  | None ->
    let l = List.rev reg.rev in
    reg.ordered <- Some l;
    l

let values t r = ordered (reg t r)

let latest t r = List.hd (reg t r).rev

let cardinal t r = (reg t r).count

let dedup eq l =
  List.rev
    (List.fold_left (fun acc x -> if List.exists (eq x) acc then acc else x :: acc) [] l)

let take n l = List.filteri (fun i _ -> i < n) l

(* ------------------------------------------------------------------ *)
(* Read alternatives.                                                  *)

let reads_of ~width reg =
  let latest = List.hd reg.rev in
  if reg.count <= width then
    (* exhaustive; preferred (latest) first *)
    latest :: List.filter (fun v -> not (V.equal v latest)) (ordered reg)
  else
    let first_written = match ordered reg with _bot :: v :: _ -> [ v ] | _ -> [] in
    take width (dedup V.equal ((latest :: V.bot :: first_written) @ reg.rev))

let read_alternatives t ~width r =
  t.lookups <- t.lookups + 1;
  let reg = reg t r in
  match reg.reads with
  | Some (w, alts) when w = width -> alts
  | _ ->
    t.recomputes <- t.recomputes + 1;
    let alts = reads_of ~width reg in
    reg.reads <- Some (width, alts);
    alts

(* ------------------------------------------------------------------ *)
(* Scan alternatives.                                                  *)

let product_size t ~cap ~off ~len =
  let rec go i acc =
    if i >= len then Some acc
    else
      let acc = acc * cardinal t (off + i) in
      if acc > cap then None else go (i + 1) acc
  in
  go 0 1

let same_view a b = Array.length a = Array.length b && Array.for_all2 V.equal a b

(* Full product enumeration — exact value coverage for the scan.  The
   first emitted view is latest-everywhere (the preferred path). *)
let enumerate t ~off ~len =
  let choices = Array.init len (fun i -> values t (off + i)) in
  let rec go i =
    if i >= len then [ [] ]
    else
      let rest = go (i + 1) in
      List.concat_map (fun v -> List.map (fun tl -> v :: tl) rest) choices.(i)
  in
  let all = List.map Array.of_list (go 0) in
  let pref = Array.init len (fun i -> latest t (off + i)) in
  pref :: List.filter (fun v -> not (same_view v pref)) all

(* The templates of a range too large to enumerate, latest-everywhere
   first; the uniform-[just_wrote] view is merged in per call. *)
let templates t ~off ~len =
  let latest_view = Array.init len (fun i -> latest t (off + i)) in
  (* A half-finished block of writes: fresh values at the low
     registers, ⊥ above — the view a scanner racing a slower block
     writer observes.  This is the template that exposes branches
     guarded on "foreign value present while some register is still ⊥"
     (cf. the out-of-bound mutant). *)
  let prefix_view =
    Array.init len (fun i -> if i < (len + 1) / 2 then latest t (off + i) else V.bot)
  in
  (* Maximal value diversity: cycle each register through its set. *)
  let diverse =
    Array.init len (fun i ->
        let vals = values t (off + i) in
        List.nth vals (i mod List.length vals))
  in
  let bot_view = Array.make len V.bot in
  dedup same_view [ latest_view; prefix_view; diverse; bot_view ]

let compute t ~cap ~off ~len =
  t.recomputes <- t.recomputes + 1;
  match product_size t ~cap ~off ~len with
  | Some _ -> { built = t.version; cap; exhaustive = true; views = enumerate t ~off ~len }
  | None -> { built = t.version; cap; exhaustive = false; views = templates t ~off ~len }

(* No register of the range grew since [s] was built. *)
let fresh t s ~cap ~off ~len =
  s.cap = cap
  &&
  let rec go i = i >= len || (t.regs.(off + i).grown <= s.built && go (i + 1)) in
  go 0

let lookup t ~cap ~off ~len =
  if off < 0 || len < 0 || off + len > Array.length t.regs then compute t ~cap ~off ~len
  else
    let key = (off * (Array.length t.regs + 1)) + len in
    match Hashtbl.find_opt t.scans key with
    | Some s when fresh t s ~cap ~off ~len -> s
    | _ ->
      let s = compute t ~cap ~off ~len in
      Hashtbl.replace t.scans key s;
      s

(* The scanner running solo after its own write sees [v] everywhere. *)
let uniform v view = Array.for_all (V.equal v) view

let scan_views t ~width ~exhaustive_cap ?just_wrote ~off ~len () =
  t.lookups <- t.lookups + 1;
  if len = 0 then [ [||] ]
  else
    let s = lookup t ~cap:exhaustive_cap ~off ~len in
    let views =
      if s.exhaustive then s.views
      else
        let all =
          match (just_wrote, s.views) with
          | Some v, latest_view :: rest when not (uniform v latest_view) ->
            latest_view :: Array.make len v
            :: List.filter (fun w -> not (uniform v w)) rest
          | _ -> s.views
        in
        take width all
    in
    (* cached views stay private: callers get their own arrays *)
    List.map Array.copy views
