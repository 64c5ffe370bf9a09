(* Metrics registry: counters, gauges, and log-bucketed histograms.

   Histograms bucket observations by octave (powers of two) and
   interpolate linearly inside a bucket, so quantile estimates cost
   O(1) memory per histogram and are exact to within one octave —
   plenty for step-latency distributions that span six orders of
   magnitude across (n, m, k). *)

module Counter = struct
  type t = { mutable n : int }

  let create () = { n = 0 }

  (* [add] is the hot path: event sinks bump counters once per
     simulator step, so it must not allocate.  [incr ~by] boxes its
     optional argument at every call site that supplies it — keep it
     for convenience, route per-event code through [add]. *)
  let add t by = t.n <- t.n + by
  let incr ?(by = 1) t = add t by
  let value t = t.n
end

module Gauge = struct
  type t = { mutable v : float }

  let create () = { v = 0. }
  let set t v = t.v <- v
  let value t = t.v
end

module Histogram = struct
  (* bucket 0 holds v <= 0; bucket i >= 1 holds v in [2^(i-1), 2^i). *)
  let buckets = 63

  type t = {
    counts : int array;
    mutable count : int;
    mutable sum : int;
    mutable min : int;
    mutable max : int;
  }

  let create () =
    { counts = Array.make buckets 0; count = 0; sum = 0; min = max_int; max = min_int }

  (* module-level so [bucket_of] — called on every observation — is a
     plain tail-recursive call with no per-call closure *)
  let rec bits acc n = if n = 0 then acc else bits (acc + 1) (n lsr 1)

  let bucket_of v = if v <= 0 then 0 else min (bits 0 v) (buckets - 1)

  (* allocation-free: integer field mutations only *)
  let observe t v =
    let b = bucket_of v in
    t.counts.(b) <- t.counts.(b) + 1;
    t.count <- t.count + 1;
    t.sum <- t.sum + v;
    if v < t.min then t.min <- v;
    if v > t.max then t.max <- v

  let of_list vs =
    let t = create () in
    List.iter (observe t) vs;
    t

  let count t = t.count
  let sum t = t.sum
  let min_value t = if t.count = 0 then 0 else t.min
  let max_value t = if t.count = 0 then 0 else t.max
  let mean t = if t.count = 0 then 0. else float_of_int t.sum /. float_of_int t.count

  (* Quantile by cumulative bucket counts, linear inside the bucket,
     clamped to the observed [min, max]. *)
  let quantile t q =
    if t.count = 0 then 0.
    else begin
      let q = Float.max 0. (Float.min 1. q) in
      let rank = q *. float_of_int (t.count - 1) in
      let target = int_of_float (Float.round rank) in
      let rec find b cum =
        if b >= buckets then float_of_int t.max
        else
          let cum' = cum + t.counts.(b) in
          if cum' > target then begin
            let lo = if b = 0 then 0. else float_of_int (1 lsl (b - 1)) in
            let hi = if b = 0 then 1. else float_of_int (1 lsl b) in
            let within =
              if t.counts.(b) <= 1 then 0.5
              else float_of_int (target - cum) /. float_of_int (t.counts.(b) - 1)
            in
            lo +. (within *. (hi -. lo))
          end
          else find (b + 1) cum'
      in
      let est = find 0 0 in
      Float.max (float_of_int t.min) (Float.min (float_of_int t.max) est)
    end

  let p50 t = quantile t 0.5
  let p90 t = quantile t 0.9
  let p99 t = quantile t 0.99

  let pp ppf t =
    Fmt.pf ppf "count=%d min=%d p50=%.0f p90=%.0f p99=%.0f max=%d mean=%.1f" t.count
      (min_value t) (p50 t) (p90 t) (p99 t) (max_value t) (mean t)
end

type metric =
  | M_counter of Counter.t
  | M_gauge of Gauge.t
  | M_histogram of Histogram.t

type t = { tbl : (string, metric) Hashtbl.t; mutable order : string list (* reversed *) }

let create () = { tbl = Hashtbl.create 16; order = [] }

(* Lookups are written out per kind rather than through a generic
   [find_or_add ~make ~cast]: sinks resolve metrics by name inside
   per-event handlers, and the closure pair the generic version
   allocates on every call shows up in allocation profiles.  The hit
   path below allocates nothing ([Hashtbl.find] + exception, avoiding
   [find_opt]'s [Some]). *)

let register t name m =
  Hashtbl.add t.tbl name m;
  t.order <- name :: t.order

let counter t name =
  match Hashtbl.find t.tbl name with
  | M_counter c -> c
  | M_gauge _ | M_histogram _ ->
    invalid_arg (Fmt.str "Metrics.counter: %S is not a counter" name)
  | exception Not_found ->
    let c = Counter.create () in
    register t name (M_counter c);
    c

let gauge t name =
  match Hashtbl.find t.tbl name with
  | M_gauge g -> g
  | M_counter _ | M_histogram _ ->
    invalid_arg (Fmt.str "Metrics.gauge: %S is not a gauge" name)
  | exception Not_found ->
    let g = Gauge.create () in
    register t name (M_gauge g);
    g

let histogram t name =
  match Hashtbl.find t.tbl name with
  | M_histogram h -> h
  | M_counter _ | M_gauge _ ->
    invalid_arg (Fmt.str "Metrics.histogram: %S is not a histogram" name)
  | exception Not_found ->
    let h = Histogram.create () in
    register t name (M_histogram h);
    h

let names t = List.rev t.order

let pp ppf t =
  let field ppf name =
    match Hashtbl.find t.tbl name with
    | M_counter c -> Fmt.pf ppf "%s: %d" name (Counter.value c)
    | M_gauge g -> Fmt.pf ppf "%s: %g" name (Gauge.value g)
    | M_histogram h -> Fmt.pf ppf "%s: %a" name Histogram.pp h
  in
  Fmt.pf ppf "@[<v>%a@]" (Fmt.list ~sep:Fmt.cut field) (names t)
