(* Single-writer atomic snapshot of Afek, Attiya, Dolev, Gafni, Merritt
   and Shavit [1], unbounded-sequence-number version, over n single-
   writer registers.

   Register [off+p] is written only by process p and holds
   [List [Int seq; data; List view]]: p's sequence number, p's current
   segment, and the data view p embedded at its last update (the
   "helping" view).

   scan: collect repeatedly.  Two identical consecutive collects (same
   sequence numbers everywhere) form a direct scan.  Otherwise, a
   register observed with three distinct sequence numbers belongs to a
   process whose entire update — including its embedded scan — ran
   within our scan interval, so we may borrow (and linearize at) its
   embedded view.  At most 2n+1 collects are needed: wait-free.

   update(p, d): scan, then write (seq+1, d, view).

   A read checks the cell's shape and keeps its embedded view encoded
   (⊥ if unwritten): only a scan that borrows the view decodes it. *)

type cell = { seq : int; data : Shm.Value.t; view : Shm.Value.t }

let unwritten = { seq = 0; data = Shm.Value.bot; view = Shm.Value.bot }

let decode v =
  match Shm.Value.view v with
  | Shm.Value.Bot -> unwritten
  | Shm.Value.List [ seq; data; view ]
    when (match Shm.Value.view seq with Shm.Value.Int _ -> true | _ -> false)
         && (match Shm.Value.view view with Shm.Value.List _ -> true | _ -> false) ->
    { seq = Shm.Value.to_int seq; data; view }
  | _ -> invalid_arg (Fmt.str "Afek.decode: %a" Shm.Value.pp v)

(* The embedded view as n segments; an unwritten register's is n × ⊥. *)
let borrow ~n c =
  if Shm.Value.is_bot c.view then Array.make n Shm.Value.bot
  else Array.of_list (Shm.Value.to_list c.view)

let collect ~off ~n k =
  let rec go p acc =
    if p >= n then begin
      let cur = Array.make n unwritten in
      List.iteri (fun i c -> cur.(n - 1 - i) <- c) acc;
      k cur
    end
    else Shm.Program.read (off + p) (fun v -> go (p + 1) (decode v :: acc))
  in
  go 0 []

(* The first register observed with >= 3 distinct seqs, or [n]. *)
let rec thrice seen q =
  if q < Array.length seen && List.compare_length_with seen.(q) 3 < 0 then
    thrice seen (q + 1)
  else q

(* [scan ~off ~n k]: pass the atomic data view (n segments) to [k]. *)
let scan ~off ~n k =
  (* [prev] is the previous collect ([||] before the first); [seen.(q)]
     is the list of distinct seqs observed for register q. *)
  let rec attempt prev seen =
    collect ~off ~n (fun cur ->
        let same (a : cell) (b : cell) = a.seq = b.seq in
        if Array.length prev = n && Array.for_all2 same prev cur then
          k (Array.map (fun c -> c.data) cur)
        else begin
          let note q seqs =
            if List.mem cur.(q).seq seqs then seqs else cur.(q).seq :: seqs
          in
          let seen = Array.mapi note seen in
          (* A register with >= 3 distinct observed seqs: its latest
             writer's update ran entirely inside our interval. *)
          let q = thrice seen 0 in
          if q < n then k (borrow ~n cur.(q)) else attempt cur seen
        end)
  in
  attempt [||] (Array.make n [])

(* [update ~off ~n ~pid ~seq data k]: install [data] as process [pid]'s
   segment; passes the new sequence number to [k]. *)
let update ~off ~n ~pid ~seq data k =
  scan ~off ~n (fun view ->
      let view = Shm.Value.list (Array.to_list view) in
      let cell = Shm.Value.list [ Shm.Value.int (seq + 1); data; view ] in
      Shm.Program.write (off + pid) cell (fun () -> k (seq + 1)))
