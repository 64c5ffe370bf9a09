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

   update(p, d): scan, then write (seq+1, d, view). *)

type cell = { seq : int; data : Shm.Value.t; view : Shm.Value.t array }

let decode ~n v =
  match Shm.Value.view v with
  | Shm.Value.Bot ->
    { seq = 0; data = Shm.Value.bot; view = Array.make n Shm.Value.bot }
  | Shm.Value.List [ seq; data; view ]
    when (match Shm.Value.view seq with Shm.Value.Int _ -> true | _ -> false)
         && (match Shm.Value.view view with Shm.Value.List _ -> true | _ -> false) ->
    {
      seq = Shm.Value.to_int seq;
      data;
      view = Array.of_list (Shm.Value.to_list view);
    }
  | _ -> invalid_arg (Fmt.str "Afek.decode: %a" Shm.Value.pp v)

let encode { seq; data; view } =
  Shm.Value.list
    [ Shm.Value.int seq; data; Shm.Value.list (Array.to_list view) ]

let collect ~off ~n k =
  let rec go p acc =
    if p >= n then k (Array.of_list (List.rev acc))
    else Shm.Program.read (off + p) (fun v -> go (p + 1) (decode ~n v :: acc))
  in
  go 0 []

(* [scan ~off ~n k]: pass the atomic data view (n segments) to [k]. *)
let scan ~off ~n k =
  (* [seen.(q)] is the list of distinct seqs observed for register q. *)
  let rec attempt prev seen =
    collect ~off ~n (fun cur ->
        let direct =
          match prev with
          | None -> false
          | Some p ->
            Array.for_all2 (fun (a : cell) (b : cell) -> a.seq = b.seq) p cur
        in
        if direct then k (Array.map (fun c -> c.data) cur)
        else begin
          let seen =
            Array.mapi
              (fun q seqs ->
                if List.mem cur.(q).seq seqs then seqs else cur.(q).seq :: seqs)
              seen
          in
          (* A register with >= 3 distinct observed seqs: its latest
             writer's update ran entirely inside our interval. *)
          match
            Array.to_list seen
            |> List.mapi (fun q seqs -> (q, List.length seqs))
            |> List.find_opt (fun (_, c) -> c >= 3)
          with
          | Some (q, _) -> k cur.(q).view
          | None -> attempt (Some cur) seen
        end)
  in
  attempt None (Array.make n [])

(* [update ~off ~n ~pid ~seq data k]: install [data] as process [pid]'s
   segment; passes the new sequence number to [k]. *)
let update ~off ~n ~pid ~seq data k =
  scan ~off ~n (fun view ->
      let cell = { seq = seq + 1; data; view } in
      Shm.Program.write (off + pid) (encode cell) (fun () -> k (seq + 1)))
