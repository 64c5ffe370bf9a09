(* Non-blocking multi-writer snapshot by double collect.

   Each component register holds [Pair (tag, v)] where [tag] is unique
   per write.  A scan repeatedly collects all components one register
   read at a time until two consecutive collects are identical
   (including tags); the scan then linearizes between those collects:
   identical unique tags imply no write touched any component in the
   window.  Updates are single writes and linearize there.

   Scans are only non-blocking: a concurrent writer can starve a
   scanner.  This is the behaviour the paper designs around in Figure 5
   (the extra register H rescues starving processes), and our tests
   exercise exactly that.

   Tag uniqueness comes either from the writer's process id plus a local
   sequence number ([make]) or — for anonymous systems, where programs
   may not mention ids — from a per-process deterministic PRNG nonce
   plus a local sequence number ([make_anonymous]).  The latter is the
   standard practical realization of Guerraoui–Ruppert [7]-style
   anonymous snapshots: identical program text, uniqueness with
   overwhelming probability.  See DESIGN.md, substitution 5. *)

let same_view a b =
  Array.length a = Array.length b
  &&
  let rec go i = i >= Array.length a || (Shm.Value.equal a.(i) b.(i) && go (i + 1)) in
  go 0

let encode ~tag v = Shm.Value.pair tag v

let decode v =
  match Shm.Value.view v with
  | Shm.Value.Bot -> Shm.Value.bot
  | Shm.Value.Pair (_, v) -> v
  | _ -> invalid_arg (Fmt.str "Double_collect.decode: %a" Shm.Value.pp v)

(* One collect: read the [len] component registers one at a time (each
   read is a separate simulator step, so writers can interleave). *)
let collect ~off ~len k =
  let rec go i acc =
    if i >= len then k (Array.of_list (List.rev acc))
    else Shm.Program.read (off + i) (fun v -> go (i + 1) (v :: acc))
  in
  go 0 []

(* [max_retries]: a scan fails loudly after this many unequal double
   collects, surfacing livelock in tests rather than spinning the
   simulator forever.  [None] retries forever (honest non-blocking). *)
let make_with_tag ~off ~len ?max_retries fresh_tag seed0 : Snap_api.t =
  let rec api state : Snap_api.t =
    let update i v k =
      if i < 0 || i >= len then invalid_arg "Double_collect.update: component out of range";
      let tag, state' = fresh_tag state in
      Shm.Program.write (off + i) (encode ~tag v) (fun () -> k (api state'))
    in
    let scan k =
      let rec attempt tries prev =
        (match max_retries with
        | Some b when tries > b ->
          failwith
            (Fmt.str "Double_collect.scan: no clean double collect after %d attempts" b)
        | Some _ | None -> ());
        collect ~off ~len (fun cur ->
            match prev with
            | Some p when same_view p cur -> k (api state) (Array.map decode cur)
            | Some _ | None -> attempt (tries + 1) (Some cur))
      in
      attempt 0 None
    in
    { Snap_api.components = len; update; scan }
  in
  api seed0

let make ~off ~len ~pid ?max_retries () =
  let fresh_tag seq = (Shm.Value.pair (Shm.Value.int pid) (Shm.Value.int seq), seq + 1) in
  make_with_tag ~off ~len ?max_retries fresh_tag 0

let make_anonymous ~off ~len ~seed =
  let fresh_tag (state, seq) =
    let nonce, state' = Shm.Rng.pure_step state in
    (Shm.Value.pair (Shm.Value.int (Int64.to_int nonce)) (Shm.Value.int seq), (state', seq + 1))
  in
  make_with_tag ~off ~len fresh_tag (Int64.of_int seed, 0)

let footprint ~len =
  {
    Snap_api.registers = len;
    wait_free = false;
    description = "double-collect snapshot (non-blocking, r registers)";
  }
