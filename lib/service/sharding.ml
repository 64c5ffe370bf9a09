(* Key → shard routing.  Value hashes are structural and precomputed,
   so routing is O(1), deterministic across runs and across domains,
   and independent of physical identity.  One extra mix round
   decorrelates the shard index from the raw hash, which callers also
   use for other purposes (state keys, [Value.share]). *)

open Shm

let salt = 0x5e47_a9c3

let shard_of_key ~shards key =
  if shards <= 0 then invalid_arg "Sharding.shard_of_key: shards must be positive";
  let h = Value.mix salt (Value.hash key) in
  h land max_int mod shards

let shard_of_int ~shards i = shard_of_key ~shards (Value.int i)
