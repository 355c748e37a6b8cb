(** Mark-and-sweep garbage collection over a chunk store.

    Chunks are immutable and shared, so deletion is only safe from the
    roots: everything reachable from a live version uid stays.  The child
    relation is supplied by the caller (the chunk layer cannot parse
    POS-Tree or FNode payloads without depending on those libraries). *)

type result = {
  live_chunks : int;
  swept_chunks : int;
  swept_bytes : int;
}

val reachable :
  Store.t ->
  children:(Chunk.t -> Fb_hash.Hash.t list) ->
  roots:Fb_hash.Hash.t list ->
  Fb_hash.Hash.Set.t
(** Transitive closure of [roots] under [children].  Missing chunks are
    skipped (they are surfaced by verification, not by GC).  Reads go
    through the store's non-counting [peek], so marking does not inflate
    the [gets] statistic. *)

val sweep :
  Store.t ->
  children:(Chunk.t -> Fb_hash.Hash.t list) ->
  roots:Fb_hash.Hash.t list ->
  result
(** Delete every chunk not reachable from [roots].  Dead chunks are found
    by enumerating ids, so besides marking only the dead payloads are read
    (once each, through [peek], to total [swept_bytes]). *)
