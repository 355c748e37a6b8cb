(** Decoded-node LRU cache, keyed by chunk identity.

    POS-Tree reads repeat: every lookup walks root → leaf, and the upper
    index nodes are shared by nearly all paths, so the same chunks are
    fetched and decoded over and over.  Content addressing makes the cache
    trivially coherent on the write side — a chunk's bytes never change
    under its hash — so the only staleness hazard is {e deletion} (GC
    sweep, scrub quarantine).  Two mechanisms close it:

    - every cache registers a {!Fb_chunk.Store.on_delete} hook, so
      deletions through [Store.delete] invalidate eagerly;
    - {!find_live} re-probes [Store.mem] on every hit, so even a deletion
      that bypassed the hook (raw backend access) can never be served from
      the cache.  A hit therefore costs one [Store.mem] of the store it is
      given; under [Verified_store ~once:true] that is the inner backend's
      index probe for any chunk already read (and so hashed) through it.

    Capacity comes from the [FB_NODE_CACHE] environment variable (entries
    per cache, default 1024, [0] disables); benches flip all caches at once
    with {!set_capacity_all}.  Hit/miss/size/ratio are exported as Obs
    gauges named [node_cache.<name>.*]. *)

type 'a t

val default_capacity : int
(** Capacity new caches start with: [FB_NODE_CACHE] if set, else 1024. *)

val create : name:string -> 'a t
(** New cache registered under [node_cache.<name>] in the Obs registry and
    hooked into store deletions. *)

val find_live : 'a t -> Fb_chunk.Store.t -> Fb_hash.Hash.t -> 'a option
(** Cached value for a chunk id, provided the chunk is still present in
    [store]; a stale entry is dropped and reported as a miss. *)

val add : 'a t -> Fb_hash.Hash.t -> 'a -> unit
(** Remember a decoded value (no-op when disabled; evicts LRU when full). *)

val invalidate : 'a t -> Fb_hash.Hash.t -> unit
(** Drop one entry (idempotent). *)

val clear : 'a t -> unit
(** Drop everything (does not count as invalidations). *)

val set_capacity : 'a t -> int -> unit
(** Change capacity; shrinking evicts cold entries, [0] disables. *)

val set_capacity_all : int -> unit
(** {!set_capacity} on every cache in the process — bench on/off switch. *)

type stats = {
  hits : int;
  misses : int;
  evictions : int;
  invalidations : int;
  size : int;
}

val stats : 'a t -> stats
