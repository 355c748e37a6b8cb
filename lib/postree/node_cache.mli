(** Decoded-node LRU cache, keyed by chunk identity, with admission on
    second miss once full.

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

    Admission.  While the cache holds fewer than its capacity, every
    {!add} is admitted.  Once it is full, {!add} admits an id only if that
    id is in the {e ghost} set: the ids of the last
    [ghost_multiple × capacity] values it rejected (a FIFO of ids, never
    values, in the style of 2Q's A1out and TinyLFU's doorkeeper).
    Otherwise it records the id there and drops the value.  The reason is
    the one-pass scan: a diff of two large trees reads more fresh nodes
    than the cache holds and never reads them again.  Under plain LRU each would be inserted, live long enough to be
    promoted to the major heap, and evict a resident that would have hit.
    With this rule such a scan leaves the residents in place, and a node
    read twice within the window still gets in.  A cache whose working
    set fits never fills, so the rule never engages there.  {!clear} and
    {!set_capacity} empty the ghost set, so a cache switched off and back
    on behaves as a fresh one.

    Capacity comes from the [FB_NODE_CACHE] environment variable (entries
    per cache, default 1024, [0] disables); benches flip all caches at once
    with {!set_capacity_all}.  Hit/miss/rejected/size/ratio are exported as
    Obs gauges named [node_cache.<name>.*]. *)

type 'a t

val default_capacity : int
(** Capacity new caches start with: [FB_NODE_CACHE] if set, else 1024. *)

val ghost_multiple : int
(** The ghost set holds the last [ghost_multiple × capacity] rejected
    ids (4). *)

val create : name:string -> 'a t
(** New cache registered under [node_cache.<name>] in the Obs registry and
    hooked into store deletions. *)

val find_live : 'a t -> Fb_chunk.Store.t -> Fb_hash.Hash.t -> 'a option
(** Cached value for a chunk id, provided the chunk is still present in
    [store]; a stale entry is dropped and reported as a miss. *)

val add : 'a t -> Fb_hash.Hash.t -> 'a -> unit
(** Remember a decoded value.  No-op when disabled.  Below capacity it is
    always admitted; once full, only if its id was rejected within the
    ghost window (then the LRU entry is evicted), else the id is recorded
    as rejected and the value dropped. *)

val invalidate : 'a t -> Fb_hash.Hash.t -> unit
(** Drop one entry (idempotent). *)

val clear : 'a t -> unit
(** Drop everything, ghost set included (does not count as
    invalidations). *)

val set_capacity : 'a t -> int -> unit
(** Change capacity and empty the ghost set; shrinking evicts cold
    entries, [0] disables. *)

val set_capacity_all : int -> unit
(** {!set_capacity} on every cache in the process — bench on/off switch. *)

type stats = {
  hits : int;
  misses : int;
  evictions : int;
  invalidations : int;
  rejected : int;  (** [add]s a full cache dropped on a first miss *)
  size : int;
}

val stats : 'a t -> stats
