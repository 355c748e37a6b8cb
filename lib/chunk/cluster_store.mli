(** Consistent-hash cluster of chunk stores — W-way replication,
    failover reads, read repair, and rebalance on membership change.

    This is the routing tier of the paper's distributed layer (§II):
    chunk ids are placed on a hash ring of virtual nodes, each chunk is
    written to the [replicas] distinct members that own its ring
    position, and reads walk the owner list in preference order, failing
    over past members that are down, transiently failing, missing the
    chunk, or serving bytes that do not re-hash to the id.  A read
    satisfied by a non-first owner triggers {e read repair}: the healthy
    bytes are re-put to every owner that could not serve them, so
    replica counts converge back to W under a workload alone.  A member
    that served bad bytes has its copy deleted only then, just before
    the healthy bytes go back: bad bytes may be a flip on the read path
    over the last healthy copy, so a read that finds no good copy
    deletes nothing.

    Members are plain {!Store.t}s, so the same engine clusters local
    stores in tests ({!Mem_store}, {!Faulty_store}) and real
    [forkbase serve] nodes through [Fb_net.Remote.chunk_store] in
    production — the store neither knows nor cares where members live.

    Placement is a pure function of (chunk id, ring): {!ring_of} and
    {!owner_ranks} are exposed so tests can check routing determinism
    and the rebalance delta independently of any live cluster.

    Fault discipline: {!Store.Transient} from a member is retried
    [max_retries] times with jittered exponential backoff
    ({!backoff_duration}) against that member, then the next owner is
    tried; a put or read that reaches {e no} owner raises
    {!Store.Transient} (a read that some owner answered, even with bad
    bytes or "absent", returns [None]); permanent refusals (corrupt
    bytes) are never retried against the same member.

    Per-node outcomes are exported as observability gauges
    [cluster.<name>.node.<i>.{up,puts,failovers,repairs}]. *)

type t

(** {1 Pure placement} *)

val ring_of : virtual_nodes:int -> string list -> (string * int) array
(** [virtual_nodes] points per member on the ring, keyed by the SHA-256
    of ["<member-name>#<v>"] rendered in hex — the same key space chunk
    ids live in.  Sorted; the [int] is the member's index in the input
    list. *)

val owner_ranks :
  ring:(string * int) array -> replicas:int -> Fb_hash.Hash.t -> int list
(** The first [replicas] {e distinct} member indices clockwise from the
    id's ring position, preference order.  Deterministic in (id, ring)
    only. *)

val backoff_duration :
  ?max_backoff_s:float -> backoff_s:float -> jitter:float -> int -> float
(** [backoff_duration ~backoff_s ~jitter attempt] is the pre-retry sleep
    for the given (0-based) attempt: [backoff_s * 2^min(attempt, 16) *
    (0.5 + jitter)], capped at [max_backoff_s] (default [1.0]).  [jitter]
    is a uniform draw in [\[0, 1)]; the exponent cap keeps the shift from
    overflowing on large attempt counts.  Exposed for tests. *)

(** {1 Cluster lifecycle} *)

val create :
  ?name:string ->
  ?replicas:int ->
  ?virtual_nodes:int ->
  ?max_retries:int ->
  ?backoff_s:float ->
  members:(string * Store.t) list ->
  unit ->
  t
(** Defaults: [name = "cluster"], [replicas = 2] (clamped to the member
    count), [virtual_nodes = 64], [max_retries = 2], [backoff_s = 0.]
    (no sleeping between retries — pass e.g. [0.005] in production). *)

val store : t -> Store.t
(** The routing store.  [iter] and [ids] union distinct chunks across up
    members (skipping members that refuse enumeration);
    [delete] addresses every member (GC must reach all replicas);
    [stats] aggregates this cluster handle's own traffic. *)

val owners : t -> Fb_hash.Hash.t -> string list
(** Current owner members of a chunk id, preference order. *)

val set_down : t -> string -> bool -> unit
(** Administratively mark a member down/up: a down member is skipped by
    reads and writes without waiting for its store to fail.  Members
    that raise are {e not} auto-marked — liveness belongs to the
    caller/harness; the per-op failover already routes around them. *)

val add_member : t -> string * Store.t -> unit
(** Extend the ring.  Only chunks whose owner set changes are affected;
    run {!rebalance} to move that delta. *)

val remove_member : t -> string -> unit
(** Drop a member from the ring (its store is not closed).  Chunks it
    owned acquire a new owner; {!rebalance} re-replicates them. *)

type rebalance_report = {
  scanned : int;        (** distinct chunks examined *)
  moved_chunks : int;   (** copies created on new owners *)
  moved_bytes : int;
  unplaceable : int;    (** chunks whose owners were all down/failing *)
}

val rebalance : t -> rebalance_report
(** Walk every distinct chunk reachable through any up member and copy
    it to owners that lack it.  After a membership change this moves
    exactly the hash-ring delta — chunks whose owner set is unchanged
    already reside on their owners and are skipped.  Never deletes:
    copies on former owners stay until GC. *)

(** {1 Introspection} *)

type node_stats = {
  node : string;
  up : bool;
  puts : int;        (** successful replica writes to this member *)
  failovers : int;   (** reads this member failed to serve (skipped past) *)
  repairs : int;     (** read-repair copies written to this member *)
  chunks : int;      (** member-reported physical chunks *)
  bytes : int;
}

type cluster_stats = {
  failover_reads : int;  (** reads served by a non-first owner *)
  repaired : int;        (** read-repair copies written, total *)
  rejected : int;        (** replica reads refused by the hash check *)
  under_replicated : int;(** puts acknowledged by fewer than W owners *)
  unavailable : int;     (** ops that found no live owner at all *)
}

val node_stats : t -> node_stats list
val cluster_stats : t -> cluster_stats
val members : t -> string list
val replicas : t -> int

val close : t -> unit
(** Unregister the cluster's observability gauges.  Member stores are
    not touched — they belong to the caller. *)
