(** Content-addressed chunk store.

    The store maps chunk identity (SHA-256 of encoded bytes) to the encoded
    bytes; writing a chunk whose identity is already present is a no-op that
    is counted as a {e dedup hit}.  This is where ForkBase's storage savings
    materialize: POS-Tree pages shared between versions, branches, or whole
    datasets occupy physical space exactly once (paper §II-C, §III-A).

    Backends are packaged as a record of operations so that higher layers
    are agnostic to where bytes live (memory, directory of files, or a
    deliberately malicious wrapper in the tamper-evidence experiments). *)

type stats = {
  physical_chunks : int;  (** distinct chunks held *)
  physical_bytes : int;   (** sum of encoded sizes of distinct chunks *)
  puts : int;             (** put calls *)
  dedup_hits : int;       (** puts that found the chunk already present *)
  logical_bytes : int;    (** sum of encoded sizes over all puts *)
  gets : int;             (** get calls *)
}

val empty_stats : stats
val pp_stats : Format.formatter -> stats -> unit

val dedup_ratio : stats -> float
(** [logical_bytes / physical_bytes], floored at 1.0 — [logical_bytes]
    only counts the current session's puts, so a freshly reopened durable
    store reports 1.0 until it writes. *)

exception Transient of string
(** A storage fault that may succeed on retry (flaky medium, lost RPC,
    injected by {!Faulty_store}).  Backends raise it from any operation;
    {!Cluster_store} absorbs it with bounded retries, and the API layer
    surfaces what escapes as a typed [Errors.Transient] value. *)

type t = {
  name : string;
  put : Chunk.t -> Fb_hash.Hash.t;
  ingest : t -> Chunk.t -> Fb_hash.Hash.t;
    (** [ingest self chunk] stores a chunk whose encoded bytes an ingest
        gate has just hashed against its id ([Sync.verify_encoded]):
        [self] is the outermost store the call came through, and the
        write goes through [self.put], so a wrapper that replaces only
        [put] still sees it.  Backends use {!plain_ingest}; an integrity
        layer may also trust what the write stored
        ({!Verified_store.wrap}'s [once] mode). *)
  get : Fb_hash.Hash.t -> Chunk.t option;
  get_raw : Fb_hash.Hash.t -> string option;
    (** Encoded bytes as stored, {e without} integrity checking — the raw
        view a malicious provider would serve.  Verification layers hash
        these bytes themselves. *)
  peek : Fb_hash.Hash.t -> string option;
    (** Same bytes as [get_raw] but {e outside} the accounting: does not
        bump the [gets] counter.  Internal maintenance passes (GC marking,
        scrub) read through here so sweeps do not skew workload stats. *)
  mem : Fb_hash.Hash.t -> bool;
  stats : unit -> stats;
  iter : (Fb_hash.Hash.t -> string -> unit) -> unit;
    (** Iterate over (identity, encoded bytes) of every stored chunk.
        Reads every payload: for passes that need the bytes (scrub, pack
        export, rebalance). *)
  ids : (Fb_hash.Hash.t -> unit) -> unit;
    (** The identities [iter] would visit, without reading any chunk
        bytes: an index snapshot, an id table or a directory listing.
        Composites take the same union [iter] takes.  Enumeration-only
        callers (the sync Bloom summary) use this. *)
  delete : Fb_hash.Hash.t -> bool;
    (** Remove a chunk (garbage collection only); [true] if it existed. *)
}

val put : t -> Chunk.t -> Fb_hash.Hash.t

val ingest : t -> Chunk.t -> Fb_hash.Hash.t
(** [ingest t chunk] is [t.ingest t chunk]. *)

val plain_ingest : t -> Chunk.t -> Fb_hash.Hash.t
(** [plain_ingest self chunk] is [self.put chunk]: an ingest that is a
    plain put. *)

val get : t -> Fb_hash.Hash.t -> Chunk.t option
val peek : t -> Fb_hash.Hash.t -> string option

val get_exn : t -> Fb_hash.Hash.t -> Chunk.t
(** @raise Not_found if the chunk is absent. *)

val mem : t -> Fb_hash.Hash.t -> bool
val ids : t -> (Fb_hash.Hash.t -> unit) -> unit
val stats : t -> stats

val physical_bytes : t -> int
(** Shorthand for [(stats t).physical_bytes] — the quantity whose delta the
    Fig. 4 experiment reports. *)

val delete : t -> Fb_hash.Hash.t -> bool
(** Remove a chunk and, if it existed, notify every {!on_delete} listener.
    Maintenance passes (GC sweep, scrub quarantine) must delete through
    here rather than the raw record field so identity-keyed caches never
    serve data for chunks that are gone. *)

val on_delete : (Fb_hash.Hash.t -> unit) -> unit
(** Register a process-wide deletion hook, called with the identity of
    every chunk removed via {!delete}.  Used by the decoded-node cache for
    invalidation.  Listeners must not raise and must not call back into
    the store. *)

val sink : t
(** A store that keeps nothing: [put] returns the chunk's id and every
    read finds nothing.  A tree built into it yields its root id alone —
    how the POS-Tree validators rebuild a tree to compare roots. *)
