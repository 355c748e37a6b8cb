(** ForkBase — the public API (Fig. 1: Put, Get, List, Branch, Merge,
    Select, Stat, Export, Diff, Head, Rename, Latest, Meta).

    An instance wraps a content-addressed chunk store, a branch table and an
    access-control list.  Objects are identified by string keys; each key
    carries one or more branches; every Put appends a tamper-evident
    version (uid = Merkle root hash of the FNode, rendered to users in RFC
    4648 Base32).  All operations return typed results — nothing raises
    across this boundary. *)

type t

type uid = Fb_hash.Hash.t

(** {1 Instances} *)

val create :
  ?acl:Acl.t -> ?journal:(Fb_chunk.Log_store.ref_table -> Fb_repr.Branch.journal) ->
  Fb_chunk.Store.t -> t
(** New instance over [store]; the default ACL is {!Acl.open_instance}.
    [journal table] records every head move of the branch or tag table
    (set, remove, rename) and each mutating call returns only after its
    acknowledgement wait ({!Fb_repr.Branch.journal}); without it heads
    live in memory only. *)

val store : t -> Fb_chunk.Store.t
val acl : t -> Acl.t
val branch_table : t -> Fb_repr.Branch.t

(** {1 Change notification}

    In-process observers for collaborative tooling (the Web UI's live
    panes): a callback fires after any operation moves a branch head —
    Put, CAS, atomic batch, merge, fork, and bundle import.  Callbacks
    run synchronously on the mutating caller; exceptions they raise are
    swallowed. *)

type watch

type head_event = {
  key : string;
  branch : string;
  new_head : uid;
  old_head : uid option;  (** [None] when the branch was created *)
}

val watch :
  ?key:string -> ?branch:string -> t -> (head_event -> unit) -> watch
(** Observe head movements, optionally filtered to one key and/or branch
    name. *)

val unwatch : t -> watch -> unit

val with_deferred_watch : t -> (unit -> 'a) -> 'a * (unit -> unit)
(** [with_deferred_watch t f] runs [f] with watch delivery deferred: head
    events raised inside [f] are queued instead of invoking callbacks.
    Returns [f]'s result and a flush thunk that delivers the queued
    events; callers holding a lock around [f] (the network server's
    exclusive section) call the thunk {e after} releasing it, so watch
    callbacks can take arbitrary time — or themselves issue reads —
    without extending the exclusive section.  Deferral nests and is
    thread-safe; under concurrent deferred mutators the last finisher's
    thunk delivers the union, preserving order.  [f] is a write section:
    the chunks {!sync_put} stores inside it are trusted by its closure
    check until the outermost section ends. *)

(** {1 Writing} *)

val put :
  ?user:string ->
  ?message:string ->
  ?branch:string ->
  t ->
  key:string ->
  Fb_types.Value.t ->
  (uid, Errors.t) result
(** Append a version to [branch] (default ["master"], created on first
    Put).  [user] (default ["anonymous"]) needs [Write] on the branch. *)

val put_cas :
  ?user:string ->
  ?message:string ->
  ?branch:string ->
  t ->
  key:string ->
  expected_head:uid option ->
  Fb_types.Value.t ->
  (uid, Errors.t) result
(** Compare-and-swap Put for optimistic concurrency between writers
    sharing a branch: commits only if the branch head still equals
    [expected_head] ([None] = the branch must not exist yet); otherwise
    returns [Error (Merge_conflict _)] and the caller re-reads, re-applies
    and retries — no lost updates. *)

val put_all :
  ?user:string ->
  ?message:string ->
  ?branch:string ->
  t ->
  (string * Fb_types.Value.t) list ->
  ((string * uid) list, Errors.t) result
(** Atomic multi-key Put: commit a version for every (key, value) pair and
    move all the branch heads together, or — on any permission or argument
    failure — move none.  Keys must be distinct.  Orphaned chunks from a
    failed attempt are reclaimed by {!gc}.  A journal records the moves
    one by one, so a crash part-way through keeps a prefix of them. *)

(** {1 Reading} *)

val get :
  ?user:string -> ?branch:string -> t -> key:string ->
  (Fb_types.Value.t, Errors.t) result

val get_at : ?user:string -> t -> uid -> (Fb_types.Value.t, Errors.t) result
(** Retrieve a historical version by uid. *)

val head : ?user:string -> ?branch:string -> t -> key:string ->
  (uid, Errors.t) result

val latest : ?user:string -> t -> key:string ->
  ((string * uid) list, Errors.t) result
(** All branch heads of a key — branch name and uid, sorted by name. *)

val meta : ?user:string -> t -> uid -> (Fb_repr.Fnode.t, Errors.t) result
(** Version metadata: key, bases, author, message, logical clock. *)

val get_as_of :
  ?user:string -> ?branch:string -> t -> key:string -> seq:int ->
  (Fb_types.Value.t, Errors.t) result
(** Time travel: the value of the newest version on the branch whose
    logical clock is <= [seq].  Errors if the branch has no version that
    old. *)

val list_keys : ?user:string -> t -> string list
(** Keys with at least one branch the user can read. *)

val log :
  ?user:string -> ?branch:string -> ?limit:int -> t -> key:string ->
  (Fb_repr.Fnode.t list, Errors.t) result
(** History of a branch head, newest first. *)

(** {1 Branching} *)

val fork :
  ?user:string -> ?from_branch:string -> t -> key:string ->
  new_branch:string -> (uid, Errors.t) result
(** Create [new_branch] pointing at [from_branch]'s head.  O(1): no data is
    copied, the new branch shares every chunk. *)

val fork_at :
  ?user:string -> t -> key:string -> new_branch:string -> uid ->
  (uid, Errors.t) result
(** Branch from a historical version. *)

val rename_branch :
  ?user:string -> t -> key:string -> from_branch:string -> to_branch:string ->
  (unit, Errors.t) result

val delete_branch :
  ?user:string -> t -> key:string -> branch:string -> (unit, Errors.t) result

(** {1 Tags}

    Named, immutable pointers to versions (the [git tag] analogue):
    released dataset editions, audit snapshots.  Unlike branch heads they
    never move — retagging a name fails — and they are GC roots. *)

val tag :
  ?user:string -> t -> key:string -> name:string -> uid ->
  (unit, Errors.t) result
(** Requires [Admin] on the key; the version must exist and belong to
    [key]; the name must be fresh. *)

val tags : ?user:string -> t -> key:string -> (string * uid) list
(** Tags of a key the user may read, sorted by name. *)

val tag_lookup :
  ?user:string -> t -> key:string -> name:string -> (uid, Errors.t) result

val delete_tag :
  ?user:string -> t -> key:string -> name:string -> (unit, Errors.t) result

val tag_table : t -> Fb_repr.Branch.t
(** The underlying name→uid table (recovery, like {!branch_table}). *)

(** {1 Diff and merge} *)

val diff :
  ?user:string -> t -> key:string -> branch1:string -> branch2:string ->
  (Diffview.t, Errors.t) result
(** Differential query between two branch heads (paper §III-B). *)

val diff_versions :
  ?user:string -> t -> uid -> uid -> (Diffview.t, Errors.t) result

type merge_strategy =
  | Fail_on_conflict  (** report conflicts, merge nothing *)
  | Prefer_ours       (** conflicting entries keep [into]'s side *)
  | Prefer_theirs     (** conflicting entries take [from]'s side *)

val merge :
  ?user:string ->
  ?message:string ->
  ?strategy:merge_strategy ->
  t ->
  key:string ->
  into:string ->
  from_branch:string ->
  (uid, Errors.t) result
(** Three-way merge of [from_branch] into [into] (paper §II-B): the base is
    the deepest common ancestor in the derivation DAG; fast-forwards are
    detected; structured values (map, set, table with equal schemas) merge
    at sub-tree level, reusing disjointly-modified pages (Fig. 3).  The
    merge FNode carries both heads as bases. *)

val merge_preview :
  ?user:string -> t -> key:string -> into:string -> from_branch:string ->
  ([ `Fast_forward | `Already_merged | `Clean | `Conflicts of string list ],
   Errors.t) result
(** Dry-run merge classification — nothing is committed, no head moves and
    no chunk is written (it needs only [Read] on both branches): what
    {!merge} with the default strategy would do. *)

(** {1 Dataset conveniences (Select / Export)} *)

val select :
  ?user:string -> ?branch:string -> t -> key:string ->
  (Fb_types.Table.row -> bool) ->
  (Fb_types.Table.row list, Errors.t) result
(** Filter rows of a table-valued key. *)

val table_stat :
  ?user:string -> ?branch:string -> t -> key:string ->
  (Fb_types.Table.col_stat list, Errors.t) result

type row_event = {
  version : uid;
  author : string;
  message : string;
  seq : int;
  change : Fb_types.Table.row_change;
}

val row_history :
  ?user:string -> ?branch:string -> ?limit:int -> t -> key:string ->
  row:string -> (row_event list, Errors.t) result
(** Provenance of one row of a table-valued key — the [git blame]/[git log
    -p] analogue: every version along the branch history where the row was
    added, removed or modified, newest first.  POS-Tree diffs make each
    step O(D log N), so auditing one row of a large dataset does not scan
    it.  [limit] caps the number of {e versions} examined. *)

val export_csv :
  ?user:string -> ?branch:string -> t -> key:string ->
  (string, Errors.t) result

val import_csv :
  ?user:string -> ?message:string -> ?branch:string -> ?key_column:int ->
  t -> key:string -> string -> (uid, Errors.t) result
(** Parse CSV (header + rows) into a table value and Put it.  Write is
    checked first: a refused import stores nothing.  The table is written
    against the rows of the branch head's table, when it holds one, so a
    new version re-chunks only the leaves holding changed rows; the value
    put depends on the document alone. *)

(** {1 Verification (paper §III-C)} *)

val verify :
  ?user:string -> ?check_history:bool -> ?check_history_values:bool ->
  t -> uid -> (Fb_repr.Verify.report, Errors.t) result
(** Recompute every Merkle hash on the spot and compare with the uid — the
    client-side check against a malicious storage provider. *)

val verify_branch :
  ?user:string -> t -> key:string -> branch:string ->
  (Fb_repr.Verify.report, Errors.t) result

(** {1 Entry proofs (light clients)}

    A light client that trusts only a version uid can audit a single entry
    of a map- or table-valued version without fetching the value: the proof
    carries the FNode bytes (which hash to the uid) plus the O(log N)
    POS-Tree chunk path to the responsible leaf.  Verification is pure —
    no store, no trust in the prover. *)

type entry_proof

val encode_entry_proof : entry_proof -> string
val decode_entry_proof : string -> (entry_proof, Errors.t) result

val prove_entry :
  ?user:string -> ?branch:string -> t -> key:string -> entry_key:string ->
  (entry_proof, Errors.t) result
(** Proof for the entry under [entry_key] (a map key, or a table row key)
    in [key]'s branch head — covering presence or absence. *)

val verify_entry_proof :
  uid:uid -> key:string -> entry_key:string -> entry_proof ->
  (string option, Errors.t) result
(** Pure check against the trusted [uid].  [Ok (Some bytes)]: the version
    provably maps [entry_key] to [bytes] (a raw map value, or an encoded
    table row for {!Fb_types.Table.decode_row}).  [Ok None]: provably
    absent.  [Error _]: the proof does not authenticate. *)

(** {1 Delta sync (chunk-level exchange)}

    Server-side primitives of the PUSH/PULL protocol (see {!Sync} and
    [Fb_net.Remote.push]/[pull]).  A sender streams frontier chunks
    child-first through {!sync_put}, probing with {!sync_have} to cut
    descent at shared subtrees, then commits the transfer with
    {!advance_head}. *)

val advance_head :
  ?user:string -> ?branch:string -> t -> key:string -> uid ->
  (uid, Errors.t) result
(** Fast-forward [branch] of [key] onto an already-stored version.  The
    root must be present, must belong to [key], and the current head (if
    any) must be its ancestor; watchers and SUBSCRIBE sessions observe
    the move as a single head event.  Needs [Write] on the key. *)

val sync_put :
  ?user:string -> ?branch:string -> t -> key:string -> uid -> string ->
  (uid, Errors.t) result
(** Ingest one encoded chunk announced under the given id.  The bytes are
    re-hashed and must match the id ([Error (Corrupt _)] otherwise — the
    tamper-evidence gate), a map or set leaf key or index split key
    longer than [Postree.max_key_bytes] is refused, and every
    chunk-level child must already be present so the store stays
    closure-complete ([Error (Invalid _)] otherwise).  A child stored by
    [sync_put] in the open write sections ({!with_deferred_watch}) is
    taken as present without a probe; {!gc} and a non-dry {!scrub}
    forget those children before they delete anything.  Needs [Write]
    on the key. *)

val sync_have : ?user:string -> t -> uid list -> (bool list, Errors.t) result
(** Positional membership probe: [true] for each id held locally.  Chunk
    ids are not key-scoped, so this needs an instance-wide read grant
    (key pattern ["*"]). *)

val sync_chunk : ?user:string -> t -> uid -> (string, Errors.t) result
(** Encoded bytes of one chunk, unverified as stored — receivers re-hash.
    [Error (Version_not_found _)] if absent.  Instance-wide read grant
    required, as for {!sync_have}. *)

val chunk_put : ?user:string -> t -> uid -> string -> (uid, Errors.t) result
(** Ingest one chunk {e without} the closure check — the verb cluster
    storage nodes serve: under consistent-hash routing a node holds an
    arbitrary slice of the graph, and closure is the routing tier's
    invariant, not the member's.  Bytes are still re-hashed against the
    id ([Error (Corrupt _)] on mismatch), keys over the limit are refused
    as by {!sync_put}, and the put is idempotent, so
    transports may retry it.  Needs the instance-wide write grant (key
    pattern ["*"]) — ordinary key-scoped sync users cannot bypass
    {!sync_put}'s closure check. *)

val chunk_stat : ?user:string -> t -> (Fb_chunk.Store.stats, Errors.t) result
(** Physical store shape (chunk/byte counts) — what cluster health and
    rebalance accounting read from each member.  Instance-wide read
    grant. *)

val sync_bloom : ?user:string -> t -> (Sync.Bloom.t, Errors.t) result
(** One sized Bloom filter over every chunk id held locally — the
    whole-store have-exchange ({!Sync.Bloom}).  Negatives are definitive
    misses; positives must be confirmed with exact {!sync_have} waves
    before a sender skips a chunk.  Instance-wide read grant. *)

(** {1 Bundles (data exchange)} *)

val export_bundle :
  ?user:string -> ?branch:string -> t -> key:string ->
  (string, Errors.t) result
(** Pack a branch head and its full history closure into a self-contained
    byte string — the data-exchange counterpart of [git bundle]. *)

val import_bundle :
  ?user:string -> ?branch:string -> t -> key:string -> string ->
  (uid, Errors.t) result
(** Unpack a bundle and point [branch] of [key] at its root.  The bundle is
    fully re-hashed and closure-checked before anything is stored; the root
    must belong to [key]; an existing branch head must be an ancestor of
    the incoming root (fast-forward only — merge divergent histories with
    {!merge} after importing to a side branch). *)

(** {1 Stat and maintenance} *)

type stats = {
  keys : int;
  branches : int;             (** across all keys *)
  versions : int;             (** distinct reachable FNodes *)
  store : Fb_chunk.Store.stats;
}

val stats : t -> stats

val version_string : uid -> string
(** The user-facing Base32 rendering of a version (Fig. 6). *)

val parse_version : string -> (uid, Errors.t) result
(** Accepts Base32 (canonical) or hex. *)

val gc : t -> Fb_chunk.Gc.result
(** Drop chunks unreachable from any branch head. *)

val scrub :
  ?replica:Fb_chunk.Store.t ->
  ?quarantine:(uid -> string -> unit) ->
  ?dry_run:bool ->
  t ->
  Fb_chunk.Scrub.report
(** Integrity pass (fsck) over the instance's chunk store: verify every
    stored chunk against its hash, quarantine and delete damaged ones
    (repairing from [replica] when it holds healthy bytes), then walk the
    Merkle graph from every branch head and tag reporting reachable
    chunks the store cannot serve.  [dry_run] only reports.  See
    {!Fb_chunk.Scrub}. *)
