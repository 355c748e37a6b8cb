(** Crash-consistent append-only pack log — the durable chunk engine and
    the journal of branch and tag heads.

    One generation file [gen-<N>.log] holds every chunk and every head
    move as a CRC-sealed record appended in arrival order; a side index
    checkpoints the in-memory (id -> offset, length) table and the current
    heads as a base [gen-<N>.idx] plus the index deltas appended since it
    to [gen-<N>.delta]; the [CURRENT] file names the active generation.  This is the irmin-pack /
    single-file-repository layout: appends are sequential, random reads
    are one positioned read, and directory metadata is touched only at
    checkpoint and compaction boundaries.

    {b Record framing.}  Each record is

    {v kind(1) | length(4, BE) | id(32) | payload(length) | crc32(4, BE) v}

    where [kind] is 0 for a chunk append (payload = encoded chunk), 1
    for a delete tombstone (length 0) and 2 for a ref move: [id] is the
    new head and the payload
    [table(1: 0 branch, 1 tag) | old uid(32) | key length(4, BE) | key |
    branch], an all-zero uid meaning "absent".  The CRC covers everything
    before it.  A record is facts-on-disk only once it is complete and
    its CRC verifies; recovery treats the first incomplete or unsealed
    record as the end of the log and truncates the torn tail.

    {b Checkpoint.}  A base is [magic(8) | generation(8) | covered(8) |
    count(8)], [count] × [id(32) | off(8) | len(8)], one sealed ref record
    per current head (old uid absent; none in a log without heads, whose
    checkpoint layout is unchanged), then [crc32(4)].  A delta is
    [magic(8) | covered(8) | size(8) | count(8) | dead(8) | prev(4)],
    [count] entries added since the last checkpoint, [dead] ids
    tombstoned since, one ref record per head moved since (an all-zero
    uid: removed), then [crc32(4)], the delta's seal; [prev] is the seal
    of the base or delta before it, so a delta applies only on top of
    the chain it was written after.  Every [checkpoint_bytes] of log the
    group commit appends a delta: its cost is the change, not the index.
    When the deltas reach the base's size and 64 KiB (or there is no
    base yet) the checkpoint is a fresh base instead and the delta file
    is dropped.

    {b Group commit.}  Appends go to the OS immediately (one [write]) but
    [fsync] is batched: the log syncs after [group_chunks] unsynced
    records, when the oldest unsynced record is older than
    [group_window_s], or on an explicit {!sync}.  A chunk is
    {e acknowledged} — guaranteed to survive a power cut — only once a
    sync covering it returns.  A head move ({!append_ref}) follows the
    chunks it names, so log order alone keeps a recovered head from
    naming a lost chunk.

    {b Recovery.}  Opening a root replays: pick the generation named by
    [CURRENT] (falling back to the newest generation with a valid
    header), delete orphan generations left by a crashed compaction, load
    the base (index and heads) if it verifies, then the deltas up to the
    first that is torn or does not chain, replay the log tail past the
    last covered offset, and physically truncate a torn final record and
    the deltas past the last good one.

    {b Compaction.}  {!compact} rewrites live records (optionally
    filtered by a GC liveness predicate), then one ref record per current
    head, into generation [N+1], writes its base checkpoint (no deltas),
    and atomically swaps [CURRENT]; a crash at any point leaves either the old or the
    new generation fully intact.

    A root is driven by one open instance at a time, which {!create}
    enforces; within it every operation is thread-safe. *)

type t

type config = {
  fsync : bool;       (** sync at group-commit boundaries (off = OS-buffered) *)
  group_chunks : int; (** sync after this many unsynced records *)
  group_window_s : float;
      (** ... or when the oldest unsynced record is this old (seconds) *)
  checkpoint_bytes : int;
      (** append an index delta once this many bytes of log have been
          synced since the last checkpoint: the most a crash leaves to
          replay *)
  compactor : bool;
      (** run the background thread (aged-group flush + auto compaction) *)
  tick_s : float;  (** background thread wake-up interval *)
  auto_compact : float;
      (** compact when garbage exceeds this fraction of the file; 0 = never *)
  compact_min_bytes : int;
      (** ... and at least this many garbage bytes accumulated *)
}

val default_config : config
(** fsync on, groups of 64 chunks / 10 ms, 1 MiB checkpoints, background
    thread off, auto-compaction at 50% garbage (>= 64 KiB). *)

type counters = {
  mutable appends : int;
  mutable deletes : int;
  mutable flushes : int;           (** group-commit syncs performed *)
  mutable checkpoints : int;
      (** bases and deltas written, compaction's own base not counted *)
  mutable deltas : int;            (** the deltas among them *)
  mutable checkpoint_bytes : int;  (** bytes those checkpoints wrote *)
  mutable compactions : int;
  mutable auto_compactions : int;  (** subset triggered by the background thread *)
  mutable loaded_deltas : int;     (** deltas applied on open *)
  mutable replayed_records : int;  (** records replayed past the checkpoint on open *)
  mutable truncated_bytes : int;   (** torn tail bytes discarded by recovery *)
  mutable background_errors : int;
}

exception Root_in_use of string
(** The root named is held by another open instance, in any process. *)

val create : ?config:config -> root:string -> unit -> t
(** Open (creating or recovering) the log rooted at directory [root].
    Registers the instance's counters as [log.<root>.*] observability
    gauges.  The instance holds the root until {!close} or its process's
    death: a [lockf] on [root/LOCK] plus an in-process set of open roots.
    @raise Root_in_use if the root is held, before recovery touches disk.
    @raise Failure on a corrupt generation header. *)

val store : t -> Store.t
(** The {!Store.t} view: [put] appends (content-addressed dedup against
    the index), [get]/[get_raw]/[peek] are positioned reads, [delete]
    appends a tombstone, [iter] walks the live index reading each payload,
    [ids] snapshots the index and reads nothing. *)

val sync : t -> unit
(** Force the group commit: every record appended so far is acknowledged
    when this returns.  Writes a checkpoint when one is due. *)

val checkpoint : t -> unit
(** {!sync}, then unconditionally write a fresh base checkpoint of the
    whole index, dropping the deltas. *)

val close : t -> unit
(** Stop the background thread, sync, checkpoint what changed since the
    last checkpoint, release descriptors and the root, and retire the
    [log.<root>.*] gauges.  Idempotent; using the {!store} view
    afterwards raises. *)

(** {1 Heads} *)

type ref_table = Branches | Tags

val append_ref : t -> ref_table -> key:string -> branch:string ->
  old:Fb_hash.Hash.t option -> Fb_hash.Hash.t option -> unit -> unit
(** A {!Fb_repr.Branch.journal}: appends the move of [key]/[branch] from
    [old] to [next] and returns its acknowledgement wait.  With [fsync]
    on, the wait returns once a group commit covers the record (waiters
    share one fsync, run outside the store's lock) and is observed in
    {!commit_wait_hist}; with [fsync] off it returns at once. *)

val refs : t -> (ref_table * string * string * Fb_hash.Hash.t) list
(** The current heads (table, key, branch, uid), in no particular order. *)

val commit_wait_hist : Fb_obs.Obs.histogram
(** [fb.log.commit_wait_seconds]. *)

val checkpoint_hist : Fb_obs.Obs.histogram
(** [fb.log.checkpoint_seconds]: the time of every base or delta
    written, compaction's base included. *)

type compact_stage =
  | After_data      (** new generation data + index written, [CURRENT] still old *)
  | Before_switch   (** about to atomically swap [CURRENT] *)
  | After_switch    (** [CURRENT] names the new generation; old files not yet removed *)

val compact : ?live:(Fb_hash.Hash.t -> bool) ->
  ?on_stage:(compact_stage -> unit) -> t -> unit
(** Rewrite live records into a fresh generation and swap atomically.
    [live] additionally drops records a GC marked unreachable (without
    needing per-chunk tombstones).  [on_stage] is a test hook for crash
    injection at the labelled points; if it raises, the store instance is
    dead but the on-disk state recovers to a consistent generation on the
    next {!create}. *)

(** {1 Introspection} *)

val generation : t -> int

val file_bytes : t -> int
(** Bytes in the active generation file. *)

val synced_bytes : t -> int
(** Prefix guaranteed durable — the acknowledgment boundary. *)

val garbage_bytes : t -> int
(** Dead record bytes a compaction would reclaim. *)

val live_chunks : t -> int
val counters : t -> counters

val root : t -> string
(** The directory the log lives in. *)

val log_path : t -> string
(** Active generation file (for test harnesses). *)

val idx_path : t -> string
(** Its base checkpoint file. *)

val delta_path : t -> string
(** Its delta file (absent until the first delta). *)

val export_pack : t -> path:string -> (int, string) result
(** Freeze the live chunks into an immutable {!Pack} archive. *)

(** {1 The read path} *)

val read_at :
  ?fast:(Unix.file_descr -> Bytes.t -> int -> int -> int -> int) ->
  nowait:bool ref -> Unix.file_descr -> off:int -> len:int -> string option
(** [read_at ~nowait fd ~off ~len]: bytes [off, off + len) of [fd], or
    [None] if the file ends first or a read fails.  Every read of the log
    — the store's reads, compaction's copy, replay and fsck — is this
    one (replay and fsck run its loop into one reused 64 KiB window, so
    a record is copied out once, and its CRC is checked in place).  The
    first attempt is [fast fd buf pos len off] (default: one
    [preadv2] with [RWF_NOWAIT], made without releasing the OCaml
    runtime lock), which answers the bytes it read (0 at end of file),
    [-1] when the page cache cannot serve the read without blocking and
    [-2] when the system has no such read.  Whatever it leaves goes
    through [lseek] and [read], which release the lock while the disk
    works; their answer alone decides where the file ends.  A [-2]
    clears [nowait], and no fast read is tried while it is [false].
    Reads and fallbacks count in [fb.log.reads] and
    [fb.log.read_fallbacks]. *)

(** {1 Offline verification (fsck)} *)

type fsck_report = {
  fsck_generation : int;
  fsck_records : int;         (** sealed records in the active generation *)
  fsck_live : int;            (** live chunks after replaying tombstones *)
  fsck_bytes : int;           (** active generation file size *)
  fsck_torn_bytes : int;
      (** trailing bytes past the last sealed record, when no sealed
          record follows them (a crash's torn tail) *)
  fsck_damage : int option;
      (** offset of a broken record that sealed records follow: damage,
          which open refuses rather than truncating *)
  fsck_bad_hash : Fb_hash.Hash.t list;
      (** sealed records whose payload does not hash to their id *)
  fsck_idx_valid : bool;      (** checkpoint absent counts as valid *)
  fsck_idx_consistent : bool;
      (** base + deltas + tail replay reaches the full-replay state *)
  fsck_deltas : int;          (** deltas that verify and chain to the base *)
  fsck_bad_delta_bytes : int;
      (** delta bytes past them: torn, broken or chained to no base (the
          next open drops them) *)
  fsck_orphan_gens : int list; (** stray generations a crashed compaction left *)
  fsck_ref_records : int;      (** sealed ref moves in the active generation *)
  fsck_heads : int;            (** heads after replaying them *)
  fsck_dangling_heads : (ref_table * string * string) list;
      (** recovered heads whose uid is absent from the store *)
  fsck_ref_conflicts : int;
      (** ref moves whose old uid disagrees with the replayed head *)
}

val fsck_clean : fsck_report -> bool
(** No damaged records, no torn tail, index consistent, no bad delta
    bytes, no orphans, no dangling head, no conflicting ref move. *)

val fsck : root:string -> (fsck_report, string) result
(** Offline check of a log root: replays every generation record,
    re-hashes payloads, validates the base and its deltas (index and
    heads) against a full replay, and looks each head up among the log's
    chunks.  Read-only — never repairs; recovery happens on {!create}. *)

val fsck_with : mem:(Fb_hash.Hash.t -> bool) -> root:string ->
  (fsck_report, string) result
(** {!fsck} looking heads up with [mem]: for a refs-only log. *)

val pp_fsck : Format.formatter -> fsck_report -> unit
