(** Typed remote handle — the {!Fb_core.Forkbase} surface over a socket.

    Every operation mirrors its local counterpart and returns the same
    [('a, Fb_core.Errors.t) result]: a missing key is
    [Error (Key_not_found _)] whether the instance is in-process or
    behind TCP.  Transport failures (refused connection, timeout, torn
    frame) surface as [Error (Transient "network: …")] — transient
    because retrying against a healthy server is the correct reaction,
    and so existing retry helpers treat them like any other transient
    storage fault.

    Values travel in their service rendering (strings, CSV for tables,
    [k=v] lines for maps); version uids are parsed back into
    {!Fb_core.Forkbase.uid} before they reach the caller.  String
    rendering of errors stays at the CLI edge ({!Fb_core.Errors.to_string}).

    One handle wraps one {!Mux} connection, so concurrent calls from
    several threads pipeline over a single socket.  When the transport
    dies {e underneath} the handle (server restart, torn connection),
    the next operation whose verb is [retry_safe] (reads, and the
    content-addressed [chunk-put]) performs one transparent reconnect
    with the original dial parameters and retries; other mutating
    operations are never replayed (the write may have been applied
    before the tear — replaying could double-apply) and surface
    [Transient] directly.  After an explicit {!close}, every call fails
    fast with [Transient] — no reconnect.  Subscriptions {e do} survive
    a reconnect: a monitor thread re-dials while any subscription is
    live, re-issues the registrations on the fresh connection, and
    delivers a {!sub_event.Gap} marker so the caller knows pushes may
    have been missed in between.

    [?user] defaults to the user given at {!connect}. *)

type uid = Fb_core.Forkbase.uid
type 'a or_error = ('a, Fb_core.Errors.t) result

type t

val connect :
  ?host:string -> ?port:int -> ?user:string -> ?max_frame:int -> ?timeout_s:float -> unit ->
  t or_error
(** Same defaults as {!Mux.connect}. *)

val close : t -> unit
val is_open : t -> bool

(** {1 The Forkbase mirror}

    Each operation is one {!call} of its {!Fb_core.Service} verb.
    [branch]/[from_branch] default to ["master"] like the local API. *)

val put : ?user:string -> ?branch:string -> t -> key:string -> string -> uid or_error
val put_csv : ?user:string -> ?branch:string -> t -> key:string -> string -> uid or_error

val get : ?user:string -> ?branch:string -> t -> key:string -> string or_error
(** The value in its service rendering. *)

val head : ?user:string -> ?branch:string -> t -> key:string -> uid or_error

val latest : ?user:string -> t -> key:string -> (string * uid) list or_error
(** All branch heads of a key, like {!Fb_core.Forkbase.latest}. *)

val list_keys : ?user:string -> t -> string list or_error

val log : ?user:string -> ?branch:string -> t -> key:string -> string list or_error
(** One rendered line per version, newest first: [uid seq author message]. *)

val meta : ?user:string -> t -> uid -> string or_error
(** Rendered version metadata (key, seq, author, message, bases). *)

val fork :
  ?user:string -> ?from_branch:string -> t -> key:string -> new_branch:string -> uid or_error

val rename_branch :
  ?user:string -> t -> key:string -> from_branch:string -> to_branch:string -> unit or_error

val tag : ?user:string -> t -> key:string -> name:string -> uid -> unit or_error
(** Name a version of [key] immutably, like {!Fb_core.Forkbase.tag}. *)

val merge : ?user:string -> t -> key:string -> into:string -> from_branch:string -> uid or_error

val diff : ?user:string -> t -> key:string -> branch1:string -> branch2:string -> string or_error
(** Rendered diff summary + entries. *)

(** {1 Subscriptions}

    The server-side counterpart of {!Fb_core.Forkbase.watch}, pushed
    over the wire: SUBSCRIBE registers a branch-head watch on an
    event-mode {!Server}, and every matching head movement — whoever
    caused it — arrives as a {!Fb_core.Forkbase.head_event} with heads
    parsed back to uids.  Callbacks run on the connection's reader
    thread (keep them quick; never call back into the same handle), and
    run inside a [net.client.event] span joined to the {e writer's}
    trace when the mutating request was traced — the same trace id the
    server's /tracez and [forkbase top] show for the write. *)

type subscription
(** A local handle, stable across reconnects (the server-side id it maps
    to changes when a subscription is resurrected). *)

type sub_event =
  | Head_moved of Fb_core.Forkbase.head_event
    (** A branch head moved on the server. *)
  | Gap of { resubscribed : bool }
    (** The connection died and was re-dialed: pushes may have been
        missed.  [resubscribed = true] means deliveries resume on the
        new connection; [false] means re-registration failed (e.g. the
        server came back in threaded mode) and the monitor will try
        again on the next reconnect.  Callers that must not miss a
        movement should re-read the heads they track on [Gap]. *)

val subscribe :
  ?user:string -> ?key:string -> ?branch:string -> t -> (Fb_core.Forkbase.head_event -> unit) ->
  subscription or_error
(** [key]/[branch] omitted (or ["*"]) match everything.  A threaded-mode
    server answers [Error (Invalid _)].  Gap markers are dropped; use
    {!subscribe_events} to observe them. *)

val subscribe_events :
  ?user:string -> ?key:string -> ?branch:string -> t -> (sub_event -> unit) ->
  subscription or_error
(** Like {!subscribe} but the callback also receives {!sub_event.Gap}
    markers around reconnects. *)

val unsubscribe : ?user:string -> t -> subscription -> unit or_error
(** Local deliveries stop immediately; the server registration is torn
    down before returning.  Idempotent. *)

(** {1 Batching}

    N operations in one frame, executed server-side under a single lock
    acquisition and answered in order — round-trip and locking
    amortization.  Per-operation failures are entries in the returned
    list and do not abort the rest of the batch. *)

type op_req =
  | Put of { key : string; branch : string; value : string }
  | Get of { key : string; branch : string }
  | Head of { key : string; branch : string }

type op_reply =
  | Uid of uid      (** for [Put] and [Head] *)
  | Value of string (** for [Get] *)

val batch : ?user:string -> t -> op_req list -> op_reply or_error list or_error

(** {1 Delta sync (PUSH/PULL)}

    Merkle-DAG replication between a local {!Fb_core.Forkbase.t} and the
    server: exchange branch heads, walk the version DAG and POS-Tree
    from the newer head probing which chunks the other side already has
    (a held chunk roots a shared subtree — descent stops there), and
    ship only the missing frontier in BATCH frames.  The probe and fetch
    waves go through one driver that keeps up to
    {!Fb_core.Sync.wave_window} of them in flight, so the client verifies
    one wave while the server reads the next; the waves sent are those of
    a walk that awaits each one (see {!Fb_core.Sync.wave_window}).  A torn
    connection is re-dialled once and the waves in flight re-issued; a
    second failure of the same wave returns [Transient].  Both directions
    re-hash every chunk that crosses the wire and refuse mismatches; the
    receiving side stores child-first and finally fast-forwards the
    branch head atomically, so an aborted or tampered transfer leaves it
    unchanged.  Non-fast-forward histories are refused — sync to a side
    branch and {!merge}. *)

val push :
  ?user:string -> ?branch:string -> t -> Fb_core.Forkbase.t -> key:string ->
  (uid * Fb_core.Sync.stats) or_error
(** Replicate [key]/[branch] from the local instance {e to} the server;
    returns the advanced head and what moved. *)

val pull :
  ?user:string -> ?branch:string -> t -> Fb_core.Forkbase.t -> key:string ->
  (uid * Fb_core.Sync.stats) or_error
(** Replicate [key]/[branch] from the server {e into} the local
    instance.  Nothing reaches the local store until the complete
    missing closure has been fetched and verified. *)

(** {1 Remote chunk backend}

    The inverse adapter: a server viewed as one more {!Fb_chunk.Store.t},
    so anything that composes stores (above all {!Fb_chunk.Cluster_store})
    treats a networked node exactly like a local engine. *)

val chunk_store : ?user:string -> t -> Fb_chunk.Store.t
(** Chunk operations over the wire: [put] rides the idempotent
    [chunk-put] verb (verified ingest without the closure check — a
    cluster member holds an arbitrary slice of the graph), [get]/
    [get_raw]/[peek] ride [sync-get], [mem] rides [sync-have], and
    [stats] merges this handle's own traffic counters with the member's
    [chunk-stat] physical shape (an unreachable member reports zero
    shape rather than failing the poll).

    Error mapping: transport failures and server-side [Transient] raise
    {!Fb_chunk.Store.Transient} (retry/failover territory); every other
    typed error is permanent and raises [Failure] with the rendered
    reason.  Every read is re-hashed against the requested id
    ({!Fb_chunk.Verified_store}), so a lying server cannot serve forged
    bytes — a mismatch reads as absent and the caller fails over.

    Unsupported over the wire: [iter], [ids] and [delete] raise [Failure]
    (never a silent no-op) — physical enumeration and GC belong to the
    member node; composites must skip members whose stores refuse them.
    The needed grants are instance-wide ([key pattern "*"]): [Read] for
    gets/membership, [Write] for [chunk-put]. *)

(** {1 Any verb} *)

val call : ?user:string -> t -> ('a, 'r) Fb_core.Service.verb -> 'a -> 'r or_error
(** One request of a {!Fb_core.Service.verbs} entry: its arguments
    encoded as the entry says, its reply decoded the same way.  Replayed
    across one reconnect when the entry is [retry_safe].  Every typed
    operation above is a [call]. *)

val batch_call :
  ?user:string -> t -> ('a, 'r) Fb_core.Service.verb -> 'a list ->
  'r or_error list or_error
(** One BATCH frame of {!call}s of the same entry, answered in order;
    replayed across one reconnect when the entry is [retry_safe]. *)

val raw : ?user:string -> t -> string list -> string or_error
(** Any request, tokens as {!Fb_core.Service.dispatch} takes them; the
    reply payload unparsed. *)

val raw_line : ?user:string -> t -> string -> string or_error
(** Tokenize a service line client-side, then {!raw} — the REPL path. *)
