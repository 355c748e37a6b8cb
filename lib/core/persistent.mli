(** Durable ForkBase instances on a directory.

    Bundles a chunk engine under [root] and a log journaling every branch
    and tag head move.  A mutating call returns once its move is
    acknowledged: with fsync on a group commit covers it (it survives a
    power cut), with fsync off it reached the OS (it survives a process
    crash).

    Engines are named through the {!Fb_chunk.Store_provider} registry —
    [?backend] is a provider name, not a closed variant, so anything
    registered (including the networked ["cluster"] provider from
    [Fb_net]) opens through the same call:

    - ["log"] (the default for fresh roots) — the crash-consistent
      append-only pack log ({!Fb_chunk.Log_store}) under [root/log]; it
      journals the heads too.
    - ["file"] — one file per chunk under [root/chunks]
      ({!Fb_chunk.File_store}); each put is published by an atomic
      rename (synced when [fsync] is set).  Heads go to a refs-only log
      at [root/refs], synced as the chunk files are.
    - ["mem"] — an ephemeral in-memory store; heads are not kept either.
    - ["auto"] (the default) keeps whatever engine the root already
      uses (first registered provider whose [detect] claims the root)
      and picks ["log"] for fresh roots, so upgrading never strands
      data.

    Other providers (the cluster router) journal to [root/refs], synced
    unless [fsync] is [false].

    Layout:
    {v
    root/
      log/gen-<N>.log   append-only record log, chunks and heads (log engine)
      log/gen-<N>.idx   index and heads checkpoint
      log/CURRENT       active generation
      chunks/ab/<hex>   content-addressed chunks (file engine)
      refs/             refs-only pack log (file engine, cluster router)
      MEMBER            marks a cluster member's root (see {!gc})
    v}

    Roots written before heads moved into the log kept them in
    [BRANCHES] and [TAGS]; opening one journals them and removes the
    files. *)

type instance = {
  root : string;
  fb : Forkbase.t;
  log : Fb_chunk.Log_store.t option;  (** the log journaling the heads *)
  close : unit -> unit;  (** idempotent; [fb] is unusable afterwards *)
}

val open_instance :
  ?acl:Acl.t -> ?fsync:bool -> ?backend:string ->
  ?log_config:Fb_chunk.Log_store.config ->
  ?params:(string * string) list -> root:string -> unit ->
  (instance, Errors.t) result
(** Open (creating directories as needed) an instance rooted at [root];
    fails on an unreadable or corrupt old-format table file.  Opening
    also performs crash recovery: the file engine removes leftover
    [*.tmp] write artifacts; a log replays its tail past the last
    checkpoint, truncates a torn final record and clears generations a
    crashed compaction left behind.  [backend] names a registered store
    provider; an unknown name is [Error (Invalid _)] listing what is
    registered.  [fsync] forces chunk writes and head moves to stable
    storage before they are acknowledged (default: on for the log
    engine, off for the file engine); [log_config] tunes the logs
    (group-commit sizes, checkpoint cadence, background compactor);
    [params] carries free-form provider parameters (e.g. [("nodes",
    "host:port,…")] for ["cluster"]).  Reads are integrity-checked (each
    chunk is verified against its name the first time it is served), so
    on-disk damage surfaces as an error — never as silently wrong data;
    run scrub to quarantine and repair it. *)

val open_ :
  ?acl:Acl.t -> ?fsync:bool -> ?backend:string ->
  ?log_config:Fb_chunk.Log_store.config ->
  ?params:(string * string) list -> root:string -> unit ->
  (Forkbase.t, Errors.t) result
(** {!open_instance} for callers that never close: the engine stays open
    until the process exits. *)

val close : instance -> unit

val with_instance :
  ?acl:Acl.t -> ?fsync:bool -> ?backend:string ->
  ?log_config:Fb_chunk.Log_store.config ->
  ?params:(string * string) list -> root:string ->
  (instance -> ('a, Errors.t) result) -> ('a, Errors.t) result
(** Open, run, and always close what was opened. *)

val mark_member : root:string -> unit
(** Mark [root] as a cluster member's: the router holds its chunks'
    heads. *)

val gc : instance -> (Fb_chunk.Gc.result, Errors.t) result
(** {!Forkbase.gc}, refused with [Invalid] on a member root, where it
    would sweep every chunk. *)
