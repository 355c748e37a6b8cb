(** Multi-client TCP server for the ForkBase service verbs.

    Two engines share one {!Fb_core.Forkbase.t} and one request-
    processing core:

    {b Event mode} (default): a single poll(2)-driven I/O loop ({!Ev})
    owns every socket — it accepts, reads frames incrementally into
    per-connection buffers, and drains per-connection outboxes on
    writability — while a fixed pool of [workers] threads executes
    dispatches under the striped rwlocks and hands finished replies back
    through a wakeup pipe.  Connection cost is a few hundred bytes of
    state instead of a thread stack, which is what lets one process hold
    thousands of concurrent connections (the C10K sweep in the bench
    suite).

    {b Threaded mode} ([mode = `Threaded]): the original
    thread-per-connection engine, kept selectable for A/B benchmarking
    and as an operational escape hatch.

    {b Pipelining}: requests tagged with a sequence id ({!Frame}, flag
    [0x40]) may be answered out of order; the server echoes the id on
    the reply and admits up to [max_pipeline] of them concurrently per
    connection.  Un-tagged requests keep the strict in-order contract:
    one is admitted only when nothing else is in flight, and it blocks
    later frames until answered.

    {b Backpressure}: each connection's outbox is bounded by
    [max_outbox]; once it (or the parked-request queue) fills, the loop
    stops reading from that connection, so a slow consumer throttles
    itself instead of ballooning server memory.  A peer whose outbox
    makes no write progress for [write_stall_s] seconds is disconnected.
    The idle read deadline only fires on truly quiet connections —
    nothing in flight, nothing buffered, no subscriptions.

    {b SUBSCRIBE push} (event mode only): [subscribe [key|*] [branch|*]]
    registers a branch-head watch and answers with a subscription id;
    matching head movements — whoever caused them — are pushed as
    server-initiated [Event] frames ({!Frame.event}) on that connection.
    Deliveries ride the deferred-watch queue, so they fire after the
    writer's exclusive section is released, and they carry the writer's
    trace header when the mutating request was traced.  [unsubscribe
    <id>] deregisters.  Both verbs are handled on the loop thread and
    never visit the worker pool.  The threaded engine rejects
    [subscribe] with a typed error (it has no push path).

    Concurrency layer (both modes): {!Fb_core.Service.classify} sorts
    every verb into read-only vs. mutating and key-scoped vs.
    instance-wide.  Read-only verbs share their key's stripe and run
    concurrently; mutating verbs take the stripe exclusively;
    instance-wide verbs span all stripes.  The locks are
    write-preferring ({!Rwlock}).  Watch callbacks triggered by a
    mutation are delivered {e after} the exclusive section is released
    ({!Fb_core.Forkbase.with_deferred_watch}).  A [Frame.Batch] request
    executes its N sub-requests under a {e single} lock acquisition and
    answers with one typed reply per sub-request, in order.

    Durability is the instance's own: a durable instance
    ({!Fb_core.Persistent}) journals each head move before the verb that
    made it replies, so the server keeps no table of its own to save.

    Observability ({!Fb_obs}): counters [fb.net.connections],
    [fb.net.frames], [fb.net.errors] (protocol/transport),
    [fb.net.request_errors] (verbs answering a typed error),
    [fb.net.batches], [fb.net.batch_subrequests],
    [fb.net.read_verbs], [fb.net.write_verbs], [fb.net.subscribes],
    [fb.net.events_pushed], [fb.net.stall_disconnects],
    [fb.net.conns_shed]; gauges [fb.net.connections_active] and (event
    mode) [fb.net.loop.connections], [fb.net.loop.outbox_hwm_bytes],
    [fb.net.loop.worker_queue_depth], [fb.net.loop.subscriptions];
    per-verb latency histograms [fb.net.<verb>_seconds].

    Tracing: every request runs inside a [net.server.request] (or
    [net.server.batch]) span — in event mode that span lives on the
    worker thread that executes the dispatch.  When the frame carries a
    trace header ({!Frame.trace}), the span joins the client's trace as
    a child of the client span.  Requests slower than [slow_ms] emit a
    [Warn] event and park their rendered span tree in a bounded ring
    served at [/tracez].

    Telemetry sidecar: with [metrics_port] set, a tiny HTTP/1.0 listener
    ({!Http}) serves [/metrics] (Prometheus exposition), [/healthz]
    (liveness JSON with the head-move acknowledgement wait
    [fb.log.commit_wait_seconds] as count, p50 and p99 — in event mode
    also open connections, outbox high-water mark, worker-queue depth
    and subscription count),
    [/tracez] (recent slow traces) and [/trace.json] (Chrome
    [trace_event] dump of the span ring) on a separate port. *)

type mode = [ `Event | `Threaded ]

type config = {
  host : string;          (** bind address; default ["127.0.0.1"] *)
  port : int;             (** [0] picks an ephemeral port — see {!port} *)
  backlog : int;
  max_frame : int;
  read_timeout_s : float;
  (** idle deadline; [<= 0.] disables.  Event mode: closes connections
      with nothing in flight, nothing buffered and no subscriptions.
      Threaded mode: per-frame read/write deadline as before. *)
  default_user : string;  (** applied when a request carries no user *)
  stripes : int;          (** lock stripes; default 16, clamped to >= 1 *)
  metrics_port : int option;
  (** bind the HTTP telemetry sidecar here ([Some 0] = ephemeral, see
      {!metrics_port}); [None] (default) = no sidecar *)
  slow_ms : float;
  (** slow-request threshold in milliseconds; requests at or above it
      are logged and kept for [/tracez].  Default: [FB_SLOW_MS] from the
      environment, else [infinity] (disabled). *)
  mode : mode;            (** engine selection; default [`Event] *)
  workers : int;          (** event mode: dispatch threads; default 4 *)
  max_conns : int;
  (** accept ceiling (both modes); connections beyond it are shed with
      an immediate close.  Default 10_000. *)
  max_outbox : int;
  (** event mode: per-connection outbox bound in bytes before the loop
      stops reading from that connection.  Default 4 MiB. *)
  write_stall_s : float;
  (** event mode: disconnect a peer whose nonempty outbox makes no write
      progress for this long; [<= 0.] disables.  Default 30 s. *)
  max_pipeline : int;
  (** event mode: sequence-tagged requests admitted concurrently per
      connection.  Default 128. *)
}

val default_config : config
(** [127.0.0.1:7447], backlog 64, {!Frame.default_max_frame}, 30 s read
    timeout, user ["anonymous"], 16 lock stripes, no
    metrics sidecar, slow log per [FB_SLOW_MS]; event mode with 4
    workers, 10_000 connections, 4 MiB outboxes, 30 s write-stall
    deadline, pipeline depth 128. *)

type t

type loop_stats = {
  ls_conns : int;          (** connections currently open *)
  ls_outbox_hwm : int;     (** largest outbox observed, bytes *)
  ls_worker_queue : int;   (** jobs waiting for a worker right now *)
  ls_subscriptions : int;  (** live SUBSCRIBE registrations *)
}

val loop_stats : t -> loop_stats option
(** Event-loop health snapshot; [None] in threaded mode.  The same
    numbers are exported as [fb.net.loop.*] gauges and in [/healthz]. *)

val start :
  ?config:config -> Fb_core.Forkbase.t ->
  (t, string) result
(** Bind, listen and return immediately; connections are served on
    background threads.  Also ignores [SIGPIPE] process-wide (a vanished
    peer must surface as [EPIPE], not kill the daemon). *)

val port : t -> int
(** The bound port — the ephemeral port when [config.port = 0]. *)

val metrics_port : t -> int option
(** The sidecar's bound port when [config.metrics_port] was set and the
    sidecar started; [None] otherwise. *)

val slow_trace_count : t -> int
(** Entries currently held in the slow-request ring (exposed for tests
    and [/healthz]). *)

val is_running : t -> bool

val stop : t -> unit
(** Graceful, idempotent shutdown: stop accepting, wake and drain the
    I/O loop, worker pool and connection threads.
    Safe to call from a signal-driven context. *)

val run : t -> unit
(** Block until {!stop} is called or SIGINT/SIGTERM arrives (handlers
    are installed for the duration of the call and restored after), then
    shut down gracefully. *)
