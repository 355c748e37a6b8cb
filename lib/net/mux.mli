(** Pipelined, multiplexing TCP client for the ForkBase service.

    A [Mux.t] keeps {e many} requests in flight on one connection:
    every outgoing frame is tagged with a sequence id ({!Frame}, flag
    [0x40]), a dedicated reader thread demultiplexes the
    (possibly out-of-order) tagged replies back to their waiters, and
    server-initiated [Event] frames are routed to SUBSCRIBE callbacks.

    Two usage styles:
    {ul
    {- {!request}/{!batch} — blocking calls; many threads may call
       them concurrently over one connection and their requests
       pipeline automatically.}
    {- {!send} + {!await} — split issue from completion, for a single
       thread keeping a deep pipeline (the bench driver's depth-N
       sweep): issue N tickets, then await them.}}

    Failure model: transport failures and protocol violations (a torn
    frame, a reply carrying an unknown sequence id, an untagged reply)
    {e poison} the connection — every outstanding and future call fails
    with the same [Transport] error, and callbacks stop.  Typed server
    errors ([Remote]) do not.

    Callbacks run on the reader thread: keep them quick, and never call
    back into the same [Mux.t] from one (an {!unsubscribe} from inside a
    callback would deadlock — the reader cannot read its own reply).
    Subscription callbacks are installed by the reader {e before} it
    reads the frame after the subscribe reply, so a push racing the
    subscription's acknowledgement cannot be dropped. *)

type error = Client.error =
  | Remote of Fb_core.Errors.t
  | Transport of string

type t

val connect :
  ?host:string ->
  ?port:int ->
  ?user:string ->
  ?max_frame:int ->
  ?timeout_s:float ->
  unit ->
  (t, error) result
(** Defaults: host ["127.0.0.1"], port [7447], user ["anonymous"]
    (sent with every request; the server applies it to access control
    and authorship), [max_frame] {!Frame.default_max_frame}, [timeout_s]
    [30.] ([<= 0.] disables).  Dials with {!Client.dial}.  [timeout_s]
    bounds the dial and every send; receives block until the reply
    arrives or the connection dies. *)

val is_open : t -> bool

val close : t -> unit
(** Idempotent.  Outstanding waiters fail with [Transport "connection
    closed"]. *)

(** {1 Blocking calls} *)

val request : ?user:string -> t -> string list -> (string, error) result
(** One verb, pipelined under the hood; blocks for this request's reply
    only.  [Ok payload] on success; [Error (Remote e)] carries the
    server's typed error (missing key, permission, conflict, …).  Runs
    inside a [net.client.request] span and stamps the frame with the
    calling thread's trace context ({!Frame.trace}), so the server's
    spans for this request join the caller's trace; with [FB_OBS=0] no
    header is sent. *)

val batch :
  ?user:string -> t -> string list list -> (Frame.reply list, error) result
(** One frame carrying N sub-requests, answered by N in-order replies —
    executed server-side under a single lock acquisition.  Sub-request
    failures are per-reply ([Error] entries in the returned list) and do
    not abort the rest of the batch; only transport-level failures
    return [Error] at the outer level. *)

(** {1 Split issue/completion} *)

type ticket

val send : ?user:string -> ?install:(Frame.trace option -> Frame.event -> unit) ->
  t -> Frame.request -> (ticket, error) result
(** Issue one tagged request without waiting.  [install] is internal
    plumbing for {!subscribe}; ordinary senders omit it. *)

val await : t -> ticket -> (Frame.response, error) result
(** Block until the reply for [ticket] arrives.  Each ticket may be
    awaited once. *)

val issue : ?user:string -> t -> Frame.request -> (ticket, error) result
(** {!send} inside the [net.client.request] / [net.client.batch] span
    that {!request} and {!batch} open, so the frame carries the same
    trace header; the span covers the send only, for a caller that keeps
    several requests in flight and awaits them later. *)

val await_one : t -> ticket -> (string, error) result
(** {!await} for a [Single] request: its payload, or the server's typed
    error as [Remote].  A reply of another shape poisons the connection. *)

val await_many : t -> ticket -> n:int -> (Frame.reply list, error) result
(** {!await} for a [Batch] of [n] sub-requests: exactly [n] in-order
    replies, or the connection is poisoned. *)

(** {1 Subscriptions} *)

val subscribe :
  ?user:string -> ?key:string -> ?branch:string ->
  t -> (Frame.trace option -> Frame.event -> unit) ->
  (int, error) result
(** Register a server-side branch-head watch ([key]/[branch] default to
    ["*"] — everything) and return its subscription id.  The callback
    fires on the reader thread for every matching head movement, with
    the writer's trace header when the mutating request was traced.
    Requires an event-mode server ({!Server}); a threaded server answers
    with a typed [Remote] error. *)

val unsubscribe : ?user:string -> t -> int -> (unit, error) result
(** Deregister: local deliveries stop immediately, the server-side
    registration is then torn down. *)
