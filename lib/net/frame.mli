(** Wire format of the ForkBase network service (protocol version 2).

    Every message — request or response — travels as one {e frame}: an
    unsigned LEB128 varint length (minimal form, same as {!Fb_codec}'s
    integers) followed by exactly that many payload bytes.  Length-prefixed
    framing makes the stream unambiguous for payloads containing newlines,
    quotes or arbitrary binary — the failure mode of the line-oriented
    transport it replaces.

    Frame payloads are themselves {!Fb_codec} values:

    {v
    request  ::= u8 version(=2) | u8 kind' | bytes user | trace? | seq? | body
      kind' = kind lor 0x80 (trace header present)
                   lor 0x40 (sequence id present)
      trace           : bytes trace-id | zigzag parent-span-id
      seq             : varint sequence-id
      kind 0 (single) : body = list<bytes> tokens
      kind 1 (batch)  : body = list< list<bytes> > sub-requests
    response ::= u8 kind' | trace? | seq? | body
      kind 0 (single) : body = reply
      kind 1 (batch)  : body = list<reply>
      kind 2 (event)  : body = varint sub-id | bytes key | bytes branch
                             | bytes new-head | bool | bytes old-head?
    reply    ::= u8 status | fields
      status 0        : bytes payload
      status 1..9     : the fields of the matching Errors.t constructor
    v}

    The trace header carries the caller's {!Fb_obs.Obs} position — a
    128-bit trace id (32 hex chars) and the client span id that server
    spans should parent under — so one trace id links client-side and
    server-side spans of a request.  It is strictly optional: a
    header-less v2 frame (kind byte [0]/[1]) parses exactly as before,
    which keeps tracing-unaware peers and [FB_OBS=0] clients
    compatible.

    The sequence id (flag [0x40], alongside the [0x80] trace bit) is the
    pipelining handle: a client may keep many tagged requests in flight
    on one connection; the server echoes each request's sequence id on
    its reply, which may therefore arrive out of order.  Requests
    without a sequence id retain strict in-order request/response
    semantics.  Response kind [2] is a {e server-initiated} frame: a
    branch-head movement pushed to a SUBSCRIBE registration, tagged with
    the subscription id (never a sequence id) and — when the mutating
    request was traced — the writer's trace header, so a push can be
    correlated with the write that caused it.

    [tokens] is the verb + arguments exactly as {!Fb_core.Service.dispatch}
    consumes them — no re-tokenization happens server-side.  A batch
    frame carries N sub-requests that the server executes under a single
    lock acquisition, answering with one reply per sub-request in order
    (round-trip and locking amortization — the BATCH wire verb).

    Replies carry a {e typed} status: [Ok payload] or [Error] with the
    {!Fb_core.Errors.t} constructor encoded field by field, so remote
    callers recover the same typed errors local callers get and string
    rendering stays at the CLI edge.  Version 1 frames (bool + rendered
    English) are rejected by version number with a clean error.

    {b One allocation per frame.}  Every frame costs one allocation and
    one copy of its payload bytes on each side of the socket:
    {ul
    {- {!request_frame} and {!response_frame} size the frame first, then
       write it — length prefix included — into one buffer of exactly
       that size, blitting each payload string once from the caller's
       value.}
    {- A {!reader} parses the length prefix as bytes arrive, then
       allocates the body once at its announced length and fills it,
       however the stream was split across reads.  The allocation waits
       until half a scratch of the body (or all of it, if shorter) has
       arrived, so what a reader holds follows the bytes its peer sent,
       not the length it announced.}}

    {b Early refusal.}  A reader refuses an oversize, non-minimal or
    runaway length prefix on the byte that makes it invalid — before a
    single body byte is buffered — so one bad peer can neither make a
    reader allocate unboundedly nor hold it waiting for a body it will
    never accept.  Blocking reads take an optional deadline, so a peer
    cannot wedge a reader forever either. *)

type error =
  | Eof        (** peer closed the stream *)
  | Timeout    (** deadline expired *)
  | Too_large of int  (** announced length exceeds the frame limit *)
  | Malformed of string  (** unparsable length prefix *)

val error_to_string : error -> string

val default_max_frame : int
(** 16 MiB. *)

val protocol_version : int
(** 2. *)

(** {1 Messages} *)

type request =
  | Single of string list          (** one verb + arguments *)
  | Batch of string list list      (** N sub-requests, one lock, N replies *)

type trace = { trace_id : string; parent_span : int }
(** The optional trace header: the caller's trace id and the span the
    server should record its request span under. *)

val request_frame :
  user:string -> ?trace:trace -> ?seq:int -> request -> string
(** The complete wire frame — length prefix and payload — built in one
    exactly sized allocation.  [seq] must be non-negative (it travels as
    an unsigned varint).
    @raise Invalid_argument on a negative [seq]. *)

val decode_request :
  string -> (string * trace option * int option * request, string) result
(** [(user, trace, seq, request)]; rejects unknown protocol versions
    (including v1), unknown kinds and trailing garbage. *)

type reply = (string, Fb_core.Errors.t) result
(** What one verb returns across the wire — same type the local
    {!Fb_core.Service.dispatch} produces. *)

type event = {
  sub_id : int;            (** the SUBSCRIBE registration this is for *)
  ev_key : string;
  ev_branch : string;
  new_head : string;       (** rendered (Base32) version uid *)
  old_head : string option;  (** [None] when the branch was created *)
}
(** A branch-head movement pushed by the server — the wire form of
    {!Fb_core.Forkbase.head_event}. *)

type response = One of reply | Many of reply list | Event of event

val response_frame : ?trace:trace -> ?seq:int -> response -> string
(** The complete wire frame of a response, built like {!request_frame}. *)

val decode_response :
  string -> (trace option * int option * response, string) result
(** [(trace, seq, response)].  [seq] echoes the request's sequence id
    (always absent on [Event] frames); [trace] appears on [Event] frames
    pushed on behalf of a traced write. *)

(** {1 Socket IO} *)

val deadline_of_timeout : float option -> float option
(** [Some t] with [t > 0.] becomes an absolute deadline; [None] or a
    non-positive timeout means no deadline.  Every IO helper below (and
    {!Client.dial}) derives its deadline through this single
    function, so "[<= 0.] disables" holds uniformly. *)

val wait_readable :
  Unix.file_descr -> float option -> (unit, error) result
val wait_writable :
  Unix.file_descr -> float option -> (unit, error) result
(** Block until the fd is ready or the absolute deadline passes. *)

val send_frame :
  ?timeout_s:float -> Unix.file_descr -> string -> (unit, error) result
(** Write one frame built by {!request_frame} or {!response_frame}, as
    is; the optional deadline covers the whole frame.
    @raise Unix.Unix_error on transport failure (e.g. [EPIPE] once the
    peer is gone). *)

(** {1 Incremental reading} *)

type reader
(** Frame-reading state for one byte stream.  Bytes are fed in pieces of
    any size; complete frames queue up until taken with {!next}.  After
    an error the reader is finished: every later call reports the same
    error (frames completed before it can still be taken). *)

val reader : ?max_frame:int -> ?scratch:Bytes.t -> unit -> reader
(** [max_frame] defaults to {!default_max_frame}.  [scratch] is where
    {!read_some} lands socket bytes before parsing them (64 KiB of its
    own by default); its size also sets when a body is allocated (see
    {!feed}).  A feed consumes the scratch completely, so one
    scratch may be shared by every reader that a single thread drives —
    the event loop's connections share one. *)

val feed : reader -> Bytes.t -> int -> int -> (unit, error) result
(** [feed r buf off len] consumes [len] bytes of [buf] from [off].  A
    length prefix above [max_frame], non-minimal, or longer than 5 bytes
    fails on the byte that makes it so, with nothing of the body
    buffered.  A legal prefix allocates nothing by itself: the body is
    allocated once half a scratch of it (or all of it) has been fed.  @raise Invalid_argument on an out-of-range slice. *)

val next : reader -> string option
(** Take the oldest complete frame's payload. *)

val read_some :
  reader -> (Bytes.t -> int -> int -> int) -> (int, error) result
(** Make exactly one call to [read buf off len] (typically
    [Unix.read fd]) into the scratch and {!feed} what it returns.  [Ok 0]
    is end of stream.  Exceptions from [read] (e.g. [EAGAIN]) escape
    with nothing consumed. *)

val read_frame :
  ?timeout_s:float -> reader -> Unix.file_descr -> (string, error) result
(** Block until the reader holds one complete frame and take it.  Reuse
    one reader per stream: bytes of later frames read along the way stay
    in it.  [timeout_s] bounds the {e whole} frame, so a byte-at-a-time
    peer cannot hold the reader past the deadline; omitted or [<= 0.]
    means block indefinitely.  On [Too_large]/[Malformed] the stream is
    desynchronized and the connection should be closed.  Never raises on
    EOF/timeout; [Unix.Unix_error] can still escape for genuine socket
    failures. *)

val resolve_host : string -> (Unix.inet_addr, string) result
(** Dotted quad, or a name via [gethostbyname]. *)
