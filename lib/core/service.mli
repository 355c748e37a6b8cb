(** Request/response semantic view — the transport-agnostic core of the
    paper's "RESTful" API layer (Fig. 1).

    Requests are single lines: a verb followed by arguments, with shell-like
    double quoting for arguments containing spaces.  Responses start with
    [OK] or [ERR].  A REST gateway (or any other transport) maps its routes
    onto these verbs one-to-one; keeping the layer in-process makes the
    whole surface testable without a network stack.

    Every verb is one entry of {!verbs}: its wire name, argument and
    reply codecs, lock classification and handler.  The dispatcher, the
    lock classification, the server's per-verb histograms and
    [Fb_net.Remote.call] all derive from that table; a verb's usage
    string (e.g. [put KEY BRANCH VALUE]) is what a wrong-arity request
    is answered with.  Verb names are case-insensitive on the wire. *)

type access = Read | Write
(** [Read] verbs never move a head nor mutate the chunk store, so any
    number may run at once; [Write] verbs need exclusion. *)

type scope = Key of string | Global
(** [Key k] narrows the exclusion to [k]'s lock stripe (every verb whose
    first argument is a KEY); [Global] spans the whole instance. *)

type ('a, 'r) verb = private {
  name : string;  (** the wire token, lowercase *)
  usage : string;  (** e.g. [put KEY BRANCH VALUE]; [ID...] repeats *)
  access : access;
  retry_safe : bool;  (** [Read] verbs, and the content-addressed [chunk-put] *)
  scope : 'a -> scope;
  encode_args : 'a -> string list;
  decode_args : string list -> ('a, Errors.t) result;
  encode_reply : 'r -> string;
  decode_reply : string -> ('r, Errors.t) result;
  handler : ?user:string -> Forkbase.t -> 'a -> ('r, Errors.t) result;
}
(** One verb with decoded arguments ['a] and result ['r].  A wrong token
    count decodes to [Invalid "bad request: <usage>"].  Results render
    as text (values in their service rendering: CSV for tables, [k=v]
    lines for maps) and [decode_reply] parses that text back. *)

type any = Verb : ('a, 'r) verb -> any

val verbs : any list
val find : string -> any option  (* case-insensitive *)

(** {1 The verbs}

    Versions travel in Base32 (hex accepted), chunk ids in hex;
    everything else is a plain string, in the order of the usage. *)

val put : (string * string * string, Forkbase.uid) verb
val put_csv : (string * string * string, Forkbase.uid) verb
val get : (string * string, string) verb
val get_at : (Forkbase.uid, string) verb
val head : (string * string, Forkbase.uid) verb
val latest : (string, (string * Forkbase.uid) list) verb
val list : (unit, string list) verb
val log : (string * string, string list) verb  (* [uid seq author message] lines *)
val branch : (string * string * string, Forkbase.uid) verb  (* fork FROM into NEW *)
val rename : (string * string * string, unit) verb
val tag : (string * string * Forkbase.uid, unit) verb
val meta : (Forkbase.uid, string) verb
val diff : (string * string * string, string) verb
val merge : (string * string * string, Forkbase.uid) verb  (* three-way, FROM into INTO *)
val verify : (string * string, string) verb
val stat : (unit, string) verb
val metrics : (unit, string) verb  (* the Obs registry, Prometheus text *)
val metrics_json : (unit, string) verb  (* with spans and buckets *)
val fsck : (unit, string) verb  (* a dry scrub *)
val scrub : (unit, string) verb
val get_json : (string * string, string) verb
val diff_json : (string * string * string, string) verb
val log_json : (string * string, string) verb
val stat_json : (unit, string) verb
val latest_json : (string, string) verb
val sync_have : (Fb_hash.Hash.t list, bool list) verb
val sync_get : (Fb_hash.Hash.t, string) verb
val sync_put : (string * string * Fb_hash.Hash.t * string, unit) verb
val sync_bloom : (unit, Sync.Bloom.t) verb
val sync_advance : (string * string * Forkbase.uid, Forkbase.uid) verb
val chunk_put : (Fb_hash.Hash.t * string, unit) verb  (* no closure check *)
val chunk_stat : (unit, int * int) verb  (* physical chunks and bytes *)
val prove : (string * string * string, string) verb  (* hex entry proof *)

(** {1 Serving} *)

val prepare :
  string list ->
  access * scope * (?user:string -> Forkbase.t -> (string, Errors.t) result)
(** Decode a request once: its lock classification, from its entry and
    decoded arguments, and its execution.  Unknown or malformed requests
    are [(Read, Global)] — they only produce an error.  {!Fb_net.Server}
    drives its striped reader-writer locking from this. *)

val classify : string list -> access * scope
(** The classification half of {!prepare}. *)

val classify_batch : (access * scope) list -> access * scope
(** One classification covering a batch's sub-requests: [Write] if any
    writes, [Key k] when every one names [k], else [Global]; an empty
    batch is [(Read, Global)]. *)

val tokenize : string -> (string list, string) result
(** Split a request line on blanks; double quotes group (a closing quote
    is not a token boundary, so ["ab"cd] is one token [abcd]), [""] is an
    empty argument, and a backslash escapes a quote inside quotes. *)

val dispatch :
  ?user:string -> Forkbase.t -> string list -> (string, Errors.t) result
(** Execute one request given as a token list ([verb :: args]) — the
    transport-independent entry point ({!Fb_net.Server} ships token lists
    verbatim over its binary framing, so payloads with embedded newlines
    or quotes never re-enter a parser).  Never raises: storage faults
    surface as [Error (Transient _ | Corrupt _)]. *)

val handle : ?user:string -> Forkbase.t -> string -> string
(** [tokenize] + [dispatch] + status rendering for line transports; never
    raises.  The response is ["OK"] or ["OK <payload>"] (payload possibly
    multi-line — ambiguous over a line transport, which is why networked
    deployments use {!Fb_net}'s length-prefixed framing) or
    ["ERR <reason>"]. *)
