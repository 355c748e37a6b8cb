(** Request/response semantic view — the transport-agnostic core of the
    paper's "RESTful" API layer (Fig. 1).

    Requests are single lines: a verb followed by arguments, with shell-like
    double quoting for arguments containing spaces.  Responses start with
    [OK] or [ERR].  A REST gateway (or any other transport) maps its routes
    onto these verbs one-to-one; keeping the layer in-process makes the
    whole surface testable without a network stack.

    Verbs (case-insensitive):
    {v
    PUT <key> <branch> <value>          store a string primitive
    PUT-CSV <key> <branch> <csv>        store a relational table
    GET <key> <branch>                  render the head value
    GET-AT <uid>                        render a version by uid
    HEAD <key> <branch>                 head uid
    LATEST <key>                        branch -> uid lines
    LIST                                keys
    LOG <key> <branch>                  history lines
    BRANCH <key> <from> <new>           fork
    RENAME <key> <from> <to>            rename a branch
    TAG <key> <name> <uid>              immutable name for a version
    META <uid>                          version metadata
    DIFF <key> <branch1> <branch2>      differential query
    MERGE <key> <into> <from>           three-way merge
    VERIFY <key> <branch>               tamper check
    FSCK                                report storage damage (dry scrub)
    SCRUB                               quarantine damaged chunks
    STAT                                instance statistics
    METRICS / METRICS-JSON              the Obs registry (Prometheus text /
                                        JSON with spans and buckets)
    GET-JSON / DIFF-JSON / LOG-JSON / STAT-JSON / LATEST-JSON
                                        same queries with JSON bodies
                                        (see {!Webview})
    PROVE <key> <branch> <entry-key>    hex entry proof for light clients
    SYNC-HAVE <id...> / SYNC-GET <id> / SYNC-PUT <key> <branch> <id> <bytes>
    SYNC-ADVANCE <key> <branch> <uid>   delta-sync session verbs
    SYNC-BLOOM                          whole-store Bloom chunk summary
    CHUNK-PUT <id> <bytes>              verified ingest, no closure check
                                        (cluster storage members)
    CHUNK-STAT                          physical chunk/byte counts
    v} *)

type access = Read | Write
type scope = Key of string | Global

val classify : string list -> access * scope
(** Concurrency contract of a request: [Read] verbs (GET, DIFF, LIST,
    HEAD, LATEST, META, STAT, METRICS, VERIFY, PROVE, FSCK and the JSON
    variants) never mutate the instance and may execute concurrently;
    [Write] verbs (PUT, PUT-CSV, BRANCH, MERGE, RENAME, TAG, SYNC-PUT,
    SYNC-ADVANCE, CHUNK-PUT, SCRUB) require exclusion.  [Key k] narrows
    the needed exclusion to [k]'s lock stripe (CHUNK-PUT and SCRUB are
    [Global]); [Global] verbs span the whole instance.  Unknown verbs are
    [(Read, Global)] — they only produce an error.  This is the table
    {!Fb_net.Server} drives its striped reader-writer locking from. *)

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
