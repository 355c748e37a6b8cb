(* The request classification as it stood before the verb table, kept
   verbatim as an oracle: the table-derived [Service.classify] must agree
   with it on every well-formed request. *)

type access = Read | Write
type scope = Key of string | Global

(* The concurrency contract of every verb, used by the network server to
   pick a lock mode: [Read] verbs never move a head nor mutate the chunk
   store, so any number may run at once; [Write] verbs need exclusion.
   The scope narrows the exclusion to one key's stripe when the verb
   names the key it touches; uid-addressed reads ([get-at], [meta]) and
   instance-wide verbs are [Global].  Unknown or malformed verbs classify
   as [(Read, Global)] — they only ever produce an error, and the global
   read side is the safe default for a verb that cannot be identified. *)
let classify tokens =
  match tokens with
  | [] -> (Read, Global)
  | verb :: args -> (
    match String.lowercase_ascii verb, args with
    | ("put" | "put-csv" | "branch" | "merge" | "rename" | "tag"), key :: _ ->
      (Write, Key key)
    | ("sync-put" | "sync-advance"), key :: _ -> (Write, Key key)
    (* Chunk-level ingest is not key-scoped (cluster members hold an
       arbitrary slice of the graph) — exclude globally.  It stays
       idempotent (content-addressed), which is why transports may
       nevertheless retry it on reconnect. *)
    | "chunk-put", _ -> (Write, Global)
    | "scrub", _ -> (Write, Global)
    | ( ( "get" | "head" | "latest" | "log" | "diff" | "verify" | "prove"
        | "get-json" | "diff-json" | "log-json" | "latest-json" ),
        key :: _ ) ->
      (Read, Key key)
    (* Chunk-addressed sync reads: no key scope, safely retryable. *)
    | ("sync-have" | "sync-get" | "sync-bloom" | "chunk-stat"), _ ->
      (Read, Global)
    | _ -> (Read, Global))
