module Value = Fb_types.Value
module Hash = Fb_hash.Hash

let tokenize line =
  let n = String.length line in
  let tokens = ref [] and buf = Buffer.create 16 in
  (* [started] marks that a token is in progress even when the buffer is
     empty, so "" yields an empty argument while bare blanks yield none —
     and a closing quote is not a token boundary: "ab"cd is one token. *)
  let started = ref false in
  let flush () =
    if !started || Buffer.length buf > 0 then begin
      tokens := Buffer.contents buf :: !tokens;
      Buffer.clear buf;
      started := false
    end
  in
  let rec plain i =
    if i >= n then (flush (); Ok ())
    else
      match line.[i] with
      | ' ' | '\t' -> (flush (); plain (i + 1))
      | '"' ->
        started := true;
        quoted (i + 1)
      | c ->
        started := true;
        Buffer.add_char buf c;
        plain (i + 1)
  and quoted i =
    if i >= n then Error "unterminated quote"
    else
      match line.[i] with
      | '"' -> plain (i + 1)
      | '\\' when i + 1 < n && line.[i + 1] = '"' ->
        Buffer.add_char buf '"';
        quoted (i + 2)
      | c -> (Buffer.add_char buf c; quoted (i + 1))
  in
  match plain 0 with
  | Ok () -> Ok (List.rev !tokens)
  | Error _ as e -> e

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

let render_value = function
  | Value.Primitive p -> Fb_types.Primitive.to_string p
  | Value.Table t -> Fb_types.Table.to_csv t
  | Value.Blob b -> Fb_postree.Pblob.to_string b
  | Value.Map m ->
    String.concat "\n"
      (List.map
         (fun (k, v) -> Printf.sprintf "%s=%s" k v)
         (Fb_postree.Pmap.bindings m))
  | Value.Set s -> String.concat "\n" (Fb_postree.Pset.elements s)
  | Value.List l -> String.concat "\n" (Fb_postree.Plist.to_list l)

let dispatch ?user fb tokens =
  let ( let* ) = Result.bind in
  let run () =
    match tokens with
    | [] -> Error (Errors.Invalid "empty request")
    | verb :: args -> (
      match String.lowercase_ascii verb, args with
      | "put", [ key; branch; value ] ->
        let* uid = Forkbase.put ?user ~branch fb ~key (Value.string value) in
        Ok (Forkbase.version_string uid)
      | "put-csv", [ key; branch; csv ] ->
        let* uid = Forkbase.import_csv ?user ~branch fb ~key csv in
        Ok (Forkbase.version_string uid)
      | "get", [ key; branch ] ->
        let* value = Forkbase.get ?user ~branch fb ~key in
        Ok (render_value value)
      | "get-at", [ uid ] ->
        let* uid = Forkbase.parse_version uid in
        let* value = Forkbase.get_at ?user fb uid in
        Ok (render_value value)
      | "head", [ key; branch ] ->
        let* uid = Forkbase.head ?user ~branch fb ~key in
        Ok (Forkbase.version_string uid)
      | "latest", [ key ] ->
        let* heads = Forkbase.latest ?user fb ~key in
        Ok
          (String.concat "\n"
             (List.map
                (fun (b, uid) ->
                  Printf.sprintf "%s %s" b (Forkbase.version_string uid))
                heads))
      | "list", [] -> Ok (String.concat "\n" (Forkbase.list_keys ?user fb))
      | "log", [ key; branch ] ->
        let* nodes = Forkbase.log ?user ~branch fb ~key in
        Ok
          (String.concat "\n"
             (List.map
                (fun (f : Fb_repr.Fnode.t) ->
                  Printf.sprintf "%s %d %s %s"
                    (Forkbase.version_string (Fb_repr.Fnode.uid f))
                    f.Fb_repr.Fnode.seq f.Fb_repr.Fnode.author
                    f.Fb_repr.Fnode.message)
                nodes))
      | "branch", [ key; from_branch; new_branch ] ->
        let* uid = Forkbase.fork ?user ~from_branch fb ~key ~new_branch in
        Ok (Forkbase.version_string uid)
      | "rename", [ key; from_branch; to_branch ] ->
        let* () = Forkbase.rename_branch ?user fb ~key ~from_branch ~to_branch in
        Ok ""
      | "tag", [ key; name; uid ] ->
        let* uid = Forkbase.parse_version uid in
        let* () = Forkbase.tag ?user fb ~key ~name uid in
        Ok ""
      | "meta", [ uid ] ->
        let* uid = Forkbase.parse_version uid in
        let* f = Forkbase.meta ?user fb uid in
        Ok
          (Printf.sprintf "key: %s\nseq: %d\nauthor: %s\nmessage: %s\nbases:%s"
             f.Fb_repr.Fnode.key f.Fb_repr.Fnode.seq f.Fb_repr.Fnode.author
             f.Fb_repr.Fnode.message
             (String.concat ""
                (List.map
                   (fun b -> "\n  " ^ Forkbase.version_string b)
                   f.Fb_repr.Fnode.bases)))
      | "diff", [ key; branch1; branch2 ] ->
        let* d = Forkbase.diff ?user fb ~key ~branch1 ~branch2 in
        Ok
          (Diffview.summary d ^ "\n"
           ^ Format.asprintf "%a" Diffview.render d)
      | "merge", [ key; into; from_branch ] ->
        let* uid = Forkbase.merge ?user fb ~key ~into ~from_branch in
        Ok (Forkbase.version_string uid)
      | "verify", [ key; branch ] ->
        let* report = Forkbase.verify_branch ?user fb ~key ~branch in
        Ok
          (Printf.sprintf "%d versions %d chunks"
             report.Fb_repr.Verify.versions_checked
             report.Fb_repr.Verify.value_chunks)
      | "stat", [] ->
        let s = Forkbase.stats fb in
        Ok
          (Printf.sprintf "keys=%d branches=%d versions=%d physical=%d"
             s.Forkbase.keys s.Forkbase.branches s.Forkbase.versions
             s.Forkbase.store.Fb_chunk.Store.physical_bytes)
      | "metrics", [] -> Ok (Fb_obs.Obs.dump_prometheus ())
      | "metrics-json", [] ->
        (* Buckets ride along so a remote consumer (forkbase top) can
           rebuild snapshots and compute interval quantiles. *)
        Ok (Fb_obs.Obs.dump_json ~include_spans:true ~include_buckets:true ())
      | "fsck", [] ->
        let report = Forkbase.scrub ~dry_run:true fb in
        Ok (Format.asprintf "%a" Fb_chunk.Scrub.pp_report report)
      | "scrub", [] ->
        let report = Forkbase.scrub fb in
        Ok (Format.asprintf "%a" Fb_chunk.Scrub.pp_report report)
      (* JSON variants: the bodies a REST gateway returns verbatim. *)
      | "get-json", [ key; branch ] ->
        let* value = Forkbase.get ?user ~branch fb ~key in
        Ok (Fb_types.Json.to_string (Webview.value_json value))
      | "diff-json", [ key; branch1; branch2 ] ->
        let* d = Forkbase.diff ?user fb ~key ~branch1 ~branch2 in
        Ok (Fb_types.Json.to_string (Webview.diff_json d))
      | "log-json", [ key; branch ] ->
        let* nodes = Forkbase.log ?user ~branch fb ~key in
        Ok (Fb_types.Json.to_string (Webview.log_json nodes))
      | "stat-json", [] ->
        Ok (Fb_types.Json.to_string (Webview.stats_json (Forkbase.stats fb)))
      | "latest-json", [ key ] ->
        let* heads = Forkbase.latest ?user fb ~key in
        Ok (Fb_types.Json.to_string (Webview.branches_json heads))
      (* Delta-sync verbs (PUSH/PULL sessions).  Ids travel as hex; chunk
         bytes ride in a raw binary token — the v2 framing is
         length-prefixed, so no escaping is needed. *)
      | "sync-have", (_ :: _ as ids) ->
        let* ids =
          List.fold_left
            (fun acc hex ->
              let* acc = acc in
              match Hash.of_hex hex with
              | Ok id -> Ok (id :: acc)
              | Error _ -> Errors.invalid "sync-have: bad chunk id %S" hex)
            (Ok []) ids
        in
        let* bits = Forkbase.sync_have ?user fb (List.rev ids) in
        Ok (Sync.encode_have bits)
      | "sync-get", [ hex ] ->
        let* id =
          match Hash.of_hex hex with
          | Ok id -> Ok id
          | Error _ -> Errors.invalid "sync-get: bad chunk id %S" hex
        in
        Forkbase.sync_chunk ?user fb id
      | "sync-put", [ key; branch; hex; bytes ] ->
        let* id =
          match Hash.of_hex hex with
          | Ok id -> Ok id
          | Error _ -> Errors.invalid "sync-put: bad chunk id %S" hex
        in
        let* _id = Forkbase.sync_put ?user ~branch fb ~key id bytes in
        Ok ""
      (* Chunk-level verbs for cluster storage nodes: verified ingest
         without the closure check (routing spreads children across
         nodes), physical stats, and the whole-store Bloom summary. *)
      | "chunk-put", [ hex; bytes ] ->
        let* id =
          match Hash.of_hex hex with
          | Ok id -> Ok id
          | Error _ -> Errors.invalid "chunk-put: bad chunk id %S" hex
        in
        let* _id = Forkbase.chunk_put ?user fb id bytes in
        Ok ""
      | "chunk-stat", [] ->
        let* s = Forkbase.chunk_stat ?user fb in
        Ok
          (Printf.sprintf "chunks=%d bytes=%d" s.Fb_chunk.Store.physical_chunks
             s.Fb_chunk.Store.physical_bytes)
      | "sync-bloom", [] ->
        let* bloom = Forkbase.sync_bloom ?user fb in
        Ok (Sync.Bloom.encode bloom)
      | "sync-advance", [ key; branch; head ] ->
        let* root = Forkbase.parse_version head in
        let* uid = Forkbase.advance_head ?user ~branch fb ~key root in
        Ok (Forkbase.version_string uid)
      | "prove", [ key; branch; entry_key ] ->
        (* Hex-encoded entry proof a light client verifies offline against
           the branch head uid. *)
        let* proof = Forkbase.prove_entry ?user ~branch fb ~key ~entry_key in
        Ok (Fb_hash.Hex.encode (Forkbase.encode_entry_proof proof))
      | verb, args ->
        Errors.invalid "bad request: %s/%d arguments" verb (List.length args))
  in
  (* Verbs like stat and scrub call non-[result] maintenance APIs, so a
     storage fault can still arrive as an exception here. *)
  try run () with
  | Fb_chunk.Store.Transient msg -> Error (Errors.Transient msg)
  | Fb_postree.Postree.Corrupt msg -> Error (Errors.Corrupt msg)

let handle ?user fb line =
  let reply = function
    | Ok "" -> "OK"
    | Ok payload -> "OK " ^ payload
    | Error e -> "ERR " ^ Errors.to_string e
  in
  match tokenize line with
  | Error e -> "ERR " ^ Errors.to_string (Errors.Invalid e)
  | Ok tokens -> reply (dispatch ?user fb tokens)
