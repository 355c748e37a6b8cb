module Value = Fb_types.Value
module Hash = Fb_hash.Hash

let tokenize line =
  let n = String.length line and buf = Buffer.create 16 in
  (* [started]: a token is in progress even while empty, so "" is an
     argument and bare blanks are none; a closing quote is not a token
     boundary, so "ab"cd is one token. *)
  let rec go i ~quoted ~started acc =
    let flushed () = if started then Buffer.contents buf :: acc else acc in
    if i >= n then if quoted then Error "unterminated quote" else Ok (List.rev (flushed ()))
    else
      match line.[i], quoted with
      | '"', _ -> go (i + 1) ~quoted:(not quoted) ~started:true acc
      | '\\', true when i + 1 < n && line.[i + 1] = '"' ->
        Buffer.add_char buf '"';
        go (i + 2) ~quoted ~started acc
      | (' ' | '\t'), false ->
        let acc = flushed () in
        Buffer.clear buf;
        go (i + 1) ~quoted ~started:false acc
      | c, _ ->
        Buffer.add_char buf c;
        go (i + 1) ~quoted ~started:true acc
  in
  go 0 ~quoted:false ~started:false []

type access = Read | Write
type scope = Key of string | Global

let ( let+ ) r f = Result.map f r

(* Every parse runs; the first failure is the error. *)
let ( and+ ) a b =
  match a, b with Ok x, Ok y -> Ok (x, y) | (Error _ as e), _ -> e | _, (Error _ as e) -> e

let all f xs =
  List.fold_left (fun acc x -> let+ ys = acc and+ y = f x in y :: ys) (Ok []) xs
  |> Result.map List.rev

(* Argument codecs: a usage placeholder, the token form and its parse
   (given the verb name, for messages). *)
module Arg = struct
  type 'a t =
    { label : string; to_tok : 'a -> string; of_tok : string -> string -> ('a, Errors.t) result }

  let str label = { label; to_tok = Fun.id; of_tok = (fun _ s -> Ok s) }
  let key = str "KEY"
  let branch = str "BRANCH"

  (* Versions render in Base32 and parse from Base32 or hex; delta sync
     names its HEAD by chunk id in hex. *)
  let version label =
    { label; to_tok = Forkbase.version_string; of_tok = (fun _ s -> Forkbase.parse_version s) }

  let head = { (version "HEAD") with to_tok = Hash.to_hex }

  let chunk_id =
    { label = "ID"; to_tok = Hash.to_hex;
      of_tok =
        (fun verb s ->
          Result.map_error
            (fun _ -> Errors.Invalid (Printf.sprintf "%s: bad chunk id %S" verb s))
            (Hash.of_hex s)) }

  (* A verb's argument list: placeholders, encoding, and a parse (given
     the verb name) that is [None] on a wrong token count. *)
  type 'a list_ =
    { params : string list; enc : 'a -> string list;
      dec : string -> string list -> ('a, Errors.t) result option }

  let none =
    { params = []; enc = (fun () -> []); dec = (fun _ -> function [] -> Some (Ok ()) | _ -> None) }

  (* An argument in front of a list; its parse comes first. *)
  let cons a rest =
    { params = a.label :: rest.params;
      enc = (fun (x, r) -> a.to_tok x :: rest.enc r);
      dec =
        (fun v -> function
          | s :: toks ->
            Option.map (fun r -> let+ x = a.of_tok v s and+ r = r in (x, r)) (rest.dec v toks)
          | [] -> None) }

  let iso f g l =
    { params = l.params; enc = (fun x -> l.enc (g x));
      dec = (fun v toks -> Option.map (Result.map f) (l.dec v toks)) }

  let one a = iso fst (fun x -> (x, ())) (cons a none)
  let two a b = iso (fun (x, (y, ())) -> (x, y)) (fun (x, y) -> (x, (y, ()))) (cons a (cons b none))

  let three a b c =
    iso (fun (x, (y, (z, ()))) -> (x, y, z)) (fun (x, y, z) -> (x, (y, (z, ()))))
      (cons a (cons b (cons c none)))

  let four a b c d =
    iso (fun (x, (y, (z, (w, ())))) -> (x, y, z, w)) (fun (x, y, z, w) -> (x, (y, (z, (w, ())))))
      (cons a (cons b (cons c (cons d none))))

  (* One or more. *)
  let many a =
    { params = [ a.label ^ "..." ]; enc = List.map a.to_tok;
      dec = (fun v -> function [] -> None | toks -> Some (all (a.of_tok v) toks)) }
end

(* Reply codecs: a result's payload rendering and its parse back. *)
module Reply = struct
  type 'r t = { render : 'r -> string; parse : string -> ('r, Errors.t) result }

  let text = { render = Fun.id; parse = Result.ok }
  let unit = { render = (fun () -> ""); parse = (fun _ -> Ok ()) }
  let uid = { render = Forkbase.version_string; parse = Forkbase.parse_version }
  let have = { render = Sync.encode_have; parse = Sync.decode_have }
  let bloom = { render = Sync.Bloom.encode; parse = Sync.Bloom.decode }

  let lines =
    { render = String.concat "\n";
      parse = (fun p -> Ok (if p = "" then [] else String.split_on_char '\n' p)) }

  (* "branch uid" per line; a uid never contains a blank, so splitting at
     the last one is unambiguous even for odd branch names. *)
  let head_line line =
    match String.rindex_opt line ' ' with
    | None -> Errors.invalid "bad head line: %s" line
    | Some i ->
      let+ u = Forkbase.parse_version (String.sub line (i + 1) (String.length line - i - 1)) in
      (String.sub line 0 i, u)

  let heads =
    { render =
        (fun hs ->
          String.concat "\n" (List.map (fun (b, u) -> b ^ " " ^ Forkbase.version_string u) hs));
      parse = (fun p -> Result.bind (lines.parse p) (all head_line)) }

  let counts =
    { render = (fun (c, b) -> Printf.sprintf "chunks=%d bytes=%d" c b);
      parse = (fun p -> Option.to_result ~none:(Errors.Invalid ("bad chunk counts: " ^ p))
                  (Scanf.sscanf_opt p "chunks=%d bytes=%d%!" (fun c b -> (c, b)))) }
end

type ('a, 'r) verb = {
  name : string;
  usage : string;
  access : access;
  retry_safe : bool;
  scope : 'a -> scope;
  encode_args : 'a -> string list;
  decode_args : string list -> ('a, Errors.t) result;
  encode_reply : 'r -> string;
  decode_reply : string -> ('r, Errors.t) result;
  handler : ?user:string -> Forkbase.t -> 'a -> ('r, Errors.t) result;
}

type any = Verb : ('a, 'r) verb -> any

(* A retry is safe for a verb that changes nothing; [chunk-put] mutates
   but is content-addressed, so a replay cannot double-apply. *)
let verb ?retry_safe name access (args : _ Arg.list_) (reply : _ Reply.t) handler =
  let usage = String.concat " " (name :: args.params) in
  (* A verb whose first argument is the KEY locks that key's stripe. *)
  let scope =
    match args.params with "KEY" :: _ -> fun a -> Key (List.hd (args.enc a)) | _ -> fun _ -> Global
  in
  { name; usage; access; handler; scope; encode_args = args.enc;
    retry_safe = Option.value retry_safe ~default:(access = Read);
    decode_args =
      (fun toks ->
        match args.dec name toks with Some r -> r | None -> Errors.invalid "bad request: %s" usage);
    encode_reply = reply.render; decode_reply = reply.parse }

let render_value = function
  | Value.Primitive p -> Fb_types.Primitive.to_string p
  | Value.Table t -> Fb_types.Table.to_csv t
  | Value.Blob b -> Fb_postree.Pblob.to_string b
  | Value.Map m ->
    String.concat "\n"
      (List.map (fun (k, v) -> Printf.sprintf "%s=%s" k v) (Fb_postree.Pmap.bindings m))
  | Value.Set s -> String.concat "\n" (Fb_postree.Pset.elements s)
  | Value.List l -> String.concat "\n" (Fb_postree.Plist.to_list l)

let json r = Result.map Fb_types.Json.to_string r
let report r = Format.asprintf "%a" Fb_chunk.Scrub.pp_report r

(* ------------------------------ the verbs ------------------------------ *)

let put =
  verb "put" Write Arg.(three key branch (str "VALUE")) Reply.uid
    (fun ?user fb (key, branch, v) -> Forkbase.put ?user ~branch fb ~key (Value.string v))
let put_csv =
  verb "put-csv" Write Arg.(three key branch (str "CSV")) Reply.uid
    (fun ?user fb (key, branch, csv) -> Forkbase.import_csv ?user ~branch fb ~key csv)
let get =
  verb "get" Read Arg.(two key branch) Reply.text (fun ?user fb (key, branch) ->
      Result.map render_value (Forkbase.get ?user ~branch fb ~key))
let get_at =
  verb "get-at" Read Arg.(one (version "UID")) Reply.text (fun ?user fb uid ->
      Result.map render_value (Forkbase.get_at ?user fb uid))
let head =
  verb "head" Read Arg.(two key branch) Reply.uid (fun ?user fb (key, branch) ->
      Forkbase.head ?user ~branch fb ~key)
let latest =
  verb "latest" Read Arg.(one key) Reply.heads (fun ?user fb key -> Forkbase.latest ?user fb ~key)
let list =
  verb "list" Read Arg.none Reply.lines (fun ?user fb () -> Ok (Forkbase.list_keys ?user fb))

(* History, newest first: "uid seq author message" per version. *)
let log =
  verb "log" Read Arg.(two key branch) Reply.lines (fun ?user fb (key, branch) ->
      let line (f : Fb_repr.Fnode.t) =
        Printf.sprintf "%s %d %s %s" (Forkbase.version_string (Fb_repr.Fnode.uid f)) f.seq
          f.author f.message
      in
      Result.map (List.map line) (Forkbase.log ?user ~branch fb ~key))
let branch =
  verb "branch" Write Arg.(three key (str "FROM") (str "NEW")) Reply.uid
    (fun ?user fb (key, from_branch, new_branch) ->
      Forkbase.fork ?user ~from_branch fb ~key ~new_branch)
let rename =
  verb "rename" Write Arg.(three key (str "FROM") (str "TO")) Reply.unit
    (fun ?user fb (key, from_branch, to_branch) ->
      Forkbase.rename_branch ?user fb ~key ~from_branch ~to_branch)
let tag =
  verb "tag" Write Arg.(three key (str "NAME") (version "UID")) Reply.unit
    (fun ?user fb (key, name, uid) -> Forkbase.tag ?user fb ~key ~name uid)
let meta =
  verb "meta" Read Arg.(one (version "UID")) Reply.text (fun ?user fb uid ->
      let+ (f : Fb_repr.Fnode.t) = Forkbase.meta ?user fb uid in
      Printf.sprintf "key: %s\nseq: %d\nauthor: %s\nmessage: %s\nbases:%s" f.key f.seq f.author
        f.message
        (String.concat "" (List.map (fun b -> "\n  " ^ Forkbase.version_string b) f.bases)))
let diff =
  verb "diff" Read Arg.(three key (str "BRANCH1") (str "BRANCH2")) Reply.text
    (fun ?user fb (key, branch1, branch2) ->
      let+ d = Forkbase.diff ?user fb ~key ~branch1 ~branch2 in
      Diffview.report d)
let merge =
  verb "merge" Write Arg.(three key (str "INTO") (str "FROM")) Reply.uid
    (fun ?user fb (key, into, from_branch) -> Forkbase.merge ?user fb ~key ~into ~from_branch)
let verify =
  verb "verify" Read Arg.(two key branch) Reply.text (fun ?user fb (key, branch) ->
      let+ (r : Fb_repr.Verify.report) = Forkbase.verify_branch ?user fb ~key ~branch in
      Printf.sprintf "%d versions %d chunks" r.versions_checked r.value_chunks)
let stat =
  verb "stat" Read Arg.none Reply.text (fun ?user:_ fb () ->
      let s = Forkbase.stats fb in
      Ok
        (Printf.sprintf "keys=%d branches=%d versions=%d physical=%d" s.keys s.branches
           s.versions s.store.physical_bytes))

(* The Obs registry; the JSON carries spans and the buckets a remote
   consumer (forkbase top) rebuilds interval quantiles from. *)
let metrics =
  verb "metrics" Read Arg.none Reply.text (fun ?user:_ _ () -> Ok (Fb_obs.Obs.dump_prometheus ()))
let metrics_json =
  verb "metrics-json" Read Arg.none Reply.text (fun ?user:_ _ () ->
      Ok (Fb_obs.Obs.dump_json ~include_spans:true ~include_buckets:true ()))

(* Storage damage, reported (a dry scrub) or quarantined. *)
let fsck =
  verb "fsck" Read Arg.none Reply.text (fun ?user:_ fb () ->
      Ok (report (Forkbase.scrub ~dry_run:true fb)))
let scrub =
  verb "scrub" Write Arg.none Reply.text (fun ?user:_ fb () -> Ok (report (Forkbase.scrub fb)))

(* JSON variants: the bodies a REST gateway returns verbatim. *)
let get_json =
  verb "get-json" Read Arg.(two key branch) Reply.text (fun ?user fb (key, branch) ->
      json (Result.map Webview.value_json (Forkbase.get ?user ~branch fb ~key)))
let diff_json =
  verb "diff-json" Read Arg.(three key (str "BRANCH1") (str "BRANCH2")) Reply.text
    (fun ?user fb (key, branch1, branch2) ->
      json (Result.map Webview.diff_json (Forkbase.diff ?user fb ~key ~branch1 ~branch2)))
let log_json =
  verb "log-json" Read Arg.(two key branch) Reply.text (fun ?user fb (key, branch) ->
      json (Result.map Webview.log_json (Forkbase.log ?user ~branch fb ~key)))
let stat_json =
  verb "stat-json" Read Arg.none Reply.text (fun ?user:_ fb () ->
      json (Ok (Webview.stats_json (Forkbase.stats fb))))
let latest_json =
  verb "latest-json" Read Arg.(one key) Reply.text (fun ?user fb key ->
      json (Result.map Webview.branches_json (Forkbase.latest ?user fb ~key)))

(* Delta sync.  Chunk bytes ride in a raw binary token: the framing is
   length-prefixed, so no escaping is needed. *)
let sync_have =
  verb "sync-have" Read Arg.(many chunk_id) Reply.have (fun ?user fb ids ->
      Forkbase.sync_have ?user fb ids)
let sync_get =
  verb "sync-get" Read Arg.(one chunk_id) Reply.text (fun ?user fb id ->
      Forkbase.sync_chunk ?user fb id)
let sync_put =
  verb "sync-put" Write Arg.(four key branch chunk_id (str "BYTES")) Reply.unit
    (fun ?user fb (key, branch, id, bytes) ->
      Result.map ignore (Forkbase.sync_put ?user ~branch fb ~key id bytes))
let sync_bloom =
  verb "sync-bloom" Read Arg.none Reply.bloom (fun ?user fb () -> Forkbase.sync_bloom ?user fb)
let sync_advance =
  verb "sync-advance" Write Arg.(three key branch head) Reply.uid
    (fun ?user fb (key, branch, root) -> Forkbase.advance_head ?user ~branch fb ~key root)

(* Cluster storage members: verified ingest without the closure check
   (routing spreads children across members), and physical counts. *)
let chunk_put =
  verb "chunk-put" Write ~retry_safe:true Arg.(two chunk_id (str "BYTES")) Reply.unit
    (fun ?user fb (id, bytes) -> Result.map ignore (Forkbase.chunk_put ?user fb id bytes))
let chunk_stat =
  verb "chunk-stat" Read Arg.none Reply.counts (fun ?user fb () ->
      let+ (s : Fb_chunk.Store.stats) = Forkbase.chunk_stat ?user fb in
      (s.physical_chunks, s.physical_bytes))

(* Hex entry proof a light client verifies offline against the head. *)
let prove =
  verb "prove" Read Arg.(three key branch (str "ENTRY")) Reply.text
    (fun ?user fb (key, branch, entry_key) ->
      let+ proof = Forkbase.prove_entry ?user ~branch fb ~key ~entry_key in
      Fb_hash.Hex.encode (Forkbase.encode_entry_proof proof))

let verbs =
  [ Verb put; Verb put_csv; Verb get; Verb get_at; Verb head; Verb latest; Verb list; Verb log;
    Verb branch; Verb rename; Verb tag; Verb meta; Verb diff; Verb merge; Verb verify;
    Verb stat; Verb metrics; Verb metrics_json; Verb fsck; Verb scrub; Verb get_json;
    Verb diff_json; Verb log_json; Verb stat_json; Verb latest_json; Verb sync_have;
    Verb sync_get; Verb sync_put; Verb sync_bloom; Verb sync_advance; Verb chunk_put;
    Verb chunk_stat; Verb prove ]

let by_name = Hashtbl.of_seq (List.to_seq (List.map (fun (Verb v as e) -> (v.name, e)) verbs))
let find name = Hashtbl.find_opt by_name (String.lowercase_ascii name)

(* Unknown or malformed requests only ever produce an error, so they take
   the global read side: the safe default for a verb not identified. *)
let prepare tokens =
  let fail r = (Read, Global, fun ?user:_ _ -> r) in
  match tokens with
  | [] -> fail (Errors.invalid "empty request")
  | name :: args -> (
    match find name with
    | None ->
      fail
        (Errors.invalid "bad request: %s/%d arguments" (String.lowercase_ascii name)
           (List.length args))
    | Some (Verb v) -> (
      match v.decode_args args with
      | Error e -> fail (Error e)
      | Ok a ->
        ( v.access, v.scope a,
          fun ?user fb ->
            (* Verbs like stat and scrub call non-[result] maintenance
               APIs, so a storage fault can still arrive as an exception. *)
            try Result.map v.encode_reply (v.handler ?user fb a) with
            | Fb_chunk.Store.Transient msg -> Error (Errors.Transient msg)
            | Fb_postree.Postree.Corrupt msg -> Error (Errors.Corrupt msg) )))

let classify tokens =
  let access, scope, _ = prepare tokens in
  (access, scope)

let dispatch ?user fb tokens =
  let _, _, run = prepare tokens in
  run ?user fb

(* A batch runs under one acquisition covering every sub-request:
   exclusive if any mutates, one stripe when all name the same key. *)
let classify_batch classes =
  let access = if List.exists (fun (a, _) -> a = Write) classes then Write else Read in
  match List.map snd classes with
  | Key k :: rest when List.for_all (( = ) (Key k)) rest -> (access, Key k)
  | _ -> (access, Global)

let handle ?user fb line =
  let reply = function
    | Ok "" -> "OK"
    | Ok payload -> "OK " ^ payload
    | Error e -> "ERR " ^ Errors.to_string e
  in
  match tokenize line with
  | Error e -> "ERR " ^ Errors.to_string (Errors.Invalid e)
  | Ok tokens -> reply (dispatch ?user fb tokens)
