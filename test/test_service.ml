(* Request/response service view (the RESTful-layer substitute). *)

module FB = Fb_core.Forkbase
module Service = Fb_core.Service
module Acl = Fb_core.Acl

let check = Alcotest.check
let bool_ = Alcotest.bool
let string_ = Alcotest.string
let int_ = Alcotest.int

let fresh () = FB.create (Fb_chunk.Mem_store.create ())

let starts_with prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

let expect_ok fb req =
  let resp = Service.handle fb req in
  if not (starts_with "OK" resp) then
    Alcotest.failf "request %S -> %s" req resp;
  if String.length resp > 3 then String.sub resp 3 (String.length resp - 3)
  else ""

let expect_err fb req =
  let resp = Service.handle fb req in
  check bool_ ("ERR for " ^ req) true (starts_with "ERR" resp)

(* ---------------- tokenizer ---------------- *)

let test_tokenize () =
  check bool_ "plain" true (Service.tokenize "a b c" = Ok [ "a"; "b"; "c" ]);
  check bool_ "extra blanks" true (Service.tokenize "  a\t b " = Ok [ "a"; "b" ]);
  check bool_ "quoted" true
    (Service.tokenize "put k \"two words\"" = Ok [ "put"; "k"; "two words" ]);
  check bool_ "escaped quote" true
    (Service.tokenize "say \"a \\\" b\"" = Ok [ "say"; "a \" b" ]);
  check bool_ "empty arg" true (Service.tokenize "x \"\" y" = Ok [ "x"; ""; "y" ]);
  check bool_ "unterminated" true (Result.is_error (Service.tokenize "\"oops"));
  check bool_ "empty line" true (Service.tokenize "" = Ok []);
  (* Adjacent quoted/plain runs join into one token, shell-style. *)
  check bool_ "quote then plain" true (Service.tokenize "\"ab\"cd" = Ok [ "abcd" ]);
  check bool_ "plain then quote" true (Service.tokenize "a\"\"b" = Ok [ "ab" ]);
  check bool_ "two empty quotes" true (Service.tokenize "\"\"\"\"" = Ok [ "" ]);
  check bool_ "mixed runs" true
    (Service.tokenize "pre\"mid dle\"post x" = Ok [ "premid dlepost"; "x" ])

(* ---------------- verbs ---------------- *)

let test_put_get_roundtrip () =
  let fb = fresh () in
  let uid = expect_ok fb "PUT greeting master \"hello world\"" in
  check bool_ "uid is base32" true (Result.is_ok (FB.parse_version uid));
  check string_ "get" "hello world" (expect_ok fb "GET greeting master");
  check string_ "get-at" "hello world" (expect_ok fb ("GET-AT " ^ uid));
  check string_ "head" uid (expect_ok fb "HEAD greeting master")

let test_csv_branch_diff_merge () =
  let fb = fresh () in
  ignore (expect_ok fb "PUT-CSV ds master \"id,v\n1,x\n2,y\n\"");
  ignore (expect_ok fb "BRANCH ds master dev");
  ignore (expect_ok fb "PUT-CSV ds dev \"id,v\n1,x\n2,z\n\"");
  let diff = expect_ok fb "DIFF ds master dev" in
  check bool_ "diff mentions change" true (Tutil.contains diff "1 modified");
  ignore (expect_ok fb "MERGE ds master dev");
  check bool_ "merged" true
    (Tutil.contains (expect_ok fb "GET ds master") "2,z");
  let verify = expect_ok fb "VERIFY ds master" in
  check bool_ "verify counts" true (Tutil.contains verify "versions");
  let stat = expect_ok fb "STAT" in
  check bool_ "stat" true (Tutil.contains stat "keys=1");
  check bool_ "list" true (expect_ok fb "LIST" = "ds");
  check bool_ "latest lines" true
    (Tutil.contains (expect_ok fb "LATEST ds") "master");
  check bool_ "log lines" true
    (Tutil.contains (expect_ok fb "LOG ds master") " 1 ")

let test_json_verbs () =
  let fb = fresh () in
  ignore (expect_ok fb "PUT-CSV ds master \"id,v\n1,x\n2,y\n\"");
  ignore (expect_ok fb "BRANCH ds master dev");
  ignore (expect_ok fb "PUT-CSV ds dev \"id,v\n1,x\n2,z\n\"");
  let parse s =
    match Fb_types.Json.parse s with
    | Ok v -> v
    | Error e -> Alcotest.failf "bad json %s: %s" s e
  in
  let gj = parse (expect_ok fb "GET-JSON ds master") in
  check bool_ "value type" true
    (Fb_types.Json.member "type" gj = Some (Fb_types.Json.String "table"));
  let dj = parse (expect_ok fb "DIFF-JSON ds master dev") in
  check bool_ "diff kind" true
    (Fb_types.Json.member "kind" dj = Some (Fb_types.Json.String "table"));
  (match parse (expect_ok fb "LOG-JSON ds dev") with
   | Fb_types.Json.Array entries -> check bool_ "log len" true (List.length entries = 2)
   | _ -> Alcotest.fail "log not an array");
  let sj = parse (expect_ok fb "STAT-JSON") in
  check bool_ "stats" true
    (Fb_types.Json.member "keys" sj = Some (Fb_types.Json.int 1));
  (match parse (expect_ok fb "LATEST-JSON ds") with
   | Fb_types.Json.Object heads -> check bool_ "branches" true (List.length heads = 2)
   | _ -> Alcotest.fail "latest not an object")

let test_prove_verb () =
  let fb = fresh () in
  ignore (expect_ok fb "PUT-CSV ledger master \"id,v\n1,x\n\"");
  let hex = expect_ok fb "PROVE ledger master 1" in
  let proof =
    match Fb_hash.Hex.decode hex with
    | Ok raw -> (
      match FB.decode_entry_proof raw with
      | Ok p -> p
      | Error e -> Alcotest.fail (Fb_core.Errors.to_string e))
    | Error e -> Alcotest.fail e
  in
  let uid =
    match FB.parse_version (expect_ok fb "HEAD ledger master") with
    | Ok u -> u
    | Error e -> Alcotest.fail (Fb_core.Errors.to_string e)
  in
  (match FB.verify_entry_proof ~uid ~key:"ledger" ~entry_key:"1" proof with
   | Ok (Some _) -> ()
   | _ -> Alcotest.fail "proof did not verify");
  expect_err fb "PROVE missing master 1"

let test_errors () =
  let fb = fresh () in
  expect_err fb "";
  expect_err fb "NOSUCHVERB a b";
  expect_err fb "GET missing master";
  expect_err fb "PUT onlykey";
  expect_err fb "GET-AT notaversion";
  expect_err fb "\"unterminated"

(* ---------------- the verb table ---------------- *)

(* Oracle: the table reproduces the hand-written dispatcher's replies to
   a fixed script over every verb, byte for byte. *)
let test_transcript () =
  let got = Service_script.run (Service.dispatch (fresh ())) in
  check int_ "steps" (List.length Service_transcript.expected) (List.length got);
  List.iter2 (check string_ "reply") Service_transcript.expected got;
  let covered =
    List.filter
      (fun (Service.Verb v) ->
        List.exists
          (fun line -> starts_with (Printf.sprintf "%S " v.name) line
                       || starts_with (Printf.sprintf "%S -> " v.name) line)
          got)
      Service.verbs
  in
  check int_ "every verb scripted" (List.length Service.verbs)
    (List.length covered)

let params (Service.Verb v) = List.tl (String.split_on_char ' ' v.usage)

let variadic verb =
  match List.rev (params verb) with
  | last :: _ -> String.ends_with ~suffix:"..." last
  | [] -> false

let test_table_shape () =
  check int_ "33 verbs" 33 (List.length Service.verbs);
  List.iter
    (fun (Service.Verb v) ->
      check bool_ ("found " ^ v.name) true
        (match Service.find (String.uppercase_ascii v.name) with
         | Some (Service.Verb w) -> w.name = v.name
         | None -> false);
      check bool_ (v.name ^ " retry") true
        (v.retry_safe = (v.access = Service.Read || v.name = "chunk-put")))
    Service.verbs

(* Everything a request could change: statistics (but the read counter,
   which this very check moves) and every head. *)
let observable fb =
  let heads = List.map (fun key -> (key, FB.latest fb ~key)) (FB.list_keys fb) in
  let s = FB.stats fb in
  ({ s with store = { s.store with gets = 0 } }, heads)

let test_malformed_every_verb () =
  let fb = fresh () in
  ignore (expect_ok fb "PUT k master v");
  ignore (expect_ok fb "PUT-CSV t master \"id,v\n1,x\n\"");
  let before = observable fb in
  let expect_bad what tokens =
    (match Service.dispatch fb tokens with
     | Error (Fb_core.Errors.Invalid msg) ->
       check bool_ (what ^ ": " ^ msg) true (Tutil.contains msg "bad request")
     | Ok _ -> Alcotest.failf "%s: accepted" what
     | Error e -> Alcotest.failf "%s: %s" what (Fb_core.Errors.to_string e));
    check bool_ (what ^ " changed nothing") true (observable fb = before)
  in
  List.iter
    (fun (Service.Verb v as e) ->
      let n = List.length (params e) in
      (* Arguments a well-formed request could carry: the key that
         exists, everywhere. *)
      let args k = List.init k (fun _ -> "k") in
      if n > 0 then expect_bad (v.name ^ " short") (v.name :: args (n - 1));
      if not (variadic e) then
        expect_bad (v.name ^ " long") (v.name :: args (n + 1)))
    Service.verbs;
  expect_bad "unknown verb" [ "frobnicate"; "k"; "master" ]

let test_usage_errors () =
  let fb = fresh () in
  let err tokens =
    match Service.dispatch fb tokens with
    | Error e -> Fb_core.Errors.to_string e
    | Ok p -> Alcotest.failf "accepted: %s" p
  in
  check string_ "arity" "invalid request: bad request: put KEY BRANCH VALUE"
    (err [ "PUT"; "onlykey" ]);
  check string_ "variadic" "invalid request: bad request: sync-have ID..."
    (err [ "sync-have" ]);
  check string_ "no args" "invalid request: bad request: stat"
    (err [ "stat"; "x" ]);
  check string_ "unknown keeps its text"
    "invalid request: bad request: nosuchverb/2 arguments"
    (err [ "NoSuchVerb"; "a"; "b" ])

let test_classify_batch () =
  let cb reqs = Service.classify_batch (List.map Service.classify reqs) in
  check bool_ "empty" true (cb [] = (Service.Read, Service.Global));
  check bool_ "one key" true
    (cb [ [ "get"; "a"; "master" ]; [ "head"; "a"; "dev" ] ]
     = (Service.Read, Service.Key "a"));
  check bool_ "mixed keys" true
    (cb [ [ "get"; "a"; "master" ]; [ "get"; "b"; "master" ] ]
     = (Service.Read, Service.Global));
  check bool_ "a keyless read" true
    (cb [ [ "get"; "a"; "master" ]; [ "stat" ] ]
     = (Service.Read, Service.Global));
  check bool_ "any write" true
    (cb [ [ "get"; "a"; "master" ]; [ "put"; "a"; "master"; "v" ] ]
     = (Service.Write, Service.Key "a"));
  check bool_ "write, mixed keys" true
    (cb [ [ "put"; "a"; "master"; "v" ]; [ "get"; "b"; "master" ] ]
     = (Service.Write, Service.Global))

(* Well-formed requests, argument by placeholder: versions and chunk ids
   that parse, anything else arbitrary bytes — binary, '=', newlines,
   quotes, blanks, empty. *)
let gen_request =
  let open QCheck.Gen in
  let bytes =
    string_size ~gen:(oneofl [ 'a'; 'k'; '='; '\n'; '"'; ' '; '\\'; '\000'; '\255' ])
      (int_bound 6)
  in
  let hash = map Fb_hash.Hash.of_string bytes in
  let hex = map Fb_hash.Hash.to_hex hash in
  let arg = function
    | "UID" -> map (fun u -> [ u ]) (oneof [ map FB.version_string hash; hex ])
    | "HEAD" | "ID" -> map (fun h -> [ h ]) hex
    | "ID..." -> list_size (1 -- 4) hex
    | _ -> map (fun b -> [ b ]) bytes
  in
  let* (Service.Verb v as e) = oneofl Service.verbs in
  let* name = oneofl [ v.name; String.uppercase_ascii v.name ] in
  let* args = flatten_l (List.map arg (params e)) in
  let args = List.concat args in
  return (name :: args)

let ref_classify tokens =
  let access = function Service_ref.Read -> Service.Read | Service_ref.Write -> Service.Write in
  let scope = function Service_ref.Key k -> Service.Key k | Service_ref.Global -> Service.Global in
  let a, s = Service_ref.classify tokens in
  (access a, scope s)

let qcheck_classify =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:1000
       ~name:"classify = the hand-written classification"
       (QCheck.make ~print:(fun t -> String.concat " | " (List.map String.escaped t))
          gen_request)
       (fun tokens -> Service.classify tokens = ref_classify tokens))

let test_user_threading () =
  let acl = Acl.create () in
  Acl.grant acl ~user:"writer" ~key:"*" ~branch:"*" Acl.Admin;
  let fb = FB.create ~acl (Fb_chunk.Mem_store.create ()) in
  let resp = Service.handle ~user:"writer" fb "PUT k master v" in
  check bool_ "writer ok" true (starts_with "OK" resp);
  let resp2 = Service.handle ~user:"reader" fb "PUT k master v" in
  check bool_ "reader denied" true (starts_with "ERR" resp2)

let suite =
  [ Alcotest.test_case "tokenize" `Quick test_tokenize;
    Alcotest.test_case "put/get roundtrip" `Quick test_put_get_roundtrip;
    Alcotest.test_case "csv/branch/diff/merge" `Quick
      test_csv_branch_diff_merge;
    Alcotest.test_case "json verbs" `Quick test_json_verbs;
    Alcotest.test_case "prove verb" `Quick test_prove_verb;
    Alcotest.test_case "errors" `Quick test_errors;
    Alcotest.test_case "user threading" `Quick test_user_threading;
    Alcotest.test_case "table reproduces the dispatcher" `Quick test_transcript;
    Alcotest.test_case "table shape" `Quick test_table_shape;
    Alcotest.test_case "malformed requests, every verb" `Quick
      test_malformed_every_verb;
    Alcotest.test_case "usage errors" `Quick test_usage_errors;
    Alcotest.test_case "classify_batch" `Quick test_classify_batch;
    qcheck_classify ]
