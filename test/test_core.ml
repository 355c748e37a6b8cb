(* Public ForkBase API: put/get/branch/merge/diff/verify, ACL enforcement,
   diff views, stats and GC. *)

module FB = Fb_core.Forkbase
module Acl = Fb_core.Acl
module Errors = Fb_core.Errors
module Diffview = Fb_core.Diffview
module Pmap = Fb_postree.Pmap
module Pset = Fb_postree.Pset
module Value = Fb_types.Value
module Primitive = Fb_types.Primitive
module Mem_store = Fb_chunk.Mem_store
module Store = Fb_chunk.Store
module Hash = Fb_hash.Hash

let check = Alcotest.check
let bool_ = Alcotest.bool
let int_ = Alcotest.int
let string_ = Alcotest.string

let ok = function
  | Ok v -> v
  | Error e -> Alcotest.fail (Errors.to_string e)

let is_err = function Ok _ -> false | Error _ -> true

let fresh () = FB.create (Mem_store.create ())

(* ---------------- put / get / head / meta ---------------- *)

let test_put_get () =
  let fb = fresh () in
  let u = ok (FB.put fb ~key:"greeting" (Value.string "hello")) in
  (match ok (FB.get fb ~key:"greeting") with
   | Value.Primitive (Primitive.String s) -> check string_ "value" "hello" s
   | _ -> Alcotest.fail "wrong value");
  check bool_ "head" true (Hash.equal (ok (FB.head fb ~key:"greeting")) u);
  check bool_ "missing key" true (is_err (FB.get fb ~key:"nope"));
  check bool_ "missing branch" true
    (is_err (FB.get fb ~branch:"dev" ~key:"greeting"))

let test_versions_accumulate () =
  let fb = fresh () in
  let u1 = ok (FB.put fb ~key:"k" (Value.string "v1")) in
  let u2 = ok (FB.put fb ~key:"k" (Value.string "v2")) in
  check bool_ "distinct" false (Hash.equal u1 u2);
  (* Head moved, but the old version remains reachable by uid. *)
  (match ok (FB.get_at fb u1) with
   | Value.Primitive (Primitive.String s) -> check string_ "old" "v1" s
   | _ -> Alcotest.fail "wrong");
  let log = ok (FB.log fb ~key:"k") in
  check int_ "log" 2 (List.length log);
  let meta = ok (FB.meta fb u2) in
  check bool_ "bases link" true
    (meta.Fb_repr.Fnode.bases = [ u1 ]);
  check int_ "seq" 2 meta.Fb_repr.Fnode.seq

let test_idempotent_put_dedups () =
  let fb = fresh () in
  let u1 = ok (FB.put fb ~key:"k" ~message:"same" (Value.string "v")) in
  (* Identical value and message on top of the same base: the FNode differs
     (different bases), so a new version appears — but value chunks dedup
     wholesale. *)
  let before = (FB.stats fb).FB.store.Store.physical_bytes in
  let u2 = ok (FB.put fb ~key:"k" ~message:"same" (Value.string "v")) in
  check bool_ "new version" false (Hash.equal u1 u2);
  let added = (FB.stats fb).FB.store.Store.physical_bytes - before in
  (* Only the new FNode's bytes. *)
  check bool_ (Printf.sprintf "added %d < 200" added) true (added < 200)

let test_latest_and_list () =
  let fb = fresh () in
  ignore (ok (FB.put fb ~key:"a" (Value.int 1)));
  ignore (ok (FB.put fb ~key:"b" (Value.int 2)));
  ignore (ok (FB.fork fb ~key:"a" ~new_branch:"dev"));
  check bool_ "keys" true (FB.list_keys fb = [ "a"; "b" ]);
  let heads = ok (FB.latest fb ~key:"a") in
  check int_ "two branches" 2 (List.length heads);
  check bool_ "names" true (List.map fst heads = [ "dev"; "master" ])

(* ---------------- branching ---------------- *)

let test_fork_shares_everything () =
  let fb = fresh () in
  let bindings = List.init 5000 (fun i -> (Printf.sprintf "%06d" i, "data")) in
  ignore
    (ok (FB.put fb ~key:"m" (Value.map_of_bindings (FB.store fb) bindings)));
  let before = (FB.stats fb).FB.store.Store.physical_bytes in
  let u = ok (FB.fork fb ~key:"m" ~new_branch:"copy") in
  check bool_ "O(1) fork" true
    ((FB.stats fb).FB.store.Store.physical_bytes = before);
  check bool_ "same head" true (Hash.equal u (ok (FB.head fb ~key:"m")));
  check bool_ "double fork fails" true
    (is_err (FB.fork fb ~key:"m" ~new_branch:"copy"))

let test_fork_at_historical () =
  let fb = fresh () in
  let u1 = ok (FB.put fb ~key:"k" (Value.string "old")) in
  ignore (ok (FB.put fb ~key:"k" (Value.string "new")));
  ignore (ok (FB.fork_at fb ~key:"k" ~new_branch:"retro" u1));
  (match ok (FB.get fb ~branch:"retro" ~key:"k") with
   | Value.Primitive (Primitive.String s) -> check string_ "old value" "old" s
   | _ -> Alcotest.fail "wrong");
  (* Key mismatch rejected. *)
  let w = ok (FB.put fb ~key:"other" (Value.string "x")) in
  check bool_ "wrong key" true
    (is_err (FB.fork_at fb ~key:"k" ~new_branch:"bad" w))

let test_rename_delete_branch () =
  let fb = fresh () in
  ignore (ok (FB.put fb ~key:"k" (Value.int 1)));
  ignore (ok (FB.fork fb ~key:"k" ~new_branch:"tmp"));
  ok (FB.rename_branch fb ~key:"k" ~from_branch:"tmp" ~to_branch:"kept");
  check bool_ "renamed readable" true (Result.is_ok (FB.get fb ~branch:"kept" ~key:"k"));
  ok (FB.delete_branch fb ~key:"k" ~branch:"kept");
  check bool_ "deleted" true (is_err (FB.get fb ~branch:"kept" ~key:"k"));
  check bool_ "delete missing" true
    (is_err (FB.delete_branch fb ~key:"k" ~branch:"kept"))

(* ---------------- diff / merge ---------------- *)

let test_diff_branches_table () =
  let fb = fresh () in
  let csv = "id,name,qty\n1,apple,10\n2,banana,20\n3,cherry,30\n" in
  ignore (ok (FB.import_csv fb ~key:"ds" csv));
  ignore (ok (FB.fork fb ~key:"ds" ~new_branch:"vendorX"));
  let csv2 = "id,name,qty\n1,apple,10\n2,banana,25\n3,cherry,30\n4,durian,5\n" in
  ignore (ok (FB.import_csv fb ~key:"ds" ~branch:"vendorX" csv2));
  let d = ok (FB.diff fb ~key:"ds" ~branch1:"master" ~branch2:"vendorX") in
  check bool_ "not same" false (Diffview.is_same d);
  check string_ "summary" "1 rows added, 0 removed, 1 modified (1 cells)"
    (Diffview.summary d);
  (* Same branch diff is empty. *)
  let d0 = ok (FB.diff fb ~key:"ds" ~branch1:"master" ~branch2:"master") in
  check bool_ "self same" true (Diffview.is_same d0)

let test_merge_divergent_tables () =
  let fb = fresh () in
  let csv = "id,name,qty\n1,apple,10\n2,banana,20\n3,cherry,30\n" in
  ignore (ok (FB.import_csv fb ~key:"ds" csv));
  ignore (ok (FB.fork fb ~key:"ds" ~new_branch:"b"));
  (* Divergent, disjoint edits. *)
  ignore
    (ok
       (FB.import_csv fb ~key:"ds"
          "id,name,qty\n1,apple,11\n2,banana,20\n3,cherry,30\n"));
  ignore
    (ok
       (FB.import_csv fb ~key:"ds" ~branch:"b"
          "id,name,qty\n1,apple,10\n2,banana,20\n3,cherry,33\n"));
  let m = ok (FB.merge fb ~key:"ds" ~into:"master" ~from_branch:"b") in
  let rows = ok (FB.select fb ~key:"ds" (fun _ -> true)) in
  check int_ "rows" 3 (List.length rows);
  let qty id =
    match
      List.find
        (fun r -> List.hd r = Primitive.Int (Int64.of_int id))
        rows
    with
    | [ _; _; Primitive.Int q ] -> Int64.to_int q
    | _ -> -1
  in
  check int_ "ours kept" 11 (qty 1);
  check int_ "theirs merged" 33 (qty 3);
  (* Merge version has two bases. *)
  let meta = ok (FB.meta fb m) in
  check int_ "two bases" 2 (List.length meta.Fb_repr.Fnode.bases)

let test_merge_fast_forward () =
  let fb = fresh () in
  ignore (ok (FB.put fb ~key:"k" (Value.string "base")));
  ignore (ok (FB.fork fb ~key:"k" ~new_branch:"dev"));
  let u = ok (FB.put fb ~key:"k" ~branch:"dev" (Value.string "ahead")) in
  let m = ok (FB.merge fb ~key:"k" ~into:"master" ~from_branch:"dev") in
  check bool_ "fast forward" true (Hash.equal m u);
  (* Merging an ancestor into a descendant is a no-op. *)
  let m2 = ok (FB.merge fb ~key:"k" ~into:"master" ~from_branch:"dev") in
  check bool_ "no-op" true (Hash.equal m2 u)

let test_merge_conflict_and_strategies () =
  let fb = fresh () in
  ignore (ok (FB.put fb ~key:"k" (Value.string "base")));
  ignore (ok (FB.fork fb ~key:"k" ~new_branch:"dev"));
  ignore (ok (FB.put fb ~key:"k" (Value.string "ours")));
  ignore (ok (FB.put fb ~key:"k" ~branch:"dev" (Value.string "theirs")));
  (match FB.merge fb ~key:"k" ~into:"master" ~from_branch:"dev" with
   | Error (Errors.Merge_conflict _) -> ()
   | Error e -> Alcotest.fail (Errors.to_string e)
   | Ok _ -> Alcotest.fail "expected conflict");
  ignore
    (ok
       (FB.merge ~strategy:FB.Prefer_theirs fb ~key:"k" ~into:"master"
          ~from_branch:"dev"));
  match ok (FB.get fb ~key:"k") with
  | Value.Primitive (Primitive.String s) -> check string_ "theirs won" "theirs" s
  | _ -> Alcotest.fail "wrong"

let test_merge_map_conflict_detail () =
  let fb = fresh () in
  let store = FB.store fb in
  ignore (ok (FB.put fb ~key:"m" (Value.map_of_bindings store [ ("a", "0") ])));
  ignore (ok (FB.fork fb ~key:"m" ~new_branch:"dev"));
  ignore (ok (FB.put fb ~key:"m" (Value.map_of_bindings store [ ("a", "1") ])));
  ignore
    (ok (FB.put fb ~key:"m" ~branch:"dev" (Value.map_of_bindings store [ ("a", "2") ])));
  match FB.merge fb ~key:"m" ~into:"master" ~from_branch:"dev" with
  | Error (Errors.Merge_conflict { details; _ }) ->
    check bool_ "entry named" true
      (List.exists (fun d -> d = "entry \"a\"") details)
  | _ -> Alcotest.fail "expected conflict"

let test_merge_lists_disjoint () =
  let fb = fresh () in
  let store = FB.store fb in
  let items = List.init 100 (Printf.sprintf "item-%03d") in
  ignore (ok (FB.put fb ~key:"l" (Value.list_of_strings store items)));
  ignore (ok (FB.fork fb ~key:"l" ~new_branch:"dev"));
  (* Ours edits the front, theirs the back: disjoint ranges. *)
  let edit branch pos v =
    let l =
      Option.get (Value.to_list (ok (FB.get fb ~branch ~key:"l")))
    in
    ignore
      (ok (FB.put fb ~branch ~key:"l"
             (Value.List (Fb_postree.Plist.set l pos v))))
  in
  edit "master" 5 "OURS";
  edit "dev" 90 "THEIRS";
  ignore (ok (FB.merge fb ~key:"l" ~into:"master" ~from_branch:"dev"));
  let merged = Option.get (Value.to_list (ok (FB.get fb ~key:"l"))) in
  check bool_ "ours kept" true (Fb_postree.Plist.get merged 5 = Some "OURS");
  check bool_ "theirs applied" true
    (Fb_postree.Plist.get merged 90 = Some "THEIRS");
  check int_ "length" 100 (Fb_postree.Plist.length merged);
  (* Overlapping edits conflict. *)
  edit "master" 50 "A";
  edit "dev" 50 "B";
  match FB.merge fb ~key:"l" ~into:"master" ~from_branch:"dev" with
  | Error (Errors.Merge_conflict { details; _ }) ->
    (* Base is dev's head: ours also carries its merged edit at 5. *)
    check (Alcotest.list Alcotest.string) "details name both base ranges"
      [ "ours edits list range [5,51) of base";
        "theirs edits list range [50,51) of base" ]
      details
  | _ -> Alcotest.fail "overlapping list edits must conflict"

let test_merge_blobs_disjoint () =
  let fb = fresh () in
  let store = FB.store fb in
  let text = String.concat "" (List.init 2000 (Printf.sprintf "line-%04d\n")) in
  ignore (ok (FB.put fb ~key:"doc" (Value.blob_of_string store text)));
  ignore (ok (FB.fork fb ~key:"doc" ~new_branch:"dev"));
  let splice branch pos remove insert =
    let b = Option.get (Value.to_blob (ok (FB.get fb ~branch ~key:"doc"))) in
    ignore
      (ok (FB.put fb ~branch ~key:"doc"
             (Value.Blob (Fb_postree.Pblob.splice b ~pos ~remove ~insert))))
  in
  splice "master" 100 4 "OURS";
  splice "dev" 19_000 4 "THEIRS!";
  ignore (ok (FB.merge fb ~key:"doc" ~into:"master" ~from_branch:"dev"));
  let merged =
    Fb_postree.Pblob.to_string
      (Option.get (Value.to_blob (ok (FB.get fb ~key:"doc"))))
  in
  check bool_ "ours kept" true (Tutil.contains merged "OURS");
  check bool_ "theirs applied" true (Tutil.contains merged "THEIRS!");
  check int_ "length delta" (String.length text + 3) (String.length merged)

let test_merge_preview () =
  let fb = fresh () in
  ignore (ok (FB.import_csv fb ~key:"d" "id,v\n1,a\n2,b\n"));
  ignore (ok (FB.fork fb ~key:"d" ~new_branch:"dev"));
  check bool_ "already merged" true
    (ok (FB.merge_preview fb ~key:"d" ~into:"master" ~from_branch:"dev")
     = `Already_merged);
  ignore (ok (FB.import_csv fb ~key:"d" ~branch:"dev" "id,v\n1,a\n2,B\n"));
  check bool_ "fast forward" true
    (ok (FB.merge_preview fb ~key:"d" ~into:"master" ~from_branch:"dev")
     = `Fast_forward);
  ignore (ok (FB.import_csv fb ~key:"d" "id,v\n1,A\n2,b\n"));
  (* A preview only reads: the merged tree it builds is thrown away. *)
  let chunks () = (Store.stats (FB.store fb)).Store.physical_chunks in
  let before = chunks () in
  check bool_ "clean" true
    (ok (FB.merge_preview fb ~key:"d" ~into:"master" ~from_branch:"dev")
     = `Clean);
  check int_ "clean preview writes nothing" before (chunks ());
  ignore (ok (FB.import_csv fb ~key:"d" "id,v\n1,A\n2,x\n"));
  let before = chunks () in
  (match ok (FB.merge_preview fb ~key:"d" ~into:"master" ~from_branch:"dev") with
   | `Conflicts (_ :: _) -> ()
   | _ -> Alcotest.fail "expected conflicts");
  check int_ "conflicting preview writes nothing" before (chunks ());
  (* Preview never moves heads. *)
  check bool_ "heads untouched" true
    (Tutil.contains (ok (FB.export_csv fb ~key:"d")) "2,x")

(* ---------------- CSV / select / stat ---------------- *)

let test_csv_export_import () =
  let fb = fresh () in
  let csv = "id,name\n1,one\n2,two\n" in
  ignore (ok (FB.import_csv fb ~key:"t" csv));
  check string_ "export" csv (ok (FB.export_csv fb ~key:"t"));
  check bool_ "bad csv" true (is_err (FB.import_csv fb ~key:"t" "\"broken"));
  check bool_ "select on non-table" true
    (let fb2 = fresh () in
     ignore (ok (FB.put fb2 ~key:"p" (Value.int 7)));
     is_err (FB.select fb2 ~key:"p" (fun _ -> true)))

let test_table_stat_api () =
  let fb = fresh () in
  ignore (ok (FB.import_csv fb ~key:"t" "id,v\n1,10\n2,20\n3,20\n"));
  let stats = ok (FB.table_stat fb ~key:"t") in
  let v = List.nth stats 1 in
  check int_ "distinct" 2 v.Fb_types.Table.distinct;
  check bool_ "max" true (v.Fb_types.Table.max = Some (Primitive.Int 20L))

(* ---------------- verification ---------------- *)

let test_verify_api_detects_tamper () =
  let store, handle = Mem_store.create_with_handle () in
  let fb = FB.create store in
  let bindings = List.init 3000 (fun i -> (Printf.sprintf "%06d" i, "payload")) in
  let u = ok (FB.put fb ~key:"m" (Value.map_of_bindings store bindings)) in
  check bool_ "clean" true (Result.is_ok (FB.verify fb u));
  (* Flip a random data chunk. *)
  let v = ok (FB.get fb ~key:"m") in
  let m = Option.get (Value.to_map v) in
  let victim = List.nth (Fb_postree.Pmap.node_hashes m) 4 in
  ignore
    (Mem_store.tamper handle victim ~f:(fun s ->
         let b = Bytes.of_string s in
         Bytes.set b 10 'X';
         Bytes.to_string b));
  (match FB.verify fb u with
   | Error (Errors.Corrupt _) -> ()
   | _ -> Alcotest.fail "tamper undetected");
  match FB.verify_branch fb ~key:"m" ~branch:"master" with
  | Error (Errors.Corrupt _) -> ()
  | _ -> Alcotest.fail "branch verify undetected"

let test_version_string_roundtrip () =
  let fb = fresh () in
  let u = ok (FB.put fb ~key:"k" (Value.int 1)) in
  let s = FB.version_string u in
  check bool_ "base32" true (FB.parse_version s = Ok u);
  check bool_ "hex too" true (FB.parse_version (Hash.to_hex u) = Ok u);
  check bool_ "garbage" true (is_err (FB.parse_version "!!!"))

(* ---------------- optimistic concurrency / time travel ---------------- *)

let test_put_cas () =
  let fb = fresh () in
  (* First writer creates the branch with expected_head = None. *)
  let u1 = ok (FB.put_cas fb ~key:"k" ~expected_head:None (Value.string "v1")) in
  (* Stale expectation rejected. *)
  (match FB.put_cas fb ~key:"k" ~expected_head:None (Value.string "clobber") with
   | Error (Errors.Merge_conflict _) -> ()
   | _ -> Alcotest.fail "stale CAS accepted");
  (* Correct expectation succeeds. *)
  let u2 =
    ok (FB.put_cas fb ~key:"k" ~expected_head:(Some u1) (Value.string "v2"))
  in
  check bool_ "advanced" true (Hash.equal u2 (ok (FB.head fb ~key:"k")));
  (* Two racers on the same head: exactly one wins. *)
  let r1 = FB.put_cas fb ~key:"k" ~expected_head:(Some u2) (Value.string "a") in
  let r2 = FB.put_cas fb ~key:"k" ~expected_head:(Some u2) (Value.string "b") in
  check bool_ "one winner" true (Result.is_ok r1 && Result.is_error r2)

let test_get_as_of () =
  let fb = fresh () in
  ignore (ok (FB.put fb ~key:"k" (Value.string "first")));
  ignore (ok (FB.put fb ~key:"k" (Value.string "second")));
  ignore (ok (FB.put fb ~key:"k" (Value.string "third")));
  let at n =
    match ok (FB.get_as_of fb ~key:"k" ~seq:n) with
    | Value.Primitive (Primitive.String s) -> s
    | _ -> Alcotest.fail "wrong value"
  in
  check string_ "seq 1" "first" (at 1);
  check string_ "seq 2" "second" (at 2);
  check string_ "seq 3" "third" (at 3);
  check string_ "future seq clamps to head" "third" (at 99);
  check bool_ "before history" true
    (Result.is_error (FB.get_as_of fb ~key:"k" ~seq:0))

let test_put_all_atomic () =
  let fb = fresh () in
  let pairs = [ ("a", Value.int 1); ("b", Value.int 2); ("c", Value.int 3) ] in
  let uids = ok (FB.put_all fb pairs) in
  check int_ "all committed" 3 (List.length uids);
  List.iter
    (fun (key, uid) ->
      check bool_ ("head " ^ key) true
        (Hash.equal uid (ok (FB.head fb ~key))))
    uids;
  (* Duplicate keys refused before anything moves. *)
  check bool_ "dup keys" true
    (is_err (FB.put_all fb [ ("x", Value.int 1); ("x", Value.int 2) ]));
  check bool_ "x never created" true (is_err (FB.head fb ~key:"x"))

let test_put_all_permission_atomicity () =
  let acl = Acl.create () in
  Acl.grant acl ~user:"u" ~key:"allowed" ~branch:"*" Acl.Write;
  let fb = FB.create ~acl (Mem_store.create ()) in
  (* One denied key poisons the whole batch: nothing moves. *)
  (match
     FB.put_all ~user:"u" fb
       [ ("allowed", Value.int 1); ("forbidden", Value.int 2) ]
   with
   | Error (Errors.Permission_denied _) -> ()
   | _ -> Alcotest.fail "expected denial");
  Acl.grant acl ~user:"u" ~key:"allowed" ~branch:"*" Acl.Read;
  check bool_ "allowed untouched" true
    (Result.is_error (FB.head ~user:"u" fb ~key:"allowed"))

let test_watch () =
  let fb = fresh () in
  let events = ref [] in
  let w = FB.watch fb (fun e -> events := e :: !events) in
  let u1 = ok (FB.put fb ~key:"a" (Value.int 1)) in
  ignore (ok (FB.fork fb ~key:"a" ~new_branch:"dev"));
  ignore (ok (FB.put fb ~key:"b" (Value.int 2)));
  check int_ "three events" 3 (List.length !events);
  (match List.rev !events with
   | first :: second :: _ ->
     check bool_ "creation has no old head" true (first.FB.old_head = None);
     check bool_ "first is a/master" true
       (first.FB.key = "a" && first.FB.branch = "master"
        && Hash.equal first.FB.new_head u1);
     check bool_ "fork event" true
       (second.FB.branch = "dev" && second.FB.old_head = None)
   | _ -> Alcotest.fail "missing events");
  (* Filtered watcher. *)
  let only_b = ref 0 in
  let w2 = FB.watch ~key:"b" fb (fun _ -> incr only_b) in
  ignore (ok (FB.put fb ~key:"a" (Value.int 3)));
  ignore (ok (FB.put fb ~key:"b" (Value.int 4)));
  check int_ "filter" 1 !only_b;
  (* Unwatch stops delivery; callback exceptions are contained. *)
  FB.unwatch fb w;
  FB.unwatch fb w2;
  let boom = FB.watch fb (fun _ -> failwith "boom") in
  check bool_ "exn contained" true
    (Result.is_ok (FB.put fb ~key:"a" (Value.int 5)));
  FB.unwatch fb boom;
  let n = List.length !events in
  ignore (ok (FB.put fb ~key:"a" (Value.int 6)));
  check int_ "unwatched" n (List.length !events)

(* ---------------- tags ---------------- *)

let test_tags () =
  let fb = fresh () in
  let u1 = ok (FB.put fb ~key:"k" (Value.string "v1")) in
  let u2 = ok (FB.put fb ~key:"k" (Value.string "v2")) in
  ok (FB.tag fb ~key:"k" ~name:"release-1" u1);
  ok (FB.tag fb ~key:"k" ~name:"release-2" u2);
  check bool_ "lookup" true
    (Hash.equal (ok (FB.tag_lookup fb ~key:"k" ~name:"release-1")) u1);
  check bool_ "list" true
    (List.map fst (FB.tags fb ~key:"k") = [ "release-1"; "release-2" ]);
  (* Immutability: retagging fails. *)
  check bool_ "immutable" true (is_err (FB.tag fb ~key:"k" ~name:"release-1" u2));
  (* Wrong key rejected. *)
  let w = ok (FB.put fb ~key:"other" (Value.string "x")) in
  check bool_ "wrong key" true (is_err (FB.tag fb ~key:"k" ~name:"bad" w));
  (* Tagged versions are GC roots even when no branch reaches them. *)
  ok (FB.delete_branch fb ~key:"k" ~branch:"master");
  check int_ "tags protect" 0 (FB.gc fb).Fb_chunk.Gc.swept_chunks;
  check bool_ "still readable" true (Result.is_ok (FB.get_at fb u1));
  (* Delete the tags: versions become garbage. *)
  ok (FB.delete_tag fb ~key:"k" ~name:"release-1");
  ok (FB.delete_tag fb ~key:"k" ~name:"release-2");
  check bool_ "now swept" true ((FB.gc fb).Fb_chunk.Gc.swept_chunks > 0);
  check bool_ "delete missing" true
    (is_err (FB.delete_tag fb ~key:"k" ~name:"release-1"))

(* ---------------- row history (blame) ---------------- *)

let test_row_history () =
  let fb = fresh () in
  ignore
    (ok (FB.import_csv fb ~key:"t" ~message:"v1" "id,v\n1,a\n2,b\n"));
  ignore
    (ok (FB.import_csv fb ~key:"t" ~message:"v2" "id,v\n1,a\n2,B\n3,c\n"));
  ignore
    (ok (FB.import_csv fb ~key:"t" ~message:"v3" "id,v\n1,a\n3,c\n"));
  (* Row 2: added in v1, modified in v2, removed in v3 -> 3 events,
     newest first. *)
  let events = ok (FB.row_history fb ~key:"t" ~row:"2") in
  check int_ "three events" 3 (List.length events);
  let kinds =
    List.map
      (fun (e : FB.row_event) ->
        match e.FB.change with
        | Fb_types.Table.Row_added _ -> `A
        | Fb_types.Table.Row_removed _ -> `R
        | Fb_types.Table.Row_modified _ -> `M)
      events
  in
  check bool_ "removed, modified, added" true (kinds = [ `R; `M; `A ]);
  check bool_ "messages" true
    (List.map (fun (e : FB.row_event) -> e.FB.message) events
     = [ "v3"; "v2"; "v1" ]);
  (* Row 1 never changed after v1: one event. *)
  check int_ "stable row" 1
    (List.length (ok (FB.row_history fb ~key:"t" ~row:"1")));
  (* Unknown row: no events. *)
  check int_ "ghost row" 0
    (List.length (ok (FB.row_history fb ~key:"t" ~row:"99")));
  (* Limit caps versions examined. *)
  check bool_ "limit" true
    (List.length (ok (FB.row_history ~limit:1 fb ~key:"t" ~row:"2")) <= 1)

let test_row_history_non_table () =
  let fb = fresh () in
  ignore (ok (FB.put fb ~key:"s" (Value.string "x")));
  (* Non-table versions contribute no row events rather than failing. *)
  check int_ "no events" 0
    (List.length (ok (FB.row_history fb ~key:"s" ~row:"1")))

(* ---------------- bundles ---------------- *)

let test_bundle_exchange () =
  (* Site A works, bundles, site B imports and continues. *)
  let a = fresh () in
  ignore (ok (FB.import_csv a ~key:"ds" "id,v\n1,x\n2,y\n"));
  ignore (ok (FB.import_csv a ~key:"ds" "id,v\n1,x\n2,z\n3,w\n"));
  let bundle = ok (FB.export_bundle a ~key:"ds") in
  let b = fresh () in
  let root = ok (FB.import_bundle b ~key:"ds" bundle) in
  check bool_ "heads match" true
    (Hash.equal root (ok (FB.head b ~key:"ds")));
  check string_ "content arrived" (ok (FB.export_csv a ~key:"ds"))
    (ok (FB.export_csv b ~key:"ds"));
  (* Full history crossed over and verifies. *)
  check int_ "history" 2 (List.length (ok (FB.log b ~key:"ds")));
  check bool_ "verifies" true (Result.is_ok (FB.verify b root));
  (* B continues, bundles back; A fast-forwards. *)
  ignore (ok (FB.import_csv b ~key:"ds" "id,v\n1,x\n2,z\n3,w\n4,q\n"));
  let back = ok (FB.export_bundle b ~key:"ds") in
  let root2 = ok (FB.import_bundle a ~key:"ds" back) in
  check bool_ "ff applied" true (Hash.equal root2 (ok (FB.head a ~key:"ds")));
  check int_ "a history" 3 (List.length (ok (FB.log a ~key:"ds")))

let test_bundle_rejects_non_fast_forward () =
  let a = fresh () in
  ignore (ok (FB.put a ~key:"k" (Value.string "base")));
  let bundle = ok (FB.export_bundle a ~key:"k") in
  let b = fresh () in
  ignore (ok (FB.put b ~key:"k" (Value.string "divergent")));
  match FB.import_bundle b ~key:"k" bundle with
  | Error (Errors.Invalid _) -> ()
  | _ -> Alcotest.fail "divergent import must be refused"

let test_bundle_wrong_key () =
  let a = fresh () in
  ignore (ok (FB.put a ~key:"real" (Value.string "x")));
  let bundle = ok (FB.export_bundle a ~key:"real") in
  let b = fresh () in
  match FB.import_bundle b ~key:"other" bundle with
  | Error (Errors.Invalid _) -> ()
  | _ -> Alcotest.fail "key mismatch must be refused"

(* ---------------- stats / gc ---------------- *)

let test_stats_and_gc () =
  let fb = fresh () in
  ignore (ok (FB.put fb ~key:"a" (Value.string "1")));
  ignore (ok (FB.put fb ~key:"a" (Value.string "2")));
  ignore (ok (FB.fork fb ~key:"a" ~new_branch:"dev"));
  ignore (ok (FB.put fb ~key:"b" (Value.string "3")));
  let st = FB.stats fb in
  check int_ "keys" 2 st.FB.keys;
  check int_ "branches" 3 st.FB.branches;
  check int_ "versions" 3 st.FB.versions;
  (* Nothing is garbage: all versions reachable from heads. *)
  check int_ "gc keeps history" 0 (FB.gc fb).Fb_chunk.Gc.swept_chunks;
  (* Delete the only branch of b: its version becomes garbage. *)
  ok (FB.delete_branch fb ~key:"b" ~branch:"master");
  check bool_ "gc sweeps b" true ((FB.gc fb).Fb_chunk.Gc.swept_chunks > 0)

(* ---------------- ACL ---------------- *)

let test_acl_levels () =
  check bool_ "admin implies write" true (Acl.implies Acl.Admin Acl.Write);
  check bool_ "write implies read" true (Acl.implies Acl.Write Acl.Read);
  check bool_ "read not write" false (Acl.implies Acl.Read Acl.Write);
  check bool_ "parse" true (Acl.level_of_string "write" = Some Acl.Write);
  check bool_ "parse bad" true (Acl.level_of_string "boss" = None)

let test_acl_enforcement () =
  let acl = Acl.create () in
  Acl.grant acl ~user:"alice" ~key:"*" ~branch:"*" Acl.Admin;
  Acl.grant acl ~user:"bob" ~key:"ds" ~branch:"master" Acl.Read;
  Acl.grant acl ~user:"bob" ~key:"ds" ~branch:"bob-dev" Acl.Admin;
  let fb = FB.create ~acl (Mem_store.create ()) in
  (* Alice sets up the dataset. *)
  ignore (ok (FB.put ~user:"alice" fb ~key:"ds" (Value.string "v1")));
  (* Bob can read master but not write it. *)
  check bool_ "bob reads" true (Result.is_ok (FB.get ~user:"bob" fb ~key:"ds"));
  (match FB.put ~user:"bob" fb ~key:"ds" (Value.string "nope") with
   | Error (Errors.Permission_denied _) -> ()
   | _ -> Alcotest.fail "bob wrote master");
  (* Bob forks to his own branch and works there. *)
  ignore (ok (FB.fork ~user:"bob" fb ~key:"ds" ~new_branch:"bob-dev"));
  ignore
    (ok (FB.put ~user:"bob" fb ~key:"ds" ~branch:"bob-dev" (Value.string "bob's")));
  (* Mallory sees nothing. *)
  check bool_ "mallory denied" true
    (is_err (FB.get ~user:"mallory" fb ~key:"ds"));
  check bool_ "mallory sees no keys" true (FB.list_keys ~user:"mallory" fb = []);
  check bool_ "bob sees ds" true (FB.list_keys ~user:"bob" fb = [ "ds" ]);
  (* Revocation applies immediately. *)
  Acl.revoke acl ~user:"bob" ~key:"ds" ~branch:"master";
  check bool_ "bob revoked" true (is_err (FB.get ~user:"bob" fb ~key:"ds"))

let test_acl_wildcards_and_default () =
  let acl = Acl.create ~default_level:(Some Acl.Read) () in
  Acl.grant acl ~user:"dev" ~key:"app-*" ~branch:"*" Acl.Write;
  (* Literal pattern "app-*" is not a glob — only "*" is special. *)
  check bool_ "literal star key" true
    (Acl.allowed acl ~user:"dev" ~key:"app-*" ~branch:"b" Acl.Write);
  check bool_ "no glob expansion" false
    (Acl.allowed acl ~user:"dev" ~key:"app-1" ~branch:"b" Acl.Write);
  check bool_ "default read" true
    (Acl.allowed acl ~user:"anyone" ~key:"k" ~branch:"b" Acl.Read);
  check bool_ "default not write" false
    (Acl.allowed acl ~user:"anyone" ~key:"k" ~branch:"b" Acl.Write);
  check int_ "grants listed" 1 (List.length (Acl.grants acl))

(* ---------------- diffview rendering ---------------- *)

let test_diffview_primitives_and_types () =
  let d = ok (Diffview.compute (Value.int 1) (Value.int 2)) in
  check bool_ "primitive change" true
    (match d with Diffview.Primitive_change _ -> true | _ -> false);
  let d2 = ok (Diffview.compute (Value.int 1) (Value.string "x")) in
  (match d2 with
   | Diffview.Type_change (Value.K_primitive, Value.K_primitive) ->
     Alcotest.fail "both primitive is not a type change"
   | _ -> ());
  let store = Mem_store.create () in
  let d3 = ok (Diffview.compute (Value.int 1) (Value.map_of_bindings store [])) in
  check bool_ "type change" true
    (match d3 with Diffview.Type_change _ -> true | _ -> false);
  check bool_ "same" true
    (Diffview.is_same (ok (Diffview.compute (Value.int 3) (Value.int 3))))

let test_diffview_render_table () =
  let store = Mem_store.create () in
  let t1 = Result.get_ok (Fb_types.Table.of_csv store "id,v\n1,a\n2,b\n") in
  let t2 = Result.get_ok (Fb_types.Table.of_csv store "id,v\n1,a\n2,c\n3,d\n") in
  let d = ok (Diffview.compute (Value.Table t1) (Value.Table t2)) in
  let rendered = Diffview.report d in
  check bool_ "mentions modified row" true
    (Tutil.contains rendered "~ row \"2\"");
  check bool_ "mentions added row" true
    (Tutil.contains rendered "+ row")

(* The [Format] rendering [Diffview.render] replaced, kept as the
   reference its output must equal byte for byte. *)
let format_render fmt = function
  | Diffview.Same -> Format.fprintf fmt "no differences@."
  | Diffview.Type_change (k1, k2) ->
    Format.fprintf fmt "! type: %s -> %s@." (Value.kind_name k1)
      (Value.kind_name k2)
  | Diffview.Primitive_change (p1, p2) ->
    Format.fprintf fmt "- %s@.+ %s@." (Primitive.to_string p1)
      (Primitive.to_string p2)
  | Diffview.Blob_change d ->
    Format.fprintf fmt "@@ bytes [%d,+%d) -> [%d,+%d)@." d.old_pos d.old_len
      d.new_pos d.new_len
  | Diffview.List_change d ->
    Format.fprintf fmt "@@ elements [%d,+%d) -> [%d,+%d)@." d.old_pos
      d.old_len d.new_pos d.new_len
  | Diffview.Map_changes cs ->
    List.iter
      (fun c ->
        match (c : Pmap.change) with
        | Pmap.Added b -> Format.fprintf fmt "+ %s = %S@." b.key b.value
        | Pmap.Removed b -> Format.fprintf fmt "- %s = %S@." b.key b.value
        | Pmap.Modified (b1, b2) ->
          Format.fprintf fmt "~ %s: %S -> %S@." b1.key b1.value b2.value)
      cs
  | Diffview.Set_changes cs ->
    List.iter
      (fun c ->
        match (c : Pset.change) with
        | Pset.Added e -> Format.fprintf fmt "+ %s@." e
        | Pset.Removed e -> Format.fprintf fmt "- %s@." e
        | Pset.Modified (e, _) -> Format.fprintf fmt "~ %s@." e)
      cs
  | Diffview.Table_changes cs ->
    let row fmt r =
      Format.fprintf fmt "(%s)"
        (String.concat ", " (List.map Fb_types.Primitive.to_string r))
    in
    List.iter
      (fun c ->
        match (c : Fb_types.Table.row_change) with
        | Fb_types.Table.Row_added r -> Format.fprintf fmt "+ row %a@." row r
        | Fb_types.Table.Row_removed r -> Format.fprintf fmt "- row %a@." row r
        | Fb_types.Table.Row_modified (key, cells) ->
          Format.fprintf fmt "~ row %S:@." key;
          List.iter
            (fun (cc : Fb_types.Table.cell_change) ->
              Format.fprintf fmt "    %s: %s -> %s@." cc.column
                (Fb_types.Primitive.to_string cc.before)
                (Fb_types.Primitive.to_string cc.after))
            cells)
      cs

let test_diffview_render_matches_format () =
  let store = Mem_store.create () in
  let awkward =
    [ "plain"; "with \"quotes\""; "two\nlines"; "a = b"; "=";
      "caf\xc3\xa9 \xff\x00\x7f"; ""; "tab\there \\ back";
      String.make 300 'x' ^ "\n" ]
  in
  let keys = List.mapi (fun i s -> Printf.sprintf "%02d %s" i s) awkward in
  let m1 = Pmap.of_bindings store (List.map (fun k -> (k, k)) keys) in
  let m2 =
    Pmap.of_bindings store
      (List.filteri (fun i _ -> i mod 3 <> 0)
         (List.mapi
            (fun i k -> (k, if i mod 2 = 0 then List.nth awkward (8 - i) else k))
            keys)
       @ [ ("new \"key\"\n=", "fresh \xe2\x82\xac") ])
  in
  let s1 = Pset.of_elements store keys
  and s2 = Pset.of_elements store (("extra \"=\"\n" :: List.tl keys)) in
  let t1 =
    Result.get_ok (Fb_types.Table.of_csv store "id,v\n1,\"a \"\"q\"\"\"\n2,b\n")
  and t2 =
    Result.get_ok (Fb_types.Table.of_csv store "id,v\n1,\"a\nb\"\n3,=\n")
  in
  let blob = Value.blob_of_string store in
  let list = Value.list_of_strings store in
  List.iter
    (fun (name, v1, v2) ->
      let d = ok (Diffview.compute v1 v2) in
      let b = Buffer.create 16 in
      Diffview.render b d;
      check Alcotest.string name (Format.asprintf "%a" format_render d)
        (Buffer.contents b))
    [ ("map", Value.Map m1, Value.Map m2);
      ("map, reversed", Value.Map m2, Value.Map m1);
      ("set", Value.Set s1, Value.Set s2);
      ("table", Value.Table t1, Value.Table t2);
      ("same", Value.Map m1, Value.Map m1);
      ("type", Value.int 1, Value.Map m1);
      ("primitive", Value.string "a \"q\"\n", Value.int (-7));
      ("blob", blob "hello, world", blob "hello there, world!");
      ("list", list [ "a"; "b"; "c" ], list [ "a"; "x"; "y"; "c" ]) ]

let suite =
  [ Alcotest.test_case "put/get" `Quick test_put_get;
    Alcotest.test_case "versions accumulate" `Quick test_versions_accumulate;
    Alcotest.test_case "identical put dedups" `Quick
      test_idempotent_put_dedups;
    Alcotest.test_case "latest and list" `Quick test_latest_and_list;
    Alcotest.test_case "fork shares everything" `Quick
      test_fork_shares_everything;
    Alcotest.test_case "fork at historical" `Quick test_fork_at_historical;
    Alcotest.test_case "rename/delete branch" `Quick test_rename_delete_branch;
    Alcotest.test_case "diff branches (table)" `Quick test_diff_branches_table;
    Alcotest.test_case "merge divergent tables" `Quick
      test_merge_divergent_tables;
    Alcotest.test_case "merge fast-forward" `Quick test_merge_fast_forward;
    Alcotest.test_case "merge conflict/strategies" `Quick
      test_merge_conflict_and_strategies;
    Alcotest.test_case "merge map conflict detail" `Quick
      test_merge_map_conflict_detail;
    Alcotest.test_case "merge preview" `Quick test_merge_preview;
    Alcotest.test_case "merge lists disjoint" `Quick
      test_merge_lists_disjoint;
    Alcotest.test_case "merge blobs disjoint" `Quick
      test_merge_blobs_disjoint;
    Alcotest.test_case "csv export/import" `Quick test_csv_export_import;
    Alcotest.test_case "table stat api" `Quick test_table_stat_api;
    Alcotest.test_case "verify api detects tamper" `Quick
      test_verify_api_detects_tamper;
    Alcotest.test_case "version string roundtrip" `Quick
      test_version_string_roundtrip;
    Alcotest.test_case "put_all atomic" `Quick test_put_all_atomic;
    Alcotest.test_case "put_all permission atomicity" `Quick
      test_put_all_permission_atomicity;
    Alcotest.test_case "watch" `Quick test_watch;
    Alcotest.test_case "tags" `Quick test_tags;
    Alcotest.test_case "put_cas" `Quick test_put_cas;
    Alcotest.test_case "get_as_of" `Quick test_get_as_of;
    Alcotest.test_case "row history" `Quick test_row_history;
    Alcotest.test_case "row history non-table" `Quick
      test_row_history_non_table;
    Alcotest.test_case "bundle exchange" `Quick test_bundle_exchange;
    Alcotest.test_case "bundle non-fast-forward" `Quick
      test_bundle_rejects_non_fast_forward;
    Alcotest.test_case "bundle wrong key" `Quick test_bundle_wrong_key;
    Alcotest.test_case "stats and gc" `Quick test_stats_and_gc;
    Alcotest.test_case "acl levels" `Quick test_acl_levels;
    Alcotest.test_case "acl enforcement" `Quick test_acl_enforcement;
    Alcotest.test_case "acl wildcards/default" `Quick
      test_acl_wildcards_and_default;
    Alcotest.test_case "diffview primitives/types" `Quick
      test_diffview_primitives_and_types;
    Alcotest.test_case "diffview render table" `Quick
      test_diffview_render_table;
    Alcotest.test_case "diffview render = Format rendering" `Quick
      test_diffview_render_matches_format ]
