(* Representation layer: FNodes, version DAG, branch table, tamper-evident
   verification. *)

module Fnode = Fb_repr.Fnode
module Dag = Fb_repr.Dag
module Branch = Fb_repr.Branch
module Verify = Fb_repr.Verify
module Value = Fb_types.Value
module Store = Fb_chunk.Store
module Mem_store = Fb_chunk.Mem_store
module Hash = Fb_hash.Hash

let check = Alcotest.check
let bool_ = Alcotest.bool
let int_ = Alcotest.int

let mk_fnode ?(key = "k") ?(bases = []) ?(seq = 1) ?(msg = "m") store value =
  let f =
    Fnode.v ~key ~value_descriptor:(Value.descriptor value) ~bases
      ~author:"tester" ~message:msg ~seq
  in
  (f, Fnode.store store f)

(* ---------------- fnode ---------------- *)

let test_fnode_roundtrip () =
  let store = Mem_store.create () in
  let value = Value.string "payload" in
  let f, uid = mk_fnode store value in
  (match Fnode.load store uid with
   | Error e -> Alcotest.fail e
   | Ok f' ->
     check bool_ "key" true (String.equal f'.Fnode.key f.Fnode.key);
     check bool_ "descriptor" true
       (String.equal f'.Fnode.value_descriptor f.Fnode.value_descriptor);
     check bool_ "uid stable" true (Hash.equal (Fnode.uid f') uid));
  match Fnode.load store (Hash.of_string "absent") with
  | Ok _ -> Alcotest.fail "expected missing"
  | Error _ -> ()

let test_fnode_uid_covers_value_and_history () =
  let store = Mem_store.create () in
  let _, u1 = mk_fnode store (Value.string "a") in
  let _, u2 = mk_fnode store (Value.string "b") in
  check bool_ "value in uid" false (Hash.equal u1 u2);
  (* Same value, different history -> different uid. *)
  let _, u3 = mk_fnode ~bases:[ u1 ] ~seq:2 store (Value.string "a") in
  let _, u4 = mk_fnode ~bases:[ u2 ] ~seq:2 store (Value.string "a") in
  check bool_ "history in uid" false (Hash.equal u3 u4);
  (* Same value, same history -> same uid (FNode equality, paper II-D). *)
  let _, u5 = mk_fnode ~bases:[ u1 ] ~seq:2 store (Value.string "a") in
  check bool_ "identical equal" true (Hash.equal u3 u5)

let test_fnode_bases_canonical_order () =
  let store = Mem_store.create () in
  let _, u1 = mk_fnode ~key:"x" store (Value.string "1") in
  let _, u2 = mk_fnode ~key:"y" store (Value.string "2") in
  let f12 = Fnode.v ~key:"m" ~value_descriptor:"" ~bases:[ u1; u2 ]
      ~author:"a" ~message:"" ~seq:3 in
  let f21 = Fnode.v ~key:"m" ~value_descriptor:"" ~bases:[ u2; u1 ]
      ~author:"a" ~message:"" ~seq:3 in
  check bool_ "merge parents order-insensitive" true
    (Hash.equal (Fnode.uid f12) (Fnode.uid f21))

let test_fnode_value_reattach () =
  let store = Mem_store.create () in
  let v = Value.map_of_bindings store [ ("a", "1"); ("b", "2") ] in
  let f, _ = mk_fnode store v in
  match Fnode.value store f with
  | Ok v' -> check bool_ "value" true (Value.equal v v')
  | Error e -> Alcotest.fail e

(* ---------------- dag ---------------- *)

(* Build a small history:  u1 <- u2 <- u4 ; u1 <- u3 ;  u5 = merge(u4,u3) *)
let build_dag store =
  let _, u1 = mk_fnode ~seq:1 ~msg:"v1" store (Value.string "1") in
  let _, u2 = mk_fnode ~bases:[ u1 ] ~seq:2 ~msg:"v2" store (Value.string "2") in
  let _, u3 = mk_fnode ~bases:[ u1 ] ~seq:2 ~msg:"v3" store (Value.string "3") in
  let _, u4 = mk_fnode ~bases:[ u2 ] ~seq:3 ~msg:"v4" store (Value.string "4") in
  let _, u5 =
    mk_fnode ~bases:[ u4; u3 ] ~seq:4 ~msg:"merge" store (Value.string "5")
  in
  (u1, u2, u3, u4, u5)

let test_dag_history () =
  let store = Mem_store.create () in
  let u1, _, _, _, u5 = build_dag store in
  match Dag.history store u5 with
  | Error e -> Alcotest.fail e
  | Ok nodes ->
    check int_ "all ancestors" 5 (List.length nodes);
    check bool_ "newest first" true
      ((List.hd nodes).Fnode.message = "merge");
    check bool_ "oldest last" true
      ((List.nth nodes 4).Fnode.message = "v1");
    (* Limit. *)
    (match Dag.history ~limit:2 store u5 with
     | Ok l -> check int_ "limited" 2 (List.length l)
     | Error e -> Alcotest.fail e);
    match Dag.history store u1 with
    | Ok l -> check int_ "root history" 1 (List.length l)
    | Error e -> Alcotest.fail e

let test_dag_ancestry () =
  let store = Mem_store.create () in
  let u1, u2, u3, u4, u5 = build_dag store in
  let is_anc a d = Dag.is_ancestor store ~ancestor:a d = Ok true in
  check bool_ "u1 anc u5" true (is_anc u1 u5);
  check bool_ "u3 anc u5" true (is_anc u3 u5);
  check bool_ "u5 self" true (is_anc u5 u5);
  check bool_ "u4 not anc u3" false (is_anc u4 u3);
  check bool_ "u2 anc u4" true (is_anc u2 u4)

let test_dag_merge_base () =
  let store = Mem_store.create () in
  let u1, u2, u3, u4, u5 = build_dag store in
  check bool_ "base(u4,u3) = u1" true
    (Dag.merge_base store u4 u3 = Ok (Some u1));
  check bool_ "base(u2,u4) = u2 (ff)" true
    (Dag.merge_base store u2 u4 = Ok (Some u2));
  check bool_ "base(u5,u3) = u3" true
    (Dag.merge_base store u5 u3 = Ok (Some u3));
  (* Unrelated histories. *)
  let _, w = mk_fnode ~key:"other" store (Value.string "w") in
  check bool_ "unrelated" true (Dag.merge_base store u5 w = Ok None)

let test_dag_children_extraction () =
  let store = Mem_store.create () in
  let v = Value.map_of_bindings store (List.init 500 (fun i -> (string_of_int i, "v"))) in
  let _, u1 = mk_fnode store (Value.string "base") in
  let f, _ = mk_fnode ~bases:[ u1 ] ~seq:2 store v in
  let children = Dag.fnode_children (Fnode.to_chunk f) in
  (* Value root + one base. *)
  check int_ "children count" 2 (List.length children);
  check bool_ "base included" true (List.exists (Hash.equal u1) children);
  (* Index chunks expose their children so GC can walk the tree. *)
  let m = Option.get (Value.to_map v) in
  (match Fb_postree.Pmap.root m with
   | Some root when Fb_postree.Pmap.height m > 1 ->
     let chunk = Option.get (Store.get store root) in
     check bool_ "index children nonempty" true
       (Dag.fnode_children chunk <> [])
   | _ -> ())

(* ---------------- branch table ---------------- *)

let uidx i = Hash.of_string (string_of_int i)

let test_branch_table () =
  let b = Branch.create () in
  check bool_ "empty" true (Branch.keys b = []);
  Branch.set_head b ~key:"k1" ~branch:"master" (uidx 1);
  Branch.set_head b ~key:"k1" ~branch:"dev" (uidx 2);
  Branch.set_head b ~key:"k2" ~branch:"master" (uidx 3);
  check bool_ "keys" true (Branch.keys b = [ "k1"; "k2" ]);
  check bool_ "head" true
    (Branch.head b ~key:"k1" ~branch:"dev" = Some (uidx 2));
  check bool_ "missing head" true
    (Branch.head b ~key:"k1" ~branch:"zz" = None);
  check int_ "branches" 2 (List.length (Branch.branches b ~key:"k1"));
  check bool_ "exists" true (Branch.exists b ~key:"k2" ~branch:"master");
  (* Overwrite moves the head. *)
  Branch.set_head b ~key:"k1" ~branch:"master" (uidx 9);
  check bool_ "moved" true
    (Branch.head b ~key:"k1" ~branch:"master" = Some (uidx 9))

let test_branch_rename_remove () =
  let b = Branch.create () in
  Branch.set_head b ~key:"k" ~branch:"master" (uidx 1);
  Branch.set_head b ~key:"k" ~branch:"dev" (uidx 2);
  check bool_ "rename ok" true
    (Branch.rename b ~key:"k" ~from_branch:"dev" ~to_branch:"feature" = Ok ());
  check bool_ "renamed" true
    (Branch.head b ~key:"k" ~branch:"feature" = Some (uidx 2));
  check bool_ "old gone" true (Branch.head b ~key:"k" ~branch:"dev" = None);
  check bool_ "rename missing" true
    (Result.is_error (Branch.rename b ~key:"k" ~from_branch:"zz" ~to_branch:"a"));
  check bool_ "rename collision" true
    (Result.is_error
       (Branch.rename b ~key:"k" ~from_branch:"feature" ~to_branch:"master"));
  check bool_ "remove" true (Branch.remove b ~key:"k" ~branch:"feature");
  check bool_ "remove again" false (Branch.remove b ~key:"k" ~branch:"feature");
  (* Removing the last branch drops the key. *)
  check bool_ "remove master" true (Branch.remove b ~key:"k" ~branch:"master");
  check bool_ "key gone" true (Branch.keys b = [])

(* Tables are no longer written; old roots' files must still read. *)
let test_branch_serialization () =
  let old =
    Tutil.old_table
      [ ("alpha", [ ("master", uidx 1); ("x", uidx 2) ]);
        ("beta", [ ("master", uidx 3) ]) ]
  in
  match Branch.deserialize old with
  | Error e -> Alcotest.fail e
  | Ok b' ->
    check bool_ "keys" true (Branch.keys b' = [ "alpha"; "beta" ]);
    check bool_ "heads" true
      (Branch.branches b' ~key:"alpha" = [ ("master", uidx 1); ("x", uidx 2) ]);
    check bool_ "garbage rejected" true
      (Result.is_error (Branch.deserialize "not branches"))

(* ---------------- verification ---------------- *)

let test_verify_clean () =
  let store = Mem_store.create () in
  let v = Value.map_of_bindings store (List.init 300 (fun i -> (Printf.sprintf "%04d" i, "v"))) in
  let _, u1 = mk_fnode store (Value.string "first") in
  let _, u2 = mk_fnode ~bases:[ u1 ] ~seq:2 store v in
  match Verify.verify store u2 with
  | Error e -> Alcotest.fail e
  | Ok report ->
    check int_ "versions" 2 report.Verify.versions_checked;
    check bool_ "value chunks > 0" true (report.Verify.value_chunks > 0)

let test_verify_detects_fnode_tamper () =
  let store, handle = Mem_store.create_with_handle () in
  let _, u1 = mk_fnode store (Value.string "x") in
  ignore (Mem_store.tamper handle u1 ~f:(fun s -> s ^ " "));
  check bool_ "detected" true (Result.is_error (Verify.verify store u1))

let test_verify_detects_value_tamper () =
  let store, handle = Mem_store.create_with_handle () in
  let v = Value.map_of_bindings store (List.init 2000 (fun i -> (Printf.sprintf "%05d" i, "val"))) in
  let _, uid = mk_fnode store v in
  let m = Option.get (Value.to_map v) in
  let victim = List.nth (Fb_postree.Pmap.node_hashes m) 2 in
  ignore
    (Mem_store.tamper handle victim ~f:(fun s ->
         let b = Bytes.of_string s in
         Bytes.set b (Bytes.length b / 2) '\x00';
         Bytes.to_string b));
  check bool_ "detected" true (Result.is_error (Verify.verify store uid))

let test_verify_detects_history_tamper () =
  let store, handle = Mem_store.create_with_handle () in
  let _, u1 = mk_fnode store (Value.string "v1") in
  let _, u2 = mk_fnode ~bases:[ u1 ] ~seq:2 store (Value.string "v2") in
  let _, u3 = mk_fnode ~bases:[ u2 ] ~seq:3 store (Value.string "v3") in
  (* Damage an ancestor, not the head. *)
  ignore (Mem_store.tamper handle u1 ~f:(fun s -> s ^ "!"));
  check bool_ "history walk detects" true
    (Result.is_error (Verify.verify store u3));
  check bool_ "shallow check passes" true
    (Result.is_ok (Verify.verify ~check_history:false store u3))

let test_verify_detects_forged_clock () =
  let store = Mem_store.create () in
  (* A parent whose seq is not below the child's: forged. *)
  let _, u1 = mk_fnode ~seq:5 store (Value.string "parent") in
  let _, u2 = mk_fnode ~bases:[ u1 ] ~seq:5 store (Value.string "child") in
  check bool_ "forged clock" true (Result.is_error (Verify.verify store u2))

let test_verify_missing_base () =
  let store = Mem_store.create () in
  let phantom = Hash.of_string "never stored" in
  let _, u = mk_fnode ~bases:[ phantom ] ~seq:2 store (Value.string "x") in
  check bool_ "missing base" true (Result.is_error (Verify.verify store u))

let test_verify_history_values () =
  let store, handle = Mem_store.create_with_handle () in
  let v1 = Value.map_of_bindings store (List.init 1000 (fun i -> (Printf.sprintf "%05d" i, "a"))) in
  let _, u1 = mk_fnode store v1 in
  let _, u2 = mk_fnode ~bases:[ u1 ] ~seq:2 store (Value.string "tip") in
  (* Tamper a chunk only reachable from the historical value. *)
  let m = Option.get (Value.to_map v1) in
  let victim = List.nth (Fb_postree.Pmap.node_hashes m) 1 in
  ignore (Mem_store.tamper handle victim ~f:(fun s -> s ^ "x"));
  check bool_ "default skips history values" true
    (Result.is_ok (Verify.verify store u2));
  check bool_ "deep check catches" true
    (Result.is_error (Verify.verify ~check_history_values:true store u2))

(* ---------------- bundles ---------------- *)

let test_bundle_roundtrip () =
  let src = Mem_store.create () in
  let v = Value.map_of_bindings src (List.init 800 (fun i -> (Printf.sprintf "%05d" i, "payload"))) in
  let _, u1 = mk_fnode src (Value.string "first") in
  let _, u2 = mk_fnode ~bases:[ u1 ] ~seq:2 src v in
  match Fb_repr.Bundle.export src ~roots:[ u2 ] with
  | Error e -> Alcotest.fail e
  | Ok bundle ->
    let dst = Mem_store.create () in
    (match Fb_repr.Bundle.import dst bundle with
     | Error e -> Alcotest.fail e
     | Ok (roots, fresh) ->
       check bool_ "roots" true (roots = [ u2 ]);
       check bool_ "chunks moved" true (fresh > 2);
       (* The imported version verifies in the destination store. *)
       (match Verify.verify ~check_history_values:true dst u2 with
        | Ok r -> check int_ "history intact" 2 r.Verify.versions_checked
        | Error e -> Alcotest.fail e);
       (* Re-import is a no-op. *)
       match Fb_repr.Bundle.import dst bundle with
       | Ok (_, fresh2) -> check int_ "idempotent" 0 fresh2
       | Error e -> Alcotest.fail e)

let test_bundle_determinism () =
  let src = Mem_store.create () in
  let _, u = mk_fnode src (Value.string "x") in
  let b1 = Result.get_ok (Fb_repr.Bundle.export src ~roots:[ u ]) in
  let b2 = Result.get_ok (Fb_repr.Bundle.export src ~roots:[ u ]) in
  check bool_ "deterministic" true (String.equal b1 b2)

let test_bundle_rejects_garbage () =
  let dst = Mem_store.create () in
  check bool_ "garbage" true
    (Result.is_error (Fb_repr.Bundle.import dst "not a bundle"));
  check bool_ "empty" true (Result.is_error (Fb_repr.Bundle.import dst ""));
  check int_ "nothing stored" 0
    (Fb_chunk.Store.stats dst).Fb_chunk.Store.physical_chunks

let test_bundle_rejects_incomplete_closure () =
  let src = Mem_store.create () in
  let v = Value.map_of_bindings src (List.init 2000 (fun i -> (Printf.sprintf "%05d" i, "v"))) in
  let _, u = mk_fnode src v in
  let bundle = Result.get_ok (Fb_repr.Bundle.export src ~roots:[ u ]) in
  (* Truncate the final chunk: framing breaks. *)
  let truncated = String.sub bundle 0 (String.length bundle - 10) in
  let dst = Mem_store.create () in
  check bool_ "truncated rejected" true
    (Result.is_error (Fb_repr.Bundle.import dst truncated));
  check int_ "nothing stored after reject" 0
    (Fb_chunk.Store.stats dst).Fb_chunk.Store.physical_chunks;
  (* Export with a missing chunk fails up front. *)
  let m = Option.get (Fb_types.Value.to_map v) in
  let victim = List.nth (Fb_postree.Pmap.node_hashes m) 2 in
  ignore (src.Fb_chunk.Store.delete victim);
  check bool_ "missing chunk refused" true
    (Result.is_error (Fb_repr.Bundle.export src ~roots:[ u ]))

let test_bundle_tampered_content_gets_new_identity () =
  (* Flipping bytes inside a bundled chunk cannot forge the original id:
     the receiver re-derives ids from bytes, so the closure check fails
     (some parent now references a chunk that no longer exists). *)
  let src = Mem_store.create () in
  let v = Value.map_of_bindings src (List.init 2000 (fun i -> (Printf.sprintf "%05d" i, "v"))) in
  let _, u = mk_fnode src v in
  let bundle = Result.get_ok (Fb_repr.Bundle.export src ~roots:[ u ]) in
  (* Flip one byte inside some chunk body (past the header area). *)
  let b = Bytes.of_string bundle in
  let i = String.length bundle / 2 in
  Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x40));
  let dst = Mem_store.create () in
  match Fb_repr.Bundle.import dst (Bytes.to_string b) with
  | Error _ -> () (* rejected: broken framing or incomplete closure *)
  | Ok (roots, _) ->
    (* If framing survived, the root closure must still be unforgeable:
       verification from the root catches any substitution. *)
    let root = List.hd roots in
    check bool_ "verify catches forgery" true
      (not (Hash.equal root u)
       || Result.is_error (Verify.verify ~check_history_values:true dst root))

let suite =
  [ Alcotest.test_case "fnode roundtrip" `Quick test_fnode_roundtrip;
    Alcotest.test_case "bundle roundtrip" `Quick test_bundle_roundtrip;
    Alcotest.test_case "bundle determinism" `Quick test_bundle_determinism;
    Alcotest.test_case "bundle rejects garbage" `Quick
      test_bundle_rejects_garbage;
    Alcotest.test_case "bundle incomplete closure" `Quick
      test_bundle_rejects_incomplete_closure;
    Alcotest.test_case "bundle tamper resistance" `Quick
      test_bundle_tampered_content_gets_new_identity;
    Alcotest.test_case "uid covers value and history" `Quick
      test_fnode_uid_covers_value_and_history;
    Alcotest.test_case "merge bases canonical" `Quick
      test_fnode_bases_canonical_order;
    Alcotest.test_case "fnode value reattach" `Quick test_fnode_value_reattach;
    Alcotest.test_case "dag history" `Quick test_dag_history;
    Alcotest.test_case "dag ancestry" `Quick test_dag_ancestry;
    Alcotest.test_case "dag merge base" `Quick test_dag_merge_base;
    Alcotest.test_case "dag children extraction" `Quick
      test_dag_children_extraction;
    Alcotest.test_case "branch table" `Quick test_branch_table;
    Alcotest.test_case "branch rename/remove" `Quick test_branch_rename_remove;
    Alcotest.test_case "branch serialization" `Quick test_branch_serialization;
    Alcotest.test_case "verify clean" `Quick test_verify_clean;
    Alcotest.test_case "verify fnode tamper" `Quick
      test_verify_detects_fnode_tamper;
    Alcotest.test_case "verify value tamper" `Quick
      test_verify_detects_value_tamper;
    Alcotest.test_case "verify history tamper" `Quick
      test_verify_detects_history_tamper;
    Alcotest.test_case "verify forged clock" `Quick
      test_verify_detects_forged_clock;
    Alcotest.test_case "verify missing base" `Quick test_verify_missing_base;
    Alcotest.test_case "verify history values" `Quick
      test_verify_history_values ]
