(* Edge cases across layers: oversized entries, binary keys, degenerate
   trees, hostile identifiers. *)

module Pmap = Fb_postree.Pmap
module Pblob = Fb_postree.Pblob
module Mem_store = Fb_chunk.Mem_store
module Store = Fb_chunk.Store
module Hash = Fb_hash.Hash
module FB = Fb_core.Forkbase
module Errors = Fb_core.Errors
module Value = Fb_types.Value

let check = Alcotest.check
let bool_ = Alcotest.bool
let int_ = Alcotest.int

let ok = function
  | Ok v -> v
  | Error e -> Alcotest.fail (Errors.to_string e)

let test_oversized_entries () =
  (* Entries far larger than the node size cap: each gets a node of its
     own, the size cap fires, the tree stays valid and invariant. *)
  let store = Mem_store.create () in
  let big i = (Printf.sprintf "big-%02d" i, String.make 100_000 (Char.chr (65 + i))) in
  let bs = List.init 8 big in
  let t = Pmap.of_bindings store bs in
  check int_ "cardinal" 8 (Pmap.cardinal t);
  check bool_ "validate" true (Pmap.validate t = Ok ());
  check bool_ "find big" true
    (Pmap.find_value t "big-03" = Some (String.make 100_000 'D'));
  (* Incremental build produces the identical tree. *)
  let t2 = List.fold_left (fun t (k, v) -> Pmap.put t k v) (Pmap.empty store) (List.rev bs) in
  check bool_ "invariance with oversize" true
    (Option.equal Hash.equal (Pmap.root t) (Pmap.root t2))

let test_binary_keys_and_values () =
  let store = Mem_store.create () in
  let nasty =
    [ ("\x00", "nul key"); ("\x00\x01\x02", "low bytes");
      ("\xff\xfe", "high bytes"); ("key with spaces", "v");
      ("ключ", "cyrillic"); ("\"quoted\"", "v2"); ("new\nline", "v3") ]
  in
  let t = Pmap.of_bindings store nasty in
  List.iter
    (fun (k, v) ->
      check bool_ ("find " ^ Fb_hash.Hex.encode k) true
        (Pmap.find_value t k = Some v))
    nasty;
  check bool_ "validate" true (Pmap.validate t = Ok ());
  (* Proofs work for binary keys too. *)
  let root = Option.get (Pmap.root t) in
  let proof = Result.get_ok (Pmap.prove t "\x00") in
  check bool_ "binary key proof" true
    (match Pmap.verify_proof ~root "\x00" proof with
     | Ok (Some e) -> e.Pmap.value = "nul key"
     | _ -> false)

let test_hostile_forkbase_identifiers () =
  let fb = FB.create (Mem_store.create ()) in
  (* Keys and branch names are arbitrary strings — the engine must not
     choke on separators, blanks or unicode. *)
  List.iter
    (fun key ->
      ignore (ok (FB.put fb ~key (Value.string "v")));
      check bool_ ("read back " ^ Fb_hash.Hex.encode key) true
        (Result.is_ok (FB.get fb ~key)))
    [ ""; " "; "a/b/c"; "ключ-данных"; "key\twith\ttabs"; String.make 1000 'k' ];
  ignore (ok (FB.fork fb ~key:"a/b/c" ~new_branch:"feature/x y"));
  check bool_ "weird branch" true
    (Result.is_ok (FB.get fb ~key:"a/b/c" ~branch:"feature/x y"))

let test_single_and_empty_degenerates () =
  let store = Mem_store.create () in
  (* Blob of one byte; list of one element; map of one entry — all valid,
     all proofs/diffs behave. *)
  let b = Pblob.of_string store "x" in
  check bool_ "tiny blob" true (Pblob.to_string b = "x" && Pblob.validate b = Ok ());
  let t = Pmap.of_bindings store [ ("k", "") ] in
  check bool_ "empty value" true (Pmap.find_value t "k" = Some "");
  check bool_ "diff to empty" true
    (List.length (Pmap.diff t (Pmap.empty store)) = 1);
  (* Put of an empty-string key round-trips through a whole version. *)
  let fb = FB.create store in
  ignore (ok (FB.put fb ~key:"m" (Value.Map t)));
  check bool_ "verify tiny" true
    (Result.is_ok (FB.verify fb (ok (FB.head fb ~key:"m"))))

let test_replicas_exceed_members () =
  let members = [ ("only", Mem_store.create ()) ] in
  let cluster = Fb_chunk.Cluster_store.create ~replicas:5 ~members () in
  let store = Fb_chunk.Cluster_store.store cluster in
  let id = Store.put store (Fb_chunk.Chunk.v Fb_chunk.Chunk.Leaf_blob "x") in
  (* Replicas capped at member count: one copy, still readable. *)
  check bool_ "readable" true (Store.get store id <> None);
  check int_ "one owner" 1
    (List.length (Fb_chunk.Cluster_store.owners cluster id));
  check int_ "replicas clamped" 1 (Fb_chunk.Cluster_store.replicas cluster);
  Fb_chunk.Cluster_store.close cluster

let test_store_stats_consistency_after_mixed_ops () =
  let store = Mem_store.create () in
  let t = ref (Pmap.empty store) in
  for i = 0 to 200 do
    t := Pmap.put !t (Printf.sprintf "%03d" i) "v"
  done;
  for i = 0 to 99 do
    t := Pmap.remove !t (Printf.sprintf "%03d" (2 * i))
  done;
  let s = Store.stats store in
  check bool_ "stats sane" true
    (s.Store.physical_chunks > 0
     && s.Store.physical_bytes > 0
     && s.Store.logical_bytes >= s.Store.physical_bytes
     && s.Store.puts = s.Store.dedup_hits + s.Store.physical_chunks);
  check int_ "content" 101 (Pmap.cardinal !t)

let test_csv_injection_resistance () =
  (* Cells that look like CSV structure survive a full import/export/import
     cycle byte-for-byte. *)
  let fb = FB.create (Mem_store.create ()) in
  let csv =
    "id,payload\n1,\"a,b\"\n2,\"line\nbreak\"\n3,\"quote\"\"inside\"\n"
  in
  ignore (ok (FB.import_csv fb ~key:"t" csv));
  let exported = ok (FB.export_csv fb ~key:"t") in
  ignore (ok (FB.import_csv fb ~key:"t2" exported));
  check bool_ "same content" true
    (ok (FB.export_csv fb ~key:"t2") = exported);
  check bool_ "cells intact" true (Tutil.contains exported "quote\"\"inside")

let suite =
  [ Alcotest.test_case "oversized entries" `Quick test_oversized_entries;
    Alcotest.test_case "binary keys and values" `Quick
      test_binary_keys_and_values;
    Alcotest.test_case "hostile identifiers" `Quick
      test_hostile_forkbase_identifiers;
    Alcotest.test_case "degenerate sizes" `Quick
      test_single_and_empty_degenerates;
    Alcotest.test_case "replicas exceed members" `Quick
      test_replicas_exceed_members;
    Alcotest.test_case "stats consistency" `Quick
      test_store_stats_consistency_after_mixed_ops;
    Alcotest.test_case "csv structure in cells" `Quick
      test_csv_injection_resistance ]
