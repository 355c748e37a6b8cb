(* Chunk model, content-addressed stores (memory and file), dedup
   accounting, tamper hook, garbage collection. *)

open Fb_chunk
module Hash = Fb_hash.Hash

let check = Alcotest.check
let bool_ = Alcotest.bool
let int_ = Alcotest.int

let test_chunk_roundtrip () =
  List.iter
    (fun kind ->
      let c = Chunk.v kind "payload bytes" in
      match Chunk.decode (Chunk.encode c) with
      | Ok c' ->
        check bool_ "kind" true (Chunk.equal_kind c.Chunk.kind c'.Chunk.kind);
        check bool_ "payload" true (String.equal c.Chunk.payload c'.Chunk.payload)
      | Error e -> Alcotest.fail e)
    [ Chunk.Index; Chunk.Leaf_map; Chunk.Leaf_set; Chunk.Leaf_list;
      Chunk.Leaf_blob; Chunk.Seq_index; Chunk.Fnode ]

let test_chunk_decode_errors () =
  check bool_ "short" true (Result.is_error (Chunk.decode "FB"));
  check bool_ "magic" true (Result.is_error (Chunk.decode "XY\x01\x00data"));
  check bool_ "version" true (Result.is_error (Chunk.decode "FB\x09\x00data"));
  check bool_ "kind" true (Result.is_error (Chunk.decode "FB\x01\x63data"))

let test_chunk_identity () =
  let a = Chunk.v Chunk.Leaf_blob "same" in
  let b = Chunk.v Chunk.Leaf_blob "same" in
  let c = Chunk.v Chunk.Leaf_map "same" in
  check bool_ "equal content equal id" true (Hash.equal (Chunk.hash a) (Chunk.hash b));
  check bool_ "kind in identity" false (Hash.equal (Chunk.hash a) (Chunk.hash c));
  check int_ "encoded size" (4 + 4) (Chunk.encoded_size a)

let store_semantics (store : Store.t) =
  let c1 = Chunk.v Chunk.Leaf_blob "hello world" in
  let id1 = Store.put store c1 in
  check bool_ "mem" true (Store.mem store id1);
  check bool_ "get" true
    (match Store.get store id1 with
     | Some c -> String.equal c.Chunk.payload "hello world"
     | None -> false);
  check bool_ "get missing" true
    (Store.get store (Hash.of_string "nothing") = None);
  (* Dedup: same chunk twice -> one physical copy. *)
  let id1' = Store.put store c1 in
  check bool_ "same id" true (Hash.equal id1 id1');
  let s = Store.stats store in
  check int_ "physical chunks" 1 s.Store.physical_chunks;
  check int_ "puts" 2 s.Store.puts;
  check int_ "dedup hits" 1 s.Store.dedup_hits;
  check int_ "physical bytes" (Chunk.encoded_size c1) s.Store.physical_bytes;
  check int_ "logical bytes" (2 * Chunk.encoded_size c1) s.Store.logical_bytes;
  (* Distinct chunk adds bytes. *)
  let c2 = Chunk.v Chunk.Leaf_blob "other" in
  let id2 = Store.put store c2 in
  check bool_ "distinct ids" false (Hash.equal id1 id2);
  check int_ "two chunks" 2 (Store.stats store).Store.physical_chunks;
  (* Iteration sees both. *)
  let seen = ref 0 in
  store.Store.iter (fun _ _ -> incr seen);
  check int_ "iter count" 2 !seen;
  (* Delete. *)
  check bool_ "delete" true (store.Store.delete id2);
  check bool_ "delete gone" false (Store.mem store id2);
  check bool_ "delete missing" false (store.Store.delete id2);
  check int_ "after delete" 1 (Store.stats store).Store.physical_chunks

let test_mem_store () = store_semantics (Mem_store.create ())

let with_temp_dir f =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "fb_test_%d_%d" (Unix.getpid ()) (Random.bits ()))
  in
  Fun.protect
    ~finally:(fun () -> ignore (Sys.command ("rm -rf " ^ Filename.quote dir)))
    (fun () -> f dir)

let test_file_store () =
  with_temp_dir (fun dir -> store_semantics (File_store.create ~root:dir ()))

let test_file_store_persistence () =
  with_temp_dir (fun dir ->
      let c = Chunk.v Chunk.Leaf_blob "persisted" in
      let store1 = File_store.create ~root:dir () in
      let id = Store.put store1 c in
      (* Reopen: the chunk and physical stats must survive. *)
      let store2 = File_store.create ~root:dir () in
      check bool_ "persisted" true (Store.mem store2 id);
      check int_ "rescanned bytes" (Chunk.encoded_size c)
        (Store.stats store2).Store.physical_bytes;
      check bool_ "content" true
        (match Store.get store2 id with
         | Some c' -> String.equal c'.Chunk.payload "persisted"
         | None -> false))

let test_tamper_hook () =
  let store, handle = Mem_store.create_with_handle () in
  let id = Store.put store (Chunk.v Chunk.Leaf_blob "genuine") in
  check bool_ "tamper applies" true
    (Mem_store.tamper handle id ~f:(fun s -> s ^ "!"));
  (* The store now serves bytes that do not hash to the id. *)
  (match store.Store.get_raw id with
   | Some raw -> check bool_ "raw differs" false (Hash.equal (Hash.of_string raw) id)
   | None -> Alcotest.fail "raw gone");
  check bool_ "tamper missing" false
    (Mem_store.tamper handle (Hash.of_string "no") ~f:Fun.id)

let test_dedup_ratio () =
  let s =
    { Store.empty_stats with logical_bytes = 300; physical_bytes = 100 }
  in
  check bool_ "ratio" true (abs_float (Store.dedup_ratio s -. 3.0) < 1e-9);
  check bool_ "empty ratio" true
    (abs_float (Store.dedup_ratio Store.empty_stats -. 1.0) < 1e-9)

(* GC over a synthetic parent/child chunk graph: parents reference children
   by embedding their raw hash bytes in the payload. *)
let test_gc () =
  let store = Mem_store.create () in
  let leaf name = Chunk.v Chunk.Leaf_blob name in
  let l1 = Store.put store (leaf "leaf-one") in
  let l2 = Store.put store (leaf "leaf-two") in
  let l3 = Store.put store (leaf "leaf-orphan") in
  let parent children =
    Chunk.v Chunk.Index (String.concat "" (List.map Hash.to_raw children))
  in
  let p = Store.put store (parent [ l1; l2 ]) in
  let children chunk =
    match chunk.Chunk.kind with
    | Chunk.Index ->
      let s = chunk.Chunk.payload in
      List.init
        (String.length s / Hash.size)
        (fun i -> Hash.of_raw_exn (String.sub s (i * Hash.size) Hash.size))
    | _ -> []
  in
  let reach = Gc.reachable store ~children ~roots:[ p ] in
  check int_ "reachable" 3 (Hash.Set.cardinal reach);
  check bool_ "orphan not reachable" false (Hash.Set.mem l3 reach);
  let result = Gc.sweep store ~children ~roots:[ p ] in
  check int_ "swept" 1 result.Gc.swept_chunks;
  check int_ "live" 3 result.Gc.live_chunks;
  check bool_ "orphan gone" false (Store.mem store l3);
  check bool_ "live kept" true (Store.mem store l1 && Store.mem store l2);
  (* Sweeping again is a no-op. *)
  check int_ "idempotent" 0 (Gc.sweep store ~children ~roots:[ p ]).Gc.swept_chunks

let test_gc_no_roots () =
  let store = Mem_store.create () in
  ignore (Store.put store (Chunk.v Chunk.Leaf_blob "a"));
  ignore (Store.put store (Chunk.v Chunk.Leaf_blob "b"));
  let result = Gc.sweep store ~children:(fun _ -> []) ~roots:[] in
  check int_ "all swept" 2 result.Gc.swept_chunks;
  check int_ "nothing left" 0 (Store.stats store).Store.physical_chunks

(* ---------------- wrappers ---------------- *)

let test_verified_store_rejects_forged_reads () =
  let inner, handle = Mem_store.create_with_handle () in
  let store, violations = Verified_store.wrap inner in
  let id = Store.put store (Chunk.v Chunk.Leaf_blob "honest bytes") in
  check bool_ "clean read" true (Store.get store id <> None);
  check int_ "no violations yet" 0 violations.Verified_store.rejected_reads;
  ignore (Mem_store.tamper handle id ~f:(fun s -> s ^ "!"));
  check bool_ "forged read refused" true (Store.get store id = None);
  check bool_ "raw refused too" true (store.Store.get_raw id = None);
  check int_ "violations counted" 2 violations.Verified_store.rejected_reads;
  check bool_ "offender recorded" true
    (violations.Verified_store.last_offender = Some id);
  (* A whole POS-Tree over a verified store never yields forged entries. *)
  let vstore, _ = Verified_store.wrap inner in
  let t =
    Fb_postree.Pmap.of_bindings vstore
      (List.init 500 (fun i -> (Printf.sprintf "%04d" i, "v")))
  in
  let victim = List.nth (Fb_postree.Pmap.node_hashes t) 1 in
  ignore (Mem_store.tamper handle victim ~f:(fun s -> s ^ "x"));
  (try
     ignore (Fb_postree.Pmap.to_list t);
     Alcotest.fail "forged chunk served"
   with Fb_postree.Postree.Corrupt _ -> ())

let suite =
  [ Alcotest.test_case "chunk roundtrip" `Quick test_chunk_roundtrip;
    Alcotest.test_case "verified store rejects forgeries" `Quick
      test_verified_store_rejects_forged_reads;
    Alcotest.test_case "chunk decode errors" `Quick test_chunk_decode_errors;
    Alcotest.test_case "chunk identity" `Quick test_chunk_identity;
    Alcotest.test_case "mem store semantics" `Quick test_mem_store;
    Alcotest.test_case "file store semantics" `Quick test_file_store;
    Alcotest.test_case "file store persistence" `Quick
      test_file_store_persistence;
    Alcotest.test_case "tamper hook" `Quick test_tamper_hook;
    Alcotest.test_case "dedup ratio" `Quick test_dedup_ratio;
    Alcotest.test_case "gc mark and sweep" `Quick test_gc;
    Alcotest.test_case "gc without roots" `Quick test_gc_no_roots ]
