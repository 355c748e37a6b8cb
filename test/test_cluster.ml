(* Multi-node cluster store: routing purity, replication, failover,
   read repair, rebalance, the store-provider registry, the Bloom
   have-exchange, and the networked composition over live servers. *)

module Cluster = Fb_chunk.Cluster_store
module Store = Fb_chunk.Store
module Chunk = Fb_chunk.Chunk
module Mem_store = Fb_chunk.Mem_store
module Faulty = Fb_chunk.Faulty_store
module Provider = Fb_chunk.Store_provider
module Hash = Fb_hash.Hash
module FB = Fb_core.Forkbase
module Errors = Fb_core.Errors
module Persistent = Fb_core.Persistent
module Sync = Fb_core.Sync
module Service = Fb_core.Service
module Server = Fb_net.Server
module Remote = Fb_net.Remote
module Net_cluster = Fb_net.Cluster

let () = Net_cluster.register_provider ()

let check = Alcotest.check
let contains ~affix s =
  let n = String.length affix and len = String.length s in
  let rec go i = i + n <= len && (String.sub s i n = affix || go (i + 1)) in
  n = 0 || go 0
let bool_ = Alcotest.bool
let int_ = Alcotest.int
let string_ = Alcotest.string

let ok_fb = function
  | Ok v -> v
  | Error e -> Alcotest.fail (Errors.to_string e)

let with_temp_root f =
  let root =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "fb_cluster_%d_%d" (Unix.getpid ()) (Random.bits ()))
  in
  Fun.protect
    ~finally:(fun () -> ignore (Sys.command ("rm -rf " ^ Filename.quote root)))
    (fun () -> f root)

let blob i = Chunk.v Chunk.Leaf_blob (Printf.sprintf "cluster chunk %d" i)

(* n mem members with tamper handles, wrapped in a cluster. *)
let mk_cluster ?(n = 3) ?(replicas = 2) () =
  let members =
    List.init n (fun i ->
        let name = Printf.sprintf "node%d" i in
        let store, handle = Mem_store.create_with_handle ~name () in
        (name, store, handle))
  in
  let c =
    Cluster.create ~replicas
      ~members:(List.map (fun (n, s, _) -> (n, s)) members)
      ()
  in
  (c, Cluster.store c, members)

(* ---------------- pure placement ---------------- *)

let test_ring_determinism () =
  let ring = Cluster.ring_of ~virtual_nodes:64 [ "a"; "b"; "c" ] in
  let id = Chunk.hash (blob 1) in
  check bool_ "same ranks" true
    (Cluster.owner_ranks ~ring ~replicas:2 id
    = Cluster.owner_ranks ~ring ~replicas:2 id);
  (* Ranks are distinct member indices. *)
  let ranks = Cluster.owner_ranks ~ring ~replicas:3 id in
  check int_ "three members" 3 (List.length (List.sort_uniq compare ranks));
  (* Replicas clamp to the member population on the ring. *)
  check int_ "clamped" 3
    (List.length (Cluster.owner_ranks ~ring ~replicas:9 id))

let qcheck_routing_pure =
  QCheck.Test.make ~count:200 ~name:"owner_ranks pure in (id, ring)"
    QCheck.(pair (int_range 1 8) (string_of_size QCheck.Gen.(1 -- 64)))
    (fun (n, seed) ->
      let names = List.init n (Printf.sprintf "m%d") in
      let ring = Cluster.ring_of ~virtual_nodes:16 names in
      let id = Hash.of_string seed in
      let ranks = Cluster.owner_ranks ~ring ~replicas:2 id in
      ranks = Cluster.owner_ranks ~ring ~replicas:2 id
      && List.length ranks = min 2 n
      && List.length (List.sort_uniq compare ranks) = List.length ranks
      && List.for_all (fun r -> r >= 0 && r < n) ranks)

let test_ring_delta () =
  (* Growing the ring reassigns only a minority of the key space: with
     virtual nodes, going 3 -> 4 members should move roughly 1/4 of
     ownership, and certainly not most of it. *)
  let before = Cluster.ring_of ~virtual_nodes:64 [ "a"; "b"; "c" ] in
  let after = Cluster.ring_of ~virtual_nodes:64 [ "a"; "b"; "c"; "d" ] in
  let ids = List.init 500 (fun i -> Chunk.hash (blob i)) in
  let changed =
    List.length
      (List.filter
         (fun id ->
           Cluster.owner_ranks ~ring:before ~replicas:2 id
           <> Cluster.owner_ranks ~ring:after ~replicas:2 id)
         ids)
  in
  check bool_ "some movement" true (changed > 0);
  check bool_
    (Printf.sprintf "minority moved (%d/500)" changed)
    true
    (changed < 350)

(* ---------------- replication and failover ---------------- *)

let test_put_replication () =
  let c, store, members = mk_cluster () in
  let ids = List.init 100 (fun i -> Store.put store (blob i)) in
  List.iter
    (fun id ->
      let owners = Cluster.owners c id in
      check int_ "W owners" 2 (List.length owners);
      (* The copies live on exactly the owners. *)
      List.iter
        (fun (name, s, _) ->
          check bool_ (name ^ " placement") (List.mem name owners)
            (s.Store.mem id))
        members)
    ids;
  Cluster.close c

let test_one_down_reads () =
  (* ISSUE acceptance: a 3-node cluster at W=2 survives the loss of any
     single member with every read still answered. *)
  let c, store, members = mk_cluster () in
  let ids = List.init 100 (fun i -> (i, Store.put store (blob i))) in
  List.iter
    (fun (name, _, _) ->
      Cluster.set_down c name true;
      List.iter
        (fun (i, id) ->
          match Store.get store id with
          | Some chunk ->
            check string_ "payload intact"
              (Printf.sprintf "cluster chunk %d" i)
              chunk.Chunk.payload
          | None -> Alcotest.failf "chunk %d unreadable with %s down" i name)
        ids;
      Cluster.set_down c name false)
    members;
  let cs = Cluster.cluster_stats c in
  check bool_ "failovers happened" true (cs.Cluster.failover_reads > 0);
  check int_ "nothing unavailable" 0 cs.Cluster.unavailable;
  Cluster.close c

let test_read_repair () =
  let c, store, members = mk_cluster () in
  let id = Store.put store (blob 42) in
  let primary = List.hd (Cluster.owners c id) in
  let _, pstore, _ = List.find (fun (n, _, _) -> n = primary) members in
  (* Lose the primary's copy; a read through the cluster must both serve
     the chunk and put the copy back. *)
  check bool_ "copy dropped" true (pstore.Store.delete id);
  check bool_ "replica serves" true (Store.get store id <> None);
  check bool_ "primary repaired" true (pstore.Store.mem id);
  let cs = Cluster.cluster_stats c in
  check bool_ "repair counted" true (cs.Cluster.repaired >= 1);
  Cluster.close c

let test_corrupt_replica_rejected () =
  let c, store, members = mk_cluster () in
  let id = Store.put store (blob 7) in
  let primary = List.hd (Cluster.owners c id) in
  let _, pstore, phandle = List.find (fun (n, _, _) -> n = primary) members in
  check bool_ "tampered" true
    (Mem_store.tamper phandle id ~f:(fun bytes ->
         String.map (fun ch -> if ch = 'c' then 'X' else ch) bytes));
  (* The forged bytes fail the hash check: the read fails over, and the
     repair path replaces the primary's copy with healthy bytes. *)
  (match Store.get store id with
  | Some chunk -> check string_ "healthy payload" "cluster chunk 7" chunk.Chunk.payload
  | None -> Alcotest.fail "read failed despite healthy replica");
  let cs = Cluster.cluster_stats c in
  check bool_ "rejection counted" true (cs.Cluster.rejected >= 1);
  (match pstore.Store.get_raw id with
  | Some raw -> check bool_ "primary healed" true (Hash.equal (Hash.of_string raw) id)
  | None -> Alcotest.fail "primary lost the chunk");
  Cluster.close c

(* Faulty_store flips bits on the way out only, so a member serving bad
   bytes may hold the last healthy copy.  The read must not delete it:
   with the other owner down nothing serves the chunk, yet once that
   owner is back a rebalance (which reads [a]'s copy through [iter]) and
   the next read still find it. *)
let test_bit_flip_keeps_last_copy () =
  let inner = Mem_store.create ~name:"a-inner" () in
  let a, _ =
    Faulty.wrap { Faulty.calm with seed = 5L; bit_flip_p = 1.0 } inner
  in
  let c =
    Cluster.create ~replicas:2
      ~members:[ ("a", a); ("b", Mem_store.create ~name:"b" ()) ]
      ()
  in
  let store = Cluster.store c in
  Cluster.set_down c "b" true;
  let id = Store.put store (blob 3) in
  check bool_ "no good copy served" true (Store.get store id = None);
  check bool_ "bad read deleted nothing" true (inner.Store.mem id);
  Cluster.set_down c "b" false;
  ignore (Cluster.rebalance c);
  (match Store.get store id with
  | Some chunk -> check string_ "payload" "cluster chunk 3" chunk.Chunk.payload
  | None -> Alcotest.fail "the only healthy copy was lost");
  check bool_ "copy still on a" true (inner.Store.mem id);
  Cluster.close c

let test_transient_members_retry () =
  (* Flaky-but-honest members: every op may transiently fail, yet the
     retry + failover stack must still answer everything correctly. *)
  let members =
    List.init 3 (fun i ->
        let name = Printf.sprintf "flaky%d" i in
        let inner = Mem_store.create ~name () in
        let faulty, _ =
          Faulty.wrap
            { Faulty.calm with
              seed = Int64.of_int (1000 + i);
              transient_read_p = 0.3;
              transient_put_p = 0.2 }
            inner
        in
        (name, faulty))
  in
  let c = Cluster.create ~replicas:2 ~max_retries:4 ~members () in
  let store = Cluster.store c in
  let ids = List.init 100 (fun i -> (i, Store.put store (blob i))) in
  List.iter
    (fun (i, id) ->
      match Store.get store id with
      | Some chunk ->
        check string_ "payload" (Printf.sprintf "cluster chunk %d" i)
          chunk.Chunk.payload
      | None -> Alcotest.failf "chunk %d lost to transient faults" i)
    ids;
  Cluster.close c

let test_unavailable_put () =
  let c, store, _ = mk_cluster () in
  List.iter (fun n -> Cluster.set_down c n true) (Cluster.members c);
  (match Store.put store (blob 0) with
  | (_ : Hash.t) -> Alcotest.fail "put succeeded with every member down"
  | exception Store.Transient _ -> ());
  check bool_ "unavailable counted" true
    ((Cluster.cluster_stats c).Cluster.unavailable >= 1);
  Cluster.close c

(* ---------------- rebalance ---------------- *)

let test_rebalance_moves_only_delta () =
  let c, store, _ = mk_cluster () in
  let ids = List.init 300 (fun i -> Store.put store (blob i)) in
  let owners_before =
    List.map (fun id -> (id, Cluster.owners c id)) ids
  in
  let extra = Mem_store.create ~name:"node3" () in
  Cluster.add_member c ("node3", extra);
  (* Expected copies = owner-set delta: for each chunk, the new owners
     that do not already hold it (old owners keep their copies). *)
  let expected =
    List.fold_left
      (fun acc (id, old_owners) ->
        let now = Cluster.owners c id in
        acc
        + List.length (List.filter (fun o -> not (List.mem o old_owners)) now))
      0 owners_before
  in
  let report = Cluster.rebalance c in
  check int_ "scanned all" 300 report.Cluster.scanned;
  check int_ "moved exactly the ring delta" expected
    report.Cluster.moved_chunks;
  check bool_ "delta nonempty" true (expected > 0);
  check int_ "nothing unplaceable" 0 report.Cluster.unplaceable;
  (* Convergence: a second pass finds nothing to move, and the new node
     can serve its share alone. *)
  let again = Cluster.rebalance c in
  check int_ "second pass idle" 0 again.Cluster.moved_chunks;
  List.iter
    (fun id ->
      check bool_ "readable post-rebalance" true (Store.mem store id))
    ids;
  Cluster.close c

(* ---------------- store-provider registry ---------------- *)

let test_provider_unknown_backend () =
  (match Provider.resolve ~backend:"punchcard" ~root:"/nonexistent" with
  | Ok _ -> Alcotest.fail "unknown backend resolved"
  | Error msg ->
    check bool_ "names the backend" true
      (contains ~affix:"punchcard" msg);
    (* The error lists what IS registered, so the operator can fix the
       flag without reading source. *)
    check bool_ "lists log" true (contains ~affix:"log" msg);
    check bool_ "lists mem" true (contains ~affix:"mem" msg));
  with_temp_root (fun root ->
      match Persistent.open_instance ~backend:"punchcard" ~root () with
      | Ok i ->
        Persistent.close i;
        Alcotest.fail "Persistent accepted unknown backend"
      | Error (Errors.Invalid _) -> ()
      | Error e -> Alcotest.failf "wrong error class: %s" (Errors.to_string e))

let test_provider_interchangeable () =
  (* The same application code runs against any registered engine. *)
  List.iter
    (fun backend ->
      with_temp_root (fun root ->
          let inst = ok_fb (Persistent.open_instance ~backend ~root ()) in
          let fb = inst.Persistent.fb in
          let _uid =
            ok_fb (FB.put fb ~key:"k" (Fb_types.Value.string backend))
          in
          match ok_fb (FB.get fb ~key:"k") with
          | Fb_types.Value.Primitive (Fb_types.Primitive.String s) ->
            check string_ (backend ^ " roundtrip") backend s;
            Persistent.close inst
          | _ -> Alcotest.fail "wrong value shape"))
    [ "mem"; "file"; "log" ]

let test_provider_auto_detect () =
  with_temp_root (fun root ->
      let inst = ok_fb (Persistent.open_instance ~backend:"file" ~root ()) in
      let _ = ok_fb (FB.put inst.fb ~key:"k" (Fb_types.Value.string "v1")) in
      Persistent.close inst;
      (* Reopening with "auto" must find the file engine, not default to
         the log engine and see an empty store. *)
      let inst2 = ok_fb (Persistent.open_instance ~backend:"auto" ~root ()) in
      (match ok_fb (FB.get inst2.fb ~key:"k") with
      | Fb_types.Value.Primitive (Fb_types.Primitive.String s) -> check string_ "auto reopen" "v1" s
      | _ -> Alcotest.fail "wrong value shape");
      Persistent.close inst2)

(* ---------------- Bloom have-exchange ---------------- *)

let test_bloom_no_false_negatives () =
  let ids = List.init 500 (fun i -> Chunk.hash (blob i)) in
  let b = Sync.Bloom.create ~expected:500 in
  List.iter (Sync.Bloom.add b) ids;
  List.iter
    (fun id -> check bool_ "member" true (Sync.Bloom.mem b id))
    ids;
  (* Absent ids mostly miss (the whole point of shipping the filter). *)
  let absent =
    List.init 500 (fun i -> Chunk.hash (blob (100_000 + i)))
  in
  let fp = List.length (List.filter (Sync.Bloom.mem b) absent) in
  check bool_ (Printf.sprintf "few false positives (%d/500)" fp) true (fp < 50)

let test_bloom_roundtrip () =
  let b = Sync.Bloom.create ~expected:100 in
  let ids = List.init 100 (fun i -> Chunk.hash (blob i)) in
  List.iter (Sync.Bloom.add b) ids;
  (match Sync.Bloom.decode (Sync.Bloom.encode b) with
  | Error e -> Alcotest.fail (Errors.to_string e)
  | Ok b2 ->
    check int_ "m preserved" (Sync.Bloom.m b) (Sync.Bloom.m b2);
    check int_ "k preserved" (Sync.Bloom.k b) (Sync.Bloom.k b2);
    List.iter
      (fun id -> check bool_ "membership survives" true (Sync.Bloom.mem b2 id))
      ids);
  List.iter
    (fun junk ->
      check bool_ ("rejects " ^ junk) true
        (Result.is_error (Sync.Bloom.decode junk)))
    [ ""; "garbage"; "10:7:"; "0:7:x"; "8:0:x"; "16:7:x" ]

let test_bloom_saturation () =
  let b = Sync.Bloom.create ~expected:1 in
  (* ~expected is clamped to a small floor; drowning it must flip the
     saturation signal that forces the exact-wave fallback. *)
  List.iteri
    (fun i () -> Sync.Bloom.add b (Chunk.hash (blob i)))
    (List.init 500 (fun _ -> ()));
  check bool_ "saturated" true (Sync.Bloom.saturated b);
  check bool_ "fill high" true (Sync.Bloom.fill_ratio b > 0.5)

(* ---------------- service verbs ---------------- *)

let test_chunk_verbs () =
  let fb = FB.create (Fb_chunk.Mem_store.create ()) in
  let chunk = Chunk.v Chunk.Leaf_blob "verb payload" in
  let id = Chunk.hash chunk in
  let hex = Hash.to_hex id in
  (match Service.dispatch fb [ "chunk-put"; hex; Chunk.encode chunk ] with
  | Ok _ -> ()
  | Error e -> Alcotest.fail (Errors.to_string e));
  (* Verified ingest: bytes that do not hash to the declared id bounce. *)
  check bool_ "forged id refused" true
    (Result.is_error
       (Service.dispatch fb
          [ "chunk-put"; Hash.to_hex (Chunk.hash (blob 1)); Chunk.encode chunk ]));
  (* Idempotent: the same put again is fine. *)
  (match Service.dispatch fb [ "chunk-put"; hex; Chunk.encode chunk ] with
  | Ok _ -> ()
  | Error e -> Alcotest.fail (Errors.to_string e));
  (match Service.dispatch fb [ "chunk-stat" ] with
  | Ok s ->
    check bool_ ("chunk-stat shape: " ^ s) true
      (Scanf.sscanf_opt s "chunks=%d bytes=%d" (fun c _ -> c) = Some 1)
  | Error e -> Alcotest.fail (Errors.to_string e));
  match Service.dispatch fb [ "sync-bloom" ] with
  | Error e -> Alcotest.fail (Errors.to_string e)
  | Ok encoded -> (
    match Sync.Bloom.decode encoded with
    | Error e -> Alcotest.fail (Errors.to_string e)
    | Ok b -> check bool_ "bloom holds the chunk" true (Sync.Bloom.mem b id))

(* ---------------- networked composition ---------------- *)

let test_config = { Server.default_config with port = 0 }

let with_servers n f =
  let nodes =
    List.init n (fun _ ->
        let fb = FB.create (Fb_chunk.Mem_store.create ()) in
        match Server.start ~config:test_config fb with
        | Ok srv -> srv
        | Error e -> Alcotest.fail e)
  in
  Fun.protect
    ~finally:(fun () -> List.iter (fun s -> try Server.stop s with _ -> ()) nodes)
    (fun () -> f nodes)

let test_remote_chunk_store () =
  with_servers 1 (fun nodes ->
      let srv = List.hd nodes in
      let r = ok_fb (Remote.connect ~port:(Server.port srv) ()) in
      Fun.protect
        ~finally:(fun () -> Remote.close r)
        (fun () ->
          let s = Remote.chunk_store r in
          let chunk = Chunk.v Chunk.Leaf_blob "over the wire" in
          let id = s.Store.put chunk in
          check bool_ "id is content hash" true
            (Hash.equal id (Chunk.hash chunk));
          check bool_ "mem" true (s.Store.mem id);
          check bool_ "absent mem" false (s.Store.mem (Chunk.hash (blob 9)));
          (match s.Store.get id with
          | Some c -> check string_ "payload" "over the wire" c.Chunk.payload
          | None -> Alcotest.fail "get lost the chunk");
          check bool_ "absent get" true (s.Store.get (Chunk.hash (blob 9)) = None);
          let st = s.Store.stats () in
          check bool_ "server-side shape" true (st.Store.physical_chunks >= 1);
          (* Physical enumeration and GC stay on the member node. *)
          check bool_ "iter refused" true
            (match s.Store.iter (fun _ _ -> ()) with
            | () -> false
            | exception Failure _ -> true);
          check bool_ "ids refused" true
            (match Store.ids s (fun _ -> ()) with
            | () -> false
            | exception Failure msg -> contains ~affix:"ids" msg);
          check bool_ "delete refused" true
            (match s.Store.delete id with
            | (_ : bool) -> false
            | exception Failure _ -> true)))

let test_net_cluster_failover () =
  with_servers 3 (fun nodes ->
      let node_list =
        List.map
          (fun srv -> { Net_cluster.host = "127.0.0.1"; port = Server.port srv })
          nodes
      in
      let t =
        ok_fb (Net_cluster.connect ~replicas:2 ~nodes:node_list ())
      in
      Fun.protect
        ~finally:(fun () -> Net_cluster.close t)
        (fun () ->
          let store = Net_cluster.store t in
          let ids = List.init 50 (fun i -> (i, Store.put store (blob i))) in
          (* Healthy reads. *)
          List.iter
            (fun (i, id) ->
              match Store.get store id with
              | Some c ->
                check string_ "payload" (Printf.sprintf "cluster chunk %d" i)
                  c.Chunk.payload
              | None -> Alcotest.failf "chunk %d unreadable (healthy)" i)
            ids;
          (* Kill one live server process-equivalent and read everything
             again: W=2 placement must keep all 50 readable. *)
          Server.stop (List.nth nodes 1);
          let served = ref 0 in
          List.iter
            (fun (_, id) -> if Store.get store id <> None then incr served)
            ids;
          check int_ "all reads survive a node kill" 50 !served;
          (* probe agrees with reality and marks the dead member down. *)
          let probed = Net_cluster.probe t in
          let down =
            List.filter (fun (_, up) -> not up) probed |> List.length
          in
          check int_ "one node down" 1 down))

let test_cluster_provider_end_to_end () =
  (* forkbase serve --backend cluster equivalent, in-process: a router
     Forkbase over the "cluster" provider, members being live servers. *)
  with_servers 2 (fun nodes ->
      with_temp_root (fun root ->
          let nodes_param =
            String.concat ","
              (List.map
                 (fun srv -> Printf.sprintf "127.0.0.1:%d" (Server.port srv))
                 nodes)
          in
          let inst =
            ok_fb
              (Persistent.open_instance ~backend:"cluster"
                 ~params:[ ("nodes", nodes_param); ("replicas", "2") ]
                 ~root ())
          in
          let fb = inst.Persistent.fb in
          let _ = ok_fb (FB.put fb ~key:"k" (Fb_types.Value.string "routed")) in
          (match ok_fb (FB.get fb ~key:"k") with
          | Fb_types.Value.Primitive (Fb_types.Primitive.String s) -> check string_ "routed value" "routed" s
          | _ -> Alcotest.fail "wrong value shape");
          (* The data physically lives on the member servers. *)
          let member_chunks =
            List.fold_left
              (fun acc srv ->
                let r = ok_fb (Remote.connect ~port:(Server.port srv) ()) in
                Fun.protect
                  ~finally:(fun () -> Remote.close r)
                  (fun () ->
                    match Remote.raw r [ "chunk-stat" ] with
                    | Ok s ->
                      acc
                      + Option.value ~default:0
                          (Scanf.sscanf_opt s "chunks=%d bytes=%d"
                             (fun c _ -> c))
                    | Error _ -> acc))
              0 nodes
          in
          check bool_ "members hold the chunks" true (member_chunks > 0);
          Persistent.close inst))

let test_push_bloom_stats () =
  (* The Bloom round rides push: a second push with overlapping history
     must skip already-present chunks without shipping them. *)
  with_servers 1 (fun nodes ->
      let srv = List.hd nodes in
      let local = FB.create (Fb_chunk.Mem_store.create ()) in
      let _ =
        ok_fb (FB.put local ~key:"doc" (Fb_types.Value.string "rev one"))
      in
      let r = ok_fb (Remote.connect ~port:(Server.port srv) ()) in
      Fun.protect
        ~finally:(fun () -> Remote.close r)
        (fun () ->
          let _, s1 = ok_fb (Remote.push r local ~key:"doc") in
          check bool_ "first push ships" true (s1.Sync.chunks_moved > 0);
          let _ =
            ok_fb (FB.put local ~key:"doc" (Fb_types.Value.string "rev two"))
          in
          let _, s2 = ok_fb (Remote.push r local ~key:"doc") in
          check bool_ "second push skips shared history" true
            (s2.Sync.chunks_skipped > 0);
          check bool_ "fp counter sane" true (s2.Sync.bloom_fp >= 0)))

let suite =
  [ Alcotest.test_case "ring determinism" `Quick test_ring_determinism;
    QCheck_alcotest.to_alcotest qcheck_routing_pure;
    Alcotest.test_case "ring delta bounded" `Quick test_ring_delta;
    Alcotest.test_case "put replicates to owners" `Quick test_put_replication;
    Alcotest.test_case "reads survive any single node down" `Quick
      test_one_down_reads;
    Alcotest.test_case "read repair restores lost copies" `Quick
      test_read_repair;
    Alcotest.test_case "corrupt replica rejected and healed" `Quick
      test_corrupt_replica_rejected;
    Alcotest.test_case "bit flip never deletes the last healthy copy" `Quick
      test_bit_flip_keeps_last_copy;
    Alcotest.test_case "transient members retried" `Quick
      test_transient_members_retry;
    Alcotest.test_case "no live owner -> Transient" `Quick
      test_unavailable_put;
    Alcotest.test_case "rebalance moves only the ring delta" `Quick
      test_rebalance_moves_only_delta;
    Alcotest.test_case "unknown backend is typed Invalid" `Quick
      test_provider_unknown_backend;
    Alcotest.test_case "backends interchangeable" `Quick
      test_provider_interchangeable;
    Alcotest.test_case "auto detects the on-disk engine" `Quick
      test_provider_auto_detect;
    Alcotest.test_case "bloom: no false negatives" `Quick
      test_bloom_no_false_negatives;
    Alcotest.test_case "bloom: wire roundtrip" `Quick test_bloom_roundtrip;
    Alcotest.test_case "bloom: saturation flips fallback" `Quick
      test_bloom_saturation;
    Alcotest.test_case "chunk-put/chunk-stat/sync-bloom verbs" `Quick
      test_chunk_verbs;
    Alcotest.test_case "remote chunk store over the wire" `Quick
      test_remote_chunk_store;
    Alcotest.test_case "net cluster survives a node kill" `Quick
      test_net_cluster_failover;
    Alcotest.test_case "cluster provider end-to-end" `Quick
      test_cluster_provider_end_to_end;
    Alcotest.test_case "push rides the bloom exchange" `Quick
      test_push_bloom_stats ]
