(* The cluster store as a sharded, replicated chunk store: placement,
   failover, read repair, corruption handling, rebalance after an
   outage, and a full ForkBase instance running on top. *)

module Cluster = Fb_chunk.Cluster_store
module Store = Fb_chunk.Store
module Chunk = Fb_chunk.Chunk
module Mem_store = Fb_chunk.Mem_store
module FB = Fb_core.Forkbase

let check = Alcotest.check
let bool_ = Alcotest.bool
let int_ = Alcotest.int

let mk_cluster ?(n = 4) ?(replicas = 2) () =
  let members =
    List.init n (fun i ->
        let name = Printf.sprintf "node%d" i in
        let store, handle = Mem_store.create_with_handle ~name () in
        ((name, store), handle))
  in
  let cluster = Cluster.create ~replicas ~members:(List.map fst members) () in
  (cluster, Cluster.store cluster, List.map snd members)

let blob i = Chunk.v Chunk.Leaf_blob (Printf.sprintf "chunk number %d" i)

let total_copies cluster =
  List.fold_left
    (fun acc n -> acc + n.Cluster.chunks)
    0 (Cluster.node_stats cluster)

let ok = function
  | Ok v -> v
  | Error e -> Alcotest.fail (Fb_core.Errors.to_string e)

let test_placement_and_replication () =
  let cluster, store, _ = mk_cluster () in
  let ids = List.init 200 (fun i -> Store.put store (blob i)) in
  (* Every chunk is on exactly its 2 owners. *)
  List.iter
    (fun id ->
      check int_ "two owners" 2 (List.length (Cluster.owners cluster id));
      check bool_ "readable" true (Store.mem store id))
    ids;
  (* Placement is reasonably balanced: each member holds some chunks, and
     total copies = 2x chunks. *)
  check int_ "replication factor" (2 * 200) (total_copies cluster);
  List.iter
    (fun n ->
      check bool_ (n.Cluster.node ^ " nonempty") true (n.Cluster.chunks > 0))
    (Cluster.node_stats cluster);
  Cluster.close cluster

let test_owner_determinism () =
  let cluster, store, _ = mk_cluster () in
  let id = Store.put store (blob 1) in
  check bool_ "stable owners" true
    (Cluster.owners cluster id = Cluster.owners cluster id);
  Cluster.close cluster

let test_failover_read () =
  let cluster, store, _ = mk_cluster () in
  let id = Store.put store (blob 7) in
  (* Kill the primary: reads fail over to the replica. *)
  let primary = List.hd (Cluster.owners cluster id) in
  Cluster.set_down cluster primary true;
  check bool_ "still readable" true (Store.get store id <> None);
  check bool_ "fallback counted" true
    ((Cluster.cluster_stats cluster).Cluster.failover_reads >= 1);
  (* Kill both owners: no owner answers until one returns. *)
  let secondary = List.nth (Cluster.owners cluster id) 1 in
  Cluster.set_down cluster secondary true;
  (match Store.get store id with
  | _ -> Alcotest.fail "read answered with both owners down"
  | exception Store.Transient _ -> ());
  Cluster.set_down cluster primary false;
  check bool_ "back up -> hit" true (Store.get store id <> None);
  Cluster.close cluster

let test_write_with_down_member_then_rebalance () =
  let cluster, store, _ = mk_cluster () in
  (* Write 100 chunks with one member down. *)
  Cluster.set_down cluster "node1" true;
  let ids = List.init 100 (fun i -> Store.put store (blob (1000 + i))) in
  List.iter
    (fun id -> check bool_ "written and readable" true (Store.mem store id))
    ids;
  (* Bring it back; rebalance restores full replication. *)
  Cluster.set_down cluster "node1" false;
  let report = Cluster.rebalance cluster in
  check bool_ "rebalance copied" true (report.Cluster.moved_chunks > 0);
  check int_ "full replication restored" (2 * 100) (total_copies cluster);
  Cluster.close cluster

let test_corrupt_replica_repair () =
  let cluster, store, handles = mk_cluster () in
  let id = Store.put store (blob 42) in
  (* Corrupt the copy on one member (a malicious node). *)
  ignore (Mem_store.tamper (List.hd handles) id ~f:(fun s -> s ^ "!"));
  (* The read must never return corrupt bytes: either the good replica
     serves it, or (if we hit the bad one first) it is rejected and the
     fallback answers. *)
  (match Store.get store id with
  | Some c -> check bool_ "payload intact" true (Chunk.hash c = id)
  | None -> Alcotest.fail "lost despite a good replica");
  Cluster.close cluster

let test_forkbase_on_cluster () =
  (* The whole engine runs unmodified on the sharded store. *)
  let cluster, store, _ = mk_cluster ~n:5 ~replicas:3 () in
  let fb = FB.create store in
  ignore (ok (FB.import_csv fb ~key:"ds" "id,v\n1,a\n2,b\n3,c\n"));
  ignore (ok (FB.fork fb ~key:"ds" ~new_branch:"dev"));
  ignore (ok (FB.import_csv fb ~key:"ds" ~branch:"dev" "id,v\n1,a\n2,B\n3,c\n"));
  ignore (ok (FB.merge fb ~key:"ds" ~into:"master" ~from_branch:"dev"));
  let verifies () =
    Result.is_ok
      (FB.verify ~check_history_values:true fb (ok (FB.head fb ~key:"ds")))
  in
  check bool_ "verifies on cluster" true (verifies ());
  (* Lose any two nodes: with replicas=3 everything survives. *)
  Cluster.set_down cluster "node0" true;
  Cluster.set_down cluster "node3" true;
  check bool_ "verifies with 2 nodes down" true (verifies ());
  check bool_ "still queryable" true
    (Result.is_ok (FB.export_csv fb ~key:"ds"));
  (* A write during the outage lands on the live owners. *)
  ignore (ok (FB.import_csv fb ~key:"ds" "id,v\n1,a\n2,B\n3,c\n4,d\n"));
  check bool_ "outage write verifies" true (verifies ());
  Cluster.set_down cluster "node0" false;
  Cluster.set_down cluster "node3" false;
  let report = Cluster.rebalance cluster in
  check int_ "W copies restored" (3 * report.Cluster.scanned)
    (total_copies cluster);
  check bool_ "verifies after rebalance" true (verifies ());
  Cluster.close cluster

let test_parameter_validation () =
  let members = [ ("a", Mem_store.create ()) ] in
  let raises name msg f =
    Alcotest.check_raises name (Invalid_argument msg) (fun () -> ignore (f ()))
  in
  raises "no members" "Cluster_store.create: no members" (fun () ->
      Cluster.create ~members:[] ());
  raises "replicas" "Cluster_store.create: replicas must be >= 1" (fun () ->
      Cluster.create ~replicas:0 ~members ());
  raises "virtual nodes" "Cluster_store.create: virtual_nodes must be >= 1"
    (fun () -> Cluster.create ~virtual_nodes:0 ~members ());
  raises "duplicate member" "Cluster_store.create: duplicate member a"
    (fun () -> Cluster.create ~members:(members @ members) ());
  let cluster, _, _ = mk_cluster () in
  raises "unknown member" "Cluster_store.set_down: unknown member ghost"
    (fun () -> Cluster.set_down cluster "ghost" true);
  Cluster.close cluster

let suite =
  [ Alcotest.test_case "placement and replication" `Quick
      test_placement_and_replication;
    Alcotest.test_case "owner determinism" `Quick test_owner_determinism;
    Alcotest.test_case "failover read" `Quick test_failover_read;
    Alcotest.test_case "write around failure + rebalance" `Quick
      test_write_with_down_member_then_rebalance;
    Alcotest.test_case "corrupt replica repair" `Quick
      test_corrupt_replica_repair;
    Alcotest.test_case "forkbase on cluster" `Quick test_forkbase_on_cluster;
    Alcotest.test_case "parameter validation" `Quick
      test_parameter_validation ]
