(* A three-node cluster surviving a node kill.

   Three live forkbase server nodes hold the chunks; a router instance
   places every chunk on W=2 of them by consistent hashing and fails
   reads over when an owner dies.  The same topology runs across real
   machines with the CLI:

     forkbase cluster start --root /srv/fb --count 3   # the storage nodes
     forkbase serve --backend cluster --root /srv/fb   # the router

   Here everything is in-process so the example is self-contained.

     dune exec examples/cluster_quickstart.exe *)

module FB = Fb_core.Forkbase
module Value = Fb_types.Value
module Server = Fb_net.Server
module Cluster = Fb_net.Cluster

let ok = function
  | Ok v -> v
  | Error e -> failwith (Fb_core.Errors.to_string e)

let () =
  (* Three storage nodes, each a complete forkbase server. *)
  let config = { Server.default_config with port = 0 } in
  let node () =
    match Server.start ~config (FB.create (Fb_chunk.Mem_store.create ())) with
    | Ok srv -> srv
    | Error e -> failwith e
  in
  let servers = Array.init 3 (fun _ -> node ()) in
  let nodes =
    Array.to_list
      (Array.map
         (fun srv -> { Cluster.host = "127.0.0.1"; port = Server.port srv })
         servers)
  in
  (* The router: a normal ForkBase instance whose chunk store hashes
     every chunk onto 2 of the 3 nodes. *)
  let cluster = ok (Cluster.connect ~replicas:2 ~nodes ()) in
  let fb = FB.create (Cluster.store cluster) in
  let keys = List.init 20 (Printf.sprintf "doc-%02d") in
  List.iter
    (fun key -> ignore (ok (FB.put fb ~key (Value.string ("payload of " ^ key)))))
    keys;
  (* Kill a node outright: every chunk still has a live replica, so the
     reads below are served by failover — the application never notices. *)
  Server.stop servers.(1);
  List.iter
    (fun key ->
      match ok (FB.get fb ~key) with
      | Value.Primitive (Fb_types.Primitive.String s) ->
        assert (s = "payload of " ^ key)
      | _ -> assert false)
    keys;
  Printf.printf "all %d keys readable with node 1 dead\n" (List.length keys);
  let stats =
    Fb_chunk.Cluster_store.cluster_stats (Cluster.cluster cluster)
  in
  Printf.printf "reads served by a fallback replica: %d\n"
    stats.Fb_chunk.Cluster_store.failover_reads;
  Cluster.close cluster;
  Array.iter Server.stop servers
