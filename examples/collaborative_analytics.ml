(* Collaborative analytics with branch-based access control — the Fig. 1
   scenario over the network: two administrators share a dataset behind a
   ForkBase server; analysts connect remotely, work on isolated branches
   they own, and results flow back through reviewed merges.

   Everything below the server setup speaks the typed Remote API: each
   participant holds a Remote handle, and failures arrive as the same
   typed Errors.t a local caller would get — Permission_denied is matched
   structurally, not parsed out of prose.

     dune exec examples/collaborative_analytics.exe *)

module FB = Fb_core.Forkbase
module Acl = Fb_core.Acl
module Errors = Fb_core.Errors
module Remote = Fb_net.Remote
module Server = Fb_net.Server

let ok = function
  | Ok v -> v
  | Error e -> failwith (Errors.to_string e)

let expect_denied what = function
  | Error (Errors.Permission_denied _) ->
    Printf.printf "  denied (as intended): %s\n" what
  | Ok _ -> failwith ("should have been denied: " ^ what)
  | Error e -> failwith (Errors.to_string e)

let () =
  (* Admin A owns everything; admin B administers the sales dataset.
     Analysts carol and dave get read on master and admin on their own
     branches — the branch-based access control of the demo. *)
  let acl = Acl.create () in
  Acl.grant acl ~user:"adminA" ~key:"*" ~branch:"*" Acl.Admin;
  Acl.grant acl ~user:"adminB" ~key:"sales" ~branch:"*" Acl.Admin;
  List.iter
    (fun analyst ->
      Acl.grant acl ~user:analyst ~key:"sales" ~branch:"master" Acl.Read;
      Acl.grant acl ~user:analyst ~key:"sales" ~branch:(analyst ^ "-dev")
        Acl.Admin)
    [ "carol"; "dave" ];
  let fb = FB.create ~acl (Fb_chunk.Mem_store.create ()) in

  (* One server, striped read/write locking; an ephemeral port so the
     example never collides with a real daemon. *)
  let config = { Server.default_config with port = 0 } in
  let srv =
    match Server.start ~config fb with
    | Ok s -> s
    | Error e -> failwith e
  in
  let port = Server.port srv in
  Printf.printf "server up on 127.0.0.1:%d\n" port;
  let connect user = ok (Remote.connect ~port ~user ()) in
  let adminA = connect "adminA" in
  let adminB = connect "adminB" in
  let carol = connect "carol" in
  let dave = connect "dave" in
  let mallory = connect "mallory" in
  let all = [ adminA; adminB; carol; dave; mallory ] in
  Fun.protect
    ~finally:(fun () ->
      List.iter Remote.close all;
      Server.stop srv)
    (fun () ->
      (* Admin A loads the shared dataset. *)
      Printf.printf "adminA loads sales/master\n";
      ignore
        (ok
           (Remote.put_csv adminA ~key:"sales"
              "region,revenue,units\nnorth,1200,40\nsouth,800,25\neast,1500,55\nwest,900,31\n"));

      (* Analysts cannot touch master — the denial is typed even though
         it crossed the wire. *)
      expect_denied "carol writes master"
        (Remote.put carol ~key:"sales" "nope");

      (* ...but fork their own branches and work in isolation. *)
      Printf.printf "carol and dave fork private branches\n";
      ignore (ok (Remote.fork carol ~key:"sales" ~new_branch:"carol-dev"));
      ignore (ok (Remote.fork dave ~key:"sales" ~new_branch:"dave-dev"));

      (* Carol cleans the north region; Dave adds a missing region.
         Disjoint rows: the three-way merge takes both without conflict. *)
      ignore
        (ok
           (Remote.put_csv carol ~branch:"carol-dev" ~key:"sales"
              "region,revenue,units\nnorth,1200,42\nsouth,800,25\neast,1500,55\nwest,900,31\n"));
      ignore
        (ok
           (Remote.put_csv dave ~branch:"dave-dev" ~key:"sales"
              "region,revenue,units\nnorth,1200,40\nsouth,800,25\neast,1500,55\nwest,900,31\ncentral,650,18\n"));

      (* Each analyst's diff against master is visible to the admins. *)
      List.iter
        (fun branch ->
          Printf.printf "\nmaster vs %s:\n%s\n" branch
            (ok
               (Remote.diff adminB ~key:"sales" ~branch1:"master"
                  ~branch2:branch)))
        [ "carol-dev"; "dave-dev" ];

      (* Admin B reviews and merges both. *)
      Printf.printf "\nadminB merges carol-dev, then dave-dev\n";
      ignore
        (ok
           (Remote.merge adminB ~key:"sales" ~into:"master"
              ~from_branch:"carol-dev"));
      ignore
        (ok
           (Remote.merge adminB ~key:"sales" ~into:"master"
              ~from_branch:"dave-dev"));
      print_string (ok (Remote.get adminB ~key:"sales"));

      (* One BATCH frame fetches every branch head under a single lock
         acquisition — the wire-level amortization for dashboards that
         refresh many panes at once. *)
      Printf.printf "\nbranch heads (one batch frame):\n";
      (match
         ok
           (Remote.batch adminB
              (List.map
                 (fun branch -> Remote.Head { key = "sales"; branch })
                 [ "master"; "carol-dev"; "dave-dev" ]))
       with
      | replies ->
        List.iter2
          (fun branch reply ->
            match reply with
            | Ok (Remote.Uid uid) ->
              Printf.printf "  %-10s %s\n" branch
                (String.sub (FB.version_string uid) 0 12)
            | Ok (Remote.Value _) | Error _ ->
              Printf.printf "  %-10s ?\n" branch)
          [ "master"; "carol-dev"; "dave-dev" ]
          replies);

      (* The provenance of the result is the version DAG. *)
      Printf.printf "\nhistory of sales/master:\n";
      List.iter
        (fun line -> Printf.printf "  %s\n" line)
        (ok (Remote.log adminB ~key:"sales"));

      (* Mallory, who has no grants, sees nothing at all. *)
      expect_denied "mallory reads sales" (Remote.get mallory ~key:"sales");
      assert (ok (Remote.list_keys mallory) = []);
      Printf.printf "\nmallory sees no keys; collaboration stayed contained.\n")
