(* Quickstart: the ForkBase workflow in one page.

     dune exec examples/quickstart.exe

   Creates an in-memory instance, imports a CSV dataset, branches it,
   diverges the branch, runs a differential query, merges, and verifies the
   result against the (hypothetically untrusted) store. *)

module FB = Fb_core.Forkbase
module Value = Fb_types.Value

let ok = function
  | Ok v -> v
  | Error e -> failwith (Fb_core.Errors.to_string e)

let () =
  (* 1. An instance over an in-memory chunk store.  Swap in
     [Fb_chunk.File_store.create ~root:"..."] for durability. *)
  let fb = FB.create (Fb_chunk.Mem_store.create ()) in

  (* 2. Put a CSV dataset; every Put returns a tamper-evident version. *)
  let v1 =
    ok
      (FB.import_csv fb ~key:"fruit" ~message:"initial load"
         "id,name,qty\n1,apple,10\n2,banana,20\n3,cherry,30\n")
  in
  Printf.printf "v1 = %s\n" (FB.version_string v1);

  (* 3. Branch it: O(1), no data copied; both branches share every chunk. *)
  ignore (ok (FB.fork fb ~key:"fruit" ~new_branch:"experiment"));

  (* 4. Change the branch independently. *)
  ignore
    (ok
       (FB.import_csv fb ~key:"fruit" ~branch:"experiment"
          ~message:"restock bananas"
          "id,name,qty\n1,apple,10\n2,banana,99\n3,cherry,30\n4,durian,5\n"));

  (* 5. Differential query between the branches (fast: equal sub-trees are
     pruned by Merkle id without being read). *)
  let diff = ok (FB.diff fb ~key:"fruit" ~branch1:"master" ~branch2:"experiment") in
  Printf.printf "\nmaster vs experiment: %s" (Fb_core.Diffview.report diff);

  (* 6. Merge the branch back (three-way, sub-tree reusing). *)
  let merged = ok (FB.merge fb ~key:"fruit" ~into:"master" ~from_branch:"experiment") in
  Printf.printf "\nmerged -> %s\n" (FB.version_string merged);
  print_string (ok (FB.export_csv fb ~key:"fruit"));

  (* 7. Verify: recompute every hash and compare with the version id. *)
  let report = ok (FB.verify fb merged) in
  Printf.printf
    "\nverified: %d versions, %d value chunks re-hashed, all match\n"
    report.Fb_repr.Verify.versions_checked
    report.Fb_repr.Verify.value_chunks;

  (* 8. Storage: both branches and all versions share chunks. *)
  let stats = FB.stats fb in
  Printf.printf "store: %d chunks, %d bytes physical (%.2fx dedup)\n"
    stats.FB.store.Fb_chunk.Store.physical_chunks
    stats.FB.store.Fb_chunk.Store.physical_bytes
    (Fb_chunk.Store.dedup_ratio stats.FB.store)
