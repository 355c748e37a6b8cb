(* Durable instances: roundtrips, durability on return, crash shapes,
   old-format roots, corruption. *)

module FB = Fb_core.Forkbase
module Persistent = Fb_core.Persistent
module Errors = Fb_core.Errors
module Value = Fb_types.Value
module Hash = Fb_hash.Hash
module Log_store = Fb_chunk.Log_store

let check = Alcotest.check
let bool_ = Alcotest.bool
let int_ = Alcotest.int

let ok = function
  | Ok v -> v
  | Error e -> Alcotest.fail (Errors.to_string e)

let with_temp_root f =
  let root =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "fb_persist_%d_%d" (Unix.getpid ()) (Random.bits ()))
  in
  Fun.protect
    ~finally:(fun () -> ignore (Sys.command ("rm -rf " ^ Filename.quote root)))
    (fun () -> f root)

let test_roundtrip_across_sessions () =
  with_temp_root (fun root ->
      (* Session 1: create data, a branch and a tag. *)
      let u1 =
        ok
          (Persistent.with_instance ~root (fun { fb; _ } ->
               let ( let* ) = Result.bind in
               let* u = FB.import_csv fb ~key:"ds" "id,v\n1,a\n2,b\n" in
               let* _ = FB.fork fb ~key:"ds" ~new_branch:"dev" in
               let* () = FB.tag fb ~key:"ds" ~name:"v1" u in
               Ok u))
      in
      (* Session 2: everything is back. *)
      Tutil.with_fb ~root (fun fb ->
          check bool_ "head" true (Hash.equal u1 (ok (FB.head fb ~key:"ds")));
          check bool_ "branch" true
            (Result.is_ok (FB.get fb ~branch:"dev" ~key:"ds"));
          check bool_ "tag" true
            (Hash.equal u1 (ok (FB.tag_lookup fb ~key:"ds" ~name:"v1")));
          check bool_ "history" true (List.length (ok (FB.log fb ~key:"ds")) = 1);
          check bool_ "verifies" true (Result.is_ok (FB.verify fb u1))))

(* No save step: a head move is durable once the call returns, so an
   instance opened on a copy of the root taken meanwhile — while the
   writer is still open and has closed nothing — recovers it. *)
let test_save_is_explicit () =
  with_temp_root (fun root ->
      Tutil.with_fb ~root (fun fb ->
          let u = ok (FB.put fb ~key:"k" (Value.string "v")) in
          Tutil.with_snapshot root (fun snap ->
              Tutil.with_fb ~root:snap (fun fb2 ->
                  check bool_ "head durable without a save" true
                    (Hash.equal u (ok (FB.head fb2 ~key:"k")))));
          check bool_ "no table file written" false
            (Sys.file_exists (Filename.concat root "BRANCHES"))))

(* A write that returned before the action failed is already durable:
   failure rolls nothing back and loses nothing. *)
let test_failed_action_does_not_save () =
  with_temp_root (fun root ->
      let written = ref None in
      (match
         Persistent.with_instance ~root (fun { fb; _ } ->
             let ( let* ) = Result.bind in
             let* u = FB.put fb ~key:"k" (Value.string "v") in
             written := Some u;
             (Error (Errors.Invalid "simulated failure") : (unit, Errors.t) result))
       with
       | Error (Errors.Invalid _) -> ()
       | _ -> Alcotest.fail "expected failure");
      Tutil.with_fb ~root (fun fb ->
          check bool_ "acknowledged head kept" true
            (Some (ok (FB.head fb ~key:"k")) = !written)))

let test_corrupt_tables_rejected () =
  with_temp_root (fun root ->
      ignore
        (ok
           (Persistent.with_instance ~root (fun { fb; _ } ->
                FB.put fb ~key:"k" (Value.string "v"))));
      let oc = open_out_bin (Filename.concat root "BRANCHES") in
      output_string oc "garbage";
      close_out oc;
      match Persistent.open_instance ~root () with
      | Error (Errors.Corrupt _) -> ()
      | Ok i ->
        Persistent.close i;
        Alcotest.fail "corrupt table accepted"
      | Error e -> Alcotest.failf "wrong error class: %s" (Errors.to_string e))

let test_gc_survives_reopen () =
  with_temp_root (fun root ->
      ignore
        (ok
           (Persistent.with_instance ~root (fun { fb; _ } ->
                let ( let* ) = Result.bind in
                let* _ = FB.put fb ~key:"a" (Value.string "1") in
                let* _ = FB.put fb ~key:"b" (Value.string "2") in
                FB.delete_branch fb ~key:"b" ~branch:"master")));
      Tutil.with_fb ~root (fun fb ->
          let swept = (FB.gc fb).Fb_chunk.Gc.swept_chunks in
          check int_ "b swept on disk" 1 swept;
          check bool_ "a intact" true (Result.is_ok (FB.get fb ~key:"a"))))

let log_of (i : Persistent.instance) =
  match i.log with Some h -> h | None -> Alcotest.fail "no head log"

let write_file path data =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out_noerr oc) (fun () -> output_string oc data)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* A crash while a head move was being written: the move's ref record is
   torn at the log's tail.  Recovery drops it and keeps the previous
   head; the next move lands on a clean tail.  A crash inside a rename
   keeps both names.  (Every cut through ref records is covered by
   test_log's ref-record power-cut matrix.) *)
let test_crash_between_write_and_rename () =
  with_temp_root (fun root ->
      let i = ok (Persistent.open_instance ~root ()) in
      let u1 = ok (FB.put i.fb ~key:"k" (Value.string "v1")) in
      let h = log_of i in
      let path = Log_store.log_path h in
      let before = Log_store.file_bytes h in
      let _ = ok (FB.put i.fb ~key:"k" (Value.string "v2")) in
      let bytes = read_file path in
      Persistent.close i;
      (* Everything of the second put survives except the last byte of
         its ref record. *)
      check bool_ "second put appended" true (String.length bytes > before);
      write_file path (String.sub bytes 0 (String.length bytes - 1));
      Sys.remove (Filename.concat (Filename.dirname path) "gen-0.idx");
      let i2 = ok (Persistent.open_instance ~root ()) in
      check bool_ "old head intact" true
        (Hash.equal u1 (ok (FB.head i2.fb ~key:"k")));
      let u3 = ok (FB.put i2.fb ~key:"k" (Value.string "v3")) in
      (* A rename is journaled as the new name's creation, then the old
         name's removal: a crash between them leaves both names. *)
      ignore (ok (FB.fork i2.fb ~key:"k" ~new_branch:"dev"));
      ok (FB.rename_branch i2.fb ~key:"k" ~from_branch:"dev" ~to_branch:"feature");
      Persistent.close i2;
      let bytes = read_file path in
      let last_record = 41 + 37 + String.length "k" + String.length "dev" in
      write_file path (String.sub bytes 0 (String.length bytes - last_record));
      Sys.remove (Filename.concat (Filename.dirname path) "gen-0.idx");
      Tutil.with_fb ~root (fun fb3 ->
          check bool_ "next move recovered" true
            (Hash.equal u3 (ok (FB.head fb3 ~key:"k")));
          check bool_ "both names survive a torn rename" true
            (List.map fst (ok (FB.latest fb3 ~key:"k"))
             = [ "dev"; "feature"; "master" ])))

(* A crash inside the very first head move: the root holds chunks but
   no sealed ref record.  It opens as a root without heads, not as a
   corrupt one. *)
let test_crash_before_any_save () =
  with_temp_root (fun root ->
      let i = ok (Persistent.open_instance ~root ()) in
      let h = log_of i in
      let path = Log_store.log_path h in
      ignore (ok (FB.put i.fb ~key:"k" (Value.string "v")));
      let bytes = read_file path in
      Persistent.close i;
      write_file path (String.sub bytes 0 (String.length bytes - 3));
      Sys.remove (Filename.concat (Filename.dirname path) "gen-0.idx");
      Tutil.with_fb ~root (fun fb2 ->
          check bool_ "no head" true (Result.is_error (FB.head fb2 ~key:"k"))))

(* With fsync on, a mutating call returns only once a group commit covers
   its ref record; no table file is ever written. *)
let test_fsync_save_roundtrip () =
  with_temp_root (fun root ->
      let i = ok (Persistent.open_instance ~fsync:true ~root ()) in
      let h = log_of i in
      let u = ok (FB.put i.fb ~key:"k" (Value.string "durable")) in
      check int_ "put's ref record synced" (Log_store.file_bytes h)
        (Log_store.synced_bytes h);
      ignore (ok (FB.fork i.fb ~key:"k" ~new_branch:"dev"));
      check int_ "fork's ref record synced" (Log_store.file_bytes h)
        (Log_store.synced_bytes h);
      check bool_ "no table files" false
        (Sys.file_exists (Filename.concat root "BRANCHES")
        || Sys.file_exists (Filename.concat root "TAGS"));
      Tutil.with_snapshot root (fun snap ->
          Tutil.with_fb ~root:snap (fun fb2 ->
              check bool_ "head" true (Hash.equal u (ok (FB.head fb2 ~key:"k")));
              check bool_ "branch" true
                (Result.is_ok (FB.get fb2 ~branch:"dev" ~key:"k"))));
      Persistent.close i)

(* A root written before heads moved into the log: chunks in the log,
   heads and tags in BRANCHES/TAGS.  Opening imports them as ref records
   and removes the files; the next open recovers them from the log. *)
let test_old_format_root () =
  with_temp_root (fun root ->
      let log = Log_store.create ~root:(Filename.concat root "log") () in
      let old = FB.create (Log_store.store log) in
      let u1 = ok (FB.put old ~key:"a" (Value.string "1")) in
      let u2 = ok (FB.put old ~key:"a" (Value.string "2")) in
      let ub = ok (FB.put old ~key:"b" (Value.string "x")) in
      ignore (ok (FB.fork_at old ~key:"a" ~new_branch:"dev" u1));
      ok (FB.tag old ~key:"a" ~name:"v1" u1);
      Log_store.close log;
      write_file (Filename.concat root "BRANCHES")
        (Tutil.old_table
           [ ("a", [ ("dev", u1); ("master", u2) ]); ("b", [ ("master", ub) ]) ]);
      write_file (Filename.concat root "TAGS")
        (Tutil.old_table [ ("a", [ ("v1", u1) ]) ]);
      let expect what fb =
        check bool_ (what ^ ": master") true (Hash.equal u2 (ok (FB.head fb ~key:"a")));
        check bool_ (what ^ ": dev") true
          (Hash.equal u1 (ok (FB.head fb ~branch:"dev" ~key:"a")));
        check bool_ (what ^ ": b") true (Hash.equal ub (ok (FB.head fb ~key:"b")));
        check bool_ (what ^ ": tag") true
          (Hash.equal u1 (ok (FB.tag_lookup fb ~key:"a" ~name:"v1")));
        check bool_ (what ^ ": value") true
          (Value.equal (Value.string "2") (ok (FB.get fb ~key:"a")))
      in
      let i = ok (Persistent.open_instance ~root ()) in
      expect "import" i.fb;
      check bool_ "table files removed" false
        (Sys.file_exists (Filename.concat root "BRANCHES")
        || Sys.file_exists (Filename.concat root "TAGS"));
      check int_ "heads journaled" 4 (List.length (Log_store.refs (log_of i)));
      Persistent.close i;
      Tutil.with_fb ~root (expect "reopen"))

(* A cluster member's root holds chunks named by the router's heads and
   no heads of its own: gc refuses it instead of sweeping everything. *)
let test_gc_refuses_member_root () =
  with_temp_root (fun root ->
      let i = ok (Persistent.open_instance ~root ()) in
      let u = ok (FB.put i.fb ~key:"k" (Value.string "v")) in
      ok (Persistent.gc i |> Result.map ignore);
      Persistent.mark_member ~root;
      (* What a member sees: chunks, no heads. *)
      ok (FB.delete_branch i.fb ~key:"k" ~branch:"master");
      (match Persistent.gc i with
      | Error (Errors.Invalid _) -> ()
      | Ok _ -> Alcotest.fail "gc swept a member root"
      | Error e -> Alcotest.failf "wrong error class: %s" (Errors.to_string e));
      check bool_ "chunks kept" true (Result.is_ok (FB.verify i.fb u));
      Persistent.close i)

let suite =
  [ Alcotest.test_case "roundtrip across sessions" `Quick
      test_roundtrip_across_sessions;
    Alcotest.test_case "save is explicit" `Quick test_save_is_explicit;
    Alcotest.test_case "failed action does not save" `Quick
      test_failed_action_does_not_save;
    Alcotest.test_case "corrupt tables rejected" `Quick
      test_corrupt_tables_rejected;
    Alcotest.test_case "gc survives reopen" `Quick test_gc_survives_reopen;
    Alcotest.test_case "crash between write and rename" `Quick
      test_crash_between_write_and_rename;
    Alcotest.test_case "crash before any save" `Quick
      test_crash_before_any_save;
    Alcotest.test_case "fsync save roundtrip" `Quick
      test_fsync_save_roundtrip;
    Alcotest.test_case "old-format root imports its tables" `Quick
      test_old_format_root;
    Alcotest.test_case "gc refuses a cluster member root" `Quick
      test_gc_refuses_member_root ]
