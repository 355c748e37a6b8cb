(* Fault injection, self-healing reads, scrub/repair, crash recovery.

   The invariant under test everywhere: no API call ever returns corrupt
   data.  Under injected faults an operation either succeeds with exactly
   the bytes that were written, or surfaces a typed error
   ([Errors.Transient] / [Errors.Corrupt]); silently serving damage is
   the only failure mode that is never acceptable. *)

open Fb_chunk
module Hash = Fb_hash.Hash
module FB = Fb_core.Forkbase
module Errors = Fb_core.Errors
module Value = Fb_types.Value

let check = Alcotest.check
let bool_ = Alcotest.bool
let int_ = Alcotest.int

let blob i = Chunk.v Chunk.Leaf_blob (Printf.sprintf "payload %d" i)

let with_temp_dir f =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "fb_faults_%d_%d" (Unix.getpid ()) (Random.bits ()))
  in
  Fun.protect
    ~finally:(fun () -> ignore (Sys.command ("rm -rf " ^ Filename.quote dir)))
    (fun () -> f dir)

(* ---------------- faulty store ---------------- *)

(* Same seed, same op sequence -> the same fault schedule. *)
let test_faulty_determinism () =
  let run () =
    let base = Mem_store.create () in
    let cfg =
      { Faulty_store.calm with
        seed = 42L; transient_read_p = 0.3; bit_flip_p = 0.2;
        transient_put_p = 0.2; torn_write_p = 0.2 }
    in
    let faulty, c = Faulty_store.wrap cfg base in
    let ids = ref [] in
    for i = 0 to 49 do
      match Store.put faulty (blob i) with
      | id -> ids := id :: !ids
      | exception Store.Transient _ -> ()
    done;
    List.iter
      (fun id ->
        try ignore (Store.get faulty id) with Store.Transient _ -> ())
      !ids;
    c
  in
  let a = run () and b = run () in
  check int_ "reads" a.Faulty_store.reads b.Faulty_store.reads;
  check int_ "transient reads" a.Faulty_store.transient_reads
    b.Faulty_store.transient_reads;
  check int_ "transient puts" a.Faulty_store.transient_puts
    b.Faulty_store.transient_puts;
  check int_ "bit flips" a.Faulty_store.bit_flips b.Faulty_store.bit_flips;
  check int_ "torn writes" a.Faulty_store.torn_writes
    b.Faulty_store.torn_writes;
  check bool_ "faults occurred" true (Faulty_store.total_faults a > 0)

let test_faulty_crash_trigger () =
  let base = Mem_store.create () in
  let faulty, c =
    Faulty_store.wrap { Faulty_store.calm with seed = 3L; crash_on_put = Some 2 }
      base
  in
  ignore (Store.put faulty (blob 0));
  (match Store.put faulty (blob 1) with
   | _ -> Alcotest.fail "second put should crash"
   | exception Faulty_store.Crash -> ());
  check int_ "crashes" 1 c.Faulty_store.crashes;
  check int_ "torn writes" 1 c.Faulty_store.torn_writes;
  (* The torn prefix is visible to maintenance interfaces... *)
  let torn_id = Hash.of_string (Chunk.encode (blob 1)) in
  check bool_ "mem sees torn" true (Store.mem faulty torn_id);
  (match Store.peek faulty torn_id with
   | Some raw ->
     check bool_ "torn bytes differ" false
       (Hash.equal (Hash.of_string raw) torn_id)
   | None -> Alcotest.fail "peek should see the torn chunk");
  (* ...and a content-addressed re-put does NOT repair it (name taken). *)
  ignore (Store.put faulty (blob 1));
  (match Store.peek faulty torn_id with
   | Some raw ->
     check bool_ "still torn after re-put" false
       (Hash.equal (Hash.of_string raw) torn_id)
   | None -> Alcotest.fail "torn chunk vanished")

(* ---------------- resilience on a faulty cluster ---------------- *)

(* [Cluster_store] over the given members at W = member count: the one
   replication engine, here with fault-injecting members and, where a
   case needs one, a clean mem replica. *)
let cluster ?(max_retries = 2) members =
  let c =
    Cluster_store.create ~replicas:(List.length members) ~max_retries
      ~members:(List.mapi (fun i s -> (Printf.sprintf "m%d" i, s)) members)
      ()
  in
  (c, Cluster_store.store c)

let test_retry_absorbs_transients () =
  let faulty, fc =
    Faulty_store.wrap
      { Faulty_store.calm with seed = 9L; transient_read_p = 0.5;
        transient_put_p = 0.5 }
      (Mem_store.create ())
  in
  let c, store = cluster ~max_retries:40 [ faulty ] in
  let ids = List.init 30 (fun i -> (i, Store.put store (blob i))) in
  List.iter
    (fun (i, id) ->
      match Store.get store id with
      | Some c ->
        check bool_ "payload intact" true
          (String.equal c.Chunk.payload (Printf.sprintf "payload %d" i))
      | None -> Alcotest.fail "retried read lost a chunk")
    ids;
  check bool_ "faults happened" true
    (fc.Faulty_store.transient_reads > 0 && fc.Faulty_store.transient_puts > 0);
  let cs = Cluster_store.cluster_stats c in
  check int_ "no read gave up" 0 cs.Cluster_store.unavailable;
  check int_ "no put gave up" 0 cs.Cluster_store.under_replicated;
  Cluster_store.close c

(* Bit flips on the read path are rejected and never served; the clean
   replica answers instead.  Three seeds, per the acceptance bar. *)
let test_bit_flips_never_served () =
  List.iter
    (fun seed ->
      let faulty, _ =
        Faulty_store.wrap
          { Faulty_store.calm with seed; bit_flip_p = 0.3 }
          (Mem_store.create ())
      in
      let c, store = cluster [ faulty; Mem_store.create () ] in
      let ids = List.init 40 (fun i -> (i, Store.put store (blob i))) in
      List.iter
        (fun (i, id) ->
          match store.Store.get_raw id with
          | Some raw ->
            check bool_ "served bytes hash to id" true
              (Hash.equal (Hash.of_string raw) id);
            check bool_ "payload intact" true
              (match Chunk.decode raw with
               | Ok c ->
                 String.equal c.Chunk.payload (Printf.sprintf "payload %d" i)
               | Error _ -> false)
          | None -> Alcotest.fail "flip-rejected read not recovered")
        ids;
      check bool_ "flips were caught" true
        ((Cluster_store.cluster_stats c).Cluster_store.rejected > 0);
      Cluster_store.close c)
    [ 1L; 2L; 3L ]

let test_read_repair_from_replica () =
  let a, ha = Mem_store.create_with_handle () in
  let b, hb = Mem_store.create_with_handle () in
  let c, store = cluster [ a; b ] in
  let id = Store.put store (Chunk.v Chunk.Leaf_blob "precious") in
  (* Damage the copy the cluster reads first. *)
  let primary, handle =
    if List.hd (Cluster_store.owners c id) = "m0" then (a, ha) else (b, hb)
  in
  check bool_ "tampered" true (Mem_store.tamper handle id ~f:(fun s -> "X" ^ s));
  (match Store.get store id with
   | Some c' -> check bool_ "served from replica" true
       (String.equal c'.Chunk.payload "precious")
   | None -> Alcotest.fail "replica fallback failed");
  let stats () = Cluster_store.cluster_stats c in
  check int_ "fallbacks" 1 (stats ()).Cluster_store.failover_reads;
  check int_ "heals" 1 (stats ()).Cluster_store.repaired;
  (* The primary now holds healthy bytes again: the next read is local. *)
  (match primary.Store.get_raw id with
   | Some raw ->
     check bool_ "primary healed" true (Hash.equal (Hash.of_string raw) id)
   | None -> Alcotest.fail "healed chunk missing from primary");
  ignore (Store.get store id);
  check int_ "no second fallback" 1 (stats ()).Cluster_store.failover_reads;
  Cluster_store.close c

let test_torn_write_recovery () =
  let cfg = { Faulty_store.calm with seed = 7L; torn_write_p = 1.0 } in
  (* With a replica: its copy holds the healthy bytes, reads fall back
     and stay correct. *)
  let faulty, fc = Faulty_store.wrap cfg (Mem_store.create ()) in
  let c, store = cluster [ faulty; Mem_store.create () ] in
  let chunk = Chunk.v Chunk.Leaf_blob "torn victim" in
  let id = Store.put store chunk in
  check int_ "write tore" 1 fc.Faulty_store.torn_writes;
  (match Store.get store id with
   | Some c' ->
     check bool_ "correct via replica" true
       (String.equal c'.Chunk.payload "torn victim")
   | None -> Alcotest.fail "torn chunk not recovered");
  Cluster_store.close c;
  (* Without a replica: the damage is surfaced as absence, never served. *)
  let faulty2, _ = Faulty_store.wrap cfg (Mem_store.create ()) in
  let c2, store2 = cluster [ faulty2 ] in
  let id2 = Store.put store2 chunk in
  check bool_ "unrecoverable torn read is None" true
    (Store.get store2 id2 = None);
  check bool_ "counted rejected" true
    ((Cluster_store.cluster_stats c2).Cluster_store.rejected >= 1);
  Cluster_store.close c2

(* A torn append keeps the declared length but the tail is garbage — the
   power-cut shape at the end of an append-only log.  Deterministic under
   the seed; re-put does not repair (name taken). *)
let test_torn_append_garbage_tail () =
  let cfg = { Faulty_store.calm with seed = 11L; torn_append_p = 1.0 } in
  let run () =
    let faulty, fc = Faulty_store.wrap cfg (Mem_store.create ()) in
    let c = Chunk.v Chunk.Leaf_blob "append victim" in
    let id = Store.put faulty c in
    (faulty, fc, c, id)
  in
  let faulty, fc, c, id = run () in
  let encoded = Chunk.encode c in
  check int_ "append tore" 1 fc.Faulty_store.torn_appends;
  check bool_ "mem sees torn append" true (Store.mem faulty id);
  (match Store.peek faulty id with
   | Some raw ->
     check int_ "full length survives" (String.length encoded)
       (String.length raw);
     check bool_ "tail is garbage" false (Hash.equal (Hash.of_string raw) id)
   | None -> Alcotest.fail "peek should see the torn append");
  (* Content-addressed re-put sees the name taken and skips the write. *)
  ignore (Store.put faulty c);
  (match Store.peek faulty id with
   | Some raw ->
     check bool_ "still garbled after re-put" false
       (Hash.equal (Hash.of_string raw) id)
   | None -> Alcotest.fail "torn append vanished");
  (* Same seed, same op sequence: byte-identical damage. *)
  let faulty2, fc2, _, id2 = run () in
  check bool_ "same id" true (Hash.equal id id2);
  check int_ "deterministic count" fc.Faulty_store.torn_appends
    fc2.Faulty_store.torn_appends;
  (match (Store.peek faulty id, Store.peek faulty2 id2) with
   | Some a, Some b ->
     check bool_ "deterministic garbage" true (String.equal a b)
   | _ -> Alcotest.fail "torn bytes missing");
  (* With no other copy the damage surfaces as absence, never as wrong
     bytes. *)
  let faulty3, _ = Faulty_store.wrap cfg (Mem_store.create ()) in
  let c3, store3 = cluster [ faulty3 ] in
  let id3 = Store.put store3 c in
  check bool_ "unrecoverable garbled read is None" true
    (Store.get store3 id3 = None);
  check bool_ "counted rejected" true
    ((Cluster_store.cluster_stats c3).Cluster_store.rejected >= 1);
  Cluster_store.close c3

(* ---------------- typed surfacing at the API ---------------- *)

let test_api_surfaces_transient () =
  let faulty, _ =
    Faulty_store.wrap
      { Faulty_store.calm with seed = 5L; transient_read_p = 1.0 }
      (Mem_store.create ())
  in
  let c, store = cluster ~max_retries:0 [ faulty ] in
  Fun.protect ~finally:(fun () -> Cluster_store.close c) @@ fun () ->
  let fb = FB.create store in
  (* Every read fails and retries are off: whichever operation first
     touches the store must surface the typed error, never raise. *)
  match FB.put fb ~key:"k" (Value.string "v") with
  | Error (Errors.Transient _) -> ()
  | Error e -> Alcotest.fail ("wrong error: " ^ Errors.to_string e)
  | Ok _ -> (
    match FB.get fb ~key:"k" with
    | Error (Errors.Transient _) -> ()
    | Error e -> Alcotest.fail ("wrong error: " ^ Errors.to_string e)
    | Ok _ -> Alcotest.fail "read succeeded with every read failing")

(* Full API over a fault-injecting stack: seeds x fault kinds.  Every
   operation either succeeds with exactly the value written or returns a
   typed storage error. *)
let test_api_fault_matrix () =
  let kinds =
    [ ("transient",
       fun seed ->
         { Faulty_store.calm with seed; transient_read_p = 0.3;
           transient_put_p = 0.2 });
      ("bitflip",
       fun seed -> { Faulty_store.calm with seed; bit_flip_p = 0.25 });
      ("torn", fun seed -> { Faulty_store.calm with seed; torn_write_p = 0.3 });
      ("torn-append",
       fun seed -> { Faulty_store.calm with seed; torn_append_p = 0.3 });
      ("mixed",
       fun seed ->
         { Faulty_store.calm with seed; transient_read_p = 0.15;
           transient_put_p = 0.1; bit_flip_p = 0.1; torn_write_p = 0.1;
           torn_append_p = 0.1 }) ]
  in
  List.iter
    (fun seed ->
      List.iter
        (fun (kind, cfg) ->
          let ctx op = Printf.sprintf "%s seed=%Ld %s" kind seed op in
          let faulty, _ = Faulty_store.wrap (cfg seed) (Mem_store.create ()) in
          let replica = Mem_store.create () in
          let c, store = cluster ~max_retries:8 [ faulty; replica ] in
          let fb = FB.create store in
          let expected : (string, string) Hashtbl.t = Hashtbl.create 8 in
          let typed_or op = function
            | Ok _ -> ()
            | Error (Errors.Transient _ | Errors.Corrupt _) -> ()
            | Error e ->
              Alcotest.fail (ctx op ^ ": untyped error " ^ Errors.to_string e)
          in
          for i = 0 to 39 do
            let key = Printf.sprintf "k%d" (i mod 5) in
            let v = Printf.sprintf "v%d-%Ld-%s" i seed kind in
            match FB.put fb ~key (Value.string v) with
            | Ok _ -> Hashtbl.replace expected key v
            | Error (Errors.Transient _ | Errors.Corrupt _) -> ()
            | Error e ->
              Alcotest.fail (ctx "put" ^ ": " ^ Errors.to_string e)
          done;
          (* Reads: correct value or typed error — never wrong data. *)
          Hashtbl.iter
            (fun key v ->
              match FB.get fb ~key with
              | Ok got ->
                check bool_ (ctx ("get " ^ key)) true
                  (Value.equal got (Value.string v))
              | Error (Errors.Transient _ | Errors.Corrupt _) -> ()
              | Error e ->
                Alcotest.fail (ctx "get" ^ ": " ^ Errors.to_string e))
            expected;
          (* The rest of the surface must stay typed under faults too. *)
          typed_or "log" (FB.log fb ~key:"k0");
          typed_or "fork" (FB.fork fb ~key:"k0" ~new_branch:"side");
          typed_or "head" (FB.head fb ~key:"k0");
          (* Scrub the faulty member against the replica, then every key
             must read back correctly (the replica holds every
             acknowledged chunk).  Scrub runs per member: through the
             cluster, quarantining a damaged copy would delete the
             replica's healthy one with it.  A transient fault may cut
             the scrub short; the reads must not depend on it. *)
          (try ignore (Scrub.run ~replica faulty) with Store.Transient _ -> ());
          Hashtbl.iter
            (fun key v ->
              match FB.get fb ~key with
              | Ok got ->
                check bool_ (ctx ("post-scrub get " ^ key)) true
                  (Value.equal got (Value.string v))
              | Error (Errors.Transient _) -> ()
              | Error e ->
                Alcotest.fail (ctx "post-scrub get" ^ ": " ^ Errors.to_string e))
            expected;
          Cluster_store.close c)
        kinds)
    [ 101L; 202L; 303L ]

(* ---------------- scrub ---------------- *)

let corrupt_file dir id ~f =
  let hex = Hash.to_hex id in
  let path =
    Filename.concat
      (Filename.concat dir (String.sub hex 0 2))
      (String.sub hex 2 (String.length hex - 2))
  in
  let ic = open_in_bin path in
  let raw =
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc (f raw))

let flip_byte raw =
  let b = Bytes.of_string raw in
  Bytes.set b (Bytes.length b / 2)
    (Char.chr (Char.code (Bytes.get b (Bytes.length b / 2)) lxor 0xff));
  Bytes.to_string b

let truncate_half raw = String.sub raw 0 (String.length raw / 2)

let test_scrub_finds_and_repairs () =
  with_temp_dir (fun dir ->
      let store = File_store.create ~root:dir () in
      let replica = Mem_store.create () in
      let ids =
        List.init 8 (fun i ->
            ignore (Store.put replica (blob i));
            Store.put store (blob i))
      in
      let bad0 = List.nth ids 0 and bad1 = List.nth ids 1 in
      corrupt_file dir bad0 ~f:flip_byte;
      corrupt_file dir bad1 ~f:truncate_half;
      (* Dry run: report only, nothing deleted. *)
      let dry = Scrub.run ~replica ~dry_run:true store in
      check int_ "dry corrupt" 2 (List.length dry.Scrub.corrupt);
      check int_ "dry quarantined" 0 dry.Scrub.quarantined;
      check int_ "dry repaired" 0 dry.Scrub.repaired;
      check bool_ "dry not clean" false (Scrub.clean dry);
      (* Real run: 100% of the damage found, quarantined, repaired. *)
      let seen = ref [] in
      let report =
        Scrub.run ~replica
          ~quarantine:(fun id raw -> seen := (id, raw) :: !seen)
          store
      in
      check int_ "scanned" 8 report.Scrub.scanned;
      check int_ "corrupt" 2 (List.length report.Scrub.corrupt);
      check int_ "quarantined" 2 report.Scrub.quarantined;
      check int_ "repaired" 2 report.Scrub.repaired;
      check int_ "unrepaired" 0 (List.length report.Scrub.unrepaired);
      check int_ "quarantine callback" 2 (List.length !seen);
      check bool_ "quarantined bytes are the damaged ones" true
        (List.for_all
           (fun (id, raw) -> not (Hash.equal (Hash.of_string raw) id))
           !seen);
      (* Repaired in place: every chunk healthy again, re-scrub clean. *)
      List.iter
        (fun id ->
          match store.Store.get_raw id with
          | Some raw ->
            check bool_ "healed" true (Hash.equal (Hash.of_string raw) id)
          | None -> Alcotest.fail "repaired chunk missing")
        ids;
      check bool_ "re-scrub clean" true (Scrub.clean (Scrub.run ~replica store)))

let test_scrub_without_replica_quarantines () =
  with_temp_dir (fun dir ->
      let store = File_store.create ~root:dir () in
      let ids = List.init 4 (fun i -> Store.put store (blob i)) in
      let bad = List.nth ids 2 in
      corrupt_file dir bad ~f:flip_byte;
      let report = Scrub.run store in
      check int_ "corrupt" 1 (List.length report.Scrub.corrupt);
      check int_ "quarantined" 1 report.Scrub.quarantined;
      check int_ "repaired" 0 report.Scrub.repaired;
      check int_ "unrepaired" 1 (List.length report.Scrub.unrepaired);
      (* Damage never served again: the chunk is simply gone now. *)
      check bool_ "quarantined chunk gone" false (Store.mem store bad);
      let again = Scrub.run store in
      check int_ "physically clean now" 0 (List.length again.Scrub.corrupt))

let test_scrub_reachability () =
  with_temp_dir (fun dir ->
      let store = File_store.create ~root:dir () in
      let fb = FB.create store in
      (match FB.put fb ~key:"doc" (Value.string "v1") with
       | Ok _ -> ()
       | Error e -> Alcotest.fail (Errors.to_string e));
      let uid =
        match FB.head fb ~key:"doc" with
        | Ok uid -> uid
        | Error e -> Alcotest.fail (Errors.to_string e)
      in
      (* Mirror everything, then damage the head FNode's chunk file. *)
      let replica = Mem_store.create () in
      store.Store.iter (fun _ raw ->
          match Chunk.decode raw with
          | Ok c -> ignore (Store.put replica c)
          | Error _ -> ());
      corrupt_file dir uid ~f:flip_byte;
      (* Without a replica the reachable chunk is reported missing. *)
      let dry = FB.scrub ~dry_run:true fb in
      check int_ "corrupt found" 1 (List.length dry.Scrub.corrupt);
      check bool_ "reachable damage reported" true
        (List.exists (fun (_, child) -> Hash.equal child uid) dry.Scrub.missing);
      (* With the replica the same pass repairs it and the API recovers. *)
      let report = FB.scrub ~replica fb in
      check int_ "repaired" 1 report.Scrub.repaired;
      check bool_ "clean" true (Scrub.clean report);
      match FB.get fb ~key:"doc" with
      | Ok v -> check bool_ "value restored" true (Value.equal v (Value.string "v1"))
      | Error e -> Alcotest.fail (Errors.to_string e))

(* Crash -> torn overlay -> scrub quarantines and repairs, end to end. *)
let test_crash_then_scrub () =
  let base = Mem_store.create () in
  let faulty, _ =
    Faulty_store.wrap { Faulty_store.calm with seed = 13L; crash_on_put = Some 2 }
      base
  in
  let replica = Mem_store.create () in
  ignore (Store.put replica (blob 0));
  ignore (Store.put replica (blob 1));
  ignore (Store.put faulty (blob 0));
  (try ignore (Store.put faulty (blob 1)) with Faulty_store.Crash -> ());
  let torn_id = Hash.of_string (Chunk.encode (blob 1)) in
  let report = Scrub.run ~replica faulty in
  check int_ "corrupt" 1 (List.length report.Scrub.corrupt);
  check int_ "repaired" 1 report.Scrub.repaired;
  (match Store.get faulty torn_id with
   | Some c -> check bool_ "restored" true (String.equal c.Chunk.payload "payload 1")
   | None -> Alcotest.fail "torn chunk not restored");
  check bool_ "re-scrub clean" true (Scrub.clean (Scrub.run ~replica faulty))

(* ---------------- crash recovery on reopen ---------------- *)

let test_tmp_cleanup_on_reopen () =
  with_temp_dir (fun dir ->
      let store = File_store.create ~root:dir () in
      let id = Store.put store (blob 0) in
      (* Fake a crash artifact next to a real chunk. *)
      let shard = Filename.concat dir (String.sub (Hash.to_hex id) 0 2) in
      let stray = Filename.concat shard "cafe.tmp" in
      let oc = open_out_bin stray in
      output_string oc "half-written";
      close_out oc;
      let store2 = File_store.create ~root:dir () in
      check bool_ "tmp removed" false (Sys.file_exists stray);
      check bool_ "real chunk survives" true (Store.mem store2 id);
      check int_ "stats exclude artifact" 1
        (Store.stats store2).Store.physical_chunks)

let test_fsync_store_roundtrip () =
  with_temp_dir (fun dir ->
      let store = File_store.create ~fsync:true ~root:dir () in
      let id = Store.put store (blob 0) in
      match Store.get store id with
      | Some c -> check bool_ "fsync path intact" true
          (String.equal c.Chunk.payload "payload 0")
      | None -> Alcotest.fail "fsynced chunk unreadable")

(* ---------------- satellite regressions ---------------- *)

let test_delete_stats_clamp () =
  (* Memory store: delete/put/delete never drives counters negative. *)
  let mem = Mem_store.create () in
  let id = Store.put mem (blob 0) in
  check bool_ "del" true (mem.Store.delete id);
  check bool_ "del again" false (mem.Store.delete id);
  let s = Store.stats mem in
  check int_ "mem chunks floor" 0 s.Store.physical_chunks;
  check int_ "mem bytes floor" 0 s.Store.physical_bytes;
  ignore (Store.put mem (blob 0));
  check bool_ "del after re-put" true (mem.Store.delete id);
  check int_ "mem still zero" 0 (Store.stats mem).Store.physical_chunks;
  (* File store: a second instance on the same root deletes a chunk its
     own session counters never saw. *)
  with_temp_dir (fun dir ->
      let s2 = File_store.create ~root:dir () in
      (* opened on empty root *)
      let s1 = File_store.create ~root:dir () in
      let id = Store.put s1 (blob 1) in
      check bool_ "cross-instance delete" true (s2.Store.delete id);
      let st = Store.stats s2 in
      check int_ "file chunks clamped" 0 st.Store.physical_chunks;
      check int_ "file bytes clamped" 0 st.Store.physical_bytes)

let test_gc_marking_not_counted_as_gets () =
  let store = Mem_store.create () in
  let fb = FB.create store in
  List.iter
    (fun i ->
      match FB.put fb ~key:(Printf.sprintf "k%d" i) (Value.string "x") with
      | Ok _ -> ()
      | Error e -> Alcotest.fail (Errors.to_string e))
    [ 0; 1; 2 ];
  let before = (Store.stats store).Store.gets in
  ignore (FB.gc fb);
  check int_ "gc marking does not inflate gets" before
    (Store.stats store).Store.gets

let test_verified_mem_checks () =
  let inner, handle = Mem_store.create_with_handle () in
  let store, v = Verified_store.wrap inner in
  let id = Store.put store (blob 0) in
  check bool_ "mem before tamper" true (Store.mem store id);
  check bool_ "tampered" true (Mem_store.tamper handle id ~f:(fun s -> s ^ "!"));
  check bool_ "mem refuses tampered chunk" false (Store.mem store id);
  check bool_ "violation recorded" true (v.Verified_store.rejected_reads > 0);
  check bool_ "offender" true
    (match v.Verified_store.last_offender with
     | Some o -> Hash.equal o id
     | None -> false)

let test_persistent_crash_recovery () =
  (* File engine specifically: the crash artifact is a torn per-chunk tmp
     file; the log engine's recovery is exercised in test_log.ml. *)
  with_temp_dir (fun dir ->
      (match
         Fb_core.Persistent.with_instance ~backend:"file" ~root:dir (fun i ->
             FB.put i.Fb_core.Persistent.fb ~key:"k" (Value.string "v"))
       with
       | Ok _ -> ()
       | Error e -> Alcotest.fail (Errors.to_string e));
      (* Crash artifact in the chunk tree; reopening recovers. *)
      let shard = Filename.concat (Filename.concat dir "chunks") "00" in
      (try Unix.mkdir shard 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
      let stray = Filename.concat shard "dead.tmp" in
      let oc = open_out_bin stray in
      output_string oc "torn";
      close_out oc;
      Tutil.with_fb ~fsync:true ~root:dir (fun fb2 ->
          check bool_ "artifact removed" false (Sys.file_exists stray);
          match FB.get fb2 ~key:"k" with
          | Ok v -> check bool_ "data intact" true (Value.equal v (Value.string "v"))
          | Error e -> Alcotest.fail (Errors.to_string e)))

let test_service_fsck_verbs () =
  let store = Mem_store.create () in
  let fb = FB.create store in
  (match FB.put fb ~key:"k" (Value.string "v") with
   | Ok _ -> ()
   | Error e -> Alcotest.fail (Errors.to_string e));
  let reply = Fb_core.Service.handle fb "fsck" in
  check bool_ "fsck ok" true (Tutil.contains reply "OK");
  check bool_ "fsck reports scan" true (Tutil.contains reply "corrupt");
  let reply = Fb_core.Service.handle fb "scrub" in
  check bool_ "scrub ok" true (Tutil.contains reply "OK")

(* ---------------- backoff caps ---------------- *)

let test_backoff_duration () =
  let d = Cluster_store.backoff_duration in
  (* Base schedule, no jitter: backoff_s * 2^attempt * 0.5. *)
  check (Alcotest.float 1e-9) "attempt 0" 0.005
    (d ~backoff_s:0.01 ~jitter:0.0 0);
  check (Alcotest.float 1e-9) "attempt 3" 0.04 (d ~backoff_s:0.01 ~jitter:0.0 3);
  (* Jitter scales into [0.5x, 1.5x). *)
  check (Alcotest.float 1e-9) "full jitter" 0.015
    (d ~backoff_s:0.01 ~jitter:1.0 0);
  (* Per-sleep cap: big attempts land exactly on max_backoff_s... *)
  check (Alcotest.float 1e-9) "default cap" 1.0 (d ~backoff_s:0.01 ~jitter:0.5 20);
  check (Alcotest.float 1e-9) "custom cap" 0.25
    (d ~max_backoff_s:0.25 ~backoff_s:0.01 ~jitter:0.5 20);
  (* ...and the exponent cap keeps huge attempt counts finite (the old
     unbounded shift overflowed past attempt 62). *)
  let big = d ~max_backoff_s:infinity ~backoff_s:0.01 ~jitter:0.0 1000 in
  check bool_ "no overflow" true (Float.is_finite big && big > 0.0);
  check (Alcotest.float 1e-9) "exponent capped" big
    (d ~max_backoff_s:infinity ~backoff_s:0.01 ~jitter:0.0 17);
  (* Monotone in attempt up to the caps. *)
  let prev = ref 0.0 in
  for a = 0 to 30 do
    let v = d ~backoff_s:0.001 ~jitter:0.25 a in
    check bool_ "monotone" true (v >= !prev);
    prev := v
  done

let suite =
  [ Alcotest.test_case "faulty: deterministic under a seed" `Quick
      test_faulty_determinism;
    Alcotest.test_case "faulty: crash tears the in-flight put" `Quick
      test_faulty_crash_trigger;
    Alcotest.test_case "resilient: retries absorb transients" `Quick
      test_retry_absorbs_transients;
    Alcotest.test_case "resilient: bit flips never served (3 seeds)" `Quick
      test_bit_flips_never_served;
    Alcotest.test_case "resilient: read repair from replica" `Quick
      test_read_repair_from_replica;
    Alcotest.test_case "resilient: torn writes recovered or surfaced" `Quick
      test_torn_write_recovery;
    Alcotest.test_case "faulty: torn append garbles the tail" `Quick
      test_torn_append_garbage_tail;
    Alcotest.test_case "api: transient surfaces as typed error" `Quick
      test_api_surfaces_transient;
    Alcotest.test_case "api: fault matrix, seeds x kinds" `Quick
      test_api_fault_matrix;
    Alcotest.test_case "scrub: finds, quarantines, repairs all damage" `Quick
      test_scrub_finds_and_repairs;
    Alcotest.test_case "scrub: quarantine without replica" `Quick
      test_scrub_without_replica_quarantines;
    Alcotest.test_case "scrub: reachable damage reported and repaired" `Quick
      test_scrub_reachability;
    Alcotest.test_case "scrub: crash artifact healed from replica" `Quick
      test_crash_then_scrub;
    Alcotest.test_case "file store: tmp cleanup on reopen" `Quick
      test_tmp_cleanup_on_reopen;
    Alcotest.test_case "backoff: duration caps and overflow" `Quick
      test_backoff_duration;
    Alcotest.test_case "file store: fsync write path" `Quick
      test_fsync_store_roundtrip;
    Alcotest.test_case "stats: delete clamps at zero" `Quick
      test_delete_stats_clamp;
    Alcotest.test_case "gc: marking does not inflate gets" `Quick
      test_gc_marking_not_counted_as_gets;
    Alcotest.test_case "verified: mem answers via checked path" `Quick
      test_verified_mem_checks;
    Alcotest.test_case "persistent: crash recovery on open" `Quick
      test_persistent_crash_recovery;
    Alcotest.test_case "service: fsck and scrub verbs" `Quick
      test_service_fsck_verbs ]
