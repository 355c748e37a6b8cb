(* Log_store: the crash-consistent append-only pack log.

   The centerpiece is a power-cut simulator: build a reference log with a
   known acknowledgment boundary, then replay recovery at EVERY byte
   offset — the file truncated there (a short write) and the file garbled
   from there (tail sectors that never made it).  At each point the
   recovered store must hold exactly the maximal sealed-record prefix: no
   acknowledged chunk lost, no torn record served. *)

module Log_store = Fb_chunk.Log_store
module Store = Fb_chunk.Store
module Chunk = Fb_chunk.Chunk
module Scrub = Fb_chunk.Scrub
module Hash = Fb_hash.Hash
module FB = Fb_core.Forkbase
module Persistent = Fb_core.Persistent
module Errors = Fb_core.Errors
module Value = Fb_types.Value

let check = Alcotest.check
let bool_ = Alcotest.bool
let int_ = Alcotest.int

let with_temp_dir f =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "fb_log_%d_%d" (Unix.getpid ()) (Random.bits ()))
  in
  Fun.protect
    ~finally:(fun () -> ignore (Sys.command ("rm -rf " ^ Filename.quote dir)))
    (fun () -> f dir)

(* Recovery semantics do not depend on fsync actually reaching the
   platters; keep the matrix fast. *)
let quick_config = { Log_store.default_config with fsync = false }

let blob i = Chunk.v Chunk.Leaf_blob (Printf.sprintf "log payload %d" i)
let blob_id i = Hash.of_string (Chunk.encode (blob i))

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path data =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc data)

let live_ids store =
  let acc = ref [] in
  store.Store.iter (fun id _ -> acc := id :: !acc);
  List.sort_uniq Hash.compare !acc

(* ------------------------- one instance per root ------------------------- *)

(* A second open of a held root — under any spelling of its path — is
   refused with the root's name before recovery touches anything on disk;
   after [close] the root opens again. *)
let test_root_held_in_process () =
  with_temp_dir (fun dir ->
      let h = Log_store.create ~config:quick_config ~root:dir () in
      ignore (Store.put (Log_store.store h) (blob 0));
      let stray = Filename.concat dir "crash.tmp" in
      write_file stray "torn";
      List.iter
        (fun root ->
          match Log_store.create ~config:quick_config ~root () with
          | r ->
            Log_store.close r;
            Alcotest.fail "second open allowed"
          | exception Log_store.Root_in_use named ->
            check Alcotest.string "names the root" root named)
        [ dir; Filename.concat dir "." ];
      check bool_ "stray left alone" true (Sys.file_exists stray);
      Log_store.close h;
      let r = Log_store.create ~config:quick_config ~root:dir () in
      check bool_ "reopens after close" true
        (Option.is_some (Store.get (Log_store.store r) (blob_id 0)));
      Log_store.close r)

(* ------------------------- basics ------------------------- *)

let test_roundtrip_reopen () =
  with_temp_dir (fun dir ->
      let h = Log_store.create ~config:quick_config ~root:dir () in
      let s = Log_store.store h in
      let ids = List.init 20 (fun i -> (i, Store.put s (blob i))) in
      (* Tombstone a few, including a re-put that must dedup. *)
      check bool_ "delete" true (Store.delete s (blob_id 3));
      check bool_ "delete" true (Store.delete s (blob_id 7));
      check bool_ "delete absent is false" false (Store.delete s (blob_id 3));
      ignore (Store.put s (blob 0));
      check int_ "dedup hit" 1 (Store.stats s).Store.dedup_hits;
      Log_store.close h;
      let h2 = Log_store.create ~config:quick_config ~root:dir () in
      let s2 = Log_store.store h2 in
      (* Close checkpointed the full prefix: nothing left to replay. *)
      check int_ "no tail replay after clean close" 0
        (Log_store.counters h2).Log_store.replayed_records;
      List.iter
        (fun (i, id) ->
          if i = 3 || i = 7 then
            check bool_ "tombstoned stays dead" false (Store.mem s2 id)
          else
            match Store.get s2 id with
            | Some c ->
              check bool_ "payload intact" true
                (String.equal c.Chunk.payload (Printf.sprintf "log payload %d" i))
            | None -> Alcotest.fail "chunk lost across reopen")
        ids;
      check int_ "live count" 18 (Log_store.live_chunks h2);
      Log_store.close h2)

let test_full_replay_without_idx () =
  with_temp_dir (fun dir ->
      let h = Log_store.create ~config:quick_config ~root:dir () in
      let s = Log_store.store h in
      ignore (Store.put s (blob 1));
      ignore (Store.put s (blob 2));
      ignore (Store.delete s (blob_id 1));
      Log_store.close h;
      (* Without the checkpoint the whole log replays — same state. *)
      Sys.remove (Filename.concat dir "gen-0.idx");
      let h2 = Log_store.create ~config:quick_config ~root:dir () in
      let s2 = Log_store.store h2 in
      check int_ "all records replayed" 3
        (Log_store.counters h2).Log_store.replayed_records;
      check bool_ "tombstone replayed" false (Store.mem s2 (blob_id 1));
      check bool_ "live replayed" true (Store.mem s2 (blob_id 2));
      Log_store.close h2)

let test_group_commit () =
  with_temp_dir (fun dir ->
      let config =
        { quick_config with group_chunks = 4; group_window_s = 3600.0 }
      in
      let h = Log_store.create ~config ~root:dir () in
      let s = Log_store.store h in
      for i = 0 to 2 do
        ignore (Store.put s (blob i))
      done;
      (* Three appends: under the group size, nothing flushed yet. *)
      check int_ "no flush below group size" 0
        (Log_store.counters h).Log_store.flushes;
      check bool_ "unsynced tail exists" true
        (Log_store.synced_bytes h < Log_store.file_bytes h);
      ignore (Store.put s (blob 3));
      check int_ "group boundary flushes" 1
        (Log_store.counters h).Log_store.flushes;
      check int_ "ack boundary caught up" (Log_store.file_bytes h)
        (Log_store.synced_bytes h);
      ignore (Store.put s (blob 4));
      Log_store.sync h;
      check int_ "explicit sync flushes" 2
        (Log_store.counters h).Log_store.flushes;
      Log_store.close h)

(* ------------------------- the power-cut matrix ------------------------- *)

(* Parse the sealed records of a generation file: (end_offset, kind, id)
   per record, computed independently of the store's own replay. *)
let parse_records bytes =
  let header_size = 16 in
  let rec_head = 37 in
  let u32 s pos = Int32.to_int (String.get_int32_be s pos) land 0xFFFFFFFF in
  let rec go pos acc =
    if pos + rec_head + 4 > String.length bytes then List.rev acc
    else
      let kind = Char.code bytes.[pos] in
      let len = u32 bytes (pos + 1) in
      let stop = pos + rec_head + len + 4 in
      if stop > String.length bytes then List.rev acc
      else
        let id = Hash.of_raw_exn (String.sub bytes (pos + 5) 32) in
        go stop ((stop, kind, id) :: acc)
  in
  go header_size []

(* The live set a correct recovery reaches when every sealed record
   ending at or before [cut] survives and nothing after it does. *)
let expected_live records cut =
  List.fold_left
    (fun acc (stop, kind, id) ->
      if stop > cut then acc
      else if kind = 0 then id :: List.filter (fun x -> not (Hash.equal x id)) acc
      else List.filter (fun x -> not (Hash.equal x id)) acc)
    [] records
  |> List.sort_uniq Hash.compare

(* Deterministic garbage that always differs from the byte it replaces:
   a power cut that left stale sectors, not a no-op. *)
let garble bytes cut =
  let b = Bytes.of_string bytes in
  for i = cut to Bytes.length b - 1 do
    Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0xA5))
  done;
  Bytes.to_string b

let test_power_cut_matrix () =
  with_temp_dir (fun dir ->
      let src = Filename.concat dir "src" in
      let h = Log_store.create ~config:quick_config ~root:src () in
      let s = Log_store.store h in
      (* Acknowledged prefix: five puts and a delete, then a sync. *)
      for i = 0 to 4 do
        ignore (Store.put s (blob i))
      done;
      ignore (Store.delete s (blob_id 1));
      Log_store.sync h;
      let ack = Log_store.synced_bytes h in
      let acked = live_ids s in
      (* Unacknowledged tail: three more puts, NO sync, no close. *)
      for i = 5 to 7 do
        ignore (Store.put s (blob i))
      done;
      let bytes = read_file (Log_store.log_path h) in
      check int_ "file holds the full tail" (String.length bytes)
        (Log_store.file_bytes h);
      let records = parse_records bytes in
      check int_ "reference parse sees every record" 9 (List.length records);
      (* The simulated crash: [h] is abandoned, never closed. *)
      let header_size = 16 in
      let rig = Filename.concat dir "rig" in
      let cases = ref 0 in
      for cut = 0 to String.length bytes do
        List.iter
          (fun (variant, data) ->
            incr cases;
            let ctx what =
              Printf.sprintf "%s cut=%d %s" variant cut what
            in
            ignore (Sys.command ("rm -rf " ^ Filename.quote rig));
            Unix.mkdir rig 0o755;
            write_file (Filename.concat rig "gen-0.log") data;
            write_file (Filename.concat rig "CURRENT") "0\n";
            match Log_store.create ~config:quick_config ~root:rig () with
            | exception Failure _
              when String.equal variant "tear" && cut < header_size ->
              (* The header was fsynced before anything was acknowledged,
                 so a full-size file with garbled magic is media damage,
                 not a crash shape — refusing it (rather than silently
                 re-initializing) is the correct recovery. *)
              ()
            | r ->
            let rs = Log_store.store r in
            let expected =
              if cut < header_size then [] else expected_live records cut
            in
            let got = live_ids rs in
            check int_ (ctx "live count") (List.length expected)
              (List.length got);
            check bool_ (ctx "live set exact") true
              (List.for_all2 Hash.equal expected got);
            (* No torn record surfaced: every served read re-hashes. *)
            List.iter
              (fun id ->
                match rs.Store.get_raw id with
                | Some raw ->
                  check bool_ (ctx "read hashes to id") true
                    (Hash.equal (Hash.of_string raw) id)
                | None -> Alcotest.fail (ctx "live chunk unreadable"))
              got;
            (* No acknowledged chunk lost once the cut spares the synced
               prefix. *)
            if cut >= ack then
              List.iter
                (fun id ->
                  if not (Store.mem rs id) then
                    Alcotest.fail (ctx "acknowledged chunk lost"))
                acked;
            (* The torn tail was physically dropped: a second open has
               nothing left to repair. *)
            let stop = Log_store.file_bytes r in
            check bool_ (ctx "no torn bytes retained") true
              (stop
              = List.fold_left
                  (fun acc (e, _, _) -> if e <= cut then max acc e else acc)
                  header_size records
              || cut < header_size);
            Log_store.close r;
            let r2 = Log_store.create ~config:quick_config ~root:rig () in
            check int_ (ctx "recovery is stable") 0
              (Log_store.counters r2).Log_store.truncated_bytes;
            Log_store.close r2)
          [ ("truncate", String.sub bytes 0 cut);
            ("tear", if cut < String.length bytes then garble bytes cut else bytes) ]
      done;
      check bool_ "matrix covered both variants at every offset" true
        (!cases = 2 * (String.length bytes + 1)))

(* Heads as a sorted, comparable list. *)
let norm_refs refs =
  List.sort compare (List.map (fun (t, k, b, u) -> (t, k, b, Hash.to_hex u)) refs)

(* A damaged checkpoint never changes what recovery reaches.  The source
   root holds a base, four deltas (chunks, tombstones and head moves) and
   a log tail past the last of them.  Every cut of the base falls back to
   a full replay; every cut of the delta file keeps the deltas wholly
   before it and replays the log from the last one's covered offset.
   Either way the live set and heads are the full replay's, and the root
   reopens after a close with nothing to replay: the delta appended at
   close chains to what survived. *)
let test_idx_cut_matrix () =
  with_temp_dir (fun dir ->
      let config =
        { quick_config with checkpoint_bytes = 1; group_chunks = 1000;
                            group_window_s = 3600.0 }
      in
      let h = Log_store.create ~config ~root:(Filename.concat dir "src") () in
      let s = Log_store.store h in
      let records = ref 0 in
      let put i = ignore (Store.put s (blob i)); incr records in
      let del i = ignore (Store.delete s (blob_id i)); incr records in
      let move key i =
        let old =
          List.find_map (fun (_, k, _, u) -> if k = key then Some u else None)
            (Log_store.refs h)
        in
        Log_store.append_ref h Log_store.Branches ~key ~branch:"master" ~old
          (Option.map blob_id i) ();
        incr records
      in
      for i = 0 to 4 do put i done;
      move "a" (Some 1);
      Log_store.checkpoint h;
      let base = read_file (Log_store.idx_path h) in
      (* (end offset in the delta file, records covered) per delta *)
      let deltas = ref [ (0, !records) ] in
      let delta () =
        Log_store.sync h;
        deltas := (String.length (read_file (Log_store.delta_path h)), !records) :: !deltas
      in
      put 5; move "b" (Some 5); delta ();
      put 6; del 0; delta ();
      move "a" (Some 6); move "b" None; delta ();
      put 7; delta ();
      (* The tail: written, never synced, so no delta covers it. *)
      put 8; del 5;
      let deltas = List.rev !deltas in
      check int_ "a base and four deltas" 4 (Log_store.counters h).Log_store.deltas;
      let log = read_file (Log_store.log_path h) in
      let delta_file = read_file (Log_store.delta_path h) in
      let full_live = live_ids s and full_refs = norm_refs (Log_store.refs h) in
      check int_ "reference live" 7 (List.length full_live);
      let rig = Filename.concat dir "rig" in
      let recover what ~idx ~delta ~loaded ~covered =
        let ctx m = what ^ " " ^ m in
        if Sys.file_exists rig then
          Array.iter (fun f -> Sys.remove (Filename.concat rig f)) (Sys.readdir rig)
        else Unix.mkdir rig 0o755;
        write_file (Filename.concat rig "gen-0.log") log;
        write_file (Filename.concat rig "gen-0.idx") idx;
        write_file (Filename.concat rig "gen-0.delta") delta;
        write_file (Filename.concat rig "CURRENT") "0\n";
        let agrees r =
          check bool_ (ctx "live set = full replay") true
            (live_ids (Log_store.store r) = full_live);
          check bool_ (ctx "heads = full replay") true (norm_refs (Log_store.refs r) = full_refs)
        in
        let r = Log_store.create ~config:quick_config ~root:rig () in
        let c = Log_store.counters r in
        agrees r;
        check int_ (ctx "deltas loaded") loaded c.Log_store.loaded_deltas;
        check int_ (ctx "replayed from the last good covered offset")
          (!records - covered) c.Log_store.replayed_records;
        Log_store.close r;
        let r = Log_store.create ~config:quick_config ~root:rig () in
        agrees r;
        check int_ (ctx "reopened: nothing to replay") 0
          (Log_store.counters r).Log_store.replayed_records;
        Log_store.close r
      in
      let variants data cut =
        [ ("truncate", String.sub data 0 cut);
          ("tear", if cut < String.length data then garble data cut else data) ]
      in
      let last = List.length deltas - 1 in
      for cut = 0 to String.length base do
        List.iter
          (fun (variant, idx) ->
            let intact = cut = String.length base in
            recover (Printf.sprintf "base %s cut=%d" variant cut) ~idx ~delta:delta_file
              ~loaded:(if intact then last else 0)
              ~covered:(if intact then snd (List.nth deltas last) else 0))
          (variants base cut)
      done;
      for cut = 0 to String.length delta_file do
        (* The deltas wholly before the cut survive, the rest is dropped. *)
        let loaded = List.length (List.filter (fun (stop, _) -> stop <= cut) deltas) - 1 in
        List.iter
          (fun (variant, delta) ->
            recover (Printf.sprintf "delta %s cut=%d" variant cut) ~idx:base ~delta ~loaded
              ~covered:(snd (List.nth deltas loaded)))
          (variants delta_file cut)
      done;
      Log_store.close h)

(* ------------------------- checkpoint equivalence ------------------------- *)

(* With a one-byte cadence every [sync] that follows an append writes a
   checkpoint: the first a base, later ones deltas, and [checkpoint] a
   fresh base.  [with_deltas] brackets an operation sequence so a base
   and at least three deltas follow it; ids 12-15 are outside the ones
   the sequences use. *)
let delta_config = { quick_config with checkpoint_bytes = 1 }

let with_deltas ops =
  [ `Put 12; `Sync ] @ ops @ [ `Put 13; `Sync; `Put 14; `Sync; `Put 15; `Sync ]

(* Recovery three ways — through the base and its deltas, through the
   base alone (deltas deleted), and by a full replay (checkpoints
   deleted) — each judged by [agrees]; the first must load at least
   three deltas. *)
let three_recoveries dir agrees =
  let remove suffix =
    Array.iter
      (fun f -> if Filename.check_suffix f suffix then Sys.remove (Filename.concat dir f))
      (Sys.readdir dir)
  in
  let via_deltas = agrees (fun c -> c.Log_store.loaded_deltas >= 3) in
  remove ".delta";
  let via_base = agrees (fun c -> c.Log_store.loaded_deltas = 0) in
  remove ".idx";
  let via_full_replay = agrees (fun c -> c.Log_store.loaded_deltas = 0) in
  via_deltas && via_base && via_full_replay

(* QCheck: for ANY operation sequence, recovery through the base and its
   deltas, through the base alone and by a full replay reach exactly the
   state a model Hashtbl predicts. *)
let qcheck_checkpoint_replay_equivalence =
  let op_gen =
    QCheck.Gen.(
      frequency
        [ (6, map (fun i -> `Put (i mod 12)) (int_bound 100));
          (3, map (fun i -> `Delete (i mod 12)) (int_bound 100));
          (1, return `Sync);
          (1, return `Checkpoint) ])
  in
  let ops_arb =
    QCheck.make
      ~print:(fun ops ->
        String.concat ";"
          (List.map
             (function
               | `Put i -> Printf.sprintf "put %d" i
               | `Delete i -> Printf.sprintf "del %d" i
               | `Sync -> "sync"
               | `Checkpoint -> "ckpt")
             ops))
      QCheck.Gen.(list_size (int_range 1 40) op_gen)
  in
  QCheck.Test.make ~name:"log: checkpoint replay == full replay == model"
    ~count:30 ops_arb (fun ops ->
      with_temp_dir (fun dir ->
          let model : (string, unit) Hashtbl.t = Hashtbl.create 16 in
          let h = Log_store.create ~config:delta_config ~root:dir () in
          let s = Log_store.store h in
          List.iter
            (function
              | `Put i ->
                ignore (Store.put s (blob i));
                Hashtbl.replace model (Hash.to_hex (blob_id i)) ()
              | `Delete i ->
                ignore (Store.delete s (blob_id i));
                Hashtbl.remove model (Hash.to_hex (blob_id i))
              | `Sync -> Log_store.sync h
              | `Checkpoint -> Log_store.checkpoint h)
            (with_deltas ops);
          Log_store.close h;
          three_recoveries dir (fun loaded ->
              let r = Log_store.create ~config:quick_config ~root:dir () in
              let got = live_ids (Log_store.store r) in
              let c = Log_store.counters r in
              Log_store.close r;
              loaded c
              && List.length got = Hashtbl.length model
              && List.for_all (fun id -> Hashtbl.mem model (Hash.to_hex id)) got)))

(* ------------------------- compaction ------------------------- *)

let test_compaction () =
  with_temp_dir (fun dir ->
      let h = Log_store.create ~config:quick_config ~root:dir () in
      let s = Log_store.store h in
      let _ids = List.init 10 (fun i -> Store.put s (blob i)) in
      for i = 0 to 4 do
        ignore (Store.delete s (blob_id i))
      done;
      check bool_ "garbage accumulated" true (Log_store.garbage_bytes h > 0);
      let before = Log_store.file_bytes h in
      Log_store.compact h;
      check int_ "generation advanced" 1 (Log_store.generation h);
      check bool_ "file shrank" true (Log_store.file_bytes h < before);
      check int_ "garbage reclaimed" 0 (Log_store.garbage_bytes h);
      check bool_ "old generation deleted" false
        (Sys.file_exists (Filename.concat dir "gen-0.log"));
      for i = 5 to 9 do
        match Store.get s (blob_id i) with
        | Some c ->
          check bool_ "survivor intact" true
            (String.equal c.Chunk.payload (Printf.sprintf "log payload %d" i))
        | None -> Alcotest.fail "live chunk lost by compaction"
      done;
      (* Writes keep flowing into the new generation, and a reopen sees
         everything. *)
      ignore (Store.put s (blob 42));
      Log_store.close h;
      let h2 = Log_store.create ~config:quick_config ~root:dir () in
      check int_ "post-compaction state persists" 6 (Log_store.live_chunks h2);
      check bool_ "post-compaction append persists" true
        (Store.mem (Log_store.store h2) (blob_id 42));
      Log_store.close h2)

let test_compaction_gc_liveness () =
  with_temp_dir (fun dir ->
      let h = Log_store.create ~config:quick_config ~root:dir () in
      let s = Log_store.store h in
      ignore (List.init 6 (fun i -> Store.put s (blob i)));
      (* A GC marks only even blobs reachable — no tombstones needed. *)
      let keep = List.init 3 (fun i -> blob_id (2 * i)) in
      Log_store.compact ~live:(fun id -> List.exists (Hash.equal id) keep) h;
      check int_ "only live survive" 3 (Log_store.live_chunks h);
      List.iter
        (fun id -> check bool_ "kept" true (Store.mem s id))
        keep;
      check bool_ "dropped" false (Store.mem s (blob_id 1));
      Log_store.close h)

(* Crash at each labelled point of the compaction protocol: recovery must
   land on a fully intact generation (old before the CURRENT swap, new
   after) with no stray files. *)
let test_compaction_crash_stages () =
  List.iter
    (fun (stage, expect_gen) ->
      with_temp_dir (fun dir ->
          let h = Log_store.create ~config:quick_config ~root:dir () in
          let s = Log_store.store h in
          ignore (List.init 8 (fun i -> Store.put s (blob i)));
          ignore (Store.delete s (blob_id 0));
          Log_store.sync h;
          let want = live_ids s in
          (match
             Log_store.compact
               ~on_stage:(fun st -> if st = stage then raise Exit)
               h
           with
          | () -> Alcotest.fail "stage hook did not fire"
          | exception Exit -> ());
          (* The instance is dead; closing it releases the root (and
             checkpoints the generation it still names, which recovery
             must then discard as an orphan when CURRENT moved on). *)
          Log_store.close h;
          let r = Log_store.create ~config:quick_config ~root:dir () in
          let ctx what =
            Printf.sprintf "crash@%s %s"
              (match stage with
              | Log_store.After_data -> "after-data"
              | Log_store.Before_switch -> "before-switch"
              | Log_store.After_switch -> "after-switch")
              what
          in
          check int_ (ctx "generation") expect_gen (Log_store.generation r);
          let got = live_ids (Log_store.store r) in
          check int_ (ctx "live count") (List.length want) (List.length got);
          check bool_ (ctx "live set") true (List.for_all2 Hash.equal want got);
          (* Only the surviving generation's files remain on disk. *)
          let keep_prefix = Printf.sprintf "gen-%d." expect_gen in
          let strays =
            Array.to_list (Sys.readdir dir)
            |> List.filter (fun f ->
                   (Filename.check_suffix f ".log"
                   || Filename.check_suffix f ".idx"
                   || Filename.check_suffix f ".delta"
                   || Filename.check_suffix f ".tmp")
                   && not
                        (String.length f >= String.length keep_prefix
                        && String.equal
                             (String.sub f 0 (String.length keep_prefix))
                             keep_prefix))
          in
          check int_ (ctx "no stray generation files") 0 (List.length strays);
          Log_store.close r))
    [ (Log_store.After_data, 0);
      (Log_store.Before_switch, 0);
      (Log_store.After_switch, 1) ]

let test_background_compactor () =
  with_temp_dir (fun dir ->
      let config =
        { quick_config with
          compactor = true; tick_s = 0.005; group_window_s = 0.01;
          auto_compact = 0.2; compact_min_bytes = 1 }
      in
      let h = Log_store.create ~config ~root:dir () in
      let s = Log_store.store h in
      ignore (List.init 20 (fun i -> Store.put s (blob i)));
      for i = 0 to 15 do
        ignore (Store.delete s (blob_id i))
      done;
      (* The thread must flush the aged group and compact the garbage
         away without any explicit sync/compact call. *)
      let deadline = Unix.gettimeofday () +. 5.0 in
      let rec wait () =
        let c = Log_store.counters h in
        if c.Log_store.auto_compactions >= 1 then ()
        else if Unix.gettimeofday () > deadline then
          Alcotest.fail "background compactor never ran"
        else begin
          Thread.delay 0.01;
          wait ()
        end
      in
      wait ();
      check bool_ "generation advanced" true (Log_store.generation h >= 1);
      check int_ "synced to the tip" (Log_store.file_bytes h)
        (Log_store.synced_bytes h);
      for i = 16 to 19 do
        check bool_ "survivors readable" true (Store.mem s (blob_id i))
      done;
      check int_ "no background errors" 0
        (Log_store.counters h).Log_store.background_errors;
      Log_store.close h)

(* ------------------------- fsck ------------------------- *)

let test_fsck () =
  with_temp_dir (fun dir ->
      let h = Log_store.create ~config:quick_config ~root:dir () in
      let s = Log_store.store h in
      ignore (List.init 5 (fun i -> Store.put s (blob i)));
      ignore (Store.delete s (blob_id 0));
      Log_store.close h;
      (match Scrub.fsck_log ~root:dir with
      | Error e -> Alcotest.fail e
      | Ok r ->
        check bool_ "clean after close" true (Scrub.fsck_log_clean r);
        check int_ "records" 6 r.Log_store.fsck_records;
        check int_ "live" 4 r.Log_store.fsck_live;
        check int_ "no torn tail" 0 r.Log_store.fsck_torn_bytes);
      (* A flipped payload byte breaks that record's seal: fsck must see
         the damage (truncated coverage / index disagreement). *)
      let path = Filename.concat dir "gen-0.log" in
      let bytes = Bytes.of_string (read_file path) in
      let mid = Bytes.length bytes - 10 in
      Bytes.set bytes mid
        (Char.chr (Char.code (Bytes.get bytes mid) lxor 0x40));
      write_file path (Bytes.to_string bytes);
      (match Scrub.fsck_log ~root:dir with
      | Error e -> Alcotest.fail e
      | Ok r ->
        check bool_ "damage detected" false (Scrub.fsck_log_clean r);
        check bool_ "torn bytes reported" true
          (r.Log_store.fsck_torn_bytes > 0));
      (* A stray generation from a crashed compaction is reported too. *)
      write_file (Filename.concat dir "gen-9.log") "leftover";
      (match Scrub.fsck_log ~root:dir with
      | Error e -> Alcotest.fail e
      | Ok r ->
        check bool_ "orphan generation listed" true
          (r.Log_store.fsck_orphan_gens = [ 9 ])))

(* fsck reads the deltas: it counts those that chain to the base, checks
   base + deltas + tail against a full replay, and reports the bytes of
   a broken delta and all after it — which the next open drops. *)
let test_fsck_deltas () =
  with_temp_dir (fun dir ->
      let h = Log_store.create ~config:delta_config ~root:dir () in
      let s = Log_store.store h in
      let ends = ref [] in
      List.iter
        (fun i ->
          ignore (Store.put s (blob i));
          if i = 3 then ignore (Store.delete s (blob_id 1));
          Log_store.sync h;
          if Sys.file_exists (Log_store.delta_path h) then
            ends := String.length (read_file (Log_store.delta_path h)) :: !ends)
        [ 0; 1; 2; 3; 4 ];
      let delta_path = Log_store.delta_path h in
      Log_store.close h;
      let fsck what =
        match Scrub.fsck_log ~root:dir with
        | Error e -> Alcotest.fail (what ^ ": " ^ e)
        | Ok r -> r
      in
      let r = fsck "intact" in
      check int_ "four deltas after the base" 4 r.Log_store.fsck_deltas;
      check int_ "no bad delta bytes" 0 r.Log_store.fsck_bad_delta_bytes;
      check bool_ "clean" true (Scrub.fsck_log_clean r);
      (* One flipped byte inside the third delta. *)
      let first, second =
        match List.rev !ends with a :: b :: _ -> (a, b) | _ -> Alcotest.fail "deltas"
      in
      let bytes = Bytes.of_string (read_file delta_path) in
      Bytes.set bytes (second + 20) (Char.chr (Char.code (Bytes.get bytes (second + 20)) lxor 1));
      write_file delta_path (Bytes.to_string bytes);
      let r = fsck "broken" in
      check int_ "the deltas before it" 2 r.Log_store.fsck_deltas;
      check int_ "it and all after it reported" (Bytes.length bytes - second)
        r.Log_store.fsck_bad_delta_bytes;
      check bool_ "base + two deltas + tail still = full replay" true
        (r.Log_store.fsck_idx_valid && r.Log_store.fsck_idx_consistent);
      check bool_ "not clean" false (Scrub.fsck_log_clean r);
      check bool_ "first delta ends before the second" true (first < second);
      let h = Log_store.create ~config:quick_config ~root:dir () in
      check int_ "open loads the two" 2 (Log_store.counters h).Log_store.loaded_deltas;
      check int_ "and replays the rest" 3 (Log_store.counters h).Log_store.replayed_records;
      Log_store.close h;
      let r = fsck "reopened" in
      check int_ "the close's delta chains on" 3 r.Log_store.fsck_deltas;
      check bool_ "clean again" true (Scrub.fsck_log_clean r))

let test_fsck_bad_hash () =
  with_temp_dir (fun dir ->
      let h = Log_store.create ~config:quick_config ~root:dir () in
      ignore (Store.put (Log_store.store h) (blob 1));
      Log_store.close h;
      (* Hand-craft a sealed record whose payload does not hash to its
         declared id: the CRC passes (physical integrity) but the
         content-address lies — only fsck's re-hash pass can tell. *)
      let payload = Chunk.encode (blob 2) in
      let fake_id = blob_id 3 in
      let len = String.length payload in
      let b = Bytes.create (41 + len) in
      Bytes.set b 0 '\000';
      Bytes.set_int32_be b 1 (Int32.of_int len);
      Bytes.blit_string (Hash.to_raw fake_id) 0 b 5 32;
      Bytes.blit_string payload 0 b 37 len;
      let crc = Fb_hash.Crc32.update_bytes_sub Fb_hash.Crc32.empty b ~pos:0 ~len:(37 + len) in
      Bytes.set_int32_be b (37 + len) (Int32.of_int crc);
      let path = Filename.concat dir "gen-0.log" in
      let oc = open_out_gen [ Open_append; Open_binary ] 0o644 path in
      output_bytes oc b;
      close_out oc;
      match Scrub.fsck_log ~root:dir with
      | Error e -> Alcotest.fail e
      | Ok r ->
        check bool_ "dishonest record caught" false (Scrub.fsck_log_clean r);
        check bool_ "bad hash attributed" true
          (match r.Log_store.fsck_bad_hash with
          | [ id ] -> Hash.equal id fake_id
          | _ -> false);
        check int_ "physically sealed" 0 r.Log_store.fsck_torn_bytes)

(* One flipped byte in the middle of the middle of three records is
   damage, not a torn tail: sealed records follow it.  Open refuses with
   the file and offset named and leaves the log byte-identical; fsck
   reports the damage; a Persistent open answers [Corrupt]. *)
let test_damage_is_not_a_torn_tail () =
  with_temp_dir (fun dir ->
      let root = Filename.concat dir "root" in
      let log = Filename.concat root "log" in
      let h = Log_store.create ~config:quick_config ~root:log () in
      List.iter
        (fun i -> ignore (Store.put (Log_store.store h) (blob i)))
        [ 0; 1; 2 ];
      let path = Log_store.log_path h in
      Log_store.close h;
      (* No checkpoint: open replays every record. *)
      Sys.remove (Filename.concat log "gen-0.idx");
      let bytes = read_file path in
      let ends = List.map (fun (stop, _, _) -> stop) (parse_records bytes) in
      check bool_ "three records, nothing after" true
        (List.length ends = 3 && List.nth ends 2 = String.length bytes);
      let start = List.nth ends 0 and stop = List.nth ends 1 in
      let damaged = Bytes.of_string bytes in
      let mid = (start + stop) / 2 in
      Bytes.set damaged mid (Char.chr (Char.code (Bytes.get damaged mid) lxor 0x10));
      let damaged = Bytes.to_string damaged in
      write_file path damaged;
      (match Log_store.create ~config:quick_config ~root:log () with
       | exception Failure msg ->
         check bool_ "names the file" true (Tutil.contains msg path);
         check bool_ "names the offset" true
           (Tutil.contains msg (Printf.sprintf "offset %d" start))
       | r ->
         Log_store.close r;
         Alcotest.fail "opened a damaged log");
      check bool_ "log byte-identical" true (read_file path = damaged);
      (match Persistent.open_instance ~root () with
       | Error (Errors.Corrupt _) -> ()
       | Ok i ->
         Persistent.close i;
         Alcotest.fail "Persistent opened a damaged log"
       | Error e -> Alcotest.fail (Errors.to_string e));
      check bool_ "still byte-identical" true (read_file path = damaged);
      match Scrub.fsck_log ~root:log with
      | Error e -> Alcotest.fail e
      | Ok r ->
        check bool_ "fsck: not clean" false (Scrub.fsck_log_clean r);
        check bool_ "fsck: damage at the record" true
          (r.Log_store.fsck_damage = Some start);
        check int_ "fsck: no torn tail" 0 r.Log_store.fsck_torn_bytes)

(* ------------------------- on-disk compatibility ------------------------- *)

(* The layouts written out longhand, sealed with the reference CRC loop:
   the native kernel and the one-buffer checkpoint writer must read and
   write exactly these bytes. *)
let ref_record ~kind ~id ~payload =
  let len = String.length payload in
  let b = Bytes.create (41 + len) in
  Bytes.set b 0 (Char.chr kind);
  Bytes.set_int32_be b 1 (Int32.of_int len);
  Bytes.blit_string (Hash.to_raw id) 0 b 5 32;
  Bytes.blit_string payload 0 b 37 len;
  let crc = Crc32_ref.update_bytes_sub Crc32_ref.empty b ~pos:0 ~len:(37 + len) in
  Bytes.set_int32_be b (37 + len) (Int32.of_int crc);
  Bytes.to_string b

(* The checkpoint as the old [Buffer]-based writer laid it out. *)
let ref_checkpoint ~gen ~covered entries =
  let b = Buffer.create 64 in
  Buffer.add_string b "FBLOGIX\n";
  let add64 v =
    let s = Bytes.create 8 in
    Bytes.set_int64_be s 0 (Int64.of_int v);
    Buffer.add_bytes b s
  in
  add64 gen;
  add64 covered;
  add64 (List.length entries);
  List.iter
    (fun (id, off, len) ->
      Buffer.add_string b (Hash.to_raw id);
      add64 off;
      add64 len)
    entries;
  let body = Buffer.contents b in
  let s = Bytes.create 4 in
  Bytes.set_int32_be s 0 (Int32.of_int (Crc32_ref.string body));
  body ^ Bytes.to_string s

(* A checkpoint's entries in file order (the layout is checked separately,
   by comparing whole files). *)
let checkpoint_entries raw =
  let count = Int64.to_int (String.get_int64_be raw 24) in
  List.init count (fun i ->
      let base = 32 + (i * 48) in
      ( Hash.of_raw_exn (String.sub raw base 32),
        Int64.to_int (String.get_int64_be raw (base + 32)),
        Int64.to_int (String.get_int64_be raw (base + 40)) ))

let sort_entries = List.sort (fun (a, _, _) (b, _, _) -> Hash.compare a b)

let test_on_disk_compat () =
  with_temp_dir (fun dir ->
      Unix.mkdir dir 0o755;
      let header = Bytes.create 16 in
      Bytes.blit_string "FBLOG01\n" 0 header 0 8;
      Bytes.set_int64_be header 8 0L;
      (* Records 0-5 appended, then blob 2 tombstoned, then 6-8: the
         checkpoint covers the first six records, the rest is a tail. *)
      let log = Buffer.create 4096 in
      Buffer.add_bytes log header;
      let expect = Hashtbl.create 16 in
      let append i =
        let payload = Chunk.encode (blob i) in
        let id = blob_id i in
        Hashtbl.replace expect id
          (Buffer.length log + 37, String.length payload);
        Buffer.add_string log (ref_record ~kind:0 ~id ~payload)
      in
      for i = 0 to 5 do append i done;
      let covered = Buffer.length log in
      let at_checkpoint =
        Hashtbl.fold (fun id (off, len) acc -> (id, off, len) :: acc) expect []
      in
      Buffer.add_string log (ref_record ~kind:1 ~id:(blob_id 2) ~payload:"");
      Hashtbl.remove expect (blob_id 2);
      for i = 6 to 8 do append i done;
      let expected =
        sort_entries
          (Hashtbl.fold (fun id (off, len) acc -> (id, off, len) :: acc) expect [])
      in
      let log_bytes = Buffer.contents log in
      write_file (Filename.concat dir "gen-0.log") log_bytes;
      write_file (Filename.concat dir "gen-0.idx")
        (ref_checkpoint ~gen:0 ~covered at_checkpoint);
      write_file (Filename.concat dir "CURRENT") "0\n";
      (match Log_store.fsck ~root:dir with
      | Error e -> Alcotest.fail e
      | Ok r ->
        check bool_ "reference-sealed root fscks clean" true
          (Log_store.fsck_clean r);
        check int_ "every record sealed" 10 r.Log_store.fsck_records;
        check int_ "live after tombstone" 8 r.Log_store.fsck_live);
      let reads dir what =
        let h = Log_store.create ~config:quick_config ~root:dir () in
        let s = Log_store.store h in
        let c = Log_store.counters h in
        check int_ (what ^ ": nothing truncated") 0 c.Log_store.truncated_bytes;
        for i = 0 to 8 do
          check bool_
            (Printf.sprintf "%s: blob %d" what i)
            (i <> 2)
            (s.Store.get_raw (blob_id i) = Some (Chunk.encode (blob i)))
        done;
        (h, c.Log_store.replayed_records)
      in
      (* Through the checkpoint: only the four tail records replay. *)
      let h, replayed = reads dir "checkpoint" in
      check int_ "tail replayed past the checkpoint" 4 replayed;
      (* The checkpoint writer: same entries, byte-identical layout. *)
      Log_store.checkpoint h;
      let idx = read_file (Log_store.idx_path h) in
      let entries = checkpoint_entries idx in
      check bool_ "checkpoint holds the hand-built index" true
        (sort_entries entries = expected);
      check bool_ "checkpoint bytes = reference serialisation" true
        (String.equal idx
           (ref_checkpoint ~gen:0 ~covered:(String.length log_bytes) entries));
      (* The append path: new records are the reference records, for a
         small chunk and for one larger than the staging buffer. *)
      let big = Chunk.v Chunk.Leaf_blob (String.make 100_000 'x') in
      List.iter (fun c -> ignore (Store.put (Log_store.store h) c)) [ blob 9; big ];
      Log_store.sync h;
      let record c =
        ref_record ~kind:0 ~id:(Chunk.hash c) ~payload:(Chunk.encode c)
      in
      check bool_ "appended records = reference records" true
        (String.equal
           (read_file (Log_store.log_path h))
           (log_bytes ^ record (blob 9) ^ record big));
      Log_store.close h;
      (* Without any checkpoint: the full replay reads the same. *)
      Sys.remove (Filename.concat dir "gen-0.idx");
      write_file (Filename.concat dir "gen-0.log") log_bytes;
      let h, replayed = reads dir "full replay" in
      check int_ "every record replayed" 10 replayed;
      Log_store.close h)

(* Checkpoints run on the fixed [checkpoint_bytes] cadence and cost what
   changed.  With a cadence of one byte and a sync after every record,
   every record gets a checkpoint: a one-entry delta, or a fresh base once
   the deltas reach the base's size.  Each base but the last weighs no
   more than the deltas before its successor, so checkpoint bytes stay
   within two one-entry deltas per record plus one base of the final
   index (a full index per checkpoint would be ~n^2/2 entries), and a
   crash leaves no record to replay. *)
let test_checkpoint_cadence () =
  with_temp_dir (fun dir ->
      let config = { quick_config with checkpoint_bytes = 1; group_chunks = 1 } in
      let h = Log_store.create ~config ~root:(Filename.concat dir "src") () in
      let s = Log_store.store h in
      let n = 3000 in
      for i = 0 to n - 1 do
        ignore (Store.put s (blob i))
      done;
      let c = Log_store.counters h in
      let one_delta = 44 + 48 + 4 in
      let one_checkpoint = 32 + (48 * n) + 4 in
      check bool_
        (Printf.sprintf "checkpoint bytes %d <= 2 * %d deltas of %d + one base %d"
           c.Log_store.checkpoint_bytes n one_delta one_checkpoint)
        true
        (c.Log_store.checkpoint_bytes <= (2 * n * one_delta) + one_checkpoint);
      check int_ "a checkpoint per record" n c.Log_store.checkpoints;
      check bool_
        (Printf.sprintf "deltas, not bases (%d of %d)" c.Log_store.deltas n)
        true
        (c.Log_store.deltas > n * 9 / 10);
      check int_ "one flush per record" n c.Log_store.flushes;
      (* A crash now: the files as they stand, opened without a close. *)
      let rig = Filename.concat dir "rig" in
      Unix.mkdir rig 0o755;
      List.iter
        (fun path -> write_file (Filename.concat rig (Filename.basename path)) (read_file path))
        [ Log_store.log_path h; Log_store.idx_path h; Log_store.delta_path h ];
      write_file (Filename.concat rig "CURRENT") "0\n";
      let r = Log_store.create ~config:quick_config ~root:rig () in
      let rc = Log_store.counters r in
      check bool_ "deltas loaded" true (rc.Log_store.loaded_deltas > 0);
      check int_ "nothing to replay" 0 rc.Log_store.replayed_records;
      check int_ "every record live" n (Log_store.live_chunks r);
      Log_store.close r;
      Log_store.close h)

(* ------------------------- ref records ------------------------- *)

(* The heads a sequence of moves leaves, replayed by a model table. *)
let model_refs moves =
  let m = Hashtbl.create 8 in
  List.iter
    (fun (t, k, b, next) ->
      match next with
      | Some u -> Hashtbl.replace m (t, k, b) u
      | None -> Hashtbl.remove m (t, k, b))
    moves;
  norm_refs (Hashtbl.fold (fun (t, k, b) u acc -> (t, k, b, u) :: acc) m [])

let no_uid = String.make 32 '\000'

(* The ref moves among a generation file's complete records, decoded
   longhand from the documented layout: (end offset, move). *)
let parse_ref_moves bytes =
  let u32 s pos = Int32.to_int (String.get_int32_be s pos) land 0xFFFFFFFF in
  let uid raw = if String.equal raw no_uid then None else Some (Hash.of_raw_exn raw) in
  let rec go pos acc =
    if pos + 41 > String.length bytes then List.rev acc
    else
      let kind = Char.code bytes.[pos] and len = u32 bytes (pos + 1) in
      let stop = pos + 41 + len in
      if stop > String.length bytes then List.rev acc
      else if kind <> 2 then go stop acc
      else
        let p = String.sub bytes (pos + 37) len in
        let klen = u32 p 33 in
        let table = if p.[0] = '\000' then Log_store.Branches else Log_store.Tags in
        let move =
          ( table, String.sub p 37 klen,
            String.sub p (37 + klen) (len - 37 - klen),
            uid (String.sub bytes (pos + 5) 32) )
        in
        go stop ((stop, move) :: acc)
  in
  go 16 []

(* A log of chunks and head moves, each move appended after the chunk
   it names and acknowledged (its wait run) before the next: returns the
   log handle and the acknowledged moves with their end offsets. *)
let build_ref_log root =
  let h = Log_store.create ~config:quick_config ~root () in
  let s = Log_store.store h in
  let current = Hashtbl.create 8 in
  let acked = ref [] in
  let move t k b next =
    Log_store.append_ref h t ~key:k ~branch:b
      ~old:(Hashtbl.find_opt current (t, k, b)) next ();
    (match next with
    | Some u -> Hashtbl.replace current (t, k, b) u
    | None -> Hashtbl.remove current (t, k, b));
    acked := (Log_store.file_bytes h, (t, k, b, next)) :: !acked
  in
  let put i = ignore (Store.put s (blob i)); Some (blob_id i) in
  let open Log_store in
  move Branches "a" "master" (put 0);
  move Branches "a" "master" (put 1);
  move Branches "a" "dev" (Some (blob_id 0));
  move Tags "a" "v1" (Some (blob_id 0));
  ignore (put 9);
  ignore (Store.delete s (blob_id 9));
  move Branches "b" "master" (put 2);
  move Branches "a" "dev" None;
  move Branches "a" "feature" (Some (blob_id 1));
  (h, List.rev !acked)

let test_ref_power_cut_matrix () =
  with_temp_dir (fun dir ->
      let h, acked = build_ref_log (Filename.concat dir "src") in
      Log_store.sync h;
      let bytes = read_file (Log_store.log_path h) in
      let sealed = parse_ref_moves bytes in
      check int_ "reference parse sees every move" (List.length acked)
        (List.length sealed);
      let header_size = 16 in
      let rig = Filename.concat dir "rig" in
      let upto cut moves =
        List.filter_map (fun (stop, m) -> if stop <= cut then Some m else None) moves
      in
      for cut = 0 to String.length bytes do
        List.iter
          (fun (variant, data) ->
            let ctx what = Printf.sprintf "refs %s cut=%d %s" variant cut what in
            if Sys.file_exists rig then
              Array.iter (fun f -> Sys.remove (Filename.concat rig f)) (Sys.readdir rig)
            else Unix.mkdir rig 0o755;
            write_file (Filename.concat rig "gen-0.log") data;
            write_file (Filename.concat rig "CURRENT") "0\n";
            match Log_store.create ~config:quick_config ~root:rig () with
            | exception Failure _ when String.equal variant "tear" && cut < header_size
              -> ()
            | r ->
              let got = norm_refs (Log_store.refs r) in
              check bool_ (ctx "= model replay of the surviving sealed records")
                true (got = model_refs (upto cut sealed));
              check bool_ (ctx "= a prefix of the acknowledged moves") true
                (got = model_refs (upto cut acked));
              List.iter
                (fun (_, _, _, hex) ->
                  match Hash.of_hex hex with
                  | Ok u ->
                    if not (Store.mem (Log_store.store r) u) then
                      Alcotest.fail (ctx "head names a missing chunk")
                  | Error e -> Alcotest.fail e)
                got;
              Log_store.close r;
              let r2 = Log_store.create ~config:quick_config ~root:rig () in
              check bool_ (ctx "recovery is stable") true
                ((Log_store.counters r2).Log_store.truncated_bytes = 0
                && norm_refs (Log_store.refs r2) = got);
              Log_store.close r2)
          [ ("truncate", String.sub bytes 0 cut);
            ("tear", if cut < String.length bytes then garble bytes cut else bytes) ]
      done;
      Log_store.close h)

(* QCheck: with head moves among the operations, recovery through the
   base and its deltas, through the base alone and by a full replay reach
   the model's chunks and heads — across compactions too. *)
let qcheck_ref_checkpoint_replay =
  let op_gen =
    QCheck.Gen.(
      frequency
        [ (4, map (fun i -> `Put (i mod 8)) (int_bound 100));
          (2, map (fun i -> `Delete (i mod 8)) (int_bound 100));
          (5, map2 (fun k i -> `Move (k mod 4, if i mod 5 = 0 then None else Some (i mod 8)))
                (int_bound 100) (int_bound 100));
          (1, return `Sync);
          (1, return `Checkpoint);
          (1, return `Compact) ])
  in
  let ops_arb =
    QCheck.make
      ~print:(fun ops ->
        String.concat ";"
          (List.map
             (function
               | `Put i -> Printf.sprintf "put %d" i
               | `Delete i -> Printf.sprintf "del %d" i
               | `Move (k, Some i) -> Printf.sprintf "move %d->%d" k i
               | `Move (k, None) -> Printf.sprintf "remove %d" k
               | `Sync -> "sync"
               | `Checkpoint -> "ckpt"
               | `Compact -> "compact")
             ops))
      QCheck.Gen.(list_size (int_range 1 40) op_gen)
  in
  QCheck.Test.make
    ~name:"log: ref moves: checkpoint replay == full replay == model"
    ~count:30 ops_arb (fun ops ->
      with_temp_dir (fun dir ->
          let chunks = Hashtbl.create 16 in
          let heads = Hashtbl.create 16 in
          let h = Log_store.create ~config:delta_config ~root:dir () in
          let s = Log_store.store h in
          let ref_of k =
            ((if k = 3 then Log_store.Tags else Log_store.Branches),
             Printf.sprintf "k%d" (k mod 2), Printf.sprintf "b%d" k)
          in
          List.iter
            (function
              | `Put i ->
                ignore (Store.put s (blob i));
                Hashtbl.replace chunks (blob_id i) ()
              | `Delete i ->
                ignore (Store.delete s (blob_id i));
                Hashtbl.remove chunks (blob_id i)
              | `Move (k, next) ->
                let t, key, branch = ref_of k in
                let next = Option.map blob_id next in
                Log_store.append_ref h t ~key ~branch
                  ~old:(Hashtbl.find_opt heads (t, key, branch)) next ();
                (match next with
                | Some u -> Hashtbl.replace heads (t, key, branch) u
                | None -> Hashtbl.remove heads (t, key, branch))
              | `Sync -> Log_store.sync h
              | `Checkpoint -> Log_store.checkpoint h
              | `Compact -> Log_store.compact h)
            (with_deltas ops);
          Log_store.close h;
          let want =
            norm_refs (Hashtbl.fold (fun (t, k, b) u acc -> (t, k, b, u) :: acc) heads [])
          in
          three_recoveries dir (fun loaded ->
              let r = Log_store.create ~config:quick_config ~root:dir () in
              let got = live_ids (Log_store.store r) in
              let refs = norm_refs (Log_store.refs r) in
              let c = Log_store.counters r in
              Log_store.close r;
              loaded c
              && refs = want
              && List.length got = Hashtbl.length chunks
              && List.for_all (Hashtbl.mem chunks) got)))

(* Every compaction carries the current heads forward: manual,
   gc-driven, and a crash at any stage of either. *)
let test_compaction_refs () =
  let setup dir =
    let h, _ = build_ref_log dir in
    (h, norm_refs (Log_store.refs h))
  in
  with_temp_dir (fun dir ->
      let h, want = setup dir in
      Log_store.compact h;
      check bool_ "heads after compaction" true (norm_refs (Log_store.refs h) = want);
      (* gc liveness: only the chunks a head names survive. *)
      let named id = List.exists (fun (_, _, _, hex) -> hex = Hash.to_hex id) want in
      Log_store.compact ~live:named h;
      check int_ "only named chunks kept" 3 (Log_store.live_chunks h);
      check bool_ "heads after gc compaction" true (norm_refs (Log_store.refs h) = want);
      Log_store.close h;
      (match Log_store.fsck ~root:dir with
      | Error e -> Alcotest.fail e
      | Ok r ->
        check bool_ "compacted log fscks clean" true (Log_store.fsck_clean r);
        check int_ "one ref record per head" (List.length want)
          r.Log_store.fsck_ref_records);
      let r = Log_store.create ~config:quick_config ~root:dir () in
      check bool_ "heads after reopen" true (norm_refs (Log_store.refs r) = want);
      Log_store.close r);
  List.iter
    (fun stage ->
      with_temp_dir (fun dir ->
          let h, want = setup dir in
          (match Log_store.compact ~on_stage:(fun st -> if st = stage then raise Exit) h with
          | () -> Alcotest.fail "stage hook did not fire"
          | exception Exit -> ());
          (* Close the dead instance to release the root. *)
          Log_store.close h;
          let r = Log_store.create ~config:quick_config ~root:dir () in
          check bool_ "heads survive a compaction crash" true
            (norm_refs (Log_store.refs r) = want);
          Log_store.close r))
    [ Log_store.After_data; Log_store.Before_switch; Log_store.After_switch ]

(* A ref payload written out longhand. *)
let ref_payload ?old ~key () =
  let l = Bytes.create 4 in
  Bytes.set_int32_be l 0 (Int32.of_int (String.length key));
  "\000" ^ (match old with Some u -> Hash.to_raw u | None -> no_uid)
  ^ Bytes.to_string l ^ key ^ "master"

(* fsck sees heads: a head naming an absent chunk, and a move whose old
   uid is not the replayed head, are each a fault. *)
let test_fsck_refs () =
  with_temp_dir (fun dir ->
      Unix.mkdir dir 0o755;
      let header = Bytes.create 16 in
      Bytes.blit_string "FBLOG01\n" 0 header 0 8;
      Bytes.set_int64_be header 8 0L;
      let chunk i = ref_record ~kind:0 ~id:(blob_id i) ~payload:(Chunk.encode (blob i)) in
      let move ?old next = ref_record ~kind:2 ~id:next ~payload:(ref_payload ?old ~key:"k" ()) in
      let fsck_of what records =
        let root = Filename.concat dir what in
        Unix.mkdir root 0o755;
        write_file (Filename.concat root "gen-0.log")
          (Bytes.to_string header ^ String.concat "" records);
        write_file (Filename.concat root "CURRENT") "0\n";
        match Log_store.fsck ~root with Ok r -> r | Error e -> Alcotest.fail e
      in
      let r =
        fsck_of "clean"
          [ chunk 1; move (blob_id 1); chunk 2; move ~old:(blob_id 1) (blob_id 2) ]
      in
      check bool_ "clean" true (Log_store.fsck_clean r);
      check int_ "ref records counted" 2 r.Log_store.fsck_ref_records;
      check int_ "heads" 1 r.Log_store.fsck_heads;
      let r = fsck_of "dangling" [ chunk 1; move (blob_id 1); move ~old:(blob_id 1) (blob_id 7) ] in
      check bool_ "dangling head is a fault" false (Log_store.fsck_clean r);
      check bool_ "dangling head named" true
        (r.Log_store.fsck_dangling_heads = [ (Log_store.Branches, "k", "master") ]);
      check int_ "no conflict" 0 r.Log_store.fsck_ref_conflicts;
      let r = fsck_of "conflict" [ chunk 1; move ~old:(blob_id 3) (blob_id 1) ] in
      check bool_ "conflicting move is a fault" false (Log_store.fsck_clean r);
      check int_ "conflict counted" 1 r.Log_store.fsck_ref_conflicts;
      check bool_ "head itself present" true (r.Log_store.fsck_dangling_heads = []))

(* The acknowledgement wait: with fsync on, it returns once a group
   commit covers the record, concurrent committers included, and is
   observed in fb.log.commit_wait_seconds; with fsync off nothing is
   waited for or observed. *)
let test_ref_commit_wait () =
  with_temp_dir (fun dir ->
      let count () = Fb_obs.Obs.hist_count Log_store.commit_wait_hist in
      let h = Log_store.create ~root:(Filename.concat dir "on") () in
      let s = Log_store.store h in
      let n0 = count () in
      ignore (Store.put s (blob 0));
      Log_store.append_ref h Log_store.Branches ~key:"k" ~branch:"master" ~old:None
        (Some (blob_id 0)) ();
      check int_ "record covered on return" (Log_store.file_bytes h)
        (Log_store.synced_bytes h);
      check int_ "wait observed" (n0 + 1) (count ());
      let threads =
        List.init 4 (fun t ->
            Thread.create
              (fun () ->
                for i = 1 to 25 do
                  let id = Store.put s (blob ((t * 100) + i)) in
                  Log_store.append_ref h Log_store.Branches
                    ~key:(Printf.sprintf "t%d" t) ~branch:"master"
                    ~old:(if i = 1 then None else Some (blob_id ((t * 100) + i - 1)))
                    (Some id) ()
                done)
              ())
      in
      List.iter Thread.join threads;
      check int_ "concurrent records covered" (Log_store.file_bytes h)
        (Log_store.synced_bytes h);
      check int_ "every wait observed" (n0 + 101) (count ());
      check int_ "heads" 5 (List.length (Log_store.refs h));
      Log_store.close h;
      let h = Log_store.create ~config:quick_config ~root:(Filename.concat dir "off") () in
      Log_store.append_ref h Log_store.Branches ~key:"k" ~branch:"master" ~old:None
        (Some (blob_id 0)) ();
      check int_ "nothing observed without fsync" (n0 + 101) (count ());
      Log_store.close h)

(* ------------------------- the Persistent seam ------------------------- *)

(* The fsync-ordering invariant end to end: once a put returns with fsync
   on, a power cut anywhere at or past the log's acknowledgment boundary
   leaves a root whose heads and chunks agree — every acknowledged head
   loads, reads and verifies. *)
let test_persistent_power_cut () =
  with_temp_dir (fun dir ->
      let src = Filename.concat dir "src" in
      let ok = function
        | Ok v -> v
        | Error e -> Alcotest.fail (Errors.to_string e)
      in
      let inst =
        ok (Persistent.open_instance ~fsync:true ~backend:"log" ~root:src ())
      in
      let fb = inst.Persistent.fb in
      let keys = [ "alpha"; "beta"; "gamma" ] in
      List.iter
        (fun k -> ignore (ok (FB.put fb ~key:k (Value.string ("v-" ^ k)))))
        keys;
      let h =
        match inst.Persistent.log with
        | Some h -> h
        | None -> Alcotest.fail "log engine not open"
      in
      let ack = Log_store.synced_bytes h in
      check int_ "puts acknowledged the whole log" (Log_store.file_bytes h) ack;
      (* Unacknowledged work after the last put: lost by the cut, harmless. *)
      ignore (Store.put (Log_store.store h) (blob 0));
      let log_bytes = read_file (Log_store.log_path h) in
      let cuts =
        [ ack; min (ack + 1) (String.length log_bytes);
          (ack + String.length log_bytes) / 2; String.length log_bytes ]
      in
      List.iteri
        (fun n cut ->
          let rig = Filename.concat dir (Printf.sprintf "rig%d" n) in
          Unix.mkdir rig 0o755;
          Unix.mkdir (Filename.concat rig "log") 0o755;
          write_file
            (Filename.concat (Filename.concat rig "log") "gen-0.log")
            (String.sub log_bytes 0 cut);
          write_file (Filename.concat (Filename.concat rig "log") "CURRENT") "0\n";
          let r = ok (Persistent.open_instance ~fsync:false ~root:rig ()) in
          let fb2 = r.Persistent.fb in
          List.iter
            (fun k ->
              (match FB.get fb2 ~key:k with
              | Ok v ->
                check bool_
                  (Printf.sprintf "cut=%d acknowledged key %s intact" cut k)
                  true
                  (Value.equal v (Value.string ("v-" ^ k)))
              | Error e ->
                Alcotest.fail
                  (Printf.sprintf "cut=%d acknowledged key %s lost: %s" cut k
                     (Errors.to_string e)));
              let uid = ok (FB.head fb2 ~key:k) in
              check bool_ (Printf.sprintf "cut=%d %s verifies" cut k) true
                (Result.is_ok (FB.verify fb2 uid)))
            keys;
          Persistent.close r)
        cuts;
      Persistent.close inst)

let test_persistent_backend_autodetect () =
  with_temp_dir (fun dir ->
      let ok = function
        | Ok v -> v
        | Error e -> Alcotest.fail (Errors.to_string e)
      in
      let chunk_log (i : Persistent.instance) =
        match i.log with
        | Some h -> Filename.basename (Log_store.root h) = "log"
        | None -> false
      in
      (* A fresh root gets the log engine... *)
      let file_root = Filename.concat dir "file" in
      let log_root = Filename.concat dir "log" in
      let i = ok (Persistent.open_instance ~root:log_root ()) in
      ignore (ok (FB.put i.fb ~key:"k" (Value.string "v")));
      check bool_ "fresh root is log-backed" true (chunk_log i);
      check bool_ "log dir exists" true
        (Sys.file_exists (Filename.concat log_root "log"));
      Persistent.close i;
      (* ...an existing chunks/ root keeps the file engine... *)
      let fi = ok (Persistent.open_instance ~backend:"file" ~root:file_root ()) in
      ignore (ok (FB.put fi.fb ~key:"k" (Value.string "v")));
      Persistent.close fi;
      let fi2 = ok (Persistent.open_instance ~root:file_root ()) in
      check bool_ "chunks root stays file-backed" false (chunk_log fi2);
      check bool_ "file data readable" true
        (Result.is_ok (FB.get fi2.fb ~key:"k"));
      Persistent.close fi2;
      (* ...and a log root auto-detects on reopen. *)
      let i2 = ok (Persistent.open_instance ~root:log_root ()) in
      check bool_ "log root reopens onto the log" true (chunk_log i2);
      check bool_ "log data readable" true (Result.is_ok (FB.get i2.fb ~key:"k"));
      Persistent.close i2)


(* ------------------------- the read path ------------------------- *)

(* The read the log made before its nonblocking first read: [lseek],
   then [read] until the range is whole or the file ends. *)
let blocking_read fd ~off ~len =
  match
    ignore (Unix.lseek fd off Unix.SEEK_SET);
    let b = Bytes.create len in
    let n = ref 0 and eof = ref false in
    while (not !eof) && !n < len do
      let r = Unix.read fd b !n (len - !n) in
      if r = 0 then eof := true else n := !n + r
    done;
    if !n < len then None else Some (Bytes.to_string b)
  with
  | r -> r
  | exception Unix.Unix_error _ -> None

type fast_answer = Whole | Short of int | Would_block | Eof | Unsupported

(* QCheck: whatever the nonblocking read answers — all of the range, a
   short count, EAGAIN, a spurious end of file, no support — [read_at]
   gives the blocking read's bytes, and [None] exactly where it does. *)
let qcheck_read_at_equals_blocking =
  let size = 5_000 in
  let content = String.init size (fun i -> Char.chr ((i * 131 + (i / 7)) land 255)) in
  let answer_gen =
    QCheck.Gen.(
      frequency
        [ (2, return Whole); (3, map (fun k -> Short k) (int_range 1 4_000));
          (2, return Would_block); (1, return Eof); (1, return Unsupported) ])
  in
  let range_gen = QCheck.Gen.(pair (int_range 0 (size + 50)) (int_range 0 3_000)) in
  let show = function
    | Whole -> "whole" | Short k -> Printf.sprintf "short %d" k
    | Would_block -> "eagain" | Eof -> "eof" | Unsupported -> "unsupported"
  in
  QCheck.Test.make ~name:"log: read_at = the blocking read, whatever the fast read answers"
    ~count:300
    (QCheck.make
       ~print:(fun (a, (off, len)) -> Printf.sprintf "%s at %d+%d" (show a) off len)
       QCheck.Gen.(pair answer_gen range_gen))
    (fun (answer, (off, len)) ->
      with_temp_dir (fun dir ->
          Unix.mkdir dir 0o755;
          let path = Filename.concat dir "f" in
          write_file path content;
          let fd = Unix.openfile path [ Unix.O_RDONLY ] 0 in
          Fun.protect
            ~finally:(fun () -> Unix.close fd)
            (fun () ->
              (* A fast read that answers with a count put that many real
                 bytes in the buffer, as preadv2 does. *)
              let copy buf pos n =
                let n = max 0 (min n (size - off)) in
                if n > 0 then Bytes.blit_string content off buf pos n;
                n
              in
              let fast _ buf pos want _ =
                match answer with
                | Whole -> copy buf pos want
                | Short k -> copy buf pos (min k want)
                | Would_block -> -1
                | Eof -> 0
                | Unsupported -> -2
              in
              let nowait = ref true in
              let got = Log_store.read_at ~fast ~nowait fd ~off ~len in
              let real = Log_store.read_at ~nowait:(ref true) fd ~off ~len in
              let expected = blocking_read fd ~off ~len in
              Option.equal String.equal got expected
              && Option.equal String.equal real expected
              && !nowait = (answer <> Unsupported || len = 0))))

(* Readers, an appender and compactions that swap the descriptors, all
   on one open log: every read of a record put earlier returns its bytes
   whole. *)
let test_concurrent_reads () =
  with_temp_dir (fun dir ->
      let log = Log_store.create ~config:quick_config ~root:dir () in
      let s = Log_store.store log in
      let payload i = Printf.sprintf "record %d %s" i (String.make (100 + (i mod 900)) 'r') in
      let put i = Store.put s (Chunk.v Chunk.Leaf_blob (payload i)) in
      let known = ref (Array.init 200 (fun i -> (put i, i))) in
      let known_lock = Mutex.create () in
      let bad = ref 0 and reads = ref 0 and stop = Atomic.make false in
      let reader seed () =
        let rng = Random.State.make [| seed |] in
        while not (Atomic.get stop) do
          let ids = Mutex.protect known_lock (fun () -> !known) in
          let id, i = ids.(Random.State.int rng (Array.length ids)) in
          (match Store.get s id with
          | Some c when String.equal c.Chunk.payload (payload i) -> ()
          | _ -> incr bad);
          incr reads;
          Thread.yield ()
        done
      in
      let readers = List.init 3 (fun k -> Thread.create (reader k) ()) in
      let appender =
        Thread.create
          (fun () ->
            for i = 200 to 599 do
              let id = put i in
              Mutex.protect known_lock (fun () -> known := Array.append !known [| (id, i) |]);
              if i mod 50 = 0 then Thread.yield ()
            done)
          ()
      in
      let gen0 = Log_store.generation log in
      for _ = 1 to 5 do
        Log_store.compact log;
        Thread.delay 0.002
      done;
      Thread.join appender;
      Atomic.set stop true;
      List.iter Thread.join readers;
      check int_ "no torn or missing record" 0 !bad;
      check bool_ "the readers read" true (!reads > 0);
      check int_ "five compactions swapped the file" (gen0 + 5) (Log_store.generation log);
      check int_ "every record readable after" 600
        (List.length (List.filter (fun (id, _) -> Store.get s id <> None)
           (Array.to_list !known)));
      Log_store.close log)

let suite =
  [ Alcotest.test_case "roundtrip and reopen" `Quick test_roundtrip_reopen;
    Alcotest.test_case "full replay without idx" `Quick
      test_full_replay_without_idx;
    Alcotest.test_case "group commit boundaries" `Quick test_group_commit;
    Alcotest.test_case "power-cut matrix: every offset, torn and truncated"
      `Quick test_power_cut_matrix;
    Alcotest.test_case "power-cut matrix: checkpoint file" `Quick
      test_idx_cut_matrix;
    QCheck_alcotest.to_alcotest qcheck_checkpoint_replay_equivalence;
    Alcotest.test_case "compaction" `Quick test_compaction;
    Alcotest.test_case "compaction honours gc liveness" `Quick
      test_compaction_gc_liveness;
    Alcotest.test_case "compaction crash stages" `Quick
      test_compaction_crash_stages;
    Alcotest.test_case "background compactor" `Quick test_background_compactor;
    Alcotest.test_case "fsck" `Quick test_fsck;
    Alcotest.test_case "fsck: deltas, and a broken one" `Quick test_fsck_deltas;
    Alcotest.test_case "damage is not a torn tail" `Quick
      test_damage_is_not_a_torn_tail;
    Alcotest.test_case "fsck: dishonest sealed record" `Quick
      test_fsck_bad_hash;
    Alcotest.test_case "on-disk compatibility: reference-sealed log and idx"
      `Quick test_on_disk_compat;
    Alcotest.test_case "checkpoint cadence: a delta per change"
      `Quick test_checkpoint_cadence;
    Alcotest.test_case "power-cut matrix: ref records" `Quick
      test_ref_power_cut_matrix;
    QCheck_alcotest.to_alcotest qcheck_ref_checkpoint_replay;
    Alcotest.test_case "compaction carries heads forward" `Quick
      test_compaction_refs;
    Alcotest.test_case "fsck: dangling and conflicting heads" `Quick
      test_fsck_refs;
    Alcotest.test_case "ref moves: acknowledged on return" `Quick
      test_ref_commit_wait;
    Alcotest.test_case "persistent: power cut after save" `Quick
      test_persistent_power_cut;
    Alcotest.test_case "persistent: backend autodetect" `Quick
      test_persistent_backend_autodetect;
    Alcotest.test_case "one instance per root" `Quick
      test_root_held_in_process;
    QCheck_alcotest.to_alcotest qcheck_read_at_equals_blocking;
    Alcotest.test_case "concurrent reads, appends and compactions" `Quick
      test_concurrent_reads ]
