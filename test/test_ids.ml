(* Id-only enumeration and byte-free membership.

   [Store.ids] must name exactly the chunks [Store.iter] visits, on every
   backend and composite, while reading no chunk bytes.  [Verified_store]
   in once mode must answer [mem] for an already-verified id with an
   index probe, and must still read, hash and refuse everything else.
   A counting inner store makes the read costs observable. *)

module Store = Fb_chunk.Store
module Chunk = Fb_chunk.Chunk
module Mem_store = Fb_chunk.Mem_store
module File_store = Fb_chunk.File_store
module Log_store = Fb_chunk.Log_store
module Pack = Fb_chunk.Pack
module Faulty = Fb_chunk.Faulty_store
module Cluster = Fb_chunk.Cluster_store
module Verified = Fb_chunk.Verified_store
module Metered = Fb_chunk.Metered_store
module Node_cache = Fb_postree.Node_cache
module Hash = Fb_hash.Hash
module FB = Fb_core.Forkbase
module Persistent = Fb_core.Persistent
module Sync = Fb_core.Sync
module Errors = Fb_core.Errors
module Value = Fb_types.Value

let check = Alcotest.check
let bool_ = Alcotest.bool
let int_ = Alcotest.int
let string_ = Alcotest.string

let ok_fb = function
  | Ok v -> v
  | Error e -> Alcotest.fail (Errors.to_string e)

let with_temp_dir f =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "fb_ids_%d_%d" (Unix.getpid ()) (Random.bits ()))
  in
  Fun.protect
    ~finally:(fun () -> ignore (Sys.command ("rm -rf " ^ Filename.quote dir)))
    (fun () -> f dir)

let quick_log = { Log_store.default_config with fsync = false }
let universe = 16
let blob i = Chunk.v Chunk.Leaf_blob (Printf.sprintf "ids chunk %d" i)

(* Sorted, duplicates kept: both views must name each chunk exactly once. *)
let via_iter s =
  let acc = ref [] in
  s.Store.iter (fun id _ -> acc := id :: !acc);
  List.sort Hash.compare !acc

let via_ids s =
  let acc = ref [] in
  Store.ids s (fun id -> acc := id :: !acc);
  List.sort Hash.compare !acc

let agree s = via_ids s = via_iter s

(* ---------------- ids = iter's identities ---------------- *)

type op = Put of int | Delete of int

let apply s = function
  | Put i -> ignore (Store.put s (blob i))
  | Delete i -> ignore (Store.delete s (Chunk.hash (blob i)))

let ops_arb =
  let op =
    QCheck.Gen.(
      map2
        (fun put i -> if put then Put i else Delete i)
        (frequency [ (3, return true); (1, return false) ])
        (int_bound (universe - 1)))
  in
  QCheck.make
    ~print:(fun ops ->
      String.concat " "
        (List.map
           (function
             | Put i -> Printf.sprintf "+%d" i
             | Delete i -> Printf.sprintf "-%d" i)
           ops))
    QCheck.Gen.(list_size (int_bound 40) op)

(* [run ops] applies the sequence to a fresh store and returns whether
   every checkpoint it chooses to take agreed. *)
let property ?(count = 100) name run =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count ~name:("ids = iter ids: " ^ name) ops_arb run)

let on_fresh make ops =
  let s = make () in
  List.iter (apply s) ops;
  agree s

let prop_mem = property "mem" (on_fresh (fun () -> Mem_store.create ()))

let prop_file =
  property ~count:30 "file" (fun ops ->
      with_temp_dir (fun dir ->
          on_fresh (fun () -> File_store.create ~root:dir ()) ops))

let prop_log =
  property ~count:30 "log, reopen, compact" (fun ops ->
      with_temp_dir (fun dir ->
          let log = Log_store.create ~config:quick_log ~root:dir () in
          List.iter (apply (Log_store.store log)) ops;
          let live = agree (Log_store.store log) in
          Log_store.close log;
          let log = Log_store.create ~config:quick_log ~root:dir () in
          let reopened = agree (Log_store.store log) in
          Log_store.compact log;
          let compacted = agree (Log_store.store log) in
          Log_store.close log;
          live && reopened && compacted))

(* A pack frozen from the first half of the sequence, then the second
   half applied to an overlay above it. *)
let with_pack ops f =
  with_temp_dir (fun dir ->
      Unix.mkdir dir 0o755;
      let path = Filename.concat dir "p.pack" in
      let n = List.length ops / 2 in
      let frozen = Mem_store.create () in
      List.iteri (fun i op -> if i < n then apply frozen op) ops;
      (match Pack.pack_store frozen ~path with
      | Ok _ -> ()
      | Error e -> failwith e);
      match Pack.open_file ~path with
      | Ok pack -> f pack (List.filteri (fun i _ -> i >= n) ops)
      | Error e -> failwith e)

let prop_pack =
  property ~count:30 "pack" (fun ops ->
      with_pack ops (fun pack _ -> agree (Pack.reader pack)))

let prop_overlay =
  property ~count:30 "overlay" (fun ops ->
      with_pack ops (fun pack rest ->
          let s = Pack.with_overlay ~packs:[ pack ] (Mem_store.create ()) in
          List.iter (apply s) rest;
          agree s))

let prop_faulty =
  property "faulty, torn appends"
    (on_fresh (fun () ->
         fst
           (Faulty.wrap
              { Faulty.calm with seed = 7L; torn_append_p = 0.5 }
              (Mem_store.create ()))))

let prop_cluster =
  property "cluster over mem members"
    (on_fresh (fun () ->
         Cluster.store
           (Cluster.create ~replicas:2
              ~members:
                (List.init 3 (fun i ->
                     (Printf.sprintf "m%d" i, Mem_store.create ())))
              ())))

(* Both views skip down members.  With two of three members down, the
   chunks whose two replicas both sit on down members drop out of both,
   and [mem] agrees with what they list. *)
let prop_sharded =
  property "sharded over mem members, members down" (fun ops ->
      let t =
        Cluster.create ~replicas:2
          ~members:
            (List.init 3 (fun i -> (Printf.sprintf "m%d" i, Mem_store.create ())))
          ()
      in
      let s = Cluster.store t in
      List.iter (apply s) ops;
      let consistent () =
        let listed = via_ids s in
        listed = via_iter s
        && List.for_all
             (fun i ->
               let id = Chunk.hash (blob i) in
               Store.mem s id = List.exists (Hash.equal id) listed)
             (List.init universe Fun.id)
      in
      let up = consistent () in
      Cluster.set_down t "m1" true;
      let one_down = consistent () in
      Cluster.set_down t "m2" true;
      let two_down = consistent () in
      Cluster.close t;
      up && one_down && two_down)

(* ---------------- read costs ---------------- *)

(* Counts every byte read the wrapped store serves: [get]/[get_raw],
   [peek], and each payload [iter] hands out.  [mem] and [ids] are not
   reads. *)
let counting (inner : Store.t) =
  let reads = ref 0 in
  let read f id = incr reads; f id in
  ( { inner with
      Store.name = "counting:" ^ inner.Store.name;
      get = read inner.Store.get;
      get_raw = read inner.Store.get_raw;
      peek = read inner.Store.peek;
      iter = (fun f -> inner.Store.iter (fun id raw -> incr reads; f id raw)) },
    reads )

let test_once_verified_mem_reads_nothing () =
  let inner, reads = counting (Mem_store.create ()) in
  let v, _ = Verified.wrap ~once:true inner in
  let id = Store.put v (blob 1) in
  check bool_ "first mem (unverified) answers" true (Store.mem v id);
  check int_ "put marks nothing verified: first mem reads the bytes" 1 !reads;
  reads := 0;
  for _ = 1 to 5 do
    check bool_ "verified id present" true (Store.mem v id)
  done;
  check int_ "no inner read for a verified id" 0 !reads;
  check bool_ "absent id" false (Store.mem v (Chunk.hash (blob 2)))

let test_once_tampered_mem_refused () =
  let mem, handle = Mem_store.create_with_handle () in
  let inner, _ = counting mem in
  let v, violations = Verified.wrap ~once:true inner in
  let id = Store.put v (blob 1) in
  check bool_ "tampered" true
    (Mem_store.tamper handle id ~f:(fun s -> s ^ "!"));
  let before = violations.Verified.rejected_reads in
  check bool_ "tampered chunk reported absent" false (Store.mem v id);
  check int_ "counted as a violation" (before + 1)
    violations.Verified.rejected_reads;
  check bool_ "and still refused on read" true (Store.get v id = None)

let test_once_mem_after_delete () =
  let inner, _ = counting (Mem_store.create ()) in
  let v, _ = Verified.wrap ~once:true inner in
  let id = Store.put v (blob 1) in
  check bool_ "read verifies" true (Store.get v id <> None);
  check bool_ "deleted" true (Store.delete v id);
  check bool_ "gone after delete" false (Store.mem v id)

let test_paranoid_mem_reads_each_time () =
  let inner, reads = counting (Mem_store.create ()) in
  let v, _ = Verified.wrap inner in
  let id = Store.put v (blob 1) in
  ignore (Store.get v id);
  reads := 0;
  for i = 1 to 4 do
    check bool_ "present" true (Store.mem v id);
    check int_ "one inner read per mem" i !reads
  done

(* Marking peeks each live chunk once; the sweep finds the dead set by id
   and peeks only the dead ones, so L live + D dead costs L + D reads. *)
let test_gc_sweep_reads_each_chunk_once () =
  let mem = Mem_store.create () in
  let inner, reads = counting mem in
  let live_n = 7 and dead_n = 5 in
  let live = List.init live_n (fun i -> Store.put inner (blob i)) in
  let dead = List.init dead_n (fun i -> Store.put inner (blob (100 + i))) in
  let dead_bytes =
    List.fold_left
      (fun acc id -> acc + String.length (Option.get (Store.peek mem id)))
      0 dead
  in
  reads := 0;
  let r = Fb_chunk.Gc.sweep inner ~children:(fun _ -> []) ~roots:live in
  check int_ "reads L + D payloads" (live_n + dead_n) !reads;
  check int_ "live chunks" live_n r.Fb_chunk.Gc.live_chunks;
  check int_ "swept chunks" dead_n r.Fb_chunk.Gc.swept_chunks;
  check int_ "swept bytes" dead_bytes r.Fb_chunk.Gc.swept_bytes;
  check bool_ "live kept, dead gone" true
    (List.for_all (Store.mem mem) live
     && not (List.exists (Store.mem mem) dead))

(* The server's stack: metered over verified-once over the log. *)
let with_server_stack f =
  with_temp_dir (fun dir ->
      let log = Log_store.create ~config:quick_log ~root:dir () in
      Fun.protect
        ~finally:(fun () -> Log_store.close log)
        (fun () ->
          let inner, reads = counting (Log_store.store log) in
          let v, _ = Verified.wrap ~once:true inner in
          f (Metered.wrap ~prefix:"test.ids" v) reads))

let test_sync_bloom_reads_nothing () =
  with_server_stack (fun store reads ->
      let fb = FB.create store in
      let rows =
        List.init 400 (fun i -> (Printf.sprintf "k%04d" i, string_of_int i))
      in
      ignore (ok_fb (FB.put fb ~key:"t" (Value.map_of_bindings store rows)));
      reads := 0;
      let bloom = ok_fb (FB.sync_bloom fb) in
      check int_ "sync_bloom reads no chunk bytes" 0 !reads;
      let expected = (Store.stats store).Store.physical_chunks in
      let reference = Sync.Bloom.create ~expected in
      store.Store.iter (fun id _ -> Sync.Bloom.add reference id);
      check bool_ "several chunks summarised" true (expected > 3);
      check string_ "bit-identical to a filter over iter's ids"
        (Sync.Bloom.encode reference) (Sync.Bloom.encode bloom))

let test_node_cache_hit_reads_nothing () =
  with_server_stack (fun store reads ->
      let cache : Chunk.t Node_cache.t = Node_cache.create ~name:"test.ids" in
      Node_cache.set_capacity cache 16;
      let id = Store.put store (blob 3) in
      let chunk =
        match Store.get store id with
        | Some c -> c
        | None -> Alcotest.fail "chunk lost"
      in
      Node_cache.add cache id chunk;
      reads := 0;
      for _ = 1 to 3 do
        check bool_ "cache hit" true
          (Node_cache.find_live cache store id <> None)
      done;
      check int_ "liveness probe reads no bytes" 0 !reads;
      ignore (Store.delete store id);
      check bool_ "a deleted chunk is never served" true
        (Node_cache.find_live cache store id = None))


(* ---------------- hash once: ingest marks ---------------- *)

let ingest_marked () = Fb_obs.Obs.counter_value (Fb_obs.Obs.counter "fb.verified.ingest_marked")

(* Flip a byte in the middle of the last record of the log at [path] that
   holds [chunk]'s encoding, under the open store, as media damage
   would. *)
let flip_on_disk path chunk =
  let enc = Chunk.encode chunk in
  let data = In_channel.with_open_bin path In_channel.input_all in
  let rec last i =
    if i < 0 then Alcotest.fail "record not in the log"
    else if String.sub data i (String.length enc) = enc then i
    else last (i - 1)
  in
  let at = last (String.length data - String.length enc) + (String.length enc / 2) in
  let fd = Unix.openfile path [ Unix.O_WRONLY ] 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      ignore (Unix.lseek fd at Unix.SEEK_SET);
      let b = Bytes.make 1 (Char.chr (Char.code data.[at] lxor 0xff)) in
      ignore (Unix.write fd b 0 1))

(* A log root's stack in once mode, as [Persistent] wires it. *)
let with_marking_stack f =
  with_temp_dir (fun dir ->
      let log = Log_store.create ~config:quick_log ~root:dir () in
      Fun.protect
        ~finally:(fun () -> Log_store.close log)
        (fun () ->
          let inner, reads = counting (Log_store.store log) in
          let v, violations = Verified.wrap ~once:true inner in
          let store = Metered.wrap ~prefix:"test.ids" v in
          f (FB.create store) store (Log_store.log_path log) reads violations))

let sync_put fb chunk =
  ignore (ok_fb (FB.sync_put fb ~key:"k" (Chunk.hash chunk) (Chunk.encode chunk)))

let test_ingest_served_unhashed () =
  with_marking_stack (fun fb store _ reads violations ->
      let c = blob 1 in
      let m0 = ingest_marked () in
      sync_put fb c;
      check int_ "the ingest marked its chunk" (m0 + 1) (ingest_marked ());
      reads := 0;
      let h0 = violations.Verified.hashed_reads in
      check bool_ "the first read serves it" true (Store.get store (Chunk.hash c) <> None);
      check int_ "from one read of the log" 1 !reads;
      check int_ "without a hash" h0 violations.Verified.hashed_reads;
      let id = Store.put store (blob 2) in
      check bool_ "a plain put's chunk reads" true (Store.get store id <> None);
      check int_ "hashed at its first read" (h0 + 1) violations.Verified.hashed_reads);
  (* [Persistent] marks on a log root. *)
  with_temp_dir (fun root ->
      let i = ok_fb (Persistent.open_instance ~root ()) in
      Fun.protect
        ~finally:(fun () -> Persistent.close i)
        (fun () ->
          let m0 = ingest_marked () in
          sync_put i.Persistent.fb (blob 3);
          check int_ "a log root marks its ingests" (m0 + 1) (ingest_marked ())))

let test_unmarked_damage_refused () =
  with_marking_stack (fun fb store path _ violations ->
      let plain = blob 4 in
      let id = Store.put store plain in
      flip_on_disk path plain;
      check bool_ "a plain put's flipped record is refused" true (Store.get store id = None);
      (* The gate hashes the healthy bytes it was sent, but the put finds
         the damaged record held and writes nothing: nothing is marked. *)
      let dup = blob 5 in
      let id = Store.put store dup in
      flip_on_disk path dup;
      let m0 = ingest_marked () and r0 = violations.Verified.rejected_reads in
      sync_put fb dup;
      check int_ "an ingest that deduplicates marks nothing" m0 (ingest_marked ());
      check bool_ "the damaged record is refused" true (Store.get store id = None);
      check int_ "as a violation" (r0 + 1) violations.Verified.rejected_reads)

(* A marked chunk that [gc] or [scrub] deletes loses its mark: written
   again by a plain put and damaged, it is refused at its first read. *)
let test_gc_and_scrub_forget_marks () =
  with_marking_stack (fun fb store path _ _ ->
      let rewrite_damaged c =
        ignore (Store.put store c);
        flip_on_disk path c;
        Store.get store (Chunk.hash c) = None
      in
      let swept = blob 6 in
      sync_put fb swept;
      let r = FB.gc fb in
      check bool_ "gc swept the marked chunk no head names" true
        (r.Fb_chunk.Gc.swept_chunks >= 1 && not (Store.mem store (Chunk.hash swept)));
      check bool_ "its damaged rewrite is refused" true (rewrite_damaged swept);
      let quarantined = blob 7 in
      sync_put fb quarantined;
      flip_on_disk path quarantined;
      let report = FB.scrub fb in
      check bool_ "scrub found the damage" true (report.Fb_chunk.Scrub.quarantined >= 1);
      check bool_ "its damaged rewrite is refused" true (rewrite_damaged quarantined))

(* A [delete] (gc's sweep, scrub's quarantine) that lands while an ingest
   stores its chunk, just before or just after the write, leaves no mark
   behind, and neither does a put that raises: the chunk, written again
   by a plain put and damaged, is refused at its first read. *)
let test_ingest_racing_delete_leaves_no_mark () =
  let flip s =
    let b = Bytes.of_string s in
    let at = Bytes.length b / 2 in
    Bytes.set b at (Char.chr (Char.code (Bytes.get b at) lxor 0xff));
    Bytes.to_string b
  in
  let cases =
    [ ("a delete just before the write", fun ~write ~delete -> delete (); write ());
      ("a delete just after the write", fun ~write ~delete ->
          let id = write () in
          delete ();
          id);
      ("a put that raises", fun ~write ~delete:_ ->
          ignore (write ());
          failwith "put failed") ]
  in
  List.iteri
    (fun i (name, race) ->
      let mem, h = Mem_store.create_with_handle () in
      let c = blob (10 + i) in
      let id = Chunk.hash c in
      (* [race] runs once, around the write of the ingest below, and
         deletes through the verifying store as gc and scrub do. *)
      let verified = ref Store.sink in
      let pending = ref (Some race) in
      let hooked =
        { mem with
          Store.put =
            (fun c ->
              match !pending with
              | None -> mem.Store.put c
              | Some race ->
                pending := None;
                race
                  ~write:(fun () -> mem.Store.put c)
                  ~delete:(fun () -> ignore (Store.delete !verified id))) }
      in
      let v, violations = Verified.wrap ~once:true hooked in
      verified := v;
      (try ignore (Store.ingest v c) with Failure _ -> ());
      ignore (Store.put v c);
      check bool_ (name ^ ": the rewrite is held") true (Mem_store.tamper h id ~f:flip);
      let r0 = violations.Verified.rejected_reads in
      check bool_ (name ^ ": its damage is refused at the first read") true
        (Store.get v id = None);
      check int_ (name ^ ": as a violation") (r0 + 1) violations.Verified.rejected_reads)
    cases

let suite =
  [ prop_mem;
    prop_file;
    prop_log;
    prop_pack;
    prop_overlay;
    prop_faulty;
    prop_cluster;
    prop_sharded;
    Alcotest.test_case "once: verified mem reads nothing" `Quick
      test_once_verified_mem_reads_nothing;
    Alcotest.test_case "once: tampered mem refused" `Quick
      test_once_tampered_mem_refused;
    Alcotest.test_case "once: mem false after delete" `Quick
      test_once_mem_after_delete;
    Alcotest.test_case "paranoid: one read per mem" `Quick
      test_paranoid_mem_reads_each_time;
    Alcotest.test_case "sync_bloom reads no bytes" `Quick
      test_sync_bloom_reads_nothing;
    Alcotest.test_case "node cache hit reads no bytes" `Quick
      test_node_cache_hit_reads_nothing;
    Alcotest.test_case "gc sweep reads each chunk once" `Quick
      test_gc_sweep_reads_each_chunk_once;
    Alcotest.test_case "once: an ingested chunk is served unhashed" `Quick
      test_ingest_served_unhashed;
    Alcotest.test_case "once: unmarked damage is refused" `Quick
      test_unmarked_damage_refused;
    Alcotest.test_case "once: gc and scrub forget marks" `Quick
      test_gc_and_scrub_forget_marks;
    Alcotest.test_case "once: a delete racing an ingest leaves no mark" `Quick
      test_ingest_racing_delete_leaves_no_mark ]
