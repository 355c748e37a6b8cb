(* Merkle-DAG delta sync: the pure pieces (plan_order, verify_encoded,
   have codec), the Forkbase ingest gates (sync_put / advance_head), the
   wire round trip over both server engines, delta efficiency on a small
   edit, and tamper refusal on ingest. *)

module FB = Fb_core.Forkbase
module Errors = Fb_core.Errors
module Sync = Fb_core.Sync
module Value = Fb_types.Value
module Hash = Fb_hash.Hash
module Store = Fb_chunk.Store
module Chunk = Fb_chunk.Chunk
module Mem_store = Fb_chunk.Mem_store
module Frame = Fb_net.Frame
module Remote = Fb_net.Remote
module Server = Fb_net.Server
module Mux = Fb_net.Mux
module Dag = Fb_repr.Dag
module Obs = Fb_obs.Obs

let check = Alcotest.check
let bool_ = Alcotest.bool
let int_ = Alcotest.int
let string_ = Alcotest.string

let ok_fb = function
  | Ok v -> v
  | Error e -> Alcotest.fail (Errors.to_string e)

let ok_net = function
  | Ok v -> v
  | Error e -> Alcotest.fail e

let test_config =
  { Server.default_config with port = 0 }

let with_server ?(config = test_config) fb f =
  let srv = ok_net (Server.start ~config fb) in
  Fun.protect ~finally:(fun () -> Server.stop srv) (fun () -> f srv)

let with_remote srv f =
  let r =
    match Remote.connect ~port:(Server.port srv) () with
    | Ok r -> r
    | Error e -> Alcotest.fail (Errors.to_string e)
  in
  Fun.protect ~finally:(fun () -> Remote.close r) (fun () -> f r)

let bindings n tag =
  List.init n (fun i -> (Printf.sprintf "r%06d" i, Printf.sprintf "%s%d" tag i))

(* ---------------- plan_order ---------------- *)

(* Random acyclic graphs: node i's children are drawn from nodes < i, so
   edges always point down.  The property: every emitted id appears
   after all of its missing children, each reachable-and-missing id is
   emitted exactly once, and nothing else is. *)
let qcheck_plan_order =
  let gen =
    QCheck.Gen.(
      int_range 1 24 >>= fun n ->
      let edge_lists =
        List.init n (fun i ->
            if i = 0 then return []
            else small_list (int_bound (i - 1)))
      in
      flatten_l edge_lists >>= fun edges ->
      list_size (int_range 1 4) (int_bound (n - 1)) >>= fun roots ->
      list_repeat n bool >>= fun missing_mask ->
      return (n, edges, roots, missing_mask))
  in
  QCheck.Test.make ~count:300 ~name:"plan_order is child-first and complete"
    (QCheck.make gen)
    (fun (n, edges, roots, missing_mask) ->
      let id_of = Array.init n (fun i -> Hash.of_string (string_of_int i)) in
      let idx_of = Hashtbl.create n in
      Array.iteri (fun i id -> Hashtbl.replace idx_of id i) id_of;
      let children id =
        List.map (fun j -> id_of.(j)) (List.nth edges (Hashtbl.find idx_of id))
      in
      let missing id = List.nth missing_mask (Hashtbl.find idx_of id) in
      let roots = List.map (fun i -> id_of.(i)) roots in
      let order = Sync.plan_order ~children ~missing ~roots in
      (* Expected membership: missing nodes reachable from roots through
         missing nodes only (descent stops at a held chunk). *)
      let expected = Hashtbl.create n in
      let rec reach id =
        if missing id && not (Hashtbl.mem expected id) then begin
          Hashtbl.replace expected id ();
          List.iter reach (children id)
        end
      in
      List.iter reach roots;
      let seen = Hashtbl.create n in
      List.for_all
        (fun id ->
          let child_first =
            List.for_all
              (fun c -> (not (missing c)) || Hashtbl.mem seen c)
              (children id)
          in
          let fresh = not (Hashtbl.mem seen id) in
          Hashtbl.replace seen id ();
          child_first && fresh && Hashtbl.mem expected id)
        order
      && Hashtbl.length seen = Hashtbl.length expected)

(* ---------------- have-bitmap codec ---------------- *)

let qcheck_have_roundtrip =
  QCheck.Test.make ~count:200 ~name:"have bitmap round-trip"
    QCheck.(list bool)
    (fun bits ->
      match Sync.decode_have (Sync.encode_have bits) with
      | Ok got -> got = bits
      | Error _ -> false)

let test_have_rejects_garbage () =
  List.iter
    (fun s ->
      match Sync.decode_have s with
      | Error (Errors.Invalid _) -> ()
      | Ok _ -> Alcotest.failf "accepted %S" s
      | Error e -> Alcotest.fail (Errors.to_string e))
    [ "2"; "10x01"; "yes"; "1 0" ]

(* ---------------- sync frame encodings ---------------- *)

(* Chunk payloads are raw binary; the length-prefixed token framing must
   carry them byte-exact alongside the seq header. *)
let qcheck_sync_put_frame_roundtrip =
  let any_string n = QCheck.Gen.(string_size ~gen:(char_range '\000' '\255') (0 -- n)) in
  QCheck.Test.make ~count:300 ~name:"sync-put request frame round-trip"
    (QCheck.make
       QCheck.Gen.(
         quad (any_string 40) (any_string 40) (any_string 2000)
           (opt (int_bound ((1 lsl 30) - 1)))))
    (fun (key, branch, bytes, seq) ->
      let req =
        Frame.Single [ "sync-put"; key; branch; "deadbeef"; bytes ]
      in
      match
        Frame.decode_request
          (Frame_ref.payload_of (Frame.request_frame ~user:"sync" ?seq req))
      with
      | Ok (u, _, s, r) -> u = "sync" && s = seq && r = req
      | Error _ -> false)

(* Any strict prefix of an encoded frame must leave the reader waiting
   for more or report a malformed prefix — never yield a complete
   (bogus) frame. *)
let qcheck_truncated_frame =
  let any_string n = QCheck.Gen.(string_size ~gen:(char_range '\000' '\255') (0 -- n)) in
  QCheck.Test.make ~count:300 ~name:"truncated frames never parse"
    (QCheck.make QCheck.Gen.(pair (any_string 500) (float_bound_inclusive 1.0)))
    (fun (payload, frac) ->
      let wire = Frame_ref.encode_frame payload in
      let cut = int_of_float (frac *. float_of_int (String.length wire)) in
      let cut = max 0 (min cut (String.length wire - 1)) in
      let r = Frame.reader () in
      let verdict = Frame.feed r (Bytes.of_string wire) 0 cut in
      Frame.next r = None
      && match verdict with
         | Ok () | Error (Frame.Malformed _) -> true
         | Error _ -> false)

let test_oversize_frame_rejected () =
  let wire = Frame_ref.encode_frame (String.make 4096 'x') in
  match
    Frame.feed (Frame.reader ~max_frame:1024 ()) (Bytes.of_string wire) 0
      (String.length wire)
  with
  | Error (Frame.Too_large n) ->
    check bool_ "announces the oversize length" true (n >= 4096)
  | _ -> Alcotest.fail "oversize frame accepted"

(* ---------------- verify_encoded ---------------- *)

let test_verify_encoded () =
  let store = Mem_store.create () in
  let fb = FB.create store in
  ignore (ok_fb (FB.put fb ~key:"k" (Value.string "payload")));
  let head = ok_fb (FB.head fb ~key:"k") in
  let encoded = Option.get (Store.peek store head) in
  (* Pristine bytes verify. *)
  (match Sync.verify_encoded head encoded with
   | Ok chunk -> check bool_ "hash matches" true (Hash.equal (Chunk.hash chunk) head)
   | Error e -> Alcotest.fail (Errors.to_string e));
  (* One flipped byte is refused. *)
  let tampered = Bytes.of_string encoded in
  let last = Bytes.length tampered - 1 in
  Bytes.set tampered last (Char.chr (Char.code (Bytes.get tampered last) lxor 1));
  (match Sync.verify_encoded head (Bytes.to_string tampered) with
   | Error (Errors.Corrupt _) -> ()
   | Ok _ -> Alcotest.fail "tampered bytes verified"
   | Error e -> Alcotest.fail (Errors.to_string e));
  (* Bytes of a different (genuine) chunk are refused against this id. *)
  ignore (ok_fb (FB.put fb ~key:"k2" (Value.string "other")));
  let other = ok_fb (FB.head fb ~key:"k2") in
  match Sync.verify_encoded head (Option.get (Store.peek store other)) with
  | Error (Errors.Corrupt _) -> ()
  | Ok _ -> Alcotest.fail "wrong chunk accepted under this id"
  | Error e -> Alcotest.fail (Errors.to_string e)

(* ---------------- sync_put / advance_head (wire-free) ---------------- *)

(* Walk a head's full closure out of [src]'s store in child-first order. *)
let closure_plan src_store head =
  Sync.plan_order
    ~children:(fun id ->
      match Store.peek src_store id with
      | None -> []
      | Some encoded -> (
        match Chunk.decode encoded with
        | Ok chunk -> Sync.children chunk
        | Error _ -> []))
    ~missing:(fun _ -> true) ~roots:[ head ]

let test_sync_put_and_advance () =
  let src_store = Mem_store.create () in
  let src = FB.create src_store in
  ignore
    (ok_fb (FB.put src ~key:"m" (Value.map_of_bindings src_store (bindings 1200 "v"))));
  let head = ok_fb (FB.head src ~key:"m") in
  let plan = closure_plan src_store head in
  check bool_ "multi-chunk value" true (List.length plan > 3);
  let dst = FB.create (Mem_store.create ()) in
  (* Parent before children is refused: the closure invariant. *)
  (match
     FB.sync_put dst ~key:"m" head (Option.get (Store.peek src_store head))
   with
   | Error (Errors.Invalid msg) ->
     check bool_ "names the missing children" true
       (Tutil.contains msg "children")
   | Ok _ -> Alcotest.fail "orphaning sync_put accepted"
   | Error e -> Alcotest.fail (Errors.to_string e));
  (* advance_head without the version present is refused. *)
  (match FB.advance_head dst ~key:"m" head with
   | Error (Errors.Version_not_found _) -> ()
   | Ok _ -> Alcotest.fail "advanced onto an absent version"
   | Error e -> Alcotest.fail (Errors.to_string e));
  (* Child-first streaming is accepted chunk by chunk... *)
  List.iter
    (fun id ->
      ignore
        (ok_fb
           (FB.sync_put dst ~key:"m" id (Option.get (Store.peek src_store id)))))
    plan;
  (* ...and a watcher sees the atomic head jump. *)
  let events = ref [] in
  ignore (FB.watch dst (fun ev -> events := ev :: !events));
  let uid = ok_fb (FB.advance_head dst ~key:"m" head) in
  check bool_ "advanced to the source head" true (Hash.equal uid head);
  check int_ "one watch event for the whole transfer" 1 (List.length !events);
  check bool_ "replica head equal" true
    (Hash.equal (ok_fb (FB.head dst ~key:"m")) head);
  check bool_ "replica scrubs clean" true
    (Fb_chunk.Scrub.clean (FB.scrub ~dry_run:true dst));
  (* Divergence is refused: advance is fast-forward only. *)
  let fork = FB.create (Mem_store.create ()) in
  ignore (ok_fb (FB.put fork ~key:"m" (Value.string "divergent")));
  let plan_to fb' =
    List.iter
      (fun id ->
        ignore
          (ok_fb
             (FB.sync_put fb' ~key:"m" id
                (Option.get (Store.peek src_store id)))))
      plan
  in
  plan_to fork;
  match FB.advance_head fork ~key:"m" head with
  | Error (Errors.Invalid msg) ->
    check bool_ "names fast-forward" true (Tutil.contains msg "fast-forward")
  | Ok _ -> Alcotest.fail "non-fast-forward advance accepted"
  | Error e -> Alcotest.fail (Errors.to_string e)

let test_sync_put_refuses_mismatch () =
  let src_store = Mem_store.create () in
  let src = FB.create src_store in
  ignore (ok_fb (FB.put src ~key:"k" (Value.string "v")));
  let head = ok_fb (FB.head src ~key:"k") in
  let encoded = Option.get (Store.peek src_store head) in
  let dst = FB.create (Mem_store.create ()) in
  let bogus = Hash.of_string "not-these-bytes" in
  match FB.sync_put dst ~key:"k" bogus encoded with
  | Error (Errors.Corrupt msg) ->
    check bool_ "calls out tampering" true (Tutil.contains msg "refusing")
  | Ok _ -> Alcotest.fail "mismatched id accepted"
  | Error e -> Alcotest.fail (Errors.to_string e)

(* ---------------- wire round trip (both engines) ---------------- *)

let run_push_pull_roundtrip mode () =
  let config = { test_config with mode } in
  let src_store = Mem_store.create () in
  let src = FB.create src_store in
  ignore
    (ok_fb
       (FB.put src ~key:"table"
          (Value.map_of_bindings src_store (bindings 1500 "v"))));
  let srv_fb = FB.create (Mem_store.create ()) in
  with_server ~config srv_fb (fun srv ->
      with_remote srv (fun r ->
          (* Full push: the server starts empty, everything crosses. *)
          let uid, full = ok_fb (Remote.push r src ~key:"table") in
          check bool_ "pushed head is the source head" true
            (Hash.equal uid (ok_fb (FB.head src ~key:"table")));
          check bool_ "server head advanced" true
            (Hash.equal uid (ok_fb (FB.head srv_fb ~key:"table")));
          check bool_ "chunks crossed" true (full.Sync.chunks_moved > 3);
          check bool_ "server value scrubs clean" true
            (Fb_chunk.Scrub.clean (FB.scrub ~dry_run:true srv_fb));
          (* Idempotent: nothing to send when heads agree. *)
          let _, again = ok_fb (Remote.push r src ~key:"table") in
          check int_ "no chunks on an up-to-date push" 0
            again.Sync.chunks_moved;
          (* A small edit ships a small delta: shared subtrees are
             skipped at the frontier. *)
          ignore
            (ok_fb
               (FB.put src ~key:"table"
                  (Value.map_of_bindings src_store
                     (("r000000", "EDITED")
                      :: List.tl (bindings 1500 "v")))));
          let _, delta = ok_fb (Remote.push r src ~key:"table") in
          check bool_ "delta moved something" true (delta.Sync.chunks_moved > 0);
          check bool_ "delta far smaller than full" true
            (delta.Sync.chunks_moved * 2 < full.Sync.chunks_moved);
          check bool_ "frontier cut at shared chunks" true
            (delta.Sync.chunks_skipped > 0);
          (* Pull the whole thing into a fresh replica. *)
          let dst = FB.create (Mem_store.create ()) in
          let puid, pfull = ok_fb (Remote.pull r dst ~key:"table") in
          check bool_ "pulled head matches" true
            (Hash.equal puid (ok_fb (FB.head src ~key:"table")));
          check bool_ "pull moved the closure" true
            (pfull.Sync.chunks_moved > 3);
          check bool_ "freshly-pulled root scrubs clean" true
            (Fb_chunk.Scrub.clean (FB.scrub ~dry_run:true dst));
          (* Pull is idempotent too... *)
          let _, pagain = ok_fb (Remote.pull r dst ~key:"table") in
          check int_ "no chunks on an up-to-date pull" 0
            pagain.Sync.chunks_moved;
          (* ...and an incremental pull after another small edit is a
             delta, not a full transfer. *)
          ignore
            (ok_fb
               (FB.put src ~key:"table"
                  (Value.map_of_bindings src_store
                     (("r000001", "EDITED2")
                      :: List.tl (bindings 1500 "v")))));
          ignore (ok_fb (Remote.push r src ~key:"table"));
          let _, pdelta = ok_fb (Remote.pull r dst ~key:"table") in
          check bool_ "incremental pull is a delta" true
            (pdelta.Sync.chunks_moved * 2 < pfull.Sync.chunks_moved);
          check bool_ "incremental pull skipped shared chunks" true
            (pdelta.Sync.chunks_skipped > 0);
          (* Divergent histories are refused over the wire as well. *)
          let rogue_store = Mem_store.create () in
          let rogue = FB.create rogue_store in
          ignore (ok_fb (FB.put rogue ~key:"table" (Value.string "divergent")));
          match Remote.push r rogue ~key:"table" with
          | Error (Errors.Invalid msg) ->
            check bool_ "non-fast-forward push refused" true
              (Tutil.contains msg "fast-forward")
          | Ok _ -> Alcotest.fail "divergent push accepted"
          | Error e -> Alcotest.fail (Errors.to_string e)))

(* ---------------- per-verb server histograms ---------------- *)

(* Each sync and cluster verb is timed under its own fb.net.<verb>_seconds
   histogram, so a push's bloom, have and put costs can be told apart;
   none of them falls into the catch-all. *)
let test_sync_verb_histograms () =
  let module Obs = Fb_obs.Obs in
  let verbs =
    [ "sync_have"; "sync_get"; "sync_put"; "sync_advance"; "sync_bloom";
      "chunk_put"; "chunk_stat" ]
  in
  let count name =
    Obs.hist_count (Obs.histogram ("fb.net." ^ name ^ "_seconds"))
  in
  let was = Obs.is_enabled () in
  Obs.set_enabled true;
  Fun.protect ~finally:(fun () -> Obs.set_enabled was) @@ fun () ->
  let before = List.map count verbs and other_before = count "other" in
  let src_store = Mem_store.create () in
  let src = FB.create src_store in
  let put tag =
    ignore
      (ok_fb
         (FB.put src ~key:"table"
            (Value.map_of_bindings src_store (bindings 1500 tag))))
  in
  with_server (FB.create (Mem_store.create ())) (fun srv ->
      with_remote srv (fun r ->
          put "v";
          ignore (ok_fb (Remote.push r src ~key:"table"));
          put "w";
          ignore (ok_fb (Remote.push r src ~key:"table"));
          (* Pushes and pulls batch their puts and gets, and a
             fast-forward push has no Bloom positive to confirm; single
             frames of each are what carry the verb's own name. *)
          let leaf = Chunk.v Chunk.Leaf_blob "single sync-put" in
          let leaf_id = Hash.to_hex (Chunk.hash leaf) in
          ignore
            (ok_fb
               (Remote.raw r
                  [ "sync-put"; "table"; "master"; leaf_id; Chunk.encode leaf ]));
          ignore (ok_fb (Remote.raw r [ "sync-have"; leaf_id ]));
          let chunks = Remote.chunk_store r in
          let id = Store.put chunks (Chunk.v Chunk.Leaf_blob "cluster slice") in
          check bool_ "sync-get serves the chunk" true
            (Store.get chunks id <> None);
          ignore (Store.stats chunks)));
  List.iter2
    (fun verb b ->
      check bool_ (verb ^ " has its own histogram") true (count verb > b))
    verbs before;
  check int_ "nothing fell into other_seconds" other_before (count "other")

(* Reply framing is its own stage: a pull's sync-get BATCH frame records
   a fb.net.reply_encode_seconds sample instead of hiding in transit. *)
let test_reply_encode_histogram () =
  let module Obs = Fb_obs.Obs in
  let module Mux = Fb_net.Mux in
  let hist = Obs.histogram "fb.net.reply_encode_seconds" in
  let was = Obs.is_enabled () in
  Obs.set_enabled true;
  Fun.protect ~finally:(fun () -> Obs.set_enabled was) @@ fun () ->
  let store = Mem_store.create () in
  let id = Store.put store (Chunk.v Chunk.Leaf_blob "framed once") in
  with_server (FB.create store) (fun srv ->
      let m =
        match Mux.connect ~port:(Server.port srv) () with
        | Ok m -> m
        | Error e -> Alcotest.fail (Fb_net.Client.error_to_string e)
      in
      Fun.protect ~finally:(fun () -> Mux.close m) @@ fun () ->
      let before = Obs.hist_count hist in
      (match Mux.batch m [ [ "sync-get"; Hash.to_hex id ] ] with
       | Ok [ Ok _ ] -> ()
       | _ -> Alcotest.fail "sync-get batch failed");
      check bool_ "the batch reply was timed" true
        (Obs.hist_count hist > before))

(* ---------------- tamper refusal over the wire ---------------- *)

(* A malicious server answers sync-get with corrupted bytes.  The puller
   re-hashes every chunk against the id it asked for, refuses the
   transfer, and leaves the local store untouched. *)
let test_pull_refuses_tampered_chunks () =
  let store = Mem_store.create () in
  let corrupting =
    { store with
      Store.name = "tampering";
      get_raw =
        (fun id ->
          Option.map
            (fun s ->
              let b = Bytes.of_string s in
              let last = Bytes.length b - 1 in
              Bytes.set b last
                (Char.chr (Char.code (Bytes.get b last) lxor 1));
              Bytes.to_string b)
            (store.Store.get_raw id)) }
  in
  let srv_fb = FB.create corrupting in
  ignore (ok_fb (FB.put srv_fb ~key:"k" (Value.string "honest value")));
  with_server srv_fb (fun srv ->
      with_remote srv (fun r ->
          let dst_store = Mem_store.create () in
          let dst = FB.create dst_store in
          (match Remote.pull r dst ~key:"k" with
           | Error (Errors.Corrupt _) -> ()
           | Ok _ -> Alcotest.fail "tampered pull accepted"
           | Error e -> Alcotest.fail (Errors.to_string e));
          check int_ "nothing reached the local store" 0
            (Store.stats dst_store).Store.physical_chunks;
          match FB.head dst ~key:"k" with
          | Error (Errors.Key_not_found _) -> ()
          | Ok _ -> Alcotest.fail "branch head advanced on a refused pull"
          | Error e -> Alcotest.fail (Errors.to_string e)))

(* ---------------- the allocation-free Bloom filter ---------------- *)

(* The filter against the one it replaced (test/bloom_ref.ml): the same
   ids added give byte-identical wire forms, the same fill ratio, and the
   same answer to every probe. *)
let qcheck_bloom_oracle =
  QCheck.Test.make ~count:200 ~name:"bloom filter matches the old filter"
    QCheck.(
      triple (int_range 1 5000)
        (list_of_size Gen.(0 -- 600) (string_of_size Gen.(0 -- 12)))
        (list_of_size Gen.(1 -- 300) (string_of_size Gen.(0 -- 12))))
    (fun (expected, added, probes) ->
      let b = Sync.Bloom.create ~expected and r = Bloom_ref.create ~expected in
      List.iter
        (fun s ->
          let id = Hash.of_string s in
          Sync.Bloom.add b id;
          Bloom_ref.add r id)
        added;
      Sync.Bloom.encode b = Bloom_ref.encode r
      && Sync.Bloom.fill_ratio b = Bloom_ref.fill_ratio r
      && List.for_all
           (fun s ->
             let id = Hash.of_string s in
             Sync.Bloom.mem b id = Bloom_ref.mem r id)
           (probes @ added))

(* ---------------- the wave driver ---------------- *)

let store_ids store =
  let acc = ref [] in
  Store.ids store (fun id -> acc := Hash.to_hex id :: !acc);
  List.sort compare !acc

(* The same chunks moved, skipped and missed. *)
let same_work (a : Sync.stats) (b : Sync.stats) =
  a.chunks_moved = b.chunks_moved
  && a.bytes_moved = b.bytes_moved
  && a.chunks_skipped = b.chunks_skipped
  && a.bloom_fp = b.bloom_fp

(* Equal stats; [rounds] only when no Bloom false positive occurred: a
   false positive's children join the queue when its confirmation is
   read, which a window may do after later waves went out. *)
let same_stats (a : Sync.stats) b =
  same_work a b && (a.bloom_fp > 0 || a.rounds = b.rounds)

(* A push cuts the ids its peer's head vouches for without a probe: it
   does the probing walk [a]'s work in no more round trips. *)
let same_push_stats (a : Sync.stats) b = same_work a b && b.Sync.rounds <= a.rounds

(* Random maps and edit histories, synced twice: by the sequential walks
   (test/sync_walk_ref.ml) against one server, and by Remote.push/pull
   against a twin.  The first version is pushed and pulled; each later
   one is committed and pushed (every version, or only the last), and
   the last is pulled: one walk down several versions at once, where
   replies add ids while a partial wave waits — the case the wave rule
   is for.  Both sides must stage the same chunks (the servers' stores,
   heads and the replicas' stores stay equal) and report the same stats,
   but for push's rounds: Remote.push skips the remote head's chunks
   without probing them, so it may take fewer. *)
let driver_oracle mode () =
  let config = { test_config with mode } in
  let fb_ref = FB.create (Mem_store.create ())
  and fb_new = FB.create (Mem_store.create ()) in
  with_server ~config fb_ref @@ fun srv_ref ->
  with_server ~config fb_new @@ fun srv_new ->
  with_remote srv_ref @@ fun r_ref ->
  with_remote srv_new @@ fun r_new ->
  let case = ref 0 in
  let prop (n, eager, history) =
    incr case;
    let key = Printf.sprintf "k%d" !case in
    let src_store = Mem_store.create () in
    let src = FB.create src_store in
    let rows = Array.of_list (bindings n "v") in
    let dst_ref = FB.create (Mem_store.create ())
    and dst_new = FB.create (Mem_store.create ()) in
    let same ~stats (uid_a, stats_a) (uid_b, stats_b) =
      Hash.equal uid_a uid_b && stats stats_a stats_b
    in
    let commit () =
      ignore
        (ok_fb
           (FB.put src ~key (Value.map_of_bindings src_store (Array.to_list rows))))
    in
    let push () =
      same ~stats:same_push_stats
        (ok_fb (Sync_walk_ref.push r_ref src ~key))
        (ok_fb (Remote.push r_new src ~key))
      && store_ids (FB.store fb_ref) = store_ids (FB.store fb_new)
      && Result.equal ~ok:Hash.equal ~error:( = ) (FB.head fb_ref ~key)
           (FB.head fb_new ~key)
    in
    let pull () =
      same ~stats:same_stats
        (ok_fb (Sync_walk_ref.pull r_ref dst_ref ~key))
        (ok_fb (Remote.pull r_new dst_new ~key))
      && store_ids (FB.store dst_ref) = store_ids (FB.store dst_new)
    in
    commit ();
    let first = push () && pull () in
    let last = List.length history - 1 in
    let later =
      List.mapi
        (fun i edits ->
          List.iter
            (fun (pos, v) ->
              let i = pos mod n in
              rows.(i) <- (fst rows.(i), Printf.sprintf "e%d" v))
            edits;
          commit ();
          ((not eager) && i < last) || push ())
        history
    in
    first && List.for_all Fun.id later && (history = [] || pull ())
  in
  (* No shrinking: each try is a full sync, and a failing case prints. *)
  QCheck.Test.check_exn
    (QCheck.Test.make ~count:8 ~name:"wave driver = sequential walks"
       (QCheck.make
          ~print:QCheck.Print.(triple int bool (list (list (pair int int))))
          QCheck.Gen.(
            triple (int_range 100 80_000) bool
              (list_size (0 -- 6)
                 (list_size (1 -- 300) (pair (int_bound 1_000_000) small_nat)))))
       prop)

(* Breadth-first order of a head's closure: the order a pull's waves
   fetch it in. *)
let bfs_order store head =
  let seen = Hash.Tbl.create 64 and q = Queue.create () and out = ref [] in
  Hash.Tbl.replace seen head ();
  Queue.add head q;
  while not (Queue.is_empty q) do
    let id = Queue.pop q in
    out := id :: !out;
    match Option.map Chunk.decode (Store.peek store id) with
    | Some (Ok chunk) ->
      List.iter
        (fun kid ->
          if not (Hash.Tbl.mem seen kid) then begin
            Hash.Tbl.replace seen kid ();
            Queue.add kid q
          end)
        (Sync.children chunk)
    | _ -> ()
  done;
  List.rev !out

(* A server store that serves one chosen chunk with a flipped byte. *)
let tampering store target =
  { store with
    Store.name = "tampering";
    get_raw =
      (fun id ->
        Option.map
          (fun s ->
            if not (Option.equal Hash.equal (Some id) !target) then s
            else begin
              let b = Bytes.of_string s in
              Bytes.set b 0 (Char.chr (Char.code (Bytes.get b 0) lxor 1));
              Bytes.to_string b
            end)
          (store.Store.get_raw id)) }

(* A tampered chunk in a middle wave, with later waves already in flight,
   fails the pull with [Corrupt]: nothing reaches the local store, the
   head stays absent, and the same Remote then serves a clean pull and a
   plain request with no stale reply. *)
let test_tampered_later_wave mode () =
  let store = Mem_store.create () in
  let target = ref None in
  let srv_fb = FB.create (tampering store target) in
  let honest =
    ok_fb
      (FB.put srv_fb ~key:"k"
         (Value.map_of_bindings store (bindings 100_000 "v")))
  in
  let order = bfs_order store honest in
  let waves = (List.length order + Sync.get_batch - 1) / Sync.get_batch in
  check bool_ "enough waves to fill the window" true (waves > Sync.wave_window + 2);
  (* Past the first waves, with full waves still queued behind it. *)
  let queued_behind = Sync.wave_window * Sync.get_batch in
  target := Some (List.nth order (List.length order - queued_behind - 1));
  with_server ~config:{ test_config with mode } srv_fb (fun srv ->
      with_remote srv (fun r ->
          let dst_store = Mem_store.create () in
          let dst = FB.create dst_store in
          (match Remote.pull r dst ~key:"k" with
           | Error (Errors.Corrupt _) -> ()
           | Ok _ -> Alcotest.fail "tampered pull accepted"
           | Error e -> Alcotest.fail (Errors.to_string e));
          check int_ "nothing reached the local store" 0
            (Store.stats dst_store).Store.physical_chunks;
          (match FB.head dst ~key:"k" with
           | Error (Errors.Key_not_found _) -> ()
           | Ok _ -> Alcotest.fail "branch head advanced on a refused pull"
           | Error e -> Alcotest.fail (Errors.to_string e));
          check bool_ "the next request answers its own question" true
            (Result.map (Hash.equal honest) (Remote.head r ~key:"k") = Ok true);
          target := None;
          let uid, _ = ok_fb (Remote.pull r dst ~key:"k") in
          check bool_ "a clean pull on the same Remote" true (Hash.equal uid honest);
          check bool_ "and its replica scrubs clean" true
            (Fb_chunk.Scrub.clean (FB.scrub ~dry_run:true dst))))

(* A loopback relay to [port] that cuts its first connection once
   [cut_after] bytes have come back from the server; later connections
   relay untouched.  [f] gets the relay's port and a count of the
   connections it accepted. *)
let with_relay ~port ~cut_after f =
  let lfd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt lfd Unix.SO_REUSEADDR true;
  Unix.bind lfd (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  Unix.listen lfd 8;
  let relay_port =
    match Unix.getsockname lfd with Unix.ADDR_INET (_, p) -> p | _ -> assert false
  in
  let cuts = ref 0 and threads = ref [] in
  let close fd = try Unix.close fd with Unix.Unix_error _ -> () in
  let kill a b =
    List.iter
      (fun fd -> try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ())
      [ a; b ]
  in
  let pump ~limit src dst =
    let buf = Bytes.create 65536 in
    let moved = ref 0 in
    let rec go () =
      match Unix.read src buf 0 65536 with
      | 0 -> kill src dst
      | n ->
        moved := !moved + n;
        if !moved > limit then kill src dst
        else begin
          ignore (Unix.write dst buf 0 n);
          go ()
        end
      | exception Unix.Unix_error _ -> kill src dst
    in
    (try go () with Unix.Unix_error _ -> kill src dst)
  in
  let accept () =
    let rec loop () =
      match Unix.accept lfd with
      | exception Unix.Unix_error _ -> ()
      | cfd, _ ->
        let sfd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
        Unix.connect sfd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
        let limit = if !cuts = 0 then cut_after else max_int in
        incr cuts;
        (* The fds are closed only once both pumps are done: a pump still
           blocked on a closed fd would wake on its number reused by the
           next connection, and read from or shut down that one. *)
        let up = Thread.create (fun () -> pump ~limit:max_int cfd sfd) () in
        let down =
          Thread.create
            (fun () ->
              pump ~limit sfd cfd;
              Thread.join up;
              close sfd;
              close cfd)
            ()
        in
        threads := up :: down :: !threads;
        loop ()
    in
    loop ()
  in
  let acceptor = Thread.create accept () in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.shutdown lfd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
      close lfd;
      Thread.join acceptor)
    (fun () -> f relay_port (fun () -> !cuts))

(* The connection drops mid-walk: the driver re-dials once, re-issues the
   waves in flight, and the pull ends exactly as an uninterrupted one. *)
let test_pull_survives_one_drop mode () =
  let store = Mem_store.create () in
  let srv_fb = FB.create store in
  let head =
    ok_fb
      (FB.put srv_fb ~key:"k"
         (Value.map_of_bindings store (bindings 100_000 "v")))
  in
  with_server ~config:{ test_config with mode } srv_fb (fun srv ->
      let direct = FB.create (Mem_store.create ()) in
      let _, want =
        with_remote srv (fun r -> ok_fb (Remote.pull r direct ~key:"k"))
      in
      with_relay ~port:(Server.port srv) ~cut_after:(want.Sync.bytes_moved / 2)
        (fun port accepted ->
          let r =
            match Remote.connect ~port () with
            | Ok r -> r
            | Error e -> Alcotest.fail (Errors.to_string e)
          in
          Fun.protect ~finally:(fun () -> Remote.close r) (fun () ->
              let dst = FB.create (Mem_store.create ()) in
              let uid, got = ok_fb (Remote.pull r dst ~key:"k") in
              check int_ "one reconnect" 2 (accepted ());
              check bool_ "pulled the head" true (Hash.equal uid head);
              check bool_ "the stats of an uninterrupted pull" true
                (same_stats want got);
              check bool_ "the same chunks" true
                (store_ids (FB.store direct) = store_ids (FB.store dst)))))

(* The server stops mid-walk: the one reconnect finds nobody, the pull
   ends [Transient], and the local store and head are untouched. *)
let test_pull_server_stops mode () =
  let store = Mem_store.create () in
  let srv = ref None and gets = ref 0 in
  let stopping =
    { store with
      Store.get_raw =
        (fun id ->
          incr gets;
          if !gets = 3 * Sync.get_batch then begin
            ignore (Thread.create (fun () -> Option.iter Server.stop !srv) ());
            Thread.delay 0.2
          end;
          store.Store.get_raw id) }
  in
  let srv_fb = FB.create stopping in
  ignore
    (ok_fb
       (FB.put srv_fb ~key:"k"
          (Value.map_of_bindings store (bindings 100_000 "v"))));
  let s = ok_net (Server.start ~config:{ test_config with mode } srv_fb) in
  srv := Some s;
  gets := 0;
  Fun.protect ~finally:(fun () -> Server.stop s) (fun () ->
      with_remote s (fun r ->
          let dst_store = Mem_store.create () in
          let dst = FB.create dst_store in
          (match Remote.pull r dst ~key:"k" with
           | Error (Errors.Transient _) -> ()
           | Ok _ -> Alcotest.fail "pull finished against a stopped server"
           | Error e -> Alcotest.fail (Errors.to_string e));
          check int_ "nothing reached the local store" 0
            (Store.stats dst_store).Store.physical_chunks;
          check bool_ "no head" true (Result.is_error (FB.head dst ~key:"k"))))

(* A pull observes each client stage once: wave wait, verify and the
   local store; a push observes wave wait, verify and its sync-put
   stream once. *)
let test_stage_histograms () =
  let module Obs = Fb_obs.Obs in
  let walk = [ "fb.remote.sync_wave_wait_seconds"; "fb.remote.sync_verify_seconds" ] in
  let names = walk @ [ "fb.remote.sync_store_seconds" ] in
  let push_names = walk @ [ "fb.remote.sync_stream_seconds" ] in
  let count name = Obs.hist_count (Obs.histogram name) in
  let was = Obs.is_enabled () in
  Obs.set_enabled true;
  Fun.protect ~finally:(fun () -> Obs.set_enabled was) @@ fun () ->
  let store = Mem_store.create () in
  let srv_fb = FB.create store in
  ignore
    (ok_fb
       (FB.put srv_fb ~key:"k" (Value.map_of_bindings store (bindings 3_000 "v"))));
  with_server srv_fb (fun srv ->
      with_remote srv (fun r ->
          let before = List.map count names in
          ignore (ok_fb (Remote.pull r (FB.create (Mem_store.create ())) ~key:"k"));
          List.iter2
            (fun name b -> check int_ (name ^ " once per pull") (b + 1) (count name))
            names before;
          let before = List.map count push_names in
          let src_store = Mem_store.create () in
          let src = FB.create src_store in
          ignore
            (ok_fb
               (FB.put src ~key:"p"
                  (Value.map_of_bindings src_store (bindings 3_000 "w"))));
          ignore (ok_fb (Remote.push r src ~key:"p"));
          List.iter2
            (fun name b -> check int_ (name ^ " once per push") (b + 1) (count name))
            push_names before))

(* ---------------- the known-held set ---------------- *)

let id_set ids =
  let t = Hash.Tbl.create 64 in
  List.iter (fun id -> Hash.Tbl.replace t id ()) ids;
  t

let chunk_of store id =
  Result.get_ok (Chunk.decode (Option.get (Store.peek store id)))

(* Levels from [id] down to its leftmost leaf, [id] included. *)
let rec height store id =
  match Sync.children (chunk_of store id) with
  | [] -> 1
  | c :: _ -> 1 + height store c

(* The ids of a version's value tree, without its history. *)
let tree_ids store version =
  id_set (bfs_order store (List.hd (Sync.children (chunk_of store version))))

(* A map of [n] bindings committed under "m" over [store], and a way to
   edit one record and commit again; each commit returns the new head. *)
let map_source ?(store = Mem_store.create ()) n =
  let src = FB.create store in
  let rows = Array.of_list (bindings n "v") in
  let commit () =
    ignore
      (ok_fb
         (FB.put src ~key:"m" (Value.map_of_bindings store (Array.to_list rows))));
    ok_fb (FB.head src ~key:"m")
  in
  let edit i v =
    rows.(i) <- (fst rows.(i), v);
    commit ()
  in
  (src, commit (), edit)

(* After one push, a one-record edit of a 100k-record map pushes with no
   sync-have wave: the remote head vouches for every chunk the new
   version shares with it, and the new chunks are Bloom negatives.
   Building the set reads only old index nodes the edit replaced, at
   most two per tree level — never an old leaf or a shared chunk. *)
let test_fast_forward_probes_nothing () =
  let store = Mem_store.create () in
  let src, v1, edit = map_source ~store 100_000 in
  with_server (FB.create (Mem_store.create ())) (fun srv ->
      with_remote srv (fun r ->
          ignore (ok_fb (Remote.push r src ~key:"m"));
          let v2 = edit 54_321 "edited" in
          let uid, s = ok_fb (Remote.push r src ~key:"m") in
          check bool_ "pushed the edit" true (Hash.equal uid v2);
          check bool_ "one sync-put batch" true
            (s.Sync.chunks_moved <= Sync.put_batch);
          check int_ "no false positive" 0 s.Sync.bloom_fp;
          check int_ "head + bloom + one put batch + advance" 4 s.Sync.rounds));
  let v2 = ok_fb (FB.head src ~key:"m") in
  let old_c = tree_ids store v1 and new_c = tree_ids store v2 in
  let reads = ref [] in
  let held =
    Sync.known_held ~remote:v1 ~local:v2 ~read:(fun id ->
        reads := id :: !reads;
        Store.peek store id)
  in
  check bool_ "the remote head is held" true (Hash.Tbl.mem held v1);
  let tree_height = height store v2 - 1 in
  let old_reads = List.filter (Hash.Tbl.mem old_c) !reads in
  check bool_ "reads no shared chunk" true
    (List.for_all (fun id -> not (Hash.Tbl.mem new_c id)) old_reads);
  check bool_ "reads no old leaf" true
    (List.for_all (fun id -> (chunk_of store id).Chunk.kind = Chunk.Index) old_reads);
  check bool_
    (Printf.sprintf "%d old reads over %d levels" (List.length old_reads) tree_height)
    true
    (List.length old_reads <= 2 * tree_height)

(* A push whose tree gained a level, then one whose tree lost it again:
   the taller tree's top is expanded to the other's root height, and the
   known set still covers every shared subtree — no sync-have wave, and
   the probing walk's chunks and cuts. *)
let test_height_change_probes_nothing () =
  let store = Mem_store.create () in
  let src = FB.create store in
  let commit rows =
    ignore (ok_fb (FB.put src ~key:"m" (Value.map_of_bindings store rows)));
    ok_fb (FB.head src ~key:"m")
  in
  let height = height store in
  let fb_ref = FB.create (Mem_store.create ())
  and fb_new = FB.create (Mem_store.create ()) in
  with_server fb_ref @@ fun srv_ref ->
  with_server fb_new @@ fun srv_new ->
  with_remote srv_ref @@ fun r_ref ->
  with_remote srv_new @@ fun r_new ->
  let push () =
    let _, want = ok_fb (Sync_walk_ref.push r_ref src ~key:"m") in
    let _, got = ok_fb (Remote.push r_new src ~key:"m") in
    check bool_ "the probing walk's chunks and cuts" true (same_push_stats want got);
    got
  in
  let v1 = commit (bindings 9_600 "v") in
  ignore (push ());
  let v2 = commit (bindings 9_700 "v") in
  check bool_ "a level added" true (height v2 = height v1 + 1);
  let grown = push () in
  check int_ "grown: no false positive" 0 grown.Sync.bloom_fp;
  check int_ "grown: head + bloom + one put batch + advance" 4 grown.Sync.rounds;
  (* Its last leaf is new: v1's would be a Bloom positive, held by the
     server through history but outside v2's tree. *)
  let v3 =
    commit
      (List.map
         (fun (k, v) -> (k, if k = "r009599" then "edited" else v))
         (bindings 9_600 "v"))
  in
  check bool_ "a level removed" true (height v3 + 1 = height v2);
  let shrunk = push () in
  check int_ "shrunk: no false positive" 0 shrunk.Sync.bloom_fp;
  check int_ "shrunk: head + bloom + one put batch + advance" 4 shrunk.Sync.rounds

(* The server lost a leaf of its head's version behind its back: the push
   cuts it as held, the server refuses its new parent, and the push walks
   again probing everything, which sends the leaf back. *)
let test_push_refills_lost_chunk () =
  let store = Mem_store.create () in
  let src, v1, edit = map_source ~store 20_000 in
  let srv_store = Mem_store.create () in
  let srv_fb = FB.create srv_store in
  with_server srv_fb (fun srv ->
      with_remote srv (fun r ->
          ignore (ok_fb (Remote.push r src ~key:"m"));
          let v2 = edit 10_000 "edited" in
          let old_c = id_set (bfs_order store v1) in
          (* An old leaf beside the edit: a child of a fresh node. *)
          let victim =
            List.find
              (fun id ->
                Hash.Tbl.mem old_c id
                && (chunk_of store id).Chunk.kind = Chunk.Leaf_map)
              (List.concat_map
                 (fun id ->
                   if Hash.Tbl.mem old_c id then []
                   else Sync.children (chunk_of store id))
                 (bfs_order store v2))
          in
          check bool_ "deleted from the server" true (Store.delete srv_store victim);
          let uid, _ = ok_fb (Remote.push r src ~key:"m") in
          check bool_ "pushed the edit" true (Hash.equal uid v2);
          check bool_ "server head advanced" true
            (Hash.equal v2 (ok_fb (FB.head srv_fb ~key:"m")));
          check bool_ "the lost leaf is back" true (Store.mem srv_store victim);
          check bool_ "server scrubs clean" true
            (Fb_chunk.Scrub.clean (FB.scrub ~dry_run:true srv_fb))))

(* The remote head is absent from the local store: the push has nothing
   to vouch for any id and takes the probing walk, with the same stats
   and the same server store. *)
let test_push_without_remote_head () =
  let store = Mem_store.create () in
  let src, v1, edit = map_source ~store 20_000 in
  let fb_ref = FB.create (Mem_store.create ())
  and fb_new = FB.create (Mem_store.create ()) in
  with_server fb_ref @@ fun srv_ref ->
  with_server fb_new @@ fun srv_new ->
  with_remote srv_ref @@ fun r_ref ->
  with_remote srv_new @@ fun r_new ->
  ignore (ok_fb (Sync_walk_ref.push r_ref src ~key:"m"));
  ignore (ok_fb (Remote.push r_new src ~key:"m"));
  let v2 = edit 10_000 "edited" in
  check bool_ "remote head dropped locally" true (Store.delete store v1);
  let uid_ref, want = ok_fb (Sync_walk_ref.push r_ref src ~key:"m") in
  let uid, got = ok_fb (Remote.push r_new src ~key:"m") in
  check bool_ "both pushed the edit" true (Hash.equal uid_ref v2 && Hash.equal uid v2);
  check bool_ "the probing walk's stats" true (same_stats want got);
  check bool_ "the same server store" true
    (store_ids (FB.store fb_ref) = store_ids (FB.store fb_new))

(* One old index node the known set would read is tampered with in the
   local store: its children are not trusted, they are probed instead,
   and the server stores only bytes that hash to their ids. *)
let test_push_tampered_old_index () =
  let store = Mem_store.create () in
  let target = ref None in
  let flip f id =
    Option.map
      (fun s ->
        if not (Option.equal Hash.equal (Some id) !target) then s
        else begin
          let b = Bytes.of_string s in
          let last = Bytes.length b - 1 in
          Bytes.set b last (Char.chr (Char.code (Bytes.get b last) lxor 1));
          Bytes.to_string b
        end)
      (f id)
  in
  let local =
    { store with
      Store.name = "tampering";
      get_raw = flip store.Store.get_raw;
      peek = flip store.Store.peek }
  in
  let src, v1, edit = map_source ~store:local 20_000 in
  let srv_fb = FB.create (Mem_store.create ()) in
  with_server srv_fb (fun srv ->
      with_remote srv (fun r ->
          ignore (ok_fb (Remote.push r src ~key:"m"));
          let v2 = edit 10_000 "edited" in
          let new_c = tree_ids store v2 in
          target :=
            List.find_opt
              (fun id ->
                (not (Hash.Tbl.mem new_c id))
                && (chunk_of store id).Chunk.kind = Chunk.Index)
              (List.rev (bfs_order store v1));
          check bool_ "a replaced index node" true (!target <> None);
          let uid, _ = ok_fb (Remote.push r src ~key:"m") in
          check bool_ "pushed the edit" true (Hash.equal uid v2);
          let report = FB.scrub ~dry_run:true srv_fb in
          check int_ "no corrupt chunk on the server" 0
            (List.length report.Fb_chunk.Scrub.corrupt);
          check bool_ "server scrubs clean" true (Fb_chunk.Scrub.clean report)))

(* ---------------- the closure check's trusted set ---------------- *)

(* (probed, trusted) children so far, process-wide. *)
let closure_counts () =
  ( Obs.counter_value (Obs.counter "fb.sync.closure_probed"),
    Obs.counter_value (Obs.counter "fb.sync.closure_trusted") )

(* A two-level map built in a scratch store: its root index node and its
   leaves, as (id, encoded bytes). *)
let two_level_map () =
  let store = Mem_store.create () in
  let map = Fb_postree.Pmap.of_bindings store (bindings 2_000 "v") in
  let root = Option.get (Fb_postree.Pmap.root map) in
  let encoded id = (id, Option.get (Store.peek store id)) in
  let leaves = Sync.children (chunk_of store root) in
  check bool_ "two levels" true
    (leaves <> [] && List.for_all (fun id -> Sync.children (chunk_of store id) = []) leaves);
  (encoded root, List.map encoded leaves)

(* Every stored chunk's children are stored. *)
let closure_complete store =
  let ok = ref true in
  Store.ids store (fun id ->
      match Store.get store id with
      | None -> ok := false
      | Some c -> if not (List.for_all (Store.mem store) (Dag.fnode_children c)) then ok := false);
  !ok

let refused_absent what = function
  | Ok _ -> Alcotest.failf "%s: parent accepted over deleted children" what
  | Error e ->
    check bool_ (what ^ ": absent children") true
      (Tutil.contains (Errors.to_string e) "absent children")

(* One write section — what the server runs each BATCH in — stores a
   map's leaves through [sync_put], sweeps them with [gc] (no head names
   them), then offers their parent: refused with "absent children", and
   the store holds no chunk naming an absent one.  Without the sweep the
   same section takes the parent with every child trusted, none
   probed. *)
let check_trusted_set_gc fb =
  let (root_id, root_bytes), leaves = two_level_map () in
  let sync_put (id, bytes) = FB.sync_put fb ~key:"m" id bytes in
  let (), flush =
    FB.with_deferred_watch fb (fun () ->
        List.iter (fun l -> ignore (ok_fb (sync_put l))) leaves;
        let swept = FB.gc fb in
        check int_ "gc swept the leaves" (List.length leaves) swept.Fb_chunk.Gc.swept_chunks;
        refused_absent "gc" (sync_put (root_id, root_bytes)))
  in
  flush ();
  check bool_ "parent not stored" false (Store.mem (FB.store fb) root_id);
  check bool_ "closure-complete" true (closure_complete (FB.store fb));
  let probed, trusted = closure_counts () in
  let (), flush =
    FB.with_deferred_watch fb (fun () ->
        List.iter (fun l -> ignore (ok_fb (sync_put l))) leaves;
        ignore (ok_fb (sync_put (root_id, root_bytes))))
  in
  flush ();
  let probed', trusted' = closure_counts () in
  check int_ "every child trusted" (List.length leaves) (trusted' - trusted);
  check int_ "no child probed" 0 (probed' - probed);
  check bool_ "closure-complete" true (closure_complete (FB.store fb))

let test_trusted_set_gc = function
  | `Mem -> fun () -> check_trusted_set_gc (FB.create (Mem_store.create ()))
  | `Log ->
    fun () ->
      let root =
        Filename.concat (Filename.get_temp_dir_name ())
          (Printf.sprintf "fb_sync_%d_%d" (Unix.getpid ()) (Random.bits ()))
      in
      Fun.protect
        ~finally:(fun () -> ignore (Sys.command ("rm -rf " ^ Filename.quote root)))
        (fun () -> Tutil.with_fb ~root check_trusted_set_gc)

(* Over the wire, in one BATCH: [sync-put] of the leaves, [scrub], which
   quarantines a leaf that rotted on the medium once stored, and
   [sync-put] of the parent — refused, the quarantined leaf being gone;
   the server's store stays closure-complete. *)
let test_trusted_set_scrub mode () =
  let (root_id, root_bytes), leaves = two_level_map () in
  let victim = fst (List.hd leaves) in
  let inner = Mem_store.create () in
  let rot id raw =
    if not (Hash.equal id victim) then raw
    else
      String.mapi
        (fun i c -> if i = String.length raw - 1 then Char.chr (Char.code c lxor 1) else c)
        raw
  in
  let read f id = Option.map (rot id) (f id) in
  let store =
    { inner with
      Store.name = "rotting";
      get_raw = read inner.Store.get_raw;
      peek = read inner.Store.peek;
      get =
        (fun id ->
          Option.bind (read inner.Store.get_raw id) (fun r -> Result.to_option (Chunk.decode r)));
      iter = (fun f -> inner.Store.iter (fun id raw -> f id (rot id raw))) }
  in
  let fb = FB.create store in
  let sync_put (id, bytes) = [ "sync-put"; "m"; "master"; Hash.to_hex id; bytes ] in
  with_server ~config:{ test_config with mode } fb (fun srv ->
      let c = match Mux.connect ~port:(Server.port srv) () with
        | Ok c -> c
        | Error e -> Alcotest.fail (Fb_net.Client.error_to_string e)
      in
      Fun.protect ~finally:(fun () -> Mux.close c) (fun () ->
          let batch = List.map sync_put leaves @ [ [ "scrub" ]; sync_put (root_id, root_bytes) ] in
          match Mux.batch c batch with
          | Error e -> Alcotest.fail (Fb_net.Client.error_to_string e)
          | Ok replies ->
            List.iteri
              (fun i r -> if i < List.length leaves then ignore (ok_fb r))
              replies;
            refused_absent "scrub" (List.nth replies (List.length leaves + 1))));
  check bool_ "the rotted leaf was quarantined" false (Store.mem inner victim);
  check bool_ "parent not stored" false (Store.mem inner root_id);
  check bool_ "closure-complete" true (closure_complete inner)

(* A fast-forward push of a one-record edit to a 100k-record map over a
   live server: the reference walk's chunks and cuts, in one sync-put
   BATCH, whose closure check probes exactly the children the BATCH did
   not itself store — none that it did. *)
let test_fast_forward_trusts_its_batch mode () =
  let store = Mem_store.create () in
  let src, _, edit = map_source ~store 100_000 in
  let config = { test_config with mode } in
  let srv_store = Mem_store.create () in
  with_server ~config (FB.create (Mem_store.create ())) @@ fun srv_ref ->
  with_server ~config (FB.create srv_store) @@ fun srv_new ->
  with_remote srv_ref @@ fun r_ref ->
  with_remote srv_new @@ fun r_new ->
  ignore (ok_fb (Sync_walk_ref.push r_ref src ~key:"m"));
  ignore (ok_fb (Remote.push r_new src ~key:"m"));
  ignore (edit 54_321 "edited");
  let before = id_set (List.map (fun h -> Result.get_ok (Hash.of_hex h)) (store_ids srv_store)) in
  let probed, trusted = closure_counts () in
  let _, want = ok_fb (Sync_walk_ref.push r_ref src ~key:"m") in
  let probed_ref, trusted_ref = closure_counts () in
  let _, got = ok_fb (Remote.push r_new src ~key:"m") in
  let probed', trusted' = closure_counts () in
  check bool_ "the reference walk's chunks and cuts" true (same_push_stats want got);
  check bool_ "one sync-put batch" true (got.Sync.chunks_moved <= Sync.put_batch);
  (* The BATCH: every id the push stored. *)
  let pushed = Hash.Tbl.create 64 in
  Store.ids srv_store (fun id ->
      if not (Hash.Tbl.mem before id) then Hash.Tbl.replace pushed id ());
  check int_ "pushed = moved" got.Sync.chunks_moved (Hash.Tbl.length pushed);
  let inside, outside =
    Hash.Tbl.fold
      (fun id () (i, o) ->
        let cs = Dag.fnode_children (chunk_of srv_store id) in
        let n = List.length (List.filter (Hash.Tbl.mem pushed) cs) in
        (i + n, o + List.length cs - n))
      pushed (0, 0)
  in
  check bool_ "the batch names its own chunks" true (inside > 0);
  check int_ "children stored in the batch: trusted" inside (trusted' - trusted_ref);
  check int_ "the rest: probed" outside (probed' - probed_ref);
  check int_ "the reference push probed them all" (inside + outside)
    (probed_ref - probed + trusted_ref - trusted)

(* The length scan agrees with decoding: on map and set leaves and index
   nodes with keys on both sides of the limit, and with values and child
   counts that take multi-byte varints, it names the first key over the
   limit, or none. *)
let qcheck_oversized_key =
  let module Codec = Fb_codec.Codec in
  let gen = QCheck.Gen.(pair (int_bound 2) (list_size (int_range 0 6) (int_range 0 5_000))) in
  QCheck.Test.make ~count:200 ~name:"oversized_key = first long key of a node"
    (QCheck.make ~print:QCheck.Print.(pair int (list int)) gen)
    (fun (kind, lens) ->
      let w = Codec.writer () in
      Codec.varint w (List.length lens);
      List.iteri
        (fun i len ->
          Codec.bytes w (String.make len 'k');
          match kind with
          | 0 -> ()
          | 1 -> Codec.bytes w (String.make (i * 50) 'v')
          | _ ->
            Codec.hash w (Hash.of_string "child");
            Codec.varint w (i * 1_000))
        lens;
      let kind = match kind with 0 -> Chunk.Leaf_set | 1 -> Chunk.Leaf_map | _ -> Chunk.Index in
      Fb_postree.Postree.oversized_key (Chunk.v kind (Codec.contents w))
      = List.find_opt (fun n -> n > Fb_postree.Postree.max_key_bytes) lens)

(* A pushed tree whose leaf holds a key of max_key_bytes + 1 bytes, which
   no builder makes: its leaf is refused [Invalid] at ingest and the
   server's store is untouched.  An index node with such a split key is
   refused the same way, by [sync_put] and by [chunk_put]. *)
let test_ingest_key_limit () =
  let store = Mem_store.create () in
  let long = String.make (Fb_postree.Postree.max_key_bytes + 1) 'k' in
  let w = Fb_codec.Codec.writer () in
  Fb_codec.Codec.varint w 2;
  List.iter (fun k -> Fb_codec.Codec.bytes w k; Fb_codec.Codec.bytes w "v") [ "a"; long ];
  let leaf = Chunk.v Chunk.Leaf_map (Fb_codec.Codec.contents w) in
  let leaf_id = Store.put store leaf in
  let src = FB.create store in
  ignore
    (ok_fb
       (FB.put src ~key:"m"
          (Value.Map (Fb_postree.Pmap.of_root store (Some leaf_id)))));
  let srv_store = Mem_store.create () in
  let srv_fb = FB.create srv_store in
  let invalid what = function
    | Error (Errors.Invalid msg) ->
      check bool_ (what ^ " names the limit") true (Tutil.contains msg "4096")
    | Error e -> Alcotest.failf "%s: %s" what (Errors.to_string e)
    | Ok _ -> Alcotest.failf "%s: long key accepted" what
  in
  with_server srv_fb (fun srv ->
      with_remote srv (fun r ->
          invalid "push" (Result.map fst (Remote.push r src ~key:"m"))));
  check int_ "server store untouched" 0 (Store.stats srv_store).Store.physical_chunks;
  let w = Fb_codec.Codec.writer () in
  Fb_codec.Codec.varint w 1;
  Fb_codec.Codec.bytes w long;
  Fb_codec.Codec.hash w leaf_id;
  Fb_codec.Codec.varint w 2;
  let index = Chunk.encode (Chunk.v Chunk.Index (Fb_codec.Codec.contents w)) in
  let index_id = Hash.of_string index in
  invalid "sync_put of an index" (FB.sync_put srv_fb ~key:"m" index_id index);
  invalid "chunk_put of an index" (FB.chunk_put srv_fb index_id index);
  check int_ "still untouched" 0 (Store.stats srv_store).Store.physical_chunks

let suite =
  [ QCheck_alcotest.to_alcotest qcheck_plan_order;
    QCheck_alcotest.to_alcotest qcheck_have_roundtrip;
    Alcotest.test_case "have bitmap rejects garbage" `Quick
      test_have_rejects_garbage;
    QCheck_alcotest.to_alcotest qcheck_sync_put_frame_roundtrip;
    QCheck_alcotest.to_alcotest qcheck_truncated_frame;
    Alcotest.test_case "oversize frame rejected" `Quick
      test_oversize_frame_rejected;
    Alcotest.test_case "verify_encoded gates ingest" `Quick
      test_verify_encoded;
    Alcotest.test_case "sync_put closure + advance_head" `Quick
      test_sync_put_and_advance;
    Alcotest.test_case "sync_put refuses id mismatch" `Quick
      test_sync_put_refuses_mismatch;
    Alcotest.test_case "push/pull round trip (event)" `Quick
      (run_push_pull_roundtrip `Event);
    Alcotest.test_case "push/pull round trip (threaded)" `Quick
      (run_push_pull_roundtrip `Threaded);
    Alcotest.test_case "pull refuses tampered chunks" `Quick
      test_pull_refuses_tampered_chunks;
    Alcotest.test_case "sync-get batch records reply encode time" `Quick
      test_reply_encode_histogram;
    Alcotest.test_case "sync verbs have their own histograms" `Quick
      test_sync_verb_histograms;
    QCheck_alcotest.to_alcotest qcheck_bloom_oracle;
    Alcotest.test_case "wave driver = sequential walks (event)" `Quick
      (driver_oracle `Event);
    Alcotest.test_case "wave driver = sequential walks (threaded)" `Quick
      (driver_oracle `Threaded);
    Alcotest.test_case "tampered later wave refused (event)" `Quick
      (test_tampered_later_wave `Event);
    Alcotest.test_case "tampered later wave refused (threaded)" `Quick
      (test_tampered_later_wave `Threaded);
    Alcotest.test_case "pull survives one dropped connection (event)" `Quick
      (test_pull_survives_one_drop `Event);
    Alcotest.test_case "pull survives one dropped connection (threaded)" `Quick
      (test_pull_survives_one_drop `Threaded);
    Alcotest.test_case "server stops mid-pull: Transient (event)" `Quick
      (test_pull_server_stops `Event);
    Alcotest.test_case "server stops mid-pull: Transient (threaded)" `Quick
      (test_pull_server_stops `Threaded);
    Alcotest.test_case "sync stage histograms" `Quick test_stage_histograms;
    Alcotest.test_case "fast-forward push probes nothing" `Quick
      test_fast_forward_probes_nothing;
    Alcotest.test_case "push across a height change probes nothing" `Quick
      test_height_change_probes_nothing;
    Alcotest.test_case "push re-sends a chunk the server lost" `Quick
      test_push_refills_lost_chunk;
    Alcotest.test_case "push without the remote head locally" `Quick
      test_push_without_remote_head;
    Alcotest.test_case "push past a tampered old index node" `Quick
      test_push_tampered_old_index;
    Alcotest.test_case "trusted set: gc in the section (mem)" `Quick
      (test_trusted_set_gc `Mem);
    Alcotest.test_case "trusted set: gc in the section (log)" `Quick
      (test_trusted_set_gc `Log);
    Alcotest.test_case "trusted set: scrub in a BATCH (event)" `Quick
      (test_trusted_set_scrub `Event);
    Alcotest.test_case "trusted set: scrub in a BATCH (threaded)" `Quick
      (test_trusted_set_scrub `Threaded);
    Alcotest.test_case "fast-forward push trusts its BATCH (event)" `Quick
      (test_fast_forward_trusts_its_batch `Event);
    Alcotest.test_case "fast-forward push trusts its BATCH (threaded)" `Quick
      (test_fast_forward_trusts_its_batch `Threaded);
    QCheck_alcotest.to_alcotest qcheck_oversized_key;
    Alcotest.test_case "ingest refuses keys over the limit" `Quick
      test_ingest_key_limit ]
