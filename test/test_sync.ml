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
  { Server.default_config with port = 0; save_every_s = 0.0 }

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
          (* A second push finds shared chunks: bloom positives are
             confirmed with sync-have. *)
          put "w";
          ignore (ok_fb (Remote.push r src ~key:"table"));
          (* Pushes and pulls batch their puts and gets; single frames
             of each are what carry the verb's own name. *)
          let leaf = Chunk.v Chunk.Leaf_blob "single sync-put" in
          let leaf_id = Hash.to_hex (Chunk.hash leaf) in
          ignore
            (ok_fb
               (Remote.raw r
                  [ "sync-put"; "table"; "master"; leaf_id; Chunk.encode leaf ]));
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
      test_sync_verb_histograms ]
