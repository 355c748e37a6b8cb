(* Framed wire protocol (v2: typed status + batching) and the
   concurrently-readable TCP server/client/remote stack. *)

module FB = Fb_core.Forkbase
module Errors = Fb_core.Errors
module Persistent = Fb_core.Persistent
module Value = Fb_types.Value
module Frame = Fb_net.Frame
module Client = Fb_net.Client
module Mux = Fb_net.Mux
module Remote = Fb_net.Remote
module Server = Fb_net.Server
module Service = Fb_core.Service

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

let ok_cl = function
  | Ok v -> v
  | Error e -> Alcotest.fail (Client.error_to_string e)

let with_temp_root f =
  let root =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "fb_net_%d_%d" (Unix.getpid ()) (Random.bits ()))
  in
  Fun.protect
    ~finally:(fun () -> ignore (Sys.command ("rm -rf " ^ Filename.quote root)))
    (fun () -> f root)

(* No fixed port: tests must not collide. *)
let test_config =
  { Server.default_config with port = 0 }

let with_server ?(config = test_config) fb f =
  let srv = ok_net (Server.start ~config fb) in
  Fun.protect ~finally:(fun () -> Server.stop srv) (fun () -> f srv)

let with_client_port ?user port f =
  let c = ok_cl (Mux.connect ?user ~port ()) in
  Fun.protect ~finally:(fun () -> Mux.close c) (fun () -> f c)

let with_client ?user srv f = with_client_port ?user (Server.port srv) f

(* ---------------- pure framing ---------------- *)

(* Feed a whole byte string to a fresh reader: the frames it yields and
   its verdict. *)
let read_all ?max_frame s =
  let r = Frame.reader ?max_frame () in
  let res = Frame.feed r (Bytes.of_string s) 0 (String.length s) in
  let rec take acc =
    match Frame.next r with Some f -> take (f :: acc) | None -> List.rev acc
  in
  (take [], res)

let test_frame_roundtrip () =
  List.iter
    (fun payload ->
      match read_all (Frame_ref.encode_frame payload) with
      | [ p ], Ok () -> check string_ "payload" payload p
      | _ -> Alcotest.fail "frame did not round-trip")
    [ ""; "x"; "hello\nworld"; String.make 300 'a'; String.make 70000 '\x00' ]

let test_frame_stream () =
  (* Several frames back to back decode in sequence. *)
  let payloads = [ "one"; ""; "three\nlines\nhere"; String.make 500 'z' ] in
  let buf = String.concat "" (List.map Frame_ref.encode_frame payloads) in
  check bool_ "all frames" true (read_all buf = (payloads, Ok ()))

let test_frame_truncated () =
  let full = Frame_ref.encode_frame (String.make 300 'q') in
  for cut = 0 to String.length full - 1 do
    match read_all (String.sub full 0 cut) with
    | [], Ok () -> ()
    | _ -> Alcotest.failf "prefix of %d bytes should need more" cut
  done

let test_frame_limits () =
  (match
     read_all ~max_frame:10 (Frame_ref.encode_frame (String.make 100 'x'))
   with
  | [], Error (Frame.Too_large 100) -> ()
  | _ -> Alcotest.fail "oversize frame accepted");
  (* Non-minimal varint length: 0x80 0x00 encodes 0 in two bytes. *)
  (match read_all "\x80\x00" with
  | [], Error (Frame.Malformed _) -> ()
  | _ -> Alcotest.fail "non-minimal length accepted");
  (* A length varint longer than 5 bytes is not a frame. *)
  (match read_all "\xff\xff\xff\xff\xff\xff" with
  | [], Error (Frame.Malformed _) -> ()
  | _ -> Alcotest.fail "runaway varint accepted")

let qcheck_frame_roundtrip =
  QCheck.Test.make ~count:200 ~name:"frame encode/decode round-trip"
    QCheck.(string_of_size Gen.(0 -- 2000))
    (fun payload ->
      match read_all (Frame_ref.encode_frame payload) with
      | [ p ], Ok () -> String.equal p payload
      | _ -> false)

let request_gen =
  let open QCheck.Gen in
  let tokens = small_list (string_size (0 -- 100)) in
  oneof
    [ map (fun t -> Frame.Single t) tokens;
      map (fun b -> Frame.Batch b) (small_list tokens) ]

let qcheck_request_roundtrip =
  QCheck.Test.make ~count:300 ~name:"request encode/decode round-trip"
    (QCheck.make QCheck.Gen.(pair (string_size (0 -- 20)) request_gen))
    (fun (user, req) ->
      match
        Frame.decode_request
          (Frame_ref.payload_of (Frame.request_frame ~user req))
      with
      | Ok (u, None, None, r) -> String.equal u user && r = req
      | _ -> false)

(* The trace header (any trace-id bytes, any — including negative —
   parent span id) must survive the envelope exactly, and its absence
   must decode as [None]. *)
let trace_gen =
  QCheck.Gen.(
    opt
      (map2
         (fun trace_id parent_span -> { Frame.trace_id; parent_span })
         (string_size (0 -- 40))
         (map2
            (fun sign n -> if sign then n else -n - 1)
            bool (int_bound ((1 lsl 30) - 1)))))

let qcheck_trace_roundtrip =
  QCheck.Test.make ~count:300 ~name:"trace header encode/decode round-trip"
    (QCheck.make
       QCheck.Gen.(triple (string_size (0 -- 20)) trace_gen request_gen))
    (fun (user, trace, req) ->
      match
        Frame.decode_request
          (Frame_ref.payload_of (Frame.request_frame ~user ?trace req))
      with
      | Ok (u, t, None, r) -> String.equal u user && t = trace && r = req
      | _ -> false)

let test_headerless_v2_compat () =
  (* A v2 frame written by a tracing-unaware peer — version byte, bare
     kind byte (no 0x80 flag), user, body, built by hand so this pins
     the wire bytes rather than today's encoder. *)
  let open Fb_codec.Codec in
  let payload =
    to_string
      (fun w () ->
        u8 w 2;
        u8 w 0 (* Single, no trace flag *);
        bytes w "alice";
        list w bytes [ "get"; "k"; "master" ])
      ()
  in
  (match Frame.decode_request payload with
   | Ok ("alice", None, None, Frame.Single [ "get"; "k"; "master" ]) -> ()
   | Ok _ -> Alcotest.fail "header-less v2 frame misparsed"
   | Error e -> Alcotest.failf "header-less v2 frame rejected: %s" e);
  (* And the flagged form decodes the header. *)
  let traced =
    to_string
      (fun w () ->
        u8 w 2;
        u8 w (1 lor 0x80) (* Batch + trace flag *);
        bytes w "bob";
        bytes w "00112233445566778899aabbccddeeff";
        zigzag w 42;
        list w (fun w t -> list w bytes t) [ [ "list" ] ])
      ()
  in
  match Frame.decode_request traced with
  | Ok ("bob", Some t, None, Frame.Batch [ [ "list" ] ]) ->
    check string_ "trace id" "00112233445566778899aabbccddeeff"
      t.Frame.trace_id;
    check int_ "parent span" 42 t.Frame.parent_span
  | Ok _ -> Alcotest.fail "traced v2 frame misparsed"
  | Error e -> Alcotest.failf "traced v2 frame rejected: %s" e

(* Every Errors.t constructor, arbitrary fields: the status-tagged reply
   encoding must reproduce the exact typed value on the far side. *)
let errors_gen =
  let open QCheck.Gen in
  let s = string_size (0 -- 40) in
  oneof
    [ map (fun k -> Errors.Key_not_found k) s;
      map2 (fun key branch -> Errors.Branch_not_found { key; branch }) s s;
      map (fun v -> Errors.Version_not_found v) s;
      map2 (fun user action -> Errors.Permission_denied { user; action }) s s;
      map2
        (fun key details -> Errors.Merge_conflict { key; details })
        s (small_list s);
      map2 (fun expected got -> Errors.Type_mismatch { expected; got }) s s;
      map (fun m -> Errors.Corrupt m) s;
      map (fun m -> Errors.Transient m) s;
      map (fun m -> Errors.Invalid m) s ]

let reply_gen =
  QCheck.Gen.(
    oneof
      [ map Result.ok (string_size (0 -- 500)); map Result.error errors_gen ])

let response_gen =
  QCheck.Gen.(
    oneof
      [ map (fun r -> Frame.One r) reply_gen;
        map (fun rs -> Frame.Many rs) (small_list reply_gen) ])

let qcheck_response_roundtrip =
  QCheck.Test.make ~count:300 ~name:"typed response encode/decode round-trip"
    (QCheck.make response_gen)
    (fun resp ->
      match
        Frame.decode_response (Frame_ref.payload_of (Frame.response_frame resp))
      with
      | Ok (None, None, r) -> r = resp
      | _ -> false)

(* ---------------- exact-size frame builders vs the reference ---------------- *)

let binary n = QCheck.Gen.(string_size ~gen:char (0 -- n))

let any_seq_gen =
  QCheck.Gen.(
    opt
      (oneof
         [ int_bound 127; int_bound ((1 lsl 30) - 1);
           map (fun x -> x land max_int) int ]))

let any_trace_gen =
  QCheck.Gen.(
    opt
      (map2
         (fun trace_id parent_span -> { Frame.trace_id; parent_span })
         (binary 40) int))

let binary_request_gen =
  let open QCheck.Gen in
  let tokens = list_size (0 -- 6) (binary 300) in
  oneof
    [ map (fun t -> Frame.Single t) tokens;
      map (fun b -> Frame.Batch b) (list_size (0 -- 5) tokens) ]

let binary_reply_gen =
  QCheck.Gen.(
    frequency
      [ (1, return (Ok ""));
        (4, map Result.ok (binary 5000));
        (3, map Result.error errors_gen) ])

let event_gen =
  QCheck.Gen.(
    map
      (fun (sub_id, ev_key, ev_branch, (new_head, old_head)) ->
        { Frame.sub_id; ev_key; ev_branch; new_head; old_head })
      (quad (int_bound ((1 lsl 30) - 1)) (binary 40) (binary 40)
         (pair (binary 60) (opt (binary 60)))))

let any_response_gen =
  QCheck.Gen.(
    oneof
      [ map (fun r -> Frame.One r) binary_reply_gen;
        map (fun rs -> Frame.Many rs) (list_size (0 -- 8) binary_reply_gen);
        map (fun e -> Frame.Event e) event_gen ])

let request_frame_matches ~user ?trace ?seq req =
  String.equal
    (Frame.request_frame ~user ?trace ?seq req)
    (Frame_ref.encode_frame (Frame_ref.encode_request ~user ?trace ?seq req))

let response_frame_matches ?trace ?seq resp =
  String.equal
    (Frame.response_frame ?trace ?seq resp)
    (Frame_ref.encode_frame (Frame_ref.encode_response ?trace ?seq resp))

let qcheck_request_frame_oracle =
  QCheck.Test.make ~count:400
    ~name:"request_frame = encode_frame (encode_request ...)"
    (QCheck.make
       QCheck.Gen.(quad (binary 30) any_trace_gen any_seq_gen binary_request_gen))
    (fun (user, trace, seq, req) -> request_frame_matches ~user ?trace ?seq req)

let qcheck_response_frame_oracle =
  QCheck.Test.make ~count:400
    ~name:"response_frame = encode_frame (encode_response ...)"
    (QCheck.make QCheck.Gen.(triple any_trace_gen any_seq_gen any_response_gen))
    (fun (trace, seq, resp) -> response_frame_matches ?trace ?seq resp)

(* The shapes the random generators only reach by chance, pinned: every
   Errors.t constructor, events with and without an old head, empty
   batches, and each header combination. *)
let test_frame_builders_fixed_cases () =
  let errors =
    [ Errors.Key_not_found "k";
      Errors.Branch_not_found { key = "k"; branch = "b" };
      Errors.Version_not_found "v";
      Errors.Permission_denied { user = "u"; action = "a" };
      Errors.Merge_conflict { key = "k"; details = [] };
      Errors.Merge_conflict { key = "k"; details = [ "x"; ""; "\x00\xff" ] };
      Errors.Type_mismatch { expected = "map"; got = "blob" };
      Errors.Corrupt "c"; Errors.Transient ""; Errors.Invalid "i" ]
  in
  let event old_head =
    Frame.Event
      { Frame.sub_id = 3; ev_key = "k"; ev_branch = "master";
        new_head = "head"; old_head }
  in
  let responses =
    [ Frame.One (Ok ""); Frame.One (Ok (String.make 200 '\x80'));
      Frame.Many []; Frame.Many [ Ok ""; Ok "x" ];
      Frame.Many (List.map Result.error errors);
      event None; event (Some "old") ]
    @ List.map (fun e -> Frame.One (Error e)) errors
  in
  let requests =
    [ Frame.Single []; Frame.Single [ "" ]; Frame.Batch [];
      Frame.Batch [ [] ]; Frame.Batch [ [ "sync-get"; "00" ]; [ "stat" ] ] ]
  in
  let traces =
    [ None; Some { Frame.trace_id = ""; parent_span = min_int };
      Some { Frame.trace_id = String.make 32 'a'; parent_span = max_int } ]
  in
  let seqs = [ None; Some 0; Some 127; Some 128; Some max_int ] in
  List.iter
    (fun trace ->
      List.iter
        (fun seq ->
          List.iter
            (fun resp ->
              check bool_ "response frame" true
                (response_frame_matches ?trace ?seq resp))
            responses;
          List.iter
            (fun req ->
              check bool_ "request frame" true
                (request_frame_matches ~user:"" ?trace ?seq req))
            requests)
        seqs)
    traces;
  check bool_ "negative seq refused" true
    (match Frame.request_frame ~user:"u" ~seq:(-1) (Frame.Single []) with
     | _ -> false
     | exception Invalid_argument _ -> true)

(* ---------------- incremental reader vs the whole-buffer decoder ---------------- *)

let reader_max_frame = 300

(* What the reference decoder makes of a whole stream: its frames, and —
   when it fails — the error with the length of the shortest stream
   prefix that already yields it. *)
let oracle_frames stream =
  let n = String.length stream in
  let decode ~pos buf =
    Frame_ref.decode_frame ~max_frame:reader_max_frame ~pos buf
  in
  let rec go pos acc =
    if pos >= n then (List.rev acc, None)
    else
      match decode ~pos stream with
      | Ok (`Frame (p, next)) -> go next (p :: acc)
      | Ok `Need_more -> (List.rev acc, None)
      | Error e ->
        let rec first_bad k =
          match decode ~pos (String.sub stream 0 k) with
          | Error _ -> k
          | Ok _ -> first_bad (k + 1)
        in
        (List.rev acc, Some (e, first_bad pos))
  in
  go 0 []

let take_all r =
  let rec go acc =
    match Frame.next r with Some f -> go (f :: acc) | None -> List.rev acc
  in
  go []

(* A reader driven through [read_some] by reads that return at most the
   next piece size (1 byte once the pieces run out).  On error: the
   error and the stream range of the read that reported it. *)
let run_reader ~scratch stream pieces =
  let r =
    Frame.reader ~max_frame:reader_max_frame ~scratch:(Bytes.create scratch) ()
  in
  let n = String.length stream in
  let pos = ref 0 and pieces = ref pieces in
  let read buf off len =
    let piece =
      match !pieces with
      | [] -> 1
      | p :: rest ->
        pieces := rest;
        p
    in
    let k = min len (min piece (n - !pos)) in
    Bytes.blit_string stream !pos buf off k;
    pos := !pos + k;
    k
  in
  let frames = ref [] in
  let rec loop () =
    let before = !pos in
    let res = Frame.read_some r read in
    frames := List.rev_append (take_all r) !frames;
    match res with
    | Ok 0 -> None
    | Ok _ -> loop ()
    | Error e -> Some (e, before, !pos)
  in
  let err = loop () in
  (List.rev !frames, err)

(* The same stream fed one byte at a time: on error, the exact count of
   bytes consumed when it was reported. *)
let feed_bytewise stream =
  let r = Frame.reader ~max_frame:reader_max_frame () in
  let b = Bytes.of_string stream in
  let frames = ref [] in
  let rec go i =
    if i >= Bytes.length b then None
    else
      let res = Frame.feed r b i 1 in
      frames := List.rev_append (take_all r) !frames;
      match res with Ok () -> go (i + 1) | Error e -> Some (e, i + 1)
  in
  let err = go 0 in
  (List.rev !frames, err)

let stream_gen =
  let open QCheck.Gen in
  let payload =
    frequency
      [ (1, return ""); (3, binary 40); (2, binary (reader_max_frame + 60)) ]
  in
  let tail =
    oneof
      [ return "";
        (* a frame cut short *)
        map
          (fun p ->
            let w = Frame_ref.encode_frame p in
            String.sub w 0 (String.length w / 2))
          (binary 200);
        return "\xe8\x07" (* announces 1000 bytes: too large *);
        return "\x85\x00" (* non-minimal *);
        return "\xff\xff\xff\xff\xff\xff" (* runaway varint *) ]
  in
  let pieces =
    list_size (0 -- 60)
      (frequency [ (3, return 1); (3, 1 -- 8); (2, 1 -- 700) ])
  in
  map
    (fun (frames, tail, pieces, scratch) ->
      (String.concat "" (List.map Frame_ref.encode_frame frames) ^ tail,
       pieces, scratch))
    (quad (list_size (0 -- 8) payload) tail pieces (oneofl [ 1; 16; 4096 ]))

let qcheck_reader_oracle =
  QCheck.Test.make ~count:400
    ~name:"incremental reader = decode_frame over any split"
    (QCheck.make
       ~print:(fun (s, pieces, scratch) ->
         Printf.sprintf "stream %S, %d pieces, scratch %d" s
           (List.length pieces) scratch)
       stream_gen)
    (fun (stream, pieces, scratch) ->
      let frames, err = oracle_frames stream in
      let got, got_err = run_reader ~scratch stream pieces in
      let split_ok =
        got = frames
        &&
        match err, got_err with
        | None, None -> true
        | Some (e, at), Some (e', lo, hi) -> e = e' && lo < at && at <= hi
        | _ -> false
      in
      split_ok && feed_bytewise stream = (frames, err))

(* ---------------- allocation budgets ---------------- *)

(* Bytes allocated by [f].  The minor collections on both sides settle
   the runtime's allocation counters, which otherwise lag large
   (major-heap) allocations. *)
let allocated f =
  Gc.minor ();
  let before = Gc.allocated_bytes () in
  let v = f () in
  Gc.minor ();
  (v, Gc.allocated_bytes () -. before)

let test_encode_alloc_budget () =
  let resp =
    Frame.Many
      (List.init 64 (fun i -> Ok (String.make 4096 (Char.chr (65 + (i mod 26))))))
  in
  ignore (Frame.response_frame ~seq:9 resp);
  let frame, bytes = allocated (fun () -> Frame.response_frame ~seq:9 resp) in
  let len = float_of_int (String.length frame) in
  if bytes > 1.25 *. len then
    Alcotest.failf "encoding a %.0f-byte reply allocated %.0f bytes" len bytes

let test_reader_alloc_budget () =
  let payload = String.make (4 * 1024 * 1024) 'r' in
  let wire = Bytes.of_string (Frame_ref.encode_frame payload) in
  let n = Bytes.length wire in
  let r = Frame.reader () in
  let piece = 64 * 1024 in
  let frame, bytes =
    allocated (fun () ->
        let rec go off =
          if off < n then begin
            (match Frame.feed r wire off (min piece (n - off)) with
             | Ok () -> ()
             | Error e -> Alcotest.fail (Frame.error_to_string e));
            go (off + piece)
          end
        in
        go 0;
        Frame.next r)
  in
  check bool_ "frame read back" true (frame = Some payload);
  if bytes > 2.0 *. float_of_int n then
    Alcotest.failf "reading a %d-byte frame allocated %.0f bytes" n bytes

let test_request_rejects_garbage () =
  check bool_ "bad version" true
    (Result.is_error (Frame.decode_request "\xff"));
  check bool_ "empty" true (Result.is_error (Frame.decode_request ""));
  check bool_ "trailing garbage" true
    (Result.is_error
       (Frame.decode_request
          (Frame_ref.payload_of
             (Frame.request_frame ~user:"u" (Frame.Single [ "a" ]))
           ^ "x")));
  check bool_ "unknown request kind" true
    (Result.is_error (Frame.decode_request "\x02\x07"))

let test_v1_frames_rejected () =
  let open Fb_codec.Codec in
  (* Protocol v1 request: u8 1 | bytes user | list tokens.  Rejected by
     version number with a message naming both versions — old clients get
     a clean diagnosis, not a misparse. *)
  let v1_request =
    to_string
      (fun w () ->
        u8 w 1;
        bytes w "alice";
        list w bytes [ "get"; "k"; "master" ])
      ()
  in
  (match Frame.decode_request v1_request with
   | Error e -> check bool_ "names version" true (Tutil.contains e "version")
   | Ok _ -> Alcotest.fail "v1 request accepted");
  (* Protocol v1 response: u8 ok-flag | bytes rendered-text.  The v2
     decoder must refuse it cleanly (an error, never an exception). *)
  let v1_response =
    to_string
      (fun w () ->
        u8 w 1;
        bytes w "OK deadbeef")
      ()
  in
  check bool_ "v1 response rejected" true
    (Result.is_error (Frame.decode_response v1_response))

(* ---------------- server round trips ---------------- *)

let test_server_roundtrip () =
  let fb = FB.create (Fb_chunk.Mem_store.create ()) in
  with_server fb (fun srv ->
      with_client srv (fun c ->
          (* Values with newlines and quotes survive framing verbatim —
             exactly what the line transport could not carry. *)
          let value = "line one\nline two \"quoted\"\nline three" in
          let uid = ok_cl (Mux.request c [ "put"; "k"; "master"; value ]) in
          check bool_ "uid parses" true (Result.is_ok (FB.parse_version uid));
          check string_ "get" value (ok_cl (Mux.request c [ "get"; "k"; "master" ]));
          check string_ "head" uid (ok_cl (Mux.request c [ "head"; "k"; "master" ]));
          ignore (ok_cl (Mux.request c [ "branch"; "k"; "master"; "dev" ]));
          ignore (ok_cl (Mux.request c [ "put"; "k"; "dev"; "v2" ]));
          ignore (ok_cl (Mux.request c [ "merge"; "k"; "master"; "dev" ]));
          check string_ "merged" "v2" (ok_cl (Mux.request c [ "get"; "k"; "master" ]));
          (* A service-style request line, tokenized client-side. *)
          check string_ "tokenized line" "v2"
            (ok_cl
               (Mux.request c
                  (ok_net (Service.tokenize "get \"k\" master"))));
          (* Application errors come back typed; the connection stays up. *)
          (match Mux.request c [ "get"; "missing"; "master" ] with
          | Error (Mux.Remote (Errors.Key_not_found _ | Errors.Branch_not_found _)) -> ()
          | Error e -> Alcotest.fail ("wrong error: " ^ Client.error_to_string e)
          | Ok _ -> Alcotest.fail "missing key should fail");
          (match Mux.request c [ "frobnicate" ] with
          | Error (Mux.Remote (Errors.Invalid msg)) ->
            check bool_ "bad verb" true (Tutil.contains msg "bad request")
          | Error e -> Alcotest.fail ("wrong error: " ^ Client.error_to_string e)
          | Ok _ -> Alcotest.fail "unknown verb accepted");
          check string_ "still alive" "v2"
            (ok_cl (Mux.request c [ "get"; "k"; "master" ]))))

let test_batch_roundtrip () =
  let fb = FB.create (Fb_chunk.Mem_store.create ()) in
  with_server fb (fun srv ->
      with_client srv (fun c ->
          (* Same-key batch: one stripe, one lock acquisition. *)
          let replies =
            ok_cl
              (Mux.batch c
                 [ [ "put"; "k"; "master"; "v1" ];
                   [ "get"; "k"; "master" ];
                   [ "get"; "missing"; "master" ];
                   [ "head"; "k"; "master" ] ])
          in
          (match replies with
           | [ Ok uid; Ok "v1"; Error _; Ok head ] ->
             check string_ "head matches put" uid head
           | _ -> Alcotest.fail "unexpected same-key batch replies");
          (* The failing sub-request poisoned neither its batch nor the
             connection. *)
          check string_ "alive after partial failure" "v1"
            (ok_cl (Mux.request c [ "get"; "k"; "master" ]));
          (* Cross-key batch: the combined scope is global. *)
          (match
             ok_cl
               (Mux.batch c
                  [ [ "put"; "a"; "master"; "1" ];
                    [ "put"; "b"; "master"; "2" ];
                    [ "get"; "a"; "master" ];
                    [ "get"; "b"; "master" ] ])
           with
           | [ Ok _; Ok _; Ok "1"; Ok "2" ] -> ()
           | _ -> Alcotest.fail "cross-key batch failed");
          (* Read-only batch (shared lock path). *)
          (match
             ok_cl (Mux.batch c [ [ "get"; "a"; "master" ]; [ "list" ] ])
           with
           | [ Ok "1"; Ok keys ] ->
             check bool_ "list sees keys" true (Tutil.contains keys "k")
           | _ -> Alcotest.fail "read-only batch failed");
          (* An empty batch is answered, emptily. *)
          check int_ "empty batch" 0 (List.length (ok_cl (Mux.batch c [])))))

let test_remote_typed () =
  let fb = FB.create (Fb_chunk.Mem_store.create ()) in
  with_server fb (fun srv ->
      let r =
        match Remote.connect ~port:(Server.port srv) ~user:"alice" () with
        | Ok r -> r
        | Error e -> Alcotest.fail (Errors.to_string e)
      in
      Fun.protect
        ~finally:(fun () -> Remote.close r)
        (fun () ->
          let uid = ok_fb (Remote.put r ~key:"k" "v1") in
          check string_ "get" "v1" (ok_fb (Remote.get r ~key:"k"));
          check bool_ "head = put uid" true
            (Fb_hash.Hash.equal uid (ok_fb (Remote.head r ~key:"k")));
          ignore (ok_fb (Remote.fork r ~key:"k" ~new_branch:"dev"));
          ignore (ok_fb (Remote.put r ~branch:"dev" ~key:"k" "v2"));
          ignore
            (ok_fb (Remote.merge r ~key:"k" ~into:"master" ~from_branch:"dev"));
          check string_ "merged" "v2" (ok_fb (Remote.get r ~key:"k"));
          ok_fb
            (Remote.rename_branch r ~key:"k" ~from_branch:"dev"
               ~to_branch:"feature");
          let heads = ok_fb (Remote.latest r ~key:"k") in
          check bool_ "renamed branch listed" true
            (List.mem_assoc "feature" heads);
          check bool_ "old name gone" false (List.mem_assoc "dev" heads);
          check bool_ "master head typed" true
            (Fb_hash.Hash.equal
               (List.assoc "master" heads)
               (ok_fb (FB.head fb ~key:"k")));
          check bool_ "list_keys" true (List.mem "k" (ok_fb (Remote.list_keys r)));
          let meta = ok_fb (Remote.meta r (ok_fb (Remote.head r ~key:"k"))) in
          check bool_ "meta has author" true (Tutil.contains meta "alice");
          check bool_ "log lines" true
            (List.length (ok_fb (Remote.log r ~key:"k")) >= 2);
          (* The same typed constructor a local caller would get. *)
          (match Remote.get r ~key:"nope" with
           | Error (Errors.Key_not_found _ | Errors.Branch_not_found _) -> ()
           | Error e -> Alcotest.fail ("wrong error: " ^ Errors.to_string e)
           | Ok _ -> Alcotest.fail "missing key should fail");
          (* Typed batch: uids come back parsed, failures stay per-op. *)
          match
            ok_fb
              (Remote.batch r
                 [ Remote.Put { key = "b"; branch = "master"; value = "x" };
                   Remote.Get { key = "b"; branch = "master" };
                   Remote.Head { key = "b"; branch = "master" };
                   Remote.Get { key = "nope"; branch = "master" } ])
          with
          | [ Ok (Remote.Uid u1); Ok (Remote.Value "x"); Ok (Remote.Uid u2);
              Error _ ] ->
            check bool_ "batch put/head agree" true (Fb_hash.Hash.equal u1 u2)
          | _ -> Alcotest.fail "typed batch replies");
      (* A closed handle fails fast with a typed transient. *)
      match Remote.get r ~key:"k" with
      | Error (Errors.Transient msg) ->
        check bool_ "network-tagged" true (Tutil.contains msg "network")
      | _ -> Alcotest.fail "closed handle should be Transient")

(* TAG over TCP: the tag lands in the served instance, and retagging the
   name fails with the local API's error. *)
let test_remote_tag () =
  let fb = FB.create (Fb_chunk.Mem_store.create ()) in
  with_server fb (fun srv ->
      let r = ok_fb (Remote.connect ~port:(Server.port srv) ()) in
      Fun.protect
        ~finally:(fun () -> Remote.close r)
        (fun () ->
          let u1 = ok_fb (Remote.put r ~key:"k" "v1") in
          ignore (ok_fb (Remote.put r ~key:"k" "v2"));
          ok_fb (Remote.tag r ~key:"k" ~name:"first" u1);
          check bool_ "tag found in-process" true
            (Fb_hash.Hash.equal u1 (ok_fb (FB.tag_lookup fb ~key:"k" ~name:"first")));
          check bool_ "retag refused" true
            (Result.is_error (Remote.tag r ~key:"k" ~name:"first" u1))))

let test_server_user_identity () =
  let fb = FB.create (Fb_chunk.Mem_store.create ()) in
  with_server fb (fun srv ->
      with_client ~user:"alice" srv (fun c ->
          ignore (ok_cl (Mux.request c [ "put"; "k"; "master"; "v" ]));
          let log = ok_cl (Mux.request c [ "log"; "k"; "master" ]) in
          check bool_ "author recorded" true (Tutil.contains log "alice");
          (* Per-request override. *)
          ignore (ok_cl (Mux.request ~user:"bob" c [ "put"; "k"; "master"; "w" ]));
          let log = ok_cl (Mux.request c [ "log"; "k"; "master" ]) in
          check bool_ "override recorded" true (Tutil.contains log "bob")))

let test_server_durability () =
  with_temp_root (fun root ->
      Tutil.with_fb ~root @@ fun fb ->
      with_server fb (fun srv ->
          let uid =
            with_client srv (fun c ->
                ok_cl (Mux.request c [ "put"; "k"; "master"; "durable" ]))
          in
          (* The server is still running and has saved nothing: the head
             was journaled before the put answered, so a fresh instance
             recovering a copy of the root sees it. *)
          Tutil.with_snapshot root (fun snap ->
              Tutil.with_fb ~root:snap (fun fb2 ->
                  check bool_ "head persisted" true
                    (Fb_hash.Hash.equal (ok_fb (FB.parse_version uid))
                       (ok_fb (FB.head fb2 ~key:"k")))))))

(* The real daemon under SIGKILL: every write it acknowledged over TCP —
   put, fork, merge, tag, push — is back after a restart on the same
   root, with fsync on (the default) and off (a process crash loses
   nothing either way). *)
let forkbase_exe =
  Filename.concat (Filename.dirname Sys.executable_name) "../bin/forkbase_cli.exe"

let spawn_serve ~root ~fsync =
  let r, w = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process forkbase_exe
      [| forkbase_exe; "serve"; "--root"; root; "--port"; "0"; "--fsync"; fsync |]
      Unix.stdin w Unix.stderr
  in
  Unix.close w;
  let ic = Unix.in_channel_of_descr r in
  (* "forkbase: serving ROOT on 127.0.0.1:PORT ..." *)
  let banner = input_line ic in
  let at = String.rindex banner ':' in
  let digits = String.sub banner (at + 1) (String.length banner - at - 1) in
  let port = Scanf.sscanf digits "%d" Fun.id in
  let kill () =
    Unix.kill pid Sys.sigkill;
    ignore (Unix.waitpid [] pid);
    close_in ic
  in
  (port, kill)

let test_serve_sigkill () =
  List.iter
    (fun fsync ->
      with_temp_root (fun root ->
          let port, kill = spawn_serve ~root ~fsync in
          let expected =
            Fun.protect ~finally:kill (fun () ->
                with_client_port port (fun c ->
                    let req args = ok_cl (Mux.request c args) in
                    let u1 = req [ "put"; "k"; "master"; "v1" ] in
                    ignore (req [ "put"; "k"; "master"; "v2" ]);
                    ignore (req [ "branch"; "k"; "master"; "dev" ]);
                    let dev = req [ "put"; "k"; "dev"; "v3" ] in
                    let master = req [ "merge"; "k"; "master"; "dev" ] in
                    ignore (req [ "tag"; "k"; "first"; u1 ]);
                    let local = FB.create (Fb_chunk.Mem_store.create ()) in
                    ignore (ok_fb (FB.put local ~key:"p" (Value.string "pushed")));
                    let r = ok_fb (Remote.connect ~port ()) in
                    let pushed, _ =
                      Fun.protect ~finally:(fun () -> Remote.close r) (fun () ->
                          ok_fb (Remote.push r local ~key:"p"))
                    in
                    ( [ ("k", "master", master); ("k", "dev", dev);
                        ("p", "master", FB.version_string pushed) ],
                      u1 )))
          in
          let heads, u1 = expected in
          let ctx what = Printf.sprintf "fsync %s: %s" fsync what in
          (* Restart on the same root: every acknowledged head is there. *)
          let port, kill = spawn_serve ~root ~fsync in
          Fun.protect ~finally:kill (fun () ->
              with_client_port port (fun c ->
                  List.iter
                    (fun (key, branch, uid) ->
                      check string_
                        (ctx (key ^ "/" ^ branch))
                        uid
                        (ok_cl (Mux.request c [ "head"; key; branch ])))
                    heads));
          (* The tag has no read verb: recover the root in-process. *)
          Tutil.with_fb ~root (fun fb ->
              check string_ (ctx "tag") u1
                (FB.version_string
                   (ok_fb (FB.tag_lookup fb ~key:"k" ~name:"first")));
              check bool_ (ctx "merge verifies") true
                (Result.is_ok (FB.verify fb (ok_fb (FB.head fb ~key:"k")))))))
    [ "true"; "false" ]

(* A root opens in one instance at a time, across processes too.  While
   [forkbase serve] holds it, an in-process open and a CLI [put] are
   refused, naming the root; once the server is SIGKILLed and reaped its
   lock is gone.  While this process holds it, a CLI [put] is refused;
   after [close] it goes through. *)
let test_root_held_across_processes () =
  with_temp_root (fun root ->
      let cli_put () =
        let err = Filename.temp_file "fb_cli" ".out" in
        let fd = Unix.openfile err [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
        let pid =
          Unix.create_process forkbase_exe
            [| forkbase_exe; "put"; "k"; "--value"; "v"; "--root"; root |]
            Unix.stdin fd fd
        in
        Unix.close fd;
        let _, status = Unix.waitpid [] pid in
        let out = In_channel.with_open_bin err In_channel.input_all in
        Sys.remove err;
        (status = Unix.WEXITED 0, out)
      in
      let refused what (ok, out) =
        check bool_ (what ^ ": refused") false ok;
        check bool_ (what ^ ": names the root") true
          (Tutil.contains out (Filename.concat root "log")
          && Tutil.contains out "already open")
      in
      let _port, kill = spawn_serve ~root ~fsync:"false" in
      Fun.protect ~finally:kill (fun () ->
          (match Persistent.open_instance ~root () with
           | Error (Errors.Invalid m) -> refused "in-process open" (false, m)
           | Ok i ->
             Persistent.close i;
             Alcotest.fail "opened a root a server holds"
           | Error e -> Alcotest.fail (Errors.to_string e));
          refused "cli put while served" (cli_put ()));
      let i = ok_fb (Persistent.open_instance ~root ()) in
      refused "cli put while held here" (cli_put ());
      Persistent.close i;
      check bool_ "cli put after close" true (fst (cli_put ())))

let test_server_shutdown () =
  let fb = FB.create (Fb_chunk.Mem_store.create ()) in
  let srv = ok_net (Server.start ~config:test_config fb) in
  let port = Server.port srv in
  let c = ok_cl (Mux.connect ~port ()) in
  ignore (ok_cl (Mux.request c [ "put"; "k"; "master"; "v" ]));
  Server.stop srv;
  check bool_ "stopped" false (Server.is_running srv);
  (* The open connection was kicked. *)
  check bool_ "old conn dead" true (Result.is_error (Mux.request c [ "stat" ]));
  Mux.close c;
  (* New connections are refused (or dead on arrival via the backlog). *)
  (match Mux.connect ~port ~timeout_s:1.0 () with
  | Error _ -> ()
  | Ok c2 ->
    check bool_ "no service after stop" true
      (Result.is_error (Mux.request c2 [ "stat" ]));
    Mux.close c2);
  (* stop is idempotent. *)
  Server.stop srv

(* ---------------- bad peers and failed connects ---------------- *)

let raw_connect port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  fd

let test_slow_peer () =
  let fb = FB.create (Fb_chunk.Mem_store.create ()) in
  let config = { test_config with read_timeout_s = 10.0 } in
  with_server ~config fb (fun srv ->
      (* One byte at a time, with pauses: the read deadline covers the
         whole frame, so a slow-but-moving peer still gets served. *)
      let fd = raw_connect (Server.port srv) in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          let frame =
            Frame.request_frame ~user:"slow"
              (Frame.Single [ "put"; "s"; "master"; "v" ])
          in
          String.iter
            (fun ch ->
              ignore (Unix.write fd (Bytes.make 1 ch) 0 1);
              Thread.delay 0.002)
            frame;
          match Frame.read_frame ~timeout_s:5.0 (Frame.reader ()) fd with
          | Ok payload -> (
            match Frame.decode_response payload with
            | Ok (_, _, Frame.One (Ok _)) -> ()
            | _ -> Alcotest.fail "slow peer got an error")
          | Error e -> Alcotest.fail (Frame.error_to_string e)))

let test_read_timeout () =
  let fb = FB.create (Fb_chunk.Mem_store.create ()) in
  let config = { test_config with read_timeout_s = 0.15 } in
  with_server ~config fb (fun srv ->
      let fd = raw_connect (Server.port srv) in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          (* Send nothing: the server must give up on its own — with a
             typed Transient, not prose parsing. *)
          match Frame.read_frame ~timeout_s:5.0 (Frame.reader ()) fd with
          | Ok payload -> (
            match Frame.decode_response payload with
            | Ok (_, _, Frame.One (Error (Errors.Transient msg))) ->
              check bool_ "timeout reported" true (Tutil.contains msg "timeout")
            | _ -> Alcotest.fail "expected a Transient error response")
          | Error Frame.Eof -> ()  (* already hung up: also acceptable *)
          | Error e -> Alcotest.fail (Frame.error_to_string e)))

let test_max_frame () =
  let fb = FB.create (Fb_chunk.Mem_store.create ()) in
  let config = { test_config with max_frame = 256 } in
  with_server ~config fb (fun srv ->
      let c = ok_cl (Mux.connect ~port:(Server.port srv) ()) in
      Fun.protect
        ~finally:(fun () -> Mux.close c)
        (fun () ->
          (* The server cannot read the tag of a frame it refuses, so its
             Invalid reply is untagged and poisons the pipelined stream. *)
          (match Mux.request c [ "put"; "k"; "master"; String.make 4096 'x' ] with
          | Error (Mux.Transport msg) ->
            check bool_ "too large" true (Tutil.contains msg "large")
          | Error e -> Alcotest.fail ("wrong error: " ^ Client.error_to_string e)
          | Ok _ -> Alcotest.fail "oversize frame accepted");
          (* The stream was desynchronized: the server hung up. *)
          check bool_ "connection closed" true
            (Result.is_error (Mux.request c [ "stat" ]))));
  (* A small-but-legal request still works under the same limit. *)
  with_server ~config fb (fun srv ->
      with_client srv (fun c ->
          ignore (ok_cl (Mux.request c [ "put"; "k"; "master"; "small" ]))))

(* A peer that announces one byte more than the limit and then sends
   nothing: the refusal must come from the prefix alone — a server that
   waited for the announced body would sit on this connection until the
   read deadline. *)
let test_early_refusal () =
  List.iter
    (fun mode ->
      let fb = FB.create (Fb_chunk.Mem_store.create ()) in
      let config = { test_config with max_frame = 256; mode } in
      with_server ~config fb (fun srv ->
          let fd = raw_connect (Server.port srv) in
          Fun.protect
            ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
            (fun () ->
              let prefix =
                String.sub (Frame_ref.encode_frame (String.make 257 'x')) 0 2
              in
              ignore (Unix.write_substring fd prefix 0 2);
              let rd = Frame.reader () in
              (match Frame.read_frame ~timeout_s:5.0 rd fd with
               | Ok payload -> (
                 match Frame.decode_response payload with
                 | Ok (_, _, Frame.One (Error (Errors.Invalid msg))) ->
                   check bool_ "too large" true (Tutil.contains msg "too large")
                 | _ -> Alcotest.fail "expected an Invalid reply")
               | Error e -> Alcotest.fail (Frame.error_to_string e));
              match Frame.read_frame ~timeout_s:5.0 rd fd with
              | Error Frame.Eof -> ()
              | exception Unix.Unix_error (Unix.ECONNRESET, _, _) -> ()
              | Ok _ -> Alcotest.fail "a second reply"
              | Error e ->
                Alcotest.failf "connection not closed: %s"
                  (Frame.error_to_string e))))
    [ `Event; `Threaded ]

(* Many peers that each announce a legal frame at the limit and then send
   nothing: what the server holds for them must follow the bytes they
   sent, not the lengths they announced. *)
let test_prefix_only_peers () =
  let max_frame = 1024 * 1024 and peers = 32 in
  let prefix =
    let w = Frame_ref.encode_frame (String.make max_frame 'x') in
    String.sub w 0 (String.length w - max_frame)
  in
  List.iter
    (fun mode ->
      let fb = FB.create (Fb_chunk.Mem_store.create ()) in
      let config = { test_config with max_frame; mode } in
      with_server ~config fb (fun srv ->
          let fds = ref [] in
          Fun.protect
            ~finally:(fun () ->
              List.iter
                (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
                !fds)
            (fun () ->
              let (), bytes =
                allocated (fun () ->
                    for _ = 1 to peers do
                      let fd = raw_connect (Server.port srv) in
                      fds := fd :: !fds;
                      ignore
                        (Unix.write_substring fd prefix 0 (String.length prefix))
                    done;
                    (* A round trip on a fresh connection, then a pause:
                       the server has read every prefix by now. *)
                    with_client srv (fun c ->
                        ignore (ok_cl (Mux.request c [ "stat" ])));
                    Thread.delay 0.2)
              in
              let announced = float_of_int (peers * max_frame) in
              if bytes > announced /. 4.0 then
                Alcotest.failf
                  "%d prefix-only peers made the server allocate %.0f bytes"
                  peers bytes)))
    [ `Event; `Threaded ]

let count_fds () = Array.length (Sys.readdir "/proc/self/fd")

let test_connect_failure_leaks_no_fd () =
  (* Learn a port with nothing listening behind it. *)
  let s = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.bind s (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  let port =
    match Unix.getsockname s with
    | Unix.ADDR_INET (_, p) -> p
    | _ -> Alcotest.fail "no port"
  in
  Unix.close s;
  let before = count_fds () in
  for _ = 1 to 20 do
    match Mux.connect ~port ~timeout_s:0.5 () with
    | Error _ -> ()
    | Ok c -> Mux.close c (* something raced onto the port; still no leak *)
  done;
  check int_ "no fd leaked by failed connects" before (count_fds ())

(* ---------------- deferred watch ---------------- *)

let test_deferred_watch () =
  let fb = FB.create (Fb_chunk.Mem_store.create ()) in
  let events = ref [] in
  let _w = FB.watch fb (fun (ev : FB.head_event) -> events := ev.new_head :: !events) in
  let uid, flush =
    FB.with_deferred_watch fb (fun () ->
        let u = ok_fb (FB.put fb ~key:"k" (Value.string "v")) in
        check int_ "not delivered inside the section" 0 (List.length !events);
        u)
  in
  check int_ "not delivered before flush" 0 (List.length !events);
  flush ();
  check int_ "delivered by flush" 1 (List.length !events);
  check bool_ "event carries the committed head" true
    (Fb_hash.Hash.equal uid (List.hd !events));
  (* Undeferred delivery still works afterwards. *)
  ignore (ok_fb (FB.put fb ~key:"k" (Value.string "v2")));
  check int_ "immediate delivery restored" 2 (List.length !events)

(* ---------------- concurrency soaks ---------------- *)

let test_soak () =
  let fb = FB.create (Fb_chunk.Mem_store.create ()) in
  with_server fb (fun srv ->
      let port = Server.port srv in
      let clients = 8 and iterations = 25 in
      let errors = Atomic.make 0 in
      let fail fmt =
        Printf.ksprintf (fun s -> Atomic.incr errors; prerr_endline s) fmt
      in
      let worker cid () =
        match Mux.connect ~port ~user:(Printf.sprintf "u%d" cid) () with
        | Error e -> fail "c%d connect: %s" cid (Client.error_to_string e)
        | Ok c ->
          let key = Printf.sprintf "k%d" cid in
          for i = 0 to iterations - 1 do
            let v = Printf.sprintf "%d-%d\npayload line" cid i in
            (match Mux.request c [ "put"; key; "master"; v ] with
            | Ok _ -> ()
            | Error e -> fail "c%d put %d: %s" cid i (Client.error_to_string e));
            (match Mux.request c [ "get"; key; "master" ] with
            | Ok got when got = v -> ()
            | Ok got -> fail "c%d get %d: corrupt %S" cid i got
            | Error e -> fail "c%d get %d: %s" cid i (Client.error_to_string e));
            if i mod 5 = 0 then begin
              let b = Printf.sprintf "dev%d" i in
              (match Mux.request c [ "branch"; key; "master"; b ] with
              | Ok _ -> ()
              | Error e ->
                fail "c%d branch %d: %s" cid i (Client.error_to_string e));
              match Mux.request c [ "merge"; key; "master"; b ] with
              | Ok _ -> ()
              | Error e ->
                fail "c%d merge %d: %s" cid i (Client.error_to_string e)
            end
          done;
          Mux.close c
      in
      (* A byte-at-a-time peer runs alongside the fleet; everyone must
         still complete without corruption. *)
      let slow () =
        match raw_connect port with
        | exception Unix.Unix_error (e, _, _) ->
          fail "slow connect: %s" (Unix.error_message e)
        | fd ->
          Fun.protect
            ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
            (fun () ->
              let frame =
                Frame.request_frame ~user:"slow"
                  (Frame.Single [ "put"; "slowkey"; "master"; "slow value" ])
              in
              String.iter
                (fun ch ->
                  ignore (Unix.write fd (Bytes.make 1 ch) 0 1);
                  Thread.delay 0.001)
                frame;
              match Frame.read_frame ~timeout_s:10.0 (Frame.reader ()) fd with
              | Ok payload -> (
                match Frame.decode_response payload with
                | Ok (_, _, Frame.One (Ok _)) -> ()
                | _ -> fail "slow peer: error response")
              | Error e -> fail "slow peer: %s" (Frame.error_to_string e))
      in
      let threads =
        Thread.create slow ()
        :: List.init clients (fun cid -> Thread.create (worker cid) ())
      in
      List.iter Thread.join threads;
      check int_ "soak errors" 0 (Atomic.get errors);
      (* Every client's last write is visible and uncorrupted. *)
      for cid = 0 to clients - 1 do
        let v = ok_fb (FB.get fb ~key:(Printf.sprintf "k%d" cid)) in
        check string_ "final value"
          (Printf.sprintf "%d-%d\npayload line" cid (iterations - 1))
          (match v with Value.Primitive (Fb_types.Primitive.String s) -> s | _ -> "?")
      done)

(* 8 readers against 2 writers: every read must be a value some writer
   actually committed (no torn reads), and the sequence each reader
   observes on one branch must be monotone (heads never move backwards —
   a shared-lock read can never see a half-applied or rolled-back
   write). *)
let test_mixed_soak () =
  let fb = FB.create (Fb_chunk.Mem_store.create ()) in
  with_server fb (fun srv ->
      let port = Server.port srv in
      let writers = 2 and readers = 8 and writes = 40 in
      let errors = Atomic.make 0 in
      let fail fmt =
        Printf.ksprintf (fun s -> Atomic.incr errors; prerr_endline s) fmt
      in
      (* Seed so readers never race branch creation. *)
      with_client srv (fun c ->
          for w = 0 to writers - 1 do
            ignore
              (ok_cl
                 (Mux.request c
                    [ "put"; Printf.sprintf "w%d" w; "master"; "0" ]))
          done);
      let writers_done = Atomic.make 0 in
      let writer wid () =
        (match Mux.connect ~port () with
        | Error e -> fail "w%d connect: %s" wid (Client.error_to_string e)
        | Ok c ->
          let key = Printf.sprintf "w%d" wid in
          for i = 1 to writes do
            match Mux.request c [ "put"; key; "master"; string_of_int i ] with
            | Ok _ -> ()
            | Error e -> fail "w%d put %d: %s" wid i (Client.error_to_string e)
          done;
          Mux.close c);
        Atomic.incr writers_done
      in
      let reader rid () =
        match Mux.connect ~port () with
        | Error e -> fail "r%d connect: %s" rid (Client.error_to_string e)
        | Ok c ->
          let key = Printf.sprintf "w%d" (rid mod writers) in
          let last = ref (-1) in
          let observed = ref 0 in
          while Atomic.get writers_done < writers do
            (match Mux.request c [ "get"; key; "master" ] with
            | Ok v -> (
              incr observed;
              match int_of_string_opt v with
              | None -> fail "r%d torn read: %S" rid v
              | Some n ->
                if n < !last then
                  fail "r%d head went backwards: %d after %d" rid n !last;
                last := n)
            | Error e -> fail "r%d get: %s" rid (Client.error_to_string e))
          done;
          if !observed = 0 then fail "r%d observed nothing" rid;
          Mux.close c
      in
      let threads =
        List.init writers (fun w -> Thread.create (writer w) ())
        @ List.init readers (fun r -> Thread.create (reader r) ())
      in
      List.iter Thread.join threads;
      check int_ "mixed soak errors" 0 (Atomic.get errors);
      (* Final state: every writer's last value is the head. *)
      for w = 0 to writers - 1 do
        match ok_fb (FB.get fb ~key:(Printf.sprintf "w%d" w)) with
        | Value.Primitive (Fb_types.Primitive.String s) ->
          check string_ "final head value" (string_of_int writes) s
        | _ -> Alcotest.fail "unexpected value shape"
      done)

(* ---------------- tracing & telemetry ---------------- *)

module Obs = Fb_obs.Obs

let span_named name spans = List.filter (fun s -> s.Obs.name = name) spans

(* One request, one trace: the client stamps its span into the frame
   header, the server joins it — the span ring (shared here because
   client and server are one process) must show a single trace id
   spanning both sides, with the server span parented on the client span
   and the lock wait visible inside it. *)
let test_trace_propagation () =
  Obs.reset ();
  let fb = FB.create (Fb_chunk.Mem_store.create ()) in
  with_server fb (fun srv ->
      with_client srv (fun c ->
          ignore (ok_cl (Mux.request c [ "put"; "k"; "master"; "v" ]))));
  let spans = Obs.spans () in
  match span_named "net.client.request" spans,
        span_named "net.server.request" spans with
  | [ cl ], [ sv ] ->
    check string_ "client and server share one trace id" cl.Obs.trace
      sv.Obs.trace;
    check int_ "server span is a child of the client span" cl.Obs.id
      sv.Obs.parent;
    let waits =
      List.filter
        (fun s -> s.Obs.name = "rwlock.wait" && s.Obs.trace = cl.Obs.trace)
        spans
    in
    check bool_ "rwlock wait span joins the trace" true (waits <> []);
    (match span_named "net.server.put" spans with
     | [ d ] ->
       check string_ "dispatch span in trace" cl.Obs.trace d.Obs.trace;
       check int_ "dispatch span under server span" sv.Obs.id d.Obs.parent
     | l -> Alcotest.failf "expected 1 dispatch span, got %d" (List.length l));
    (* The Chrome export carries the same trace id. *)
    check bool_ "chrome trace export carries the trace id" true
      (Tutil.contains (Obs.dump_chrome_trace ()) cl.Obs.trace)
  | cl, sv ->
    Alcotest.failf "expected 1 client + 1 server span, got %d + %d"
      (List.length cl) (List.length sv)

(* A BATCH is one wire frame but N dispatches: each sub-request must get
   its own child span under the server batch span, all in the client's
   trace. *)
let test_batch_trace_spans () =
  Obs.reset ();
  let fb = FB.create (Fb_chunk.Mem_store.create ()) in
  with_server fb (fun srv ->
      with_client srv (fun c ->
          match
            Mux.batch c
              [ [ "put"; "k"; "master"; "v1" ]; [ "get"; "k"; "master" ] ]
          with
          | Ok [ Ok _; Ok "v1" ] -> ()
          | Ok _ -> Alcotest.fail "unexpected batch replies"
          | Error e -> Alcotest.fail (Client.error_to_string e)));
  let spans = Obs.spans () in
  match span_named "net.client.batch" spans,
        span_named "net.server.batch" spans with
  | [ cl ], [ sv ] ->
    check string_ "batch trace id propagated" cl.Obs.trace sv.Obs.trace;
    check int_ "server batch parented on client batch" cl.Obs.id sv.Obs.parent;
    List.iter
      (fun name ->
        match span_named name spans with
        | [ sub ] ->
          check string_ (name ^ " in batch trace") sv.Obs.trace sub.Obs.trace;
          (* Children of the batch span via the lock-wait-free path:
             parent chain must reach the server batch span. *)
          let rec reaches id =
            id = sv.Obs.id
            || match List.find_opt (fun s -> s.Obs.id = id) spans with
               | Some s when s.Obs.parent >= 0 -> reaches s.Obs.parent
               | _ -> false
          in
          check bool_ (name ^ " descends from batch span") true
            (reaches sub.Obs.parent)
        | l ->
          Alcotest.failf "expected 1 %s span, got %d" name (List.length l))
      [ "net.server.put"; "net.server.get" ]
  | cl, sv ->
    Alcotest.failf "expected 1 client + 1 server batch span, got %d + %d"
      (List.length cl) (List.length sv)

let http_get port path =
  let fd = raw_connect port in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      let req = Printf.sprintf "GET %s HTTP/1.0\r\n\r\n" path in
      ignore (Unix.write_substring fd req 0 (String.length req));
      let buf = Buffer.create 1024 in
      let chunk = Bytes.create 4096 in
      let rec drain () =
        match Unix.read fd chunk 0 4096 with
        | 0 -> ()
        | n ->
          Buffer.add_subbytes buf chunk 0 n;
          drain ()
      in
      drain ();
      Buffer.contents buf)

let status_of reply =
  match String.index_opt reply ' ' with
  | Some i when String.length reply >= i + 4 -> String.sub reply (i + 1) 3
  | _ -> "???"

let test_metrics_sidecar () =
  let fb = FB.create (Fb_chunk.Mem_store.create ()) in
  let config = { test_config with metrics_port = Some 0 } in
  with_server ~config fb (fun srv ->
      let mport =
        match Server.metrics_port srv with
        | Some p -> p
        | None -> Alcotest.fail "sidecar did not start"
      in
      with_client srv (fun c ->
          ignore (ok_cl (Mux.request c [ "put"; "k"; "master"; "v" ])));
      let metrics = http_get mport "/metrics" in
      check string_ "metrics 200" "200" (status_of metrics);
      check bool_ "prometheus exposition has the frame counter" true
        (Tutil.contains metrics "fb_net_frames");
      check bool_ "per-verb histogram exported" true
        (Tutil.contains metrics "fb_net_put_seconds");
      check bool_ "reply encode stage exported" true
        (Tutil.contains metrics "fb_net_reply_encode_seconds_count");
      check bool_ "active sha256 kernel exported" true
        (Tutil.contains metrics
           (Printf.sprintf "hash_sha256_native %d"
              (Bool.to_int Fb_hash.Sha256.native)));
      let healthz = http_get mport "/healthz" in
      check string_ "healthz 200" "200" (status_of healthz);
      check bool_ "healthz reports ok" true (Tutil.contains healthz "\"ok\"");
      check string_ "tracez 200" "200" (status_of (http_get mport "/tracez"));
      let trace_json = http_get mport "/trace.json" in
      check string_ "trace.json 200" "200" (status_of trace_json);
      check bool_ "chrome trace payload" true
        (Tutil.contains trace_json "traceEvents");
      check string_ "unknown path is 404" "404"
        (status_of (http_get mport "/nope"));
      (* A second scrape must work: connections are one-shot
         (Connection: close), not keep-alive. *)
      check string_ "second scrape" "200"
        (status_of (http_get mport "/metrics")))

let test_slow_request_log () =
  Obs.reset ();
  let fb = FB.create (Fb_chunk.Mem_store.create ()) in
  (* Threshold 0: every request is "slow", so one put must land in the
     ring and emit a Warn event carrying its trace id. *)
  let config = { test_config with slow_ms = 0.0 } in
  with_server ~config fb (fun srv ->
      with_client srv (fun c ->
          ignore (ok_cl (Mux.request c [ "put"; "k"; "master"; "v" ])));
      check bool_ "slow ring captured the request" true
        (Server.slow_trace_count srv > 0));
  let warns =
    List.filter
      (fun (e : Obs.event) -> e.Obs.ev_level = Obs.Warn
                              && e.Obs.ev_msg = "slow request")
      (Obs.events ())
  in
  match warns with
  | [] -> Alcotest.fail "no slow-request event logged"
  | e :: _ ->
    check bool_ "event names the verb" true
      (List.mem_assoc "verb" e.Obs.ev_fields);
    let trace = Option.value (List.assoc_opt "trace" e.Obs.ev_fields) ~default:"" in
    check bool_ "event carries a trace id" true (String.length trace = 32);
    check bool_ "span tree renders for that trace" true
      (Tutil.contains (Obs.render_trace trace) "net.server.request")

(* A head move's acknowledgement wait is observable where an operator
   looks: fb.log.commit_wait_seconds in metrics-json, and a commit_wait
   summary in /healthz. *)
let test_commit_wait_exported () =
  with_temp_root (fun root ->
      let inst = ok_fb (Persistent.open_instance ~fsync:true ~root ()) in
      let config = { test_config with metrics_port = Some 0 } in
      Fun.protect ~finally:(fun () -> Persistent.close inst) (fun () ->
          with_server ~config inst.fb (fun srv ->
              let mport =
                match Server.metrics_port srv with
                | Some p -> p
                | None -> Alcotest.fail "sidecar did not start"
              in
              with_client srv (fun c ->
                  ignore (ok_cl (Mux.request c [ "put"; "k"; "master"; "v" ]));
                  check bool_ "metrics-json has the histogram" true
                    (Tutil.contains
                       (ok_cl (Mux.request c [ "metrics-json" ]))
                       "fb.log.commit_wait_seconds"));
              let healthz = http_get mport "/healthz" in
              check bool_ "healthz has the commit wait" true
                (Tutil.contains healthz "\"commit_wait\":{\"count\":");
              check bool_ "the put's wait is counted" false
                (Tutil.contains healthz "\"commit_wait\":{\"count\":0,"))))

(* ---------------- the verb table over TCP ---------------- *)

(* Oracle: the script over every verb gives the same bytes through
   [Remote.raw] as through in-process [Service.dispatch], and
   [Remote.call] the same value as decoding the in-process reply.  Four
   instances run every step once each, so they stay in lockstep. *)
let test_remote_matches_dispatch () =
  let fresh () = FB.create (Fb_chunk.Mem_store.create ()) in
  let local_raw = fresh () and local_call = fresh () in
  with_server (fresh ()) (fun s1 ->
      with_server (fresh ()) (fun s2 ->
          let r1 = ok_fb (Remote.connect ~port:(Server.port s1) ()) in
          let r2 = ok_fb (Remote.connect ~port:(Server.port s2) ()) in
          let step tokens =
            let want = Service.dispatch local_raw tokens in
            let got = Remote.raw r1 tokens in
            let what = String.concat " " (List.map String.escaped tokens) in
            (* The metrics registry is process-wide. *)
            let volatile =
              match tokens with
              | ("metrics" | "metrics-json") :: _ -> true
              | _ -> false
            in
            if volatile then
              check bool_ ("raw ok: " ^ what) true (Result.is_ok got)
            else check bool_ ("raw: " ^ what) true (got = want);
            (match tokens with
             | name :: args -> (
               match Service.find name with
               | Some (Service.Verb v) -> (
                 match v.decode_args args with
                 | Ok a ->
                   let want =
                     Result.bind (Service.dispatch local_call tokens)
                       v.decode_reply
                   in
                   let got = Remote.call r2 v a in
                   if volatile then
                     check bool_ ("call ok: " ^ what) true (Result.is_ok got)
                   else check bool_ ("call: " ^ what) true (got = want)
                 | Error _ ->
                   check bool_ ("refused: " ^ what) true
                     (Result.is_error (Service.dispatch local_call tokens)
                      && Result.is_error (Remote.raw r2 tokens)))
               | None -> ())
             | [] -> ());
            want
          in
          ignore (Service_script.run step);
          Remote.close r1;
          Remote.close r2))

(* The server registers one histogram per table verb, plus batches,
   unknown verbs and reply encoding — the set it registered when the
   verb list was written out by hand. *)
let test_verb_histograms () =
  let names =
    match Fb_types.Json.parse (Fb_obs.Obs.dump_json ()) with
    | Ok j -> (
      match Fb_types.Json.member "histograms" j with
      | Some (Fb_types.Json.Object kvs) -> List.map fst kvs
      | _ -> Alcotest.fail "no histograms object")
    | Error e -> Alcotest.fail e
  in
  let net =
    List.filter
      (fun n ->
        String.starts_with ~prefix:"fb.net." n
        && String.ends_with ~suffix:"_seconds" n)
      names
  in
  let expected =
    List.map
      (fun v -> "fb.net." ^ String.map (function '-' -> '_' | c -> c) v ^ "_seconds")
      [ "put"; "put-csv"; "get"; "get-at"; "head"; "latest"; "list"; "log";
        "branch"; "rename"; "tag"; "meta"; "diff"; "merge"; "verify"; "stat";
        "metrics"; "metrics-json"; "fsck"; "scrub"; "get-json"; "diff-json";
        "log-json"; "stat-json"; "latest-json"; "prove"; "batch"; "sync-have";
        "sync-get"; "sync-put"; "sync-advance"; "sync-bloom"; "chunk-put";
        "chunk-stat"; "other"; "reply-encode" ]
  in
  check (Alcotest.list string_) "fb.net.*_seconds"
    (List.sort compare expected) (List.sort compare net)

let suite =
  [ Alcotest.test_case "frame round-trip" `Quick test_frame_roundtrip;
    Alcotest.test_case "frame stream" `Quick test_frame_stream;
    Alcotest.test_case "frame truncated prefixes" `Quick test_frame_truncated;
    Alcotest.test_case "frame limits" `Quick test_frame_limits;
    QCheck_alcotest.to_alcotest qcheck_frame_roundtrip;
    QCheck_alcotest.to_alcotest qcheck_request_roundtrip;
    QCheck_alcotest.to_alcotest qcheck_trace_roundtrip;
    Alcotest.test_case "header-less v2 compatibility" `Quick
      test_headerless_v2_compat;
    QCheck_alcotest.to_alcotest qcheck_response_roundtrip;
    QCheck_alcotest.to_alcotest qcheck_request_frame_oracle;
    QCheck_alcotest.to_alcotest qcheck_response_frame_oracle;
    Alcotest.test_case "frame builders on fixed cases" `Quick
      test_frame_builders_fixed_cases;
    QCheck_alcotest.to_alcotest qcheck_reader_oracle;
    Alcotest.test_case "reply encode allocation budget" `Quick
      test_encode_alloc_budget;
    Alcotest.test_case "frame read allocation budget" `Quick
      test_reader_alloc_budget;
    Alcotest.test_case "request rejects garbage" `Quick
      test_request_rejects_garbage;
    Alcotest.test_case "v1 frames rejected" `Quick test_v1_frames_rejected;
    Alcotest.test_case "server round-trip" `Quick test_server_roundtrip;
    Alcotest.test_case "batch round-trip" `Quick test_batch_roundtrip;
    Alcotest.test_case "typed remote handle" `Quick test_remote_typed;
    Alcotest.test_case "remote raw and call match dispatch, every verb"
      `Quick test_remote_matches_dispatch;
    Alcotest.test_case "per-verb histograms" `Quick test_verb_histograms;
    Alcotest.test_case "server user identity" `Quick test_server_user_identity;
    Alcotest.test_case "server durability" `Quick test_server_durability;
    Alcotest.test_case "serve: acknowledged heads survive SIGKILL" `Quick
      test_serve_sigkill;
    Alcotest.test_case "remote tag" `Quick test_remote_tag;
    Alcotest.test_case "a root opens in one process at a time" `Quick
      test_root_held_across_processes;
    Alcotest.test_case "commit wait in metrics-json and /healthz" `Quick
      test_commit_wait_exported;
    Alcotest.test_case "server shutdown" `Quick test_server_shutdown;
    Alcotest.test_case "slow peer" `Quick test_slow_peer;
    Alcotest.test_case "read timeout" `Quick test_read_timeout;
    Alcotest.test_case "max frame" `Quick test_max_frame;
    Alcotest.test_case "oversize prefix refused before its body" `Quick
      test_early_refusal;
    Alcotest.test_case "prefix-only peers allocate no bodies" `Quick
      test_prefix_only_peers;
    Alcotest.test_case "failed connect leaks no fd" `Quick
      test_connect_failure_leaks_no_fd;
    Alcotest.test_case "deferred watch delivery" `Quick test_deferred_watch;
    Alcotest.test_case "concurrent soak" `Quick test_soak;
    Alcotest.test_case "mixed reader/writer soak" `Quick test_mixed_soak;
    Alcotest.test_case "trace propagation end-to-end" `Quick
      test_trace_propagation;
    Alcotest.test_case "batch sub-request spans" `Quick test_batch_trace_spans;
    Alcotest.test_case "metrics sidecar" `Quick test_metrics_sidecar;
    Alcotest.test_case "slow request log" `Quick test_slow_request_log ]
