(* Framed wire protocol (v2: typed status + batching) and the
   concurrently-readable TCP server/client/remote stack. *)

module FB = Fb_core.Forkbase
module Errors = Fb_core.Errors
module Persistent = Fb_core.Persistent
module Value = Fb_types.Value
module Frame = Fb_net.Frame
module Client = Fb_net.Client
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

(* No periodic saver and no fixed port: tests must not collide. *)
let test_config =
  { Server.default_config with port = 0; save_every_s = 0.0 }

let with_server ?(config = test_config) ?save fb f =
  let srv = ok_net (Server.start ~config ?save fb) in
  Fun.protect ~finally:(fun () -> Server.stop srv) (fun () -> f srv)

let with_client ?user srv f =
  let c = ok_cl (Client.connect ?user ~port:(Server.port srv) ()) in
  Fun.protect ~finally:(fun () -> Client.close c) (fun () -> f c)

(* ---------------- pure framing ---------------- *)

let test_frame_roundtrip () =
  List.iter
    (fun payload ->
      match Frame.decode_frame (Frame.encode_frame payload) with
      | Ok (`Frame (p, next)) ->
        check string_ "payload" payload p;
        check int_ "consumed all" (String.length (Frame.encode_frame payload)) next
      | _ -> Alcotest.fail "frame did not round-trip")
    [ ""; "x"; "hello\nworld"; String.make 300 'a'; String.make 70000 '\x00' ]

let test_frame_stream () =
  (* Several frames back to back decode in sequence. *)
  let payloads = [ "one"; ""; "three\nlines\nhere"; String.make 500 'z' ] in
  let buf = String.concat "" (List.map Frame.encode_frame payloads) in
  let rec go pos acc =
    if pos >= String.length buf then List.rev acc
    else
      match Frame.decode_frame ~pos buf with
      | Ok (`Frame (p, next)) -> go next (p :: acc)
      | _ -> Alcotest.fail "stream decode failed"
  in
  check bool_ "all frames" true (go 0 [] = payloads)

let test_frame_truncated () =
  let full = Frame.encode_frame (String.make 300 'q') in
  for cut = 0 to String.length full - 1 do
    match Frame.decode_frame (String.sub full 0 cut) with
    | Ok `Need_more -> ()
    | _ -> Alcotest.failf "prefix of %d bytes should need more" cut
  done

let test_frame_limits () =
  (match Frame.decode_frame ~max_frame:10 (Frame.encode_frame (String.make 100 'x')) with
  | Error (Frame.Too_large 100) -> ()
  | _ -> Alcotest.fail "oversize frame accepted");
  (* Non-minimal varint length: 0x80 0x00 encodes 0 in two bytes. *)
  (match Frame.decode_frame "\x80\x00" with
  | Error (Frame.Malformed _) -> ()
  | _ -> Alcotest.fail "non-minimal length accepted");
  (* A length varint longer than 5 bytes is not a frame. *)
  (match Frame.decode_frame "\xff\xff\xff\xff\xff\xff" with
  | Error (Frame.Malformed _) -> ()
  | _ -> Alcotest.fail "runaway varint accepted")

let qcheck_frame_roundtrip =
  QCheck.Test.make ~count:200 ~name:"frame encode/decode round-trip"
    QCheck.(string_of_size Gen.(0 -- 2000))
    (fun payload ->
      match Frame.decode_frame (Frame.encode_frame payload) with
      | Ok (`Frame (p, _)) -> String.equal p payload
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
      match Frame.decode_request (Frame.encode_request ~user req) with
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
      match Frame.decode_request (Frame.encode_request ~user ?trace req) with
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
      match Frame.decode_response (Frame.encode_response resp) with
      | Ok (None, None, r) -> r = resp
      | _ -> false)

let test_request_rejects_garbage () =
  check bool_ "bad version" true
    (Result.is_error (Frame.decode_request "\xff"));
  check bool_ "empty" true (Result.is_error (Frame.decode_request ""));
  check bool_ "trailing garbage" true
    (Result.is_error
       (Frame.decode_request
          (Frame.encode_request ~user:"u" (Frame.Single [ "a" ]) ^ "x")));
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
          let uid = ok_cl (Client.request c [ "put"; "k"; "master"; value ]) in
          check bool_ "uid parses" true (Result.is_ok (FB.parse_version uid));
          check string_ "get" value (ok_cl (Client.request c [ "get"; "k"; "master" ]));
          check string_ "head" uid (ok_cl (Client.request c [ "head"; "k"; "master" ]));
          ignore (ok_cl (Client.request c [ "branch"; "k"; "master"; "dev" ]));
          ignore (ok_cl (Client.request c [ "put"; "k"; "dev"; "v2" ]));
          ignore (ok_cl (Client.request c [ "merge"; "k"; "master"; "dev" ]));
          check string_ "merged" "v2" (ok_cl (Client.request c [ "get"; "k"; "master" ]));
          (* request_line tokenizes client-side. *)
          check string_ "request_line" "v2"
            (ok_cl (Client.request_line c "get k master"));
          (* Application errors come back typed; the connection stays up. *)
          (match Client.request c [ "get"; "missing"; "master" ] with
          | Error (Client.Remote (Errors.Key_not_found _ | Errors.Branch_not_found _)) -> ()
          | Error e -> Alcotest.fail ("wrong error: " ^ Client.error_to_string e)
          | Ok _ -> Alcotest.fail "missing key should fail");
          (match Client.request c [ "frobnicate" ] with
          | Error (Client.Remote (Errors.Invalid msg)) ->
            check bool_ "bad verb" true (Tutil.contains msg "bad request")
          | Error e -> Alcotest.fail ("wrong error: " ^ Client.error_to_string e)
          | Ok _ -> Alcotest.fail "unknown verb accepted");
          check string_ "still alive" "v2"
            (ok_cl (Client.request c [ "get"; "k"; "master" ]))))

let test_batch_roundtrip () =
  let fb = FB.create (Fb_chunk.Mem_store.create ()) in
  with_server fb (fun srv ->
      with_client srv (fun c ->
          (* Same-key batch: one stripe, one lock acquisition. *)
          let replies =
            ok_cl
              (Client.batch c
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
            (ok_cl (Client.request c [ "get"; "k"; "master" ]));
          (* Cross-key batch: the combined scope is global. *)
          (match
             ok_cl
               (Client.batch c
                  [ [ "put"; "a"; "master"; "1" ];
                    [ "put"; "b"; "master"; "2" ];
                    [ "get"; "a"; "master" ];
                    [ "get"; "b"; "master" ] ])
           with
           | [ Ok _; Ok _; Ok "1"; Ok "2" ] -> ()
           | _ -> Alcotest.fail "cross-key batch failed");
          (* Read-only batch (shared lock path). *)
          (match
             ok_cl (Client.batch c [ [ "get"; "a"; "master" ]; [ "list" ] ])
           with
           | [ Ok "1"; Ok keys ] ->
             check bool_ "list sees keys" true (Tutil.contains keys "k")
           | _ -> Alcotest.fail "read-only batch failed");
          (* An empty batch is answered, emptily. *)
          check int_ "empty batch" 0 (List.length (ok_cl (Client.batch c [])))))

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

let test_server_user_identity () =
  let fb = FB.create (Fb_chunk.Mem_store.create ()) in
  with_server fb (fun srv ->
      with_client ~user:"alice" srv (fun c ->
          ignore (ok_cl (Client.request c [ "put"; "k"; "master"; "v" ]));
          let log = ok_cl (Client.request c [ "log"; "k"; "master" ]) in
          check bool_ "author recorded" true (Tutil.contains log "alice");
          (* Per-request override. *)
          ignore (ok_cl (Client.request ~user:"bob" c [ "put"; "k"; "master"; "w" ]));
          let log = ok_cl (Client.request c [ "log"; "k"; "master" ]) in
          check bool_ "override recorded" true (Tutil.contains log "bob")))

let test_server_durability () =
  with_temp_root (fun root ->
      let fb = ok_fb (Persistent.open_ ~root ()) in
      let save () = ignore (Persistent.save ~fsync:true ~root fb) in
      let uid =
        with_server ~save fb (fun srv ->
            with_client srv (fun c ->
                ok_cl (Client.request c [ "put"; "k"; "master"; "durable" ])))
      in
      (* with_server stopped the server; stop runs the final save, so a
         fresh instance sees the head. *)
      let fb2 = ok_fb (Persistent.open_ ~root ()) in
      check bool_ "head persisted" true
        (Fb_hash.Hash.equal (ok_fb (FB.parse_version uid))
           (ok_fb (FB.head fb2 ~key:"k"))))

let test_server_shutdown () =
  let fb = FB.create (Fb_chunk.Mem_store.create ()) in
  let srv = ok_net (Server.start ~config:test_config fb) in
  let port = Server.port srv in
  let c = ok_cl (Client.connect ~port ()) in
  ignore (ok_cl (Client.request c [ "put"; "k"; "master"; "v" ]));
  Server.stop srv;
  check bool_ "stopped" false (Server.is_running srv);
  (* The open connection was kicked. *)
  check bool_ "old conn dead" true (Result.is_error (Client.request c [ "stat" ]));
  Client.close c;
  (* New connections are refused (or dead on arrival via the backlog). *)
  (match Client.connect ~port ~timeout_s:1.0 () with
  | Error _ -> ()
  | Ok c2 ->
    check bool_ "no service after stop" true
      (Result.is_error (Client.request c2 [ "stat" ]));
    Client.close c2);
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
            Frame.encode_frame
              (Frame.encode_request ~user:"slow"
                 (Frame.Single [ "put"; "s"; "master"; "v" ]))
          in
          String.iter
            (fun ch ->
              ignore (Unix.write fd (Bytes.make 1 ch) 0 1);
              Thread.delay 0.002)
            frame;
          match Frame.read_frame ~timeout_s:5.0 fd with
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
          match Frame.read_frame ~timeout_s:5.0 fd with
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
      let c = ok_cl (Client.connect ~port:(Server.port srv) ()) in
      Fun.protect
        ~finally:(fun () -> Client.close c)
        (fun () ->
          (match Client.request c [ "put"; "k"; "master"; String.make 4096 'x' ] with
          | Error (Client.Remote (Errors.Invalid msg)) ->
            check bool_ "too large" true (Tutil.contains msg "large")
          | Error e -> Alcotest.fail ("wrong error: " ^ Client.error_to_string e)
          | Ok _ -> Alcotest.fail "oversize frame accepted");
          (* The stream was desynchronized: the server hung up. *)
          check bool_ "connection closed" true
            (Result.is_error (Client.request c [ "stat" ]))));
  (* A small-but-legal request still works under the same limit. *)
  with_server ~config fb (fun srv ->
      with_client srv (fun c ->
          ignore (ok_cl (Client.request c [ "put"; "k"; "master"; "small" ]))))

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
    match Client.connect ~port ~timeout_s:0.5 () with
    | Error _ -> ()
    | Ok c -> Client.close c (* something raced onto the port; still no leak *)
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
        match Client.connect ~port ~user:(Printf.sprintf "u%d" cid) () with
        | Error e -> fail "c%d connect: %s" cid (Client.error_to_string e)
        | Ok c ->
          let key = Printf.sprintf "k%d" cid in
          for i = 0 to iterations - 1 do
            let v = Printf.sprintf "%d-%d\npayload line" cid i in
            (match Client.request c [ "put"; key; "master"; v ] with
            | Ok _ -> ()
            | Error e -> fail "c%d put %d: %s" cid i (Client.error_to_string e));
            (match Client.request c [ "get"; key; "master" ] with
            | Ok got when got = v -> ()
            | Ok got -> fail "c%d get %d: corrupt %S" cid i got
            | Error e -> fail "c%d get %d: %s" cid i (Client.error_to_string e));
            if i mod 5 = 0 then begin
              let b = Printf.sprintf "dev%d" i in
              (match Client.request c [ "branch"; key; "master"; b ] with
              | Ok _ -> ()
              | Error e ->
                fail "c%d branch %d: %s" cid i (Client.error_to_string e));
              match Client.request c [ "merge"; key; "master"; b ] with
              | Ok _ -> ()
              | Error e ->
                fail "c%d merge %d: %s" cid i (Client.error_to_string e)
            end
          done;
          Client.close c
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
                Frame.encode_frame
                  (Frame.encode_request ~user:"slow"
                     (Frame.Single [ "put"; "slowkey"; "master"; "slow value" ]))
              in
              String.iter
                (fun ch ->
                  ignore (Unix.write fd (Bytes.make 1 ch) 0 1);
                  Thread.delay 0.001)
                frame;
              match Frame.read_frame ~timeout_s:10.0 fd with
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
                 (Client.request c
                    [ "put"; Printf.sprintf "w%d" w; "master"; "0" ]))
          done);
      let writers_done = Atomic.make 0 in
      let writer wid () =
        (match Client.connect ~port () with
        | Error e -> fail "w%d connect: %s" wid (Client.error_to_string e)
        | Ok c ->
          let key = Printf.sprintf "w%d" wid in
          for i = 1 to writes do
            match Client.request c [ "put"; key; "master"; string_of_int i ] with
            | Ok _ -> ()
            | Error e -> fail "w%d put %d: %s" wid i (Client.error_to_string e)
          done;
          Client.close c);
        Atomic.incr writers_done
      in
      let reader rid () =
        match Client.connect ~port () with
        | Error e -> fail "r%d connect: %s" rid (Client.error_to_string e)
        | Ok c ->
          let key = Printf.sprintf "w%d" (rid mod writers) in
          let last = ref (-1) in
          let observed = ref 0 in
          while Atomic.get writers_done < writers do
            (match Client.request c [ "get"; key; "master" ] with
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
          Client.close c
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
          ignore (ok_cl (Client.request c [ "put"; "k"; "master"; "v" ]))));
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
            Client.batch c
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
          ignore (ok_cl (Client.request c [ "put"; "k"; "master"; "v" ])));
      let metrics = http_get mport "/metrics" in
      check string_ "metrics 200" "200" (status_of metrics);
      check bool_ "prometheus exposition has the frame counter" true
        (Tutil.contains metrics "fb_net_frames");
      check bool_ "per-verb histogram exported" true
        (Tutil.contains metrics "fb_net_put_seconds");
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
          ignore (ok_cl (Client.request c [ "put"; "k"; "master"; "v" ])));
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
    Alcotest.test_case "request rejects garbage" `Quick
      test_request_rejects_garbage;
    Alcotest.test_case "v1 frames rejected" `Quick test_v1_frames_rejected;
    Alcotest.test_case "server round-trip" `Quick test_server_roundtrip;
    Alcotest.test_case "batch round-trip" `Quick test_batch_roundtrip;
    Alcotest.test_case "typed remote handle" `Quick test_remote_typed;
    Alcotest.test_case "server user identity" `Quick test_server_user_identity;
    Alcotest.test_case "server durability" `Quick test_server_durability;
    Alcotest.test_case "server shutdown" `Quick test_server_shutdown;
    Alcotest.test_case "slow peer" `Quick test_slow_peer;
    Alcotest.test_case "read timeout" `Quick test_read_timeout;
    Alcotest.test_case "max frame" `Quick test_max_frame;
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
