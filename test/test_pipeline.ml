(* Request pipelining (sequence-id tagged frames, out-of-order replies),
   the Mux demultiplexing client, event-loop backpressure, SUBSCRIBE
   push delivery and the Remote reconnect policy. *)

module FB = Fb_core.Forkbase
module Errors = Fb_core.Errors
module Frame = Fb_net.Frame
module Client = Fb_net.Client
module Mux = Fb_net.Mux
module Remote = Fb_net.Remote
module Server = Fb_net.Server
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

let ok_cl = function
  | Ok v -> v
  | Error e -> Alcotest.fail (Client.error_to_string e)

let test_config =
  { Server.default_config with port = 0 }

let with_server ?(config = test_config) fb f =
  let srv = ok_net (Server.start ~config fb) in
  Fun.protect ~finally:(fun () -> Server.stop srv) (fun () -> f srv)

let with_mux ?user srv f =
  let m = ok_cl (Mux.connect ?user ~port:(Server.port srv) ()) in
  Fun.protect ~finally:(fun () -> Mux.close m) (fun () -> f m)

(* Wait (bounded) for a cross-thread condition instead of sleeping a
   fixed amount: push delivery is asynchronous by design. *)
let eventually ?(timeout = 5.0) pred =
  let deadline = Unix.gettimeofday () +. timeout in
  let rec go () =
    if pred () then true
    else if Unix.gettimeofday () > deadline then false
    else begin
      Thread.delay 0.01;
      go ()
    end
  in
  go ()

(* ---------------- sequence-id codec ---------------- *)

let request_gen =
  let open QCheck.Gen in
  let tokens = small_list (string_size (0 -- 100)) in
  oneof
    [ map (fun t -> Frame.Single t) tokens;
      map (fun b -> Frame.Batch b) (small_list tokens) ]

let trace_gen =
  QCheck.Gen.(
    opt
      (map2
         (fun trace_id parent_span -> { Frame.trace_id; parent_span })
         (string_size (0 -- 40))
         (map2 (fun sign n -> if sign then n else -n - 1) bool
            (int_bound ((1 lsl 30) - 1)))))

let seq_gen = QCheck.Gen.(opt (int_bound ((1 lsl 30) - 1)))

(* Any combination of the two optional headers — absent, trace only, seq
   only, both — must round-trip exactly; the flag bits are independent. *)
let qcheck_seq_roundtrip =
  QCheck.Test.make ~count:400
    ~name:"sequence-id request header round-trip (all flag combinations)"
    (QCheck.make
       QCheck.Gen.(
         quad (string_size (0 -- 20)) trace_gen seq_gen request_gen))
    (fun (user, trace, seq, req) ->
      match
        Frame.decode_request
          (Frame_ref.payload_of (Frame.request_frame ~user ?trace ?seq req))
      with
      | Ok (u, t, s, r) ->
        String.equal u user && t = trace && s = seq && r = req
      | Error _ -> false)

let reply_gen =
  QCheck.Gen.(
    oneof
      [ map Result.ok (string_size (0 -- 200));
        map (fun m -> Error (Errors.Invalid m)) (string_size (0 -- 40)) ])

let qcheck_response_seq_roundtrip =
  QCheck.Test.make ~count:400 ~name:"sequence-id response echo round-trip"
    (QCheck.make QCheck.Gen.(triple trace_gen seq_gen reply_gen))
    (fun (trace, seq, reply) ->
      match
        Frame.decode_response
          (Frame_ref.payload_of
             (Frame.response_frame ?trace ?seq (Frame.One reply)))
      with
      | Ok (t, s, Frame.One r) -> t = trace && s = seq && r = reply
      | _ -> false)

let event_gen =
  let open QCheck.Gen in
  let s = string_size (0 -- 40) in
  map
    (fun (sub_id, ev_key, ev_branch, (new_head, old_head)) ->
      { Frame.sub_id; ev_key; ev_branch; new_head; old_head })
    (quad (int_bound ((1 lsl 30) - 1)) s s (pair s (opt s)))

let qcheck_event_roundtrip =
  QCheck.Test.make ~count:300 ~name:"event frame encode/decode round-trip"
    (QCheck.make QCheck.Gen.(pair trace_gen event_gen))
    (fun (trace, ev) ->
      match
        Frame.decode_response
          (Frame_ref.payload_of (Frame.response_frame ?trace (Frame.Event ev)))
      with
      | Ok (t, None, Frame.Event e) -> t = trace && e = ev
      | _ -> false)

(* A header-less v2 response (bare kind byte, written by hand) still
   decodes with both headers absent — the pre-pipelining wire form. *)
let test_headerless_response_compat () =
  let open Fb_codec.Codec in
  let payload =
    to_string
      (fun w () ->
        u8 w 0 (* One, no flags *);
        u8 w 0 (* status ok *);
        bytes w "payload")
      ()
  in
  match Frame.decode_response payload with
  | Ok (None, None, Frame.One (Ok "payload")) -> ()
  | Ok _ -> Alcotest.fail "header-less response misparsed"
  | Error e -> Alcotest.failf "header-less response rejected: %s" e

(* ---------------- protocol-level demux (hand-rolled peer) ---------------- *)

(* A scripted server: accept one connection, run [logic] on it.  Lets
   the tests control reply order and reply tags exactly. *)
let with_fake_server logic f =
  let lfd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt lfd Unix.SO_REUSEADDR true;
  Unix.bind lfd (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  Unix.listen lfd 1;
  let port =
    match Unix.getsockname lfd with
    | Unix.ADDR_INET (_, p) -> p
    | _ -> Alcotest.fail "no port"
  in
  let th =
    Thread.create
      (fun () ->
        match Unix.accept lfd with
        | fd, _ ->
          (try logic (Frame.reader ()) fd with _ -> ());
          (try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
          (try Unix.close fd with Unix.Unix_error _ -> ())
        | exception Unix.Unix_error _ -> ())
      ()
  in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close lfd with Unix.Unix_error _ -> ());
      Thread.join th)
    (fun () -> f port)

let read_tagged_single rd fd =
  match Frame.read_frame ~timeout_s:5.0 rd fd with
  | Ok p -> (
    match Frame.decode_request p with
    | Ok (_, _, Some seq, Frame.Single [ tok ]) -> (seq, tok)
    | _ -> Alcotest.fail "fake server: expected a tagged single request")
  | Error e -> Alcotest.fail (Frame.error_to_string e)

let send_reply fd ~seq payload =
  match
    Frame.send_frame fd (Frame.response_frame ~seq (Frame.One (Ok payload)))
  with
  | Ok () -> ()
  | Error e -> Alcotest.fail (Frame.error_to_string e)

(* Replies delivered in the reverse of request order must still land on
   the right callers — the demux matches by sequence id, not arrival
   order. *)
let test_out_of_order_replies () =
  with_fake_server
    (fun rd fd ->
      let s1, t1 = read_tagged_single rd fd in
      let s2, t2 = read_tagged_single rd fd in
      send_reply fd ~seq:s2 ("echo:" ^ t2);
      send_reply fd ~seq:s1 ("echo:" ^ t1))
    (fun port ->
      let m = ok_cl (Mux.connect ~port ()) in
      Fun.protect
        ~finally:(fun () -> Mux.close m)
        (fun () ->
          let ta = ok_cl (Mux.send m (Frame.Single [ "alpha" ])) in
          let tb = ok_cl (Mux.send m (Frame.Single [ "beta" ])) in
          (* Await the FIRST request first even though its reply arrives
             last: matching is by tag. *)
          (match Mux.await m ta with
           | Ok (Frame.One (Ok p)) -> check string_ "first reply" "echo:alpha" p
           | _ -> Alcotest.fail "first await failed");
          match Mux.await m tb with
          | Ok (Frame.One (Ok p)) -> check string_ "second reply" "echo:beta" p
          | _ -> Alcotest.fail "second await failed"))

(* A reply tagged with a sequence id the client never issued is a
   protocol violation: the connection must be poisoned, failing the
   outstanding request rather than hanging it. *)
let test_unknown_sequence_rejected () =
  with_fake_server
    (fun rd fd ->
      let seq, _ = read_tagged_single rd fd in
      send_reply fd ~seq:(seq + 999) "stray";
      (* Hold the connection open: the poison must come from the stray
         tag, not from EOF. *)
      ignore (Frame.read_frame ~timeout_s:5.0 rd fd))
    (fun port ->
      let m = ok_cl (Mux.connect ~port ()) in
      Fun.protect
        ~finally:(fun () -> Mux.close m)
        (fun () ->
          let t = ok_cl (Mux.send m (Frame.Single [ "hello" ])) in
          (match Mux.await m t with
           | Error (Mux.Transport msg) ->
             check bool_ "names the violation" true
               (Tutil.contains msg "unknown sequence")
           | Ok _ -> Alcotest.fail "stray-tagged reply accepted"
           | Error e -> Alcotest.fail (Client.error_to_string e));
          check bool_ "connection poisoned" false (Mux.is_open m)))

(* ---------------- pipelining against the real server ---------------- *)

let test_pipelined_depth () =
  let fb = FB.create (Fb_chunk.Mem_store.create ()) in
  with_server fb (fun srv ->
      with_mux srv (fun m ->
          ignore (ok_cl (Mux.request m [ "put"; "k"; "master"; "seed" ]));
          (* Issue a deep pipeline of tagged requests, then await the
             tickets in reverse: every reply must match its own request. *)
          let depth = 64 in
          let tickets =
            List.init depth (fun i ->
                ( i,
                  ok_cl
                    (Mux.send m
                       (Frame.Single
                          [ "put"; "k"; "master"; Printf.sprintf "v%d" i ])) ))
          in
          List.iter
            (fun (_, tk) ->
              match Mux.await m tk with
              | Ok (Frame.One (Ok uid)) ->
                check bool_ "uid parses" true
                  (Result.is_ok (FB.parse_version uid))
              | _ -> Alcotest.fail "pipelined put failed")
            (List.rev tickets);
          (* Interleaved reads/writes across threads over one socket. *)
          let errors = Atomic.make 0 in
          let threads =
            List.init 4 (fun tid ->
                Thread.create
                  (fun () ->
                    for i = 0 to 24 do
                      let key = Printf.sprintf "t%d" tid in
                      let v = Printf.sprintf "%d-%d" tid i in
                      (match Mux.request m [ "put"; key; "master"; v ] with
                       | Ok _ -> ()
                       | Error _ -> Atomic.incr errors);
                      match Mux.request m [ "get"; key; "master" ] with
                      | Ok got when got = v -> ()
                      | _ -> Atomic.incr errors
                    done)
                  ())
          in
          List.iter Thread.join threads;
          check int_ "no pipelined errors" 0 (Atomic.get errors)))

(* ---------------- backpressure ---------------- *)

(* A greedy peer pipelines many large reads and never drains its socket:
   the server must cap the connection's outbox (stop reading — the
   high-water mark proves the cap engaged) and eventually cut the
   stalled connection loose, staying healthy for everyone else. *)
(* The strict in-order rule for untagged frames, spoken over a raw
   socket: an untagged request is admitted only once nothing else is in
   flight, and it holds back the frames after it.  So its reply follows
   every earlier tagged reply, precedes the later one, and carries no
   sequence id.  The earlier requests write large values so that a
   server breaking the rule would likely answer the cheap untagged get
   first. *)
let test_untagged_in_order () =
  List.iter
    (fun mode ->
      let fb = FB.create (Fb_chunk.Mem_store.create ()) in
      ignore (ok_fb (FB.put fb ~key:"u" (Fb_types.Value.string "untagged")));
      with_server ~config:{ test_config with mode } fb (fun srv ->
          let fd = ok_cl (Client.dial ~port:(Server.port srv) ()) in
          Fun.protect
            ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
            (fun () ->
              let big = String.make (256 * 1024) 'x' in
              let frame ?seq tokens =
                Frame.request_frame ~user:"raw" ?seq (Frame.Single tokens)
              in
              let wire =
                String.concat ""
                  (List.init 3 (fun i ->
                       frame ~seq:(i + 1)
                         [ "put"; Printf.sprintf "k%d" i; "master"; big ])
                  @ [ frame [ "get"; "u"; "master" ];
                      frame ~seq:4 [ "get"; "u"; "master" ] ])
              in
              (match Frame.send_frame ~timeout_s:5.0 fd wire with
               | Ok () -> ()
               | Error e -> Alcotest.fail (Frame.error_to_string e));
              let rd = Frame.reader () in
              let replies =
                List.init 5 (fun _ ->
                    match Frame.read_frame ~timeout_s:5.0 rd fd with
                    | Error e -> Alcotest.fail (Frame.error_to_string e)
                    | Ok payload -> (
                      match Frame.decode_response payload with
                      | Ok (_, seq, Frame.One (Ok v)) -> (seq, v)
                      | _ -> Alcotest.fail "unexpected reply"))
              in
              let seqs = List.map fst replies in
              check bool_ "earlier tagged replies first" true
                (List.sort compare (List.filteri (fun i _ -> i < 3) seqs)
                 = [ Some 1; Some 2; Some 3 ]);
              check bool_ "untagged reply fourth, with no sequence id" true
                (List.nth replies 3 = (None, "untagged"));
              check bool_ "later tagged reply last" true
                (List.nth replies 4 = (Some 4, "untagged")))))
    [ `Event; `Threaded ]

let test_slow_reader_backpressure () =
  let fb = FB.create (Fb_chunk.Mem_store.create ()) in
  let config =
    { test_config with max_outbox = 32_768; write_stall_s = 0.5 }
  in
  with_server ~config fb (fun srv ->
      let port = Server.port srv in
      let big = String.make 65_536 'x' in
      with_mux srv (fun m ->
          ignore (ok_cl (Mux.request m [ "put"; "big"; "master"; big ])));
      let conns () =
        match Server.loop_stats srv with
        | Some ls -> ls.Server.ls_conns
        | None -> -1
      in
      (* The count below must be ours alone: the loader's connection is
         reaped first. *)
      check bool_ "loader connection reaped" true
        (eventually ~timeout:10.0 (fun () -> conns () = 0));
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      (* A tiny receive buffer (set before connect so the window is
         negotiated small) keeps the kernel from absorbing the reply
         flood on our behalf — the congestion must land on the server. *)
      Unix.setsockopt_int fd Unix.SO_RCVBUF 4096;
      Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      Fun.protect
        ~finally:(fun () ->
          try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          Unix.set_nonblock fd;
          (* Fire tagged GETs without ever reading a reply; stop early if
             our own send buffer fills (the server stopped reading). *)
          (try
             for i = 1 to 300 do
               let wire =
                 Frame.request_frame ~user:"greedy" ~seq:i
                   (Frame.Single [ "get"; "big"; "master" ])
               in
               ignore
                 (Unix.write fd (Bytes.unsafe_of_string wire) 0
                    (String.length wire))
             done
           with Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ());
          (* Crucially: do NOT read.  Reading would reopen the TCP window
             and unstick the server.  The write-stall deadline must cut
             the connection loose on its own — observable as the loop's
             connection count going from one (ours, once the loop has
             accepted it) back to zero.  Without waiting for the accept,
             a loop that has not yet run would already read zero, and the
             drain below would then keep the connection alive. *)
          check bool_ "stalled connection accepted" true
            (eventually ~timeout:10.0 (fun () -> conns () = 1));
          check bool_ "stalled connection disconnected by the server" true
            (eventually ~timeout:10.0 (fun () -> conns () = 0));
          (* And the socket really is dead: a bounded drain of whatever
             was buffered ends in EOF or a reset, never fresh data
             forever. *)
          let buf = Bytes.create 65536 in
          (* Generous: under a fully loaded test machine the kernel can
             take a while to hand us the backlog before the EOF. *)
          let deadline = Unix.gettimeofday () +. 20.0 in
          let rec drain () =
            if Unix.gettimeofday () > deadline then
              Alcotest.fail "peer socket still alive after disconnect"
            else
              match Unix.select [ fd ] [] [] 0.25 with
              | [], _, _ -> drain ()
              | _ -> (
                match Unix.read fd buf 0 65536 with
                | 0 -> ()  (* disconnected: what backpressure promises *)
                | _ -> drain ()
                | exception
                    Unix.Unix_error
                      ((Unix.ECONNRESET | Unix.EPIPE), _, _) ->
                  ()
                | exception
                    Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _)
                  ->
                  drain ())
          in
          drain ());
      (* The outbox bound actually engaged... *)
      (match Server.loop_stats srv with
       | Some ls ->
         check bool_ "outbox high-water mark reached the cap" true
           (ls.Server.ls_outbox_hwm >= config.Server.max_outbox)
       | None -> Alcotest.fail "event server reports no loop stats");
      (* ...and the server is still healthy for well-behaved clients. *)
      with_mux srv (fun m ->
          check int_ "value intact after the stall" (String.length big)
            (String.length (ok_cl (Mux.request m [ "get"; "big"; "master" ])))))

(* ---------------- SUBSCRIBE push ---------------- *)

let test_subscribe_push_under_load () =
  let fb = FB.create (Fb_chunk.Mem_store.create ()) in
  with_server fb (fun srv ->
      let port = Server.port srv in
      with_mux srv (fun m ->
          let mu = Mutex.create () in
          let received = ref [] in
          let sid =
            ok_cl
              (Mux.subscribe ~key:"k1" m (fun trace ev ->
                   Mutex.protect mu (fun () ->
                       received := (trace, ev) :: !received)))
          in
          (* Load: three writers on three keys; only k1 must reach us. *)
          let writes = 20 in
          let writers =
            List.init 3 (fun w ->
                Thread.create
                  (fun () ->
                    let c = ok_cl (Mux.connect ~port ()) in
                    let key = Printf.sprintf "k%d" w in
                    for i = 1 to writes do
                      ignore
                        (ok_cl
                           (Mux.request c
                              [ "put"; key; "master"; string_of_int i ]))
                    done;
                    Mux.close c)
                  ())
          in
          List.iter Thread.join writers;
          check bool_ "all k1 events delivered" true
            (eventually (fun () ->
                 Mutex.protect mu (fun () -> List.length !received) = writes));
          let evs = Mutex.protect mu (fun () -> List.rev !received) in
          List.iter
            (fun (trace, (ev : Frame.event)) ->
              check string_ "event key" "k1" ev.Frame.ev_key;
              check string_ "event branch" "master" ev.Frame.ev_branch;
              check int_ "event tagged with our subscription" sid
                ev.Frame.sub_id;
              check bool_ "head parses" true
                (Result.is_ok (FB.parse_version ev.Frame.new_head));
              (* The push carries the *writer's* trace context, so it can
                 be correlated with the mutating request in /tracez. *)
              match trace with
              | Some t ->
                check int_ "trace id is well-formed" 32
                  (String.length t.Frame.trace_id)
              | None -> Alcotest.fail "event lost its trace context")
            evs;
          (* The last event's head IS the final head. *)
          let final = ok_fb (FB.head fb ~key:"k1") in
          let _, (last : Frame.event) = List.nth evs (writes - 1) in
          check bool_ "last event carries the final head" true
            (Fb_hash.Hash.equal final
               (ok_fb (FB.parse_version last.Frame.new_head)));
          (* Unsubscribe stops delivery. *)
          ok_cl (Mux.unsubscribe m sid);
          let before = Mutex.protect mu (fun () -> List.length !received) in
          with_mux srv (fun m2 ->
              ignore (ok_cl (Mux.request m2 [ "put"; "k1"; "master"; "after" ])));
          Thread.delay 0.3;
          check int_ "no delivery after unsubscribe" before
            (Mutex.protect mu (fun () -> List.length !received))))

(* The typed Remote layer: events arrive as Forkbase.head_event with
   parsed uids, the same vocabulary as the local watch API. *)
let test_remote_subscribe () =
  let fb = FB.create (Fb_chunk.Mem_store.create ()) in
  with_server fb (fun srv ->
      let r =
        match Remote.connect ~port:(Server.port srv) () with
        | Ok r -> r
        | Error e -> Alcotest.fail (Errors.to_string e)
      in
      Fun.protect
        ~finally:(fun () -> Remote.close r)
        (fun () ->
          let mu = Mutex.create () in
          let got = ref [] in
          let sub =
            ok_fb
              (Remote.subscribe ~key:"watched" r (fun ev ->
                   Mutex.protect mu (fun () -> got := ev :: !got)))
          in
          let uid = ok_fb (Remote.put r ~key:"watched" "v1") in
          ignore (ok_fb (Remote.put r ~key:"ignored" "x"));
          check bool_ "event arrives" true
            (eventually (fun () ->
                 Mutex.protect mu (fun () -> !got <> [])));
          (match Mutex.protect mu (fun () -> !got) with
           | [ (ev : FB.head_event) ] ->
             check string_ "key" "watched" ev.FB.key;
             check string_ "branch" "master" ev.FB.branch;
             check bool_ "uid matches the put" true
               (Fb_hash.Hash.equal uid ev.FB.new_head);
             check bool_ "first put has no old head" true (ev.FB.old_head = None)
           | evs -> Alcotest.failf "expected 1 event, got %d" (List.length evs));
          ok_fb (Remote.unsubscribe r sub)))

(* Threaded mode has no push path and must say so, typed. *)
let test_subscribe_rejected_threaded () =
  let fb = FB.create (Fb_chunk.Mem_store.create ()) in
  let config = { test_config with mode = `Threaded } in
  with_server ~config fb (fun srv ->
      check bool_ "threaded server reports no loop stats" true
        (Server.loop_stats srv = None);
      with_mux srv (fun m ->
          match Mux.subscribe ~key:"k" m (fun _ _ -> ()) with
          | Error (Mux.Remote (Errors.Invalid msg)) ->
            check bool_ "points at the event loop" true
              (Tutil.contains msg "event-loop")
          | Ok _ -> Alcotest.fail "threaded server accepted subscribe"
          | Error e -> Alcotest.fail (Client.error_to_string e)))

(* ---------------- transparent reconnect ---------------- *)

let test_remote_reconnect () =
  let fb = FB.create (Fb_chunk.Mem_store.create ()) in
  let srv1 = ok_net (Server.start ~config:test_config fb) in
  let port = Server.port srv1 in
  let r =
    match Remote.connect ~port () with
    | Ok r -> r
    | Error e -> Alcotest.fail (Errors.to_string e)
  in
  Fun.protect
    ~finally:(fun () -> Remote.close r)
    (fun () ->
      ignore (ok_fb (Remote.put r ~key:"k" "v1"));
      check string_ "pre-restart" "v1" (ok_fb (Remote.get r ~key:"k"));
      (* Tear the transport under the handle, then bring a server back on
         the same port. *)
      Server.stop srv1;
      let srv2 =
        ok_net (Server.start ~config:{ test_config with port } fb)
      in
      Fun.protect
        ~finally:(fun () -> Server.stop srv2)
        (fun () ->
          (* An idempotent read reconnects transparently... *)
          check string_ "read after restart" "v1"
            (ok_fb (Remote.get r ~key:"k"));
          (* ...and the handle is fully alive again: writes work. *)
          ignore (ok_fb (Remote.put r ~key:"k" "v2"));
          check string_ "write after reconnect" "v2"
            (ok_fb (Remote.get r ~key:"k"))));
  (* A mutating verb must NOT be replayed over a dead transport: it
     surfaces Transient for the caller to decide. *)
  let srv3 = ok_net (Server.start ~config:test_config fb) in
  let port3 = Server.port srv3 in
  let r3 =
    match Remote.connect ~port:port3 () with
    | Ok r -> r
    | Error e -> Alcotest.fail (Errors.to_string e)
  in
  Fun.protect
    ~finally:(fun () -> Remote.close r3)
    (fun () ->
      ignore (ok_fb (Remote.put r3 ~key:"w" "1"));
      Server.stop srv3;
      let srv4 =
        ok_net (Server.start ~config:{ test_config with port = port3 } fb)
      in
      Fun.protect
        ~finally:(fun () -> Server.stop srv4)
        (fun () ->
          (match Remote.put r3 ~key:"w" "2" with
           | Error (Errors.Transient msg) ->
             check bool_ "network-tagged" true (Tutil.contains msg "network")
           | Ok _ -> Alcotest.fail "write was silently replayed"
           | Error e -> Alcotest.fail (Errors.to_string e));
          (* The next read heals the handle; the write was not applied
             twice (head history shows exactly one "1" put + whatever
             the healed client does next). *)
          check string_ "read heals" "1" (ok_fb (Remote.get r3 ~key:"w"))))

(* ---------------- push racing the subscribe reply ---------------- *)

(* The window documented in mux.mli: a kind-2 push for a new
   subscription can arrive immediately behind the SUBSCRIBE reply — in
   the same TCP segment.  The reader thread installs the callback at
   reply-completion time, before decoding the next frame, so the push
   must be delivered, never dropped. *)
let test_push_races_subscribe_reply () =
  with_fake_server
    (fun rd fd ->
      let seq =
        match Frame.read_frame ~timeout_s:5.0 rd fd with
        | Ok p -> (
          match Frame.decode_request p with
          | Ok (_, _, Some seq, Frame.Single ("subscribe" :: _)) -> seq
          | _ -> Alcotest.fail "fake server: expected a tagged subscribe")
        | Error e -> Alcotest.fail (Frame.error_to_string e)
      in
      (* Reply and push in ONE write so both land in one segment: the
         client cannot see a gap between them. *)
      let wire =
        Frame.response_frame ~seq (Frame.One (Ok "7"))
        ^ Frame.response_frame
            (Frame.Event
               { Frame.sub_id = 7; ev_key = "k"; ev_branch = "master";
                 new_head = "deadbeef"; old_head = None })
      in
      ignore (Unix.write_substring fd wire 0 (String.length wire));
      (* Hold the connection open: a drop must not be masked by EOF. *)
      ignore (Frame.read_frame ~timeout_s:5.0 rd fd))
    (fun port ->
      let m = ok_cl (Mux.connect ~port ()) in
      Fun.protect
        ~finally:(fun () -> Mux.close m)
        (fun () ->
          let mu = Mutex.create () in
          let got = ref [] in
          let sid =
            ok_cl
              (Mux.subscribe ~key:"k" m (fun _ ev ->
                   Mutex.protect mu (fun () -> got := ev :: !got)))
          in
          check int_ "server-assigned sid" 7 sid;
          check bool_ "the racing push is delivered, not dropped" true
            (eventually (fun () -> Mutex.protect mu (fun () -> !got <> [])));
          match Mutex.protect mu (fun () -> !got) with
          | [ (ev : Frame.event) ] ->
            check string_ "event key" "k" ev.Frame.ev_key;
            check string_ "event head" "deadbeef" ev.Frame.new_head
          | evs -> Alcotest.failf "expected 1 event, got %d" (List.length evs)))

(* ---------------- subscriptions survive a server bounce ---------------- *)

(* Satellite regression: a server restart under an active subscription
   must not silently kill the watch (`forkbase watch` used to hang
   forever).  The handle's monitor re-dials, re-issues the registration,
   and delivers a Gap marker; pushes then flow again. *)
let test_watch_survives_restart () =
  let fb = FB.create (Fb_chunk.Mem_store.create ()) in
  let srv1 = ok_net (Server.start ~config:test_config fb) in
  let port = Server.port srv1 in
  let r =
    match Remote.connect ~port () with
    | Ok r -> r
    | Error e -> Alcotest.fail (Errors.to_string e)
  in
  Fun.protect
    ~finally:(fun () -> Remote.close r)
    (fun () ->
      let mu = Mutex.create () in
      let heads = ref [] and gaps = ref [] in
      let sub =
        ok_fb
          (Remote.subscribe_events ~key:"w" r (function
            | Remote.Head_moved ev ->
              Mutex.protect mu (fun () -> heads := ev :: !heads)
            | Remote.Gap { resubscribed } ->
              Mutex.protect mu (fun () -> gaps := resubscribed :: !gaps)))
      in
      ignore (ok_fb (Remote.put r ~key:"w" "v1"));
      check bool_ "push before the bounce" true
        (eventually (fun () -> Mutex.protect mu (fun () -> !heads <> [])));
      (* Bounce the server.  While it is down, the subscribed handle
         still reports open — the monitor is dialing on its behalf. *)
      Server.stop srv1;
      check bool_ "subscribed handle stays open through the outage" true
        (Remote.is_open r);
      let srv2 = ok_net (Server.start ~config:{ test_config with port } fb) in
      Fun.protect
        ~finally:(fun () -> Server.stop srv2)
        (fun () ->
          check bool_ "gap marker delivered after resubscribe" true
            (eventually ~timeout:10.0 (fun () ->
                 Mutex.protect mu (fun () -> List.mem true !gaps)));
          (* A write from a different client reaches the original
             callback through the resurrected subscription. *)
          with_mux srv2 (fun m ->
              ignore (ok_cl (Mux.request m [ "put"; "w"; "master"; "v2" ])));
          check bool_ "push after the bounce" true
            (eventually ~timeout:10.0 (fun () ->
                 Mutex.protect mu (fun () -> List.length !heads >= 2)));
          ok_fb (Remote.unsubscribe r sub)))

(* ---------------- EINTR under a signal storm ---------------- *)

(* [Server.stop] must complete promptly while signals interrupt the
   event loop's poll/epoll wait continuously: the wait path treats
   EINTR as a zero-ready wakeup instead of retrying with a fresh
   timeout, so the loop keeps re-checking its lifecycle flag. *)
let test_stop_under_signal_storm () =
  let previous = Sys.signal Sys.sigusr1 (Sys.Signal_handle (fun _ -> ())) in
  Fun.protect
    ~finally:(fun () -> Sys.set_signal Sys.sigusr1 previous)
    (fun () ->
      let fb = FB.create (Fb_chunk.Mem_store.create ()) in
      let srv = ok_net (Server.start ~config:test_config fb) in
      let port = Server.port srv in
      (* A live connection so stop has real teardown to do. *)
      let m = ok_cl (Mux.connect ~port ()) in
      ignore (ok_cl (Mux.request m [ "put"; "k"; "master"; "v" ]));
      let storming = Atomic.make true in
      let pid = Unix.getpid () in
      let storm =
        Thread.create
          (fun () ->
            while Atomic.get storming do
              Unix.kill pid Sys.sigusr1;
              Thread.delay 0.001
            done)
          ()
      in
      Fun.protect
        ~finally:(fun () ->
          Atomic.set storming false;
          Thread.join storm;
          Mux.close m)
        (fun () ->
          let t0 = Unix.gettimeofday () in
          Server.stop srv;
          let elapsed = Unix.gettimeofday () -. t0 in
          check bool_
            (Printf.sprintf "stop completed under the storm (%.2fs)" elapsed)
            true (elapsed < 5.0));
      (* The port is genuinely free again: a fresh server binds on it
         and serves. *)
      let srv2 = ok_net (Server.start ~config:{ test_config with port } fb) in
      Fun.protect
        ~finally:(fun () -> Server.stop srv2)
        (fun () ->
          with_mux srv2 (fun m2 ->
              check string_ "fresh server serves after the storm" "v"
                (ok_cl (Mux.request m2 [ "get"; "k"; "master" ])))))

(* ---------------- threaded A/B engine parity ---------------- *)

(* The serial engine answers a deep tagged pipeline correctly: requests
   queue in the socket and are processed in order, but every reply must
   echo its request's sequence id so the demux matches them up. *)
let test_threaded_pipelined_depth () =
  let fb = FB.create (Fb_chunk.Mem_store.create ()) in
  let config = { test_config with mode = `Threaded } in
  with_server ~config fb (fun srv ->
      with_mux srv (fun m ->
          let depth = 64 in
          let tickets =
            List.init depth (fun i ->
                ok_cl
                  (Mux.send m
                     (Frame.Single
                        [ "put"; "k"; "master"; Printf.sprintf "v%d" i ])))
          in
          List.iter
            (fun tk ->
              match Mux.await m tk with
              | Ok (Frame.One (Ok uid)) ->
                check bool_ "uid parses" true
                  (Result.is_ok (FB.parse_version uid))
              | _ -> Alcotest.fail "pipelined put failed on threaded engine")
            (List.rev tickets);
          check string_ "last pipelined write won"
            (Printf.sprintf "v%d" (depth - 1))
            (ok_cl (Mux.request m [ "get"; "k"; "master" ]))))

(* Both halves of the conn-verb pair are rejected typed, not ignored. *)
let test_unsubscribe_rejected_threaded () =
  let fb = FB.create (Fb_chunk.Mem_store.create ()) in
  let config = { test_config with mode = `Threaded } in
  with_server ~config fb (fun srv ->
      with_mux srv (fun m ->
          match Mux.request m [ "unsubscribe"; "1" ] with
          | Error (Mux.Remote (Errors.Invalid msg)) ->
            check bool_ "typed rejection points at the event loop" true
              (Tutil.contains msg "event-loop")
          | Ok _ -> Alcotest.fail "threaded server accepted unsubscribe"
          | Error e -> Alcotest.fail (Client.error_to_string e)))

(* ---------------- event-loop health introspection ---------------- *)

let http_get port path =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
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

let test_loop_health () =
  let fb = FB.create (Fb_chunk.Mem_store.create ()) in
  let config = { test_config with metrics_port = Some 0 } in
  with_server ~config fb (fun srv ->
      let mport =
        match Server.metrics_port srv with
        | Some p -> p
        | None -> Alcotest.fail "sidecar did not start"
      in
      with_mux srv (fun m ->
          ignore (ok_cl (Mux.request m [ "put"; "k"; "master"; "v" ]));
          let sid = ok_cl (Mux.subscribe ~key:"k" m (fun _ _ -> ())) in
          (match Server.loop_stats srv with
           | None -> Alcotest.fail "no loop stats in event mode"
           | Some ls ->
             check bool_ "a connection is open" true (ls.Server.ls_conns >= 1);
             check int_ "subscription registered" 1 ls.Server.ls_subscriptions);
          let healthz = http_get mport "/healthz" in
          List.iter
            (fun needle ->
              check bool_ ("healthz has " ^ needle) true
                (Tutil.contains healthz needle))
            [ "\"mode\":\"event\""; "outbox_hwm_bytes"; "worker_queue_depth";
              "subscriptions"; "connections" ];
          let metrics = http_get mport "/metrics" in
          List.iter
            (fun needle ->
              check bool_ ("gauge " ^ needle) true
                (Tutil.contains metrics needle))
            [ "fb_net_loop_connections"; "fb_net_loop_outbox_hwm_bytes";
              "fb_net_loop_worker_queue_depth"; "fb_net_loop_subscriptions" ];
          ok_cl (Mux.unsubscribe m sid)))

let suite =
  [ QCheck_alcotest.to_alcotest qcheck_seq_roundtrip;
    QCheck_alcotest.to_alcotest qcheck_response_seq_roundtrip;
    QCheck_alcotest.to_alcotest qcheck_event_roundtrip;
    Alcotest.test_case "header-less response compatibility" `Quick
      test_headerless_response_compat;
    Alcotest.test_case "out-of-order replies demuxed by tag" `Quick
      test_out_of_order_replies;
    Alcotest.test_case "reply to unknown sequence id poisons" `Quick
      test_unknown_sequence_rejected;
    Alcotest.test_case "pipelined depth + concurrent mux" `Quick
      test_pipelined_depth;
    Alcotest.test_case "untagged frame waits its turn (both engines)" `Quick
      test_untagged_in_order;
    Alcotest.test_case "slow-reader backpressure" `Quick
      test_slow_reader_backpressure;
    Alcotest.test_case "subscribe push under load" `Quick
      test_subscribe_push_under_load;
    Alcotest.test_case "typed remote subscribe" `Quick test_remote_subscribe;
    Alcotest.test_case "subscribe rejected in threaded mode" `Quick
      test_subscribe_rejected_threaded;
    Alcotest.test_case "remote transparent reconnect" `Quick
      test_remote_reconnect;
    Alcotest.test_case "push racing the subscribe reply" `Quick
      test_push_races_subscribe_reply;
    Alcotest.test_case "watch survives a server restart" `Quick
      test_watch_survives_restart;
    Alcotest.test_case "stop under a signal storm" `Quick
      test_stop_under_signal_storm;
    Alcotest.test_case "threaded pipelined depth" `Quick
      test_threaded_pipelined_depth;
    Alcotest.test_case "unsubscribe rejected in threaded mode" `Quick
      test_unsubscribe_rejected_threaded;
    Alcotest.test_case "event-loop health introspection" `Quick
      test_loop_health ]
