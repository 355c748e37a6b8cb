module Service = Fb_core.Service
module Errors = Fb_core.Errors
module Forkbase = Fb_core.Forkbase
module Obs = Fb_obs.Obs

type mode = [ `Event | `Threaded ]

type config = {
  host : string;
  port : int;
  backlog : int;
  max_frame : int;
  read_timeout_s : float;
  default_user : string;
  stripes : int;
  metrics_port : int option;
  slow_ms : float;
  mode : mode;
  workers : int;
  max_conns : int;
  max_outbox : int;
  write_stall_s : float;
  max_pipeline : int;
}

(* FB_SLOW_MS seeds the default slow-request threshold so an operator
   can turn the slow log on without touching the launch command;
   [infinity] disables it. *)
let default_slow_ms =
  match Sys.getenv_opt "FB_SLOW_MS" with
  | Some s -> (
    match float_of_string_opt s with Some v when v >= 0.0 -> v | _ -> infinity)
  | None -> infinity

let default_config =
  { host = "127.0.0.1";
    port = 7447;
    backlog = 64;
    max_frame = Frame.default_max_frame;
    read_timeout_s = 30.0;
    default_user = "anonymous";
    stripes = Rwlock.Striped.default_stripes;
    metrics_port = None;
    slow_ms = default_slow_ms;
    mode = `Event;
    workers = 4;
    max_conns = 10_000;
    max_outbox = 4 * 1024 * 1024;
    write_stall_s = 30.0;
    max_pipeline = 128 }

(* One entry of the slow-request ring behind /tracez: enough to render
   "what was slow, when, for whom" with the span tree captured at the
   moment the request finished (the ring would have evicted it later). *)
type slow_trace = {
  st_time : float;
  st_verb : string;
  st_user : string;
  st_ms : float;
  st_trace_id : string;
  st_tree : string;
}

let max_slow_traces = 32

(* ------------------------- event-loop plumbing ------------------------- *)

(* What travels loop -> worker: one decoded request bound to its
   connection, plus everything needed to frame the reply. *)
type job = {
  j_cid : int;
  j_seq : int option;
  j_serial : bool;  (* un-sequenced: blocks later frames until answered *)
  j_user : string;
  j_trace : Frame.trace option;
  j_req : Frame.request;
}

(* What travels worker -> loop: the finished wire bytes for one reply. *)
type completion = { c_cid : int; c_serial : bool; c_wire : string }

(* Per-connection state owned exclusively by the loop thread.  Reads are
   incremental ([reader] holds the partial frame between polls); writes
   go through a bounded outbox drained on POLLOUT. *)
type conn = {
  cid : int;
  fd : Unix.file_descr;
  reader : Frame.reader;
  parked : (Frame.trace option * int option * string * Frame.request) Queue.t;
  outq : string Queue.t;
  mutable out_off : int;        (* bytes of the outq head already written *)
  mutable out_bytes : int;
  mutable inflight : int;
  mutable serial_busy : bool;
  mutable last_read : float;
  mutable last_write_progress : float;
  mutable conn_subs : int list; (* subscription ids owned by this conn *)
  mutable close_after_flush : bool;
  mutable interest : int;       (* mask currently registered with Ev *)
}

type event_state = {
  ev : Ev.t;
  scratch : Bytes.t;  (* the loop's read buffer, shared by every reader *)
  conns : (int, conn) Hashtbl.t;
  by_fd : (int, conn) Hashtbl.t;  (* raw fd -> conn, for Ev dispatch *)
  subs : (int, int * string option * string option) Hashtbl.t;
  (* sub_id -> (cid, key filter, branch filter) *)
  mutable next_sub : int;
  mutable last_sweep : float;
  wake_r : Unix.file_descr;
  wake_w : Unix.file_descr;
  jobs : job Queue.t;
  jobs_mu : Mutex.t;
  jobs_cond : Condition.t;
  done_mu : Mutex.t;
  done_q : completion Queue.t;
  pushes : (Forkbase.head_event * Frame.trace option) Queue.t;
  (* guarded by done_mu, like done_q *)
  open_conns : int Atomic.t;
  outbox_hwm : int Atomic.t;
  mutable loop_thread : Thread.t option;
  mutable worker_threads : Thread.t list;
  mutable watch : Forkbase.watch option;
}

type t = {
  cfg : config;
  fb : Forkbase.t;
  listen_fd : Unix.file_descr;
  bound_port : int;
  started_at : float;
  (* Striped reader-writer locking: read-only verbs share their key's
     stripe, mutating verbs take it exclusively, instance-wide verbs
     span all stripes. *)
  locks : Rwlock.Striped.t;
  state : Mutex.t;    (* guards the mutable fields below *)
  mutable running : bool;
  mutable conns_threaded : (int * Unix.file_descr) list;
  mutable next_id : int;
  mutable accept_thread : Thread.t option;
  mutable metrics_http : Http.t option;
  mutable slow_traces : slow_trace list;  (* newest first, bounded *)
  ev : event_state option;  (* Some iff cfg.mode = `Event *)
}

(* ------------------------- metrics ------------------------- *)

let conns_total = Obs.counter "fb.net.connections"
let frames_total = Obs.counter "fb.net.frames"
let proto_errors = Obs.counter "fb.net.errors"
let request_errors = Obs.counter "fb.net.request_errors"
let batches_total = Obs.counter "fb.net.batches"
let batch_subrequests_total = Obs.counter "fb.net.batch_subrequests"
let read_verbs_total = Obs.counter "fb.net.read_verbs"
let write_verbs_total = Obs.counter "fb.net.write_verbs"
let subscribes_total = Obs.counter "fb.net.subscribes"
let events_pushed_total = Obs.counter "fb.net.events_pushed"
let stall_disconnects_total = Obs.counter "fb.net.stall_disconnects"
let conns_shed_total = Obs.counter "fb.net.conns_shed"

(* Histograms are created per verb name, so the set must be closed — a
   peer sending garbage verbs must not grow the registry unboundedly. *)
let verb_hists =
  let metric v = String.map (function '-' -> '_' | c -> c) v in
  ("batch" :: List.map (fun (Service.Verb v) -> v.name) Service.verbs)
  |> List.map (fun v -> (v, Obs.histogram ("fb.net." ^ metric v ^ "_seconds")))
  |> List.to_seq |> Hashtbl.of_seq

let other_hist = Obs.histogram "fb.net.other_seconds"

(* Building reply frames — worker replies, loop-inline replies and
   pushed events alike — is its own stage, so it does not hide inside
   a request's transit time. *)
let reply_encode_hist = Obs.histogram "fb.net.reply_encode_seconds"

let reply_frame ?trace ?seq resp =
  Obs.time reply_encode_hist (fun () -> Frame.response_frame ?trace ?seq resp)

let verb_hist verb = Option.value (Hashtbl.find_opt verb_hists verb) ~default:other_hist

(* ------------------------- helpers ------------------------- *)

let close_quiet fd = try Unix.close fd with Unix.Unix_error _ -> ()
let shutdown_quiet fd =
  try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ()

let is_running t = Mutex.protect t.state (fun () -> t.running)

(* ------------------------- locking ------------------------- *)

let lock_mode = function Service.Read -> `Read | Service.Write -> `Write

(* One lock acquisition for the whole request, shaped by the verb
   classification. *)
let locked t ~access ~scope f =
  let mode = lock_mode access in
  match scope with
  | Service.Key key -> Rwlock.Striped.with_key t.locks ~mode key f
  | Service.Global -> Rwlock.Striped.with_global t.locks ~mode f

(* Decode each request once, then dispatch under one lock covering them
   all; mutations run with watch delivery deferred so callbacks fire
   after the exclusive section is released (a slow observer must not
   extend writer-held time).  Each sub-request gets its own
   [net.server.<verb>] span inside the lock, so a traced BATCH shows one
   child span per sub-request under the batch span (and a Single shows
   dispatch time distinct from lock wait).  Returns the access taken. *)
let dispatch_locked t ~user reqs =
  let prepared = List.map (fun tokens -> (tokens, Service.prepare tokens)) reqs in
  let access, scope =
    Service.classify_batch (List.map (fun (_, (a, s, _)) -> (a, s)) prepared)
  in
  let dispatch_one (tokens, (_, _, run)) =
    let verb =
      match tokens with v :: _ -> String.lowercase_ascii v | [] -> "(empty)"
    in
    Obs.with_span ("net.server." ^ verb) (fun () -> run ?user:(Some user) t.fb)
  in
  let run () = List.map dispatch_one prepared in
  let replies, flush =
    locked t ~access ~scope (fun () ->
        match access with
        | Service.Read -> (run (), fun () -> ())
        | Service.Write -> Forkbase.with_deferred_watch t.fb run)
  in
  flush ();
  (access, replies)

(* The remote caller's trace position, as an Obs context: request spans
   opened under it join the client's trace, with the client span as
   (remote) parent. *)
let span_ctx trace =
  Option.map
    (fun (tr : Frame.trace) ->
      { Obs.trace_id = tr.trace_id; span_id = tr.parent_span })
    trace

(* Slow-request log: a structured Warn event plus a /tracez ring entry
   carrying the request's span tree, rendered now — by the time an
   operator looks, the span ring would have evicted it. *)
let record_slow t ~verb ~user ~ms trace_ref =
  match !trace_ref with
  | None -> ()
  | Some (ctx : Obs.context) ->
    let trace_id = ctx.trace_id in
    Obs.log_event ~fields:
        [ ("verb", verb); ("user", user);
          ("ms", Printf.sprintf "%.3f" ms); ("trace", trace_id) ]
      Obs.Warn "slow request";
    let entry =
      { st_time = Unix.gettimeofday (); st_verb = verb; st_user = user;
        st_ms = ms; st_trace_id = trace_id;
        st_tree = Obs.render_trace trace_id }
    in
    Mutex.protect t.state (fun () ->
        let keep =
          if List.length t.slow_traces >= max_slow_traces then
            List.filteri (fun i _ -> i < max_slow_traces - 1) t.slow_traces
          else t.slow_traces
        in
        t.slow_traces <- entry :: keep)

(* ------------------------- request processing ------------------------- *)

(* Execute one decoded request and produce the response frame, echoing
   the request's sequence id.  Transport-free: the threaded engine runs
   it on the connection thread, the event engine on a worker thread — in
   both cases under the striped rwlocks. *)
let process t ~user ~trace ~seq req =
  let user = if user = "" then t.cfg.default_user else user in
  let ctx = span_ctx trace in
  (* Captured inside the request span: its own context (the trace id is
     minted there when the client sent no header), for slow-log
     attribution after the span closes. *)
  let trace_ref = ref None in
  let t0 = Unix.gettimeofday () in
  let label, resp =
    match req with
    | Frame.Single tokens ->
      let verb =
        match tokens with v :: _ -> String.lowercase_ascii v | [] -> ""
      in
      let reply =
        Obs.with_span ?ctx
          ~attrs:[ ("verb", verb); ("user", user) ]
          "net.server.request"
          (fun () ->
            trace_ref := Obs.current_context ();
            Obs.time (verb_hist verb) (fun () ->
                let access, replies = dispatch_locked t ~user [ tokens ] in
                Obs.incr
                  (match access with
                   | Service.Read -> read_verbs_total
                   | Service.Write -> write_verbs_total);
                List.hd replies))
      in
      (match reply with
       | Ok _ -> ()
       | Error _ -> Obs.incr request_errors);
      (verb, Frame.One reply)
    | Frame.Batch reqs ->
      Obs.incr batches_total;
      Obs.add batch_subrequests_total (List.length reqs);
      let replies =
        Obs.with_span ?ctx
          ~attrs:[ ("n", string_of_int (List.length reqs)); ("user", user) ]
          "net.server.batch"
          (fun () ->
            trace_ref := Obs.current_context ();
            Obs.time (verb_hist "batch") (fun () -> snd (dispatch_locked t ~user reqs)))
      in
      List.iter
        (function Ok _ -> () | Error _ -> Obs.incr request_errors)
        replies;
      ("batch", Frame.Many replies)
  in
  let ms = (Unix.gettimeofday () -. t0) *. 1000.0 in
  if ms >= t.cfg.slow_ms then record_slow t ~verb:label ~user ~ms trace_ref;
  reply_frame ?seq resp

(* SUBSCRIBE/UNSUBSCRIBE are connection verbs, not store verbs: they
   mutate loop-owned registration state, so the loop handles them inline
   (they never visit the worker pool or the locks). *)
let subscription_of_tokens tokens =
  match tokens with
  | [ _ ] -> Ok (None, None)
  | [ _; key ] -> Ok ((if key = "*" then None else Some key), None)
  | [ _; key; branch ] ->
    Ok
      ( (if key = "*" then None else Some key),
        (if branch = "*" then None else Some branch) )
  | _ -> Error (Errors.Invalid "usage: subscribe [key|*] [branch|*]")

(* ------------------------- threaded engine ------------------------- *)

(* Best-effort error/result write; [false] means the peer is gone (or
   wedged past the deadline) and the connection loop should end.  The
   read deadline doubles as the write deadline: a peer that stops
   draining its socket cannot pin a connection thread forever. *)
let respond t fd wire =
  let timeout_s =
    if t.cfg.read_timeout_s > 0.0 then Some t.cfg.read_timeout_s else None
  in
  match Frame.send_frame ?timeout_s fd wire with
  | Ok () -> true
  | Error _ -> false
  | exception Unix.Unix_error _ -> false

let is_conn_verb req =
  match req with
  | Frame.Single (v :: _) -> (
    match String.lowercase_ascii v with
    | "subscribe" | "unsubscribe" -> true
    | _ -> false)
  | _ -> false

let serve_request_threaded t fd payload =
  Obs.incr frames_total;
  match Frame.decode_request payload with
  | Error e ->
    Obs.incr proto_errors;
    (* Frame boundaries are intact, only this payload was bad: answer and
       keep the connection. *)
    respond t fd
      (reply_frame (Frame.One (Error (Errors.Invalid ("bad request: " ^ e)))))
  | Ok (_, _, seq, req) when is_conn_verb req ->
    (* The threaded engine has no push path: every thread blocks in read
       between requests, so there is nowhere to deliver events from. *)
    respond t fd
      (reply_frame ?seq
         (Frame.One
            (Error
               (Errors.Invalid
                  "subscribe requires the event-loop server (serving \
                   --threaded)"))))
  | Ok (user, trace, seq, req) -> respond t fd (process t ~user ~trace ~seq req)

let handle_conn t id fd =
  Obs.incr conns_total;
  let timeout_s =
    if t.cfg.read_timeout_s > 0.0 then Some t.cfg.read_timeout_s else None
  in
  let reader = Frame.reader ~max_frame:t.cfg.max_frame () in
  let rec loop () =
    match Frame.read_frame ?timeout_s reader fd with
    | Ok payload -> if serve_request_threaded t fd payload then loop ()
    | Error Frame.Eof -> ()
    | Error Frame.Timeout ->
      Obs.incr proto_errors;
      ignore
        (respond t fd
           (reply_frame
              (Frame.One
                 (Error (Errors.Transient "read timeout: closing connection")))))
    | Error (Frame.Too_large _ as e) | Error (Frame.Malformed _ as e) ->
      (* The length prefix was consumed without its payload: the stream
         is desynchronized beyond repair — report and hang up. *)
      Obs.incr proto_errors;
      ignore
        (respond t fd
           (reply_frame
              (Frame.One (Error (Errors.Invalid (Frame.error_to_string e))))))
    | exception Unix.Unix_error _ -> Obs.incr proto_errors
  in
  Fun.protect
    ~finally:(fun () ->
      shutdown_quiet fd;
      close_quiet fd;
      Mutex.protect t.state (fun () ->
          t.conns_threaded <-
            List.filter (fun (i, _) -> i <> id) t.conns_threaded))
    loop

let accept_loop_threaded t =
  let rec go () =
    if is_running t then
      match Unix.accept t.listen_fd with
      | fd, _ ->
        (try Unix.setsockopt fd Unix.TCP_NODELAY true
         with Unix.Unix_error _ -> ());
        let over =
          Mutex.protect t.state (fun () ->
              List.length t.conns_threaded >= t.cfg.max_conns)
        in
        if over then begin
          (* Thread budget protection: beyond max_conns each connection
             would cost another stack; shed instead of wedging. *)
          Obs.incr conns_shed_total;
          close_quiet fd
        end
        else begin
          let id =
            Mutex.protect t.state (fun () ->
                let id = t.next_id in
                t.next_id <- id + 1;
                t.conns_threaded <- (id, fd) :: t.conns_threaded;
                id)
          in
          ignore (Thread.create (fun () -> handle_conn t id fd) ())
        end;
        go ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
      | exception Unix.Unix_error _ ->
        (* Listener closed: shutdown in progress. *)
        ()
  in
  go ()

(* ------------------------- event-loop engine ------------------------- *)

(* Wake the loop out of poll; best-effort (a full pipe already wakes). *)
let wake st =
  try ignore (Unix.write st.wake_w (Bytes.make 1 'w') 0 1)
  with Unix.Unix_error _ -> ()

let worker_loop t st () =
  let rec next () =
    Mutex.lock st.jobs_mu;
    let rec wait () =
      if not (Mutex.protect t.state (fun () -> t.running)) then None
      else if Queue.is_empty st.jobs then begin
        Condition.wait st.jobs_cond st.jobs_mu;
        wait ()
      end
      else Some (Queue.pop st.jobs)
    in
    let job = wait () in
    Mutex.unlock st.jobs_mu;
    match job with
    | None -> ()
    | Some j ->
      let wire =
        try process t ~user:j.j_user ~trace:j.j_trace ~seq:j.j_seq j.j_req
        with e ->
          reply_frame ?seq:j.j_seq
            (Frame.One
               (Error
                  (Errors.Invalid
                     ("internal dispatch failure: " ^ Printexc.to_string e))))
      in
      Mutex.protect st.done_mu (fun () ->
          Queue.push
            { c_cid = j.j_cid; c_serial = j.j_serial; c_wire = wire }
            st.done_q);
      wake st;
      next ()
  in
  next ()

(* Append wire bytes to a connection's outbox and try to push them out
   immediately (saves a poll round trip on the common uncongested
   path). *)
let rec flush_out st conn =
  if Queue.is_empty conn.outq then ()
  else
    let head = Queue.peek conn.outq in
    let len = String.length head - conn.out_off in
    match
      Unix.write conn.fd (Bytes.unsafe_of_string head) conn.out_off len
    with
    | 0 -> ()
    | n ->
      conn.out_bytes <- conn.out_bytes - n;
      conn.last_write_progress <- Unix.gettimeofday ();
      if n = len then begin
        ignore (Queue.pop conn.outq);
        conn.out_off <- 0;
        flush_out st conn
      end
      else conn.out_off <- conn.out_off + n
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> flush_out st conn
    | exception Unix.Unix_error _ ->
      (* Peer is gone; the next poll flags the fd and the loop reaps it. *)
      conn.close_after_flush <- true;
      Queue.clear conn.outq;
      conn.out_bytes <- 0;
      conn.out_off <- 0

(* The mask this connection should be registered with right now.
   Backpressure lives here: a connection whose outbox or pipeline is
   full is not read from — bytes accumulate in the kernel buffer and
   eventually stall the peer's sends. *)
let desired_interest t conn =
  (if
     (not conn.close_after_flush)
     && conn.out_bytes < t.cfg.max_outbox
     && Queue.length conn.parked < 2 * t.cfg.max_pipeline
   then Ev.pollin
   else 0)
  lor (if Queue.is_empty conn.outq then 0 else Ev.pollout)

(* Re-register the connection if its desired mask drifted from what Ev
   has.  Cheap when nothing changed, so call it after any state
   mutation; guarded so a just-reaped connection is left alone. *)
let sync_interest t st conn =
  if Hashtbl.mem st.conns conn.cid then begin
    let want = desired_interest t conn in
    if want <> conn.interest then begin
      Ev.modify st.ev conn.fd want;
      conn.interest <- want
    end
  end

let enqueue_out t st conn wire =
  let was_empty = Queue.is_empty conn.outq in
  Queue.push wire conn.outq;
  conn.out_bytes <- conn.out_bytes + String.length wire;
  if conn.out_bytes > Atomic.get st.outbox_hwm then
    Atomic.set st.outbox_hwm conn.out_bytes;
  if was_empty then begin
    conn.last_write_progress <- Unix.gettimeofday ();
    flush_out st conn
  end;
  sync_interest t st conn

let close_conn t st conn =
  Hashtbl.remove st.conns conn.cid;
  Hashtbl.remove st.by_fd (Ev.fd_int conn.fd);
  Ev.remove st.ev conn.fd;
  List.iter (fun sid -> Hashtbl.remove st.subs sid) conn.conn_subs;
  Atomic.set st.open_conns (Hashtbl.length st.conns);
  shutdown_quiet conn.fd;
  close_quiet conn.fd;
  ignore t

let reply_inline t st conn ?seq reply =
  enqueue_out t st conn (reply_frame ?seq (Frame.One reply))

(* Handle SUBSCRIBE/UNSUBSCRIBE on the loop thread. *)
let handle_conn_verb t st conn ~seq tokens =
  match tokens with
  | v :: _ when String.lowercase_ascii v = "subscribe" -> (
    match subscription_of_tokens tokens with
    | Error e -> reply_inline t st conn ?seq (Error e)
    | Ok (key, branch) ->
      let sid = st.next_sub in
      st.next_sub <- sid + 1;
      Hashtbl.replace st.subs sid (conn.cid, key, branch);
      conn.conn_subs <- sid :: conn.conn_subs;
      Obs.incr subscribes_total;
      ignore t;
      reply_inline t st conn ?seq (Ok (string_of_int sid)))
  | _ :: rest -> (
    (* unsubscribe *)
    match rest with
    | [ sid_s ] -> (
      match int_of_string_opt sid_s with
      | Some sid when List.mem sid conn.conn_subs ->
        Hashtbl.remove st.subs sid;
        conn.conn_subs <- List.filter (fun s -> s <> sid) conn.conn_subs;
        reply_inline t st conn ?seq (Ok "")
      | _ ->
        reply_inline t st conn ?seq
          (Error (Errors.Invalid ("unknown subscription: " ^ sid_s))))
    | _ ->
      reply_inline t st conn ?seq
        (Error (Errors.Invalid "usage: unsubscribe <id>")))
  | [] -> ()

(* Dispatch parked frames to the worker pool, respecting the pipeline
   cap and the ordering contract: an un-sequenced request admits no
   concurrent siblings (legacy strict request/response), while tagged
   requests flow freely up to [max_pipeline]. *)
let drain_parked t st conn =
  let pushed = ref false in
  let rec go () =
    if
      (not conn.close_after_flush)
      && (not conn.serial_busy)
      && conn.inflight < t.cfg.max_pipeline
      && not (Queue.is_empty conn.parked)
    then begin
      let trace, seq, user, req = Queue.peek conn.parked in
      if is_conn_verb req then begin
        ignore (Queue.pop conn.parked);
        (match req with
         | Frame.Single tokens -> handle_conn_verb t st conn ~seq tokens
         | Frame.Batch _ -> ());
        go ()
      end
      else if seq = None && conn.inflight > 0 then
        (* An untagged request's reply position is its arrival position:
           wait until the pipeline is empty before admitting it. *)
        ()
      else begin
        ignore (Queue.pop conn.parked);
        conn.inflight <- conn.inflight + 1;
        if seq = None then conn.serial_busy <- true;
        Mutex.lock st.jobs_mu;
        Queue.push
          { j_cid = conn.cid; j_seq = seq; j_serial = (seq = None);
            j_user = user; j_trace = trace; j_req = req }
          st.jobs;
        Mutex.unlock st.jobs_mu;
        pushed := true;
        go ()
      end
    end
  in
  go ();
  if !pushed then Condition.broadcast st.jobs_cond

(* Park every complete frame the reader holds as a decoded request. *)
let rec ingest t st conn =
  match Frame.next conn.reader with
  | None -> ()
  | Some payload ->
    Obs.incr frames_total;
    (match Frame.decode_request payload with
     | Error e ->
       Obs.incr proto_errors;
       reply_inline t st conn (Error (Errors.Invalid ("bad request: " ^ e)))
     | Ok (user, trace, seq, req) ->
       let user = if user = "" then t.cfg.default_user else user in
       Queue.push (trace, seq, user, req) conn.parked);
    ingest t st conn

(* One read per readiness.  A framing error (oversize or malformed
   length) desynchronizes the stream: it is reported and the connection
   winds down. *)
let handle_readable t st conn =
  match Frame.read_some conn.reader (Unix.read conn.fd) with
  | Ok 0 ->
    (* EOF.  Drop the connection; in-flight replies have nowhere to go. *)
    close_conn t st conn
  | Ok _ ->
    conn.last_read <- Unix.gettimeofday ();
    ingest t st conn;
    drain_parked t st conn;
    sync_interest t st conn
  | Error e ->
    conn.last_read <- Unix.gettimeofday ();
    ingest t st conn;
    Obs.incr proto_errors;
    reply_inline t st conn (Error (Errors.Invalid (Frame.error_to_string e)));
    conn.close_after_flush <- true;
    sync_interest t st conn
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  | exception Unix.Unix_error _ -> close_conn t st conn

(* Completion and push delivery: drain worker results into outboxes and
   fan branch-head events out to matching subscriptions. *)
let drain_done t st =
  let completions, pushes =
    Mutex.protect st.done_mu (fun () ->
        let c = Queue.fold (fun acc x -> x :: acc) [] st.done_q in
        let p = Queue.fold (fun acc x -> x :: acc) [] st.pushes in
        Queue.clear st.done_q;
        Queue.clear st.pushes;
        (List.rev c, List.rev p))
  in
  List.iter
    (fun c ->
      match Hashtbl.find_opt st.conns c.c_cid with
      | None -> ()  (* connection died while the job ran *)
      | Some conn ->
        conn.inflight <- conn.inflight - 1;
        if c.c_serial then conn.serial_busy <- false;
        enqueue_out t st conn c.c_wire;
        drain_parked t st conn;
        sync_interest t st conn)
    completions;
  List.iter
    (fun ((ev : Forkbase.head_event), trace) ->
      Hashtbl.iter
        (fun sid (cid, key, branch) ->
          let matches =
            (match key with None -> true | Some k -> String.equal k ev.key)
            && (match branch with
                | None -> true
                | Some b -> String.equal b ev.branch)
          in
          if matches then
            match Hashtbl.find_opt st.conns cid with
            | None -> ()
            | Some conn ->
              Obs.incr events_pushed_total;
              enqueue_out t st conn
                (reply_frame ?trace
                   (Frame.Event
                      { Frame.sub_id = sid; ev_key = ev.key;
                        ev_branch = ev.branch;
                        new_head = Forkbase.version_string ev.new_head;
                        old_head =
                          Option.map Forkbase.version_string ev.old_head })))
        st.subs)
    pushes

let accept_ready t st =
  let rec go budget =
    if budget > 0 then
      match Unix.accept t.listen_fd with
      | fd, _ ->
        if Hashtbl.length st.conns >= t.cfg.max_conns then begin
          Obs.incr conns_shed_total;
          close_quiet fd
        end
        else begin
          (try Unix.setsockopt fd Unix.TCP_NODELAY true
           with Unix.Unix_error _ -> ());
          Unix.set_nonblock fd;
          Obs.incr conns_total;
          let cid =
            Mutex.protect t.state (fun () ->
                let id = t.next_id in
                t.next_id <- id + 1;
                id)
          in
          let now = Unix.gettimeofday () in
          let conn =
            { cid; fd;
              reader =
                Frame.reader ~max_frame:t.cfg.max_frame ~scratch:st.scratch ();
              parked = Queue.create ();
              outq = Queue.create (); out_off = 0; out_bytes = 0;
              inflight = 0; serial_busy = false; last_read = now;
              last_write_progress = now; conn_subs = [];
              close_after_flush = false; interest = Ev.pollin }
          in
          Hashtbl.replace st.conns cid conn;
          Hashtbl.replace st.by_fd (Ev.fd_int fd) conn;
          Ev.modify st.ev fd Ev.pollin;
          Atomic.set st.open_conns (Hashtbl.length st.conns)
        end;
        go (budget - 1)
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go budget
      | exception Unix.Unix_error _ -> ()
  in
  go 64

(* Timeout sweep: idle-read deadlines (quiet connections with nothing in
   flight and no subscriptions), and the write-stall deadline for peers
   that stopped draining their socket.  The sweep walks every connection
   — O(conns) — so it runs on a clock, not per wakeup: under load the
   loop wakes thousands of times a second and a per-wakeup walk would
   put the connection count back into the per-request cost. *)
let sweep_interval t =
  let quarter x = if x > 0.0 then x /. 4.0 else infinity in
  Float.min 1.0
    (Float.min (quarter t.cfg.read_timeout_s) (quarter t.cfg.write_stall_s))

let sweep_timeouts t st now =
  let victims = ref [] in
  Hashtbl.iter
    (fun _ conn ->
      let idle_dead =
        t.cfg.read_timeout_s > 0.0
        && conn.inflight = 0
        && Queue.is_empty conn.outq
        && Queue.is_empty conn.parked
        && conn.conn_subs = []
        && (not conn.close_after_flush)
        && now -. conn.last_read > t.cfg.read_timeout_s
      in
      let stalled =
        t.cfg.write_stall_s > 0.0
        && (not (Queue.is_empty conn.outq))
        && now -. conn.last_write_progress > t.cfg.write_stall_s
      in
      if stalled then begin
        Obs.incr proto_errors;
        Obs.incr stall_disconnects_total;
        victims := (`Drop, conn) :: !victims
      end
      else if idle_dead then begin
        Obs.incr proto_errors;
        victims := (`Timeout, conn) :: !victims
      end
      else if conn.close_after_flush && Queue.is_empty conn.outq then
        victims := (`Drop, conn) :: !victims)
    st.conns;
  List.iter
    (fun (why, conn) ->
      (match why with
       | `Timeout ->
         reply_inline t st conn
           (Error (Errors.Transient "read timeout: closing connection"))
       | `Drop -> ());
      close_conn t st conn)
    !victims

let drain_wake st =
  let b = Bytes.create 256 in
  let rec go () =
    match Unix.read st.wake_r b 0 256 with
    | 256 -> go ()
    | _ -> ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
    | exception Unix.Unix_error _ -> ()
  in
  go ()

let event_loop t st () =
  let listen_i = Ev.fd_int t.listen_fd in
  let wake_i = Ev.fd_int st.wake_r in
  Ev.modify st.ev t.listen_fd Ev.pollin;
  Ev.modify st.ev st.wake_r Ev.pollin;
  let sweep_every = sweep_interval t in
  let rec go () =
    if is_running t then begin
      let ready = Ev.wait st.ev ~timeout_ms:100 in
      for i = 0 to ready - 1 do
        let fdi = Ev.ready_fd st.ev i in
        let re = Ev.ready_events st.ev i in
        if fdi = listen_i then begin
          if Ev.readable re then accept_ready t st
        end
        else if fdi = wake_i then begin
          if Ev.readable re then drain_wake st
        end
        else
          match Hashtbl.find_opt st.by_fd fdi with
          | None -> ()  (* reaped by an earlier event in this batch *)
          | Some conn ->
            if Ev.errored re then close_conn t st conn
            else begin
              if Ev.writable re then flush_out st conn;
              if Ev.readable re && Hashtbl.mem st.conns conn.cid then
                handle_readable t st conn;
              sync_interest t st conn
            end
      done;
      drain_done t st;
      let now = Unix.gettimeofday () in
      if now -. st.last_sweep >= sweep_every then begin
        st.last_sweep <- now;
        sweep_timeouts t st now
      end;
      go ()
    end
  in
  (try go ()
   with e ->
     Obs.log_event
       ~fields:[ ("error", Printexc.to_string e) ]
       Obs.Error "event loop crashed");
  (* Wind down: reap every connection; the listener is closed by stop. *)
  Hashtbl.iter (fun _ conn -> shutdown_quiet conn.fd; close_quiet conn.fd)
    st.conns;
  Hashtbl.reset st.conns;
  Hashtbl.reset st.by_fd;
  Hashtbl.reset st.subs;
  Atomic.set st.open_conns 0;
  Ev.close st.ev

(* ------------------------- scrape endpoints ------------------------- *)

type loop_stats = {
  ls_conns : int;
  ls_outbox_hwm : int;
  ls_worker_queue : int;
  ls_subscriptions : int;
}

let loop_stats t =
  match t.ev with
  | None -> None
  | Some st ->
    Some
      { ls_conns = Atomic.get st.open_conns;
        ls_outbox_hwm = Atomic.get st.outbox_hwm;
        ls_worker_queue =
          Mutex.protect st.jobs_mu (fun () -> Queue.length st.jobs);
        ls_subscriptions =
          (* loop-owned table; a racy size read is fine for telemetry *)
          Hashtbl.length st.subs }

let active_conns t =
  match t.ev with
  | Some st -> Atomic.get st.open_conns
  | None -> Mutex.protect t.state (fun () -> List.length t.conns_threaded)

let healthz_body t =
  let loop_fields =
    match loop_stats t, t.ev with
    | Some ls, Some st ->
      Printf.sprintf
        ",\"loop\":{\"backend\":\"%s\",\"connections\":%d,\
         \"outbox_hwm_bytes\":%d,\"worker_queue_depth\":%d,\
         \"subscriptions\":%d,\"workers\":%d}"
        (Ev.backend_name st.ev) ls.ls_conns ls.ls_outbox_hwm
        ls.ls_worker_queue ls.ls_subscriptions t.cfg.workers
    | _ -> ""
  in
  let cw = Fb_chunk.Log_store.commit_wait_hist in
  Printf.sprintf
    "{\"status\":\"ok\",\"mode\":\"%s\",\"uptime_s\":%.1f,\
     \"connections_active\":%d,\"port\":%d,\"slow_traces\":%d,\
     \"commit_wait\":{\"count\":%d,\"p50_ms\":%.3f,\"p99_ms\":%.3f}%s}"
    (match t.cfg.mode with `Event -> "event" | `Threaded -> "threaded")
    (Unix.gettimeofday () -. t.started_at)
    (active_conns t) t.bound_port
    (Mutex.protect t.state (fun () -> List.length t.slow_traces))
    (Obs.hist_count cw)
    (1000.0 *. Obs.quantile cw 0.5)
    (1000.0 *. Obs.quantile cw 0.99)
    loop_fields

let tracez_body t =
  let entries = Mutex.protect t.state (fun () -> t.slow_traces) in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf "slow requests (threshold %.1f ms, %d kept)\n\n"
       t.cfg.slow_ms (List.length entries));
  if entries = [] then Buffer.add_string buf "(none recorded)\n"
  else
    List.iter
      (fun e ->
        Buffer.add_string buf
          (Printf.sprintf "[%.3f] %s user=%s %.3f ms trace=%s\n%s\n" e.st_time
             e.st_verb e.st_user e.st_ms e.st_trace_id e.st_tree))
      entries;
  Buffer.contents buf

(* The sidecar's route table.  Everything it serves is read-only
   telemetry rendered at request time; it never touches the store, so a
   scrape cannot contend with the binary protocol path. *)
let http_handler t path =
  match path with
  | "/metrics" -> Some (Http.text (Obs.dump_prometheus ()))
  | "/healthz" -> Some (Http.json (healthz_body t))
  | "/tracez" -> Some (Http.text (tracez_body t))
  | "/trace.json" -> Some (Http.json (Obs.dump_chrome_trace ()))
  | "/" ->
    Some
      (Http.text
         "forkbase metrics sidecar\n\
          /metrics    Prometheus exposition\n\
          /healthz    liveness + event-loop health JSON\n\
          /tracez     recent slow-request traces\n\
          /trace.json Chrome trace_event dump of the span ring\n")
  | _ -> None

let slow_trace_count t =
  Mutex.protect t.state (fun () -> List.length t.slow_traces)

(* ------------------------- lifecycle ------------------------- *)

let port t = t.bound_port

let metrics_port t = Option.map Http.port t.metrics_http

let start ?(config = default_config) fb =
  match Frame.resolve_host config.host with
  | Error e -> Error e
  | Ok addr -> (
    match
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      (try
         Unix.setsockopt fd Unix.SO_REUSEADDR true;
         Unix.bind fd (Unix.ADDR_INET (addr, config.port));
         Unix.listen fd config.backlog
       with e ->
         close_quiet fd;
         raise e);
      fd
    with
    | fd ->
      let bound_port =
        match Unix.getsockname fd with
        | Unix.ADDR_INET (_, p) -> p
        | _ -> config.port
      in
      (* A peer that vanished mid-write must surface as EPIPE on the
         worker thread, not kill the whole daemon. *)
      (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
       with Invalid_argument _ -> ());
      let ev_state =
        match config.mode with
        | `Threaded -> None
        | `Event ->
          let wake_r, wake_w = Unix.pipe () in
          Unix.set_nonblock wake_r;
          Unix.set_nonblock wake_w;
          Unix.set_nonblock fd;
          Some
            { ev = Ev.create (); scratch = Bytes.create 65536;
              conns = Hashtbl.create 256;
              by_fd = Hashtbl.create 256; subs = Hashtbl.create 16;
              next_sub = 1; last_sweep = 0.0;
              wake_r; wake_w; jobs = Queue.create ();
              jobs_mu = Mutex.create (); jobs_cond = Condition.create ();
              done_mu = Mutex.create (); done_q = Queue.create ();
              pushes = Queue.create (); open_conns = Atomic.make 0;
              outbox_hwm = Atomic.make 0; loop_thread = None;
              worker_threads = []; watch = None }
      in
      let t =
        { cfg = config; fb; listen_fd = fd; bound_port;
          started_at = Unix.gettimeofday ();
          locks = Rwlock.Striped.create ~stripes:(max 1 config.stripes) ();
          state = Mutex.create ();
          running = true; conns_threaded = []; next_id = 0;
          accept_thread = None;
          metrics_http = None; slow_traces = []; ev = ev_state }
      in
      Obs.gauge "fb.net.connections_active" (fun () ->
          float_of_int (active_conns t));
      (* Which SHA-256 kernel this node hashes with, so a recorded number
         can be traced to the kernel that produced it. *)
      Obs.gauge "hash.sha256_native" (fun () ->
          if Fb_hash.Sha256.native then 1.0 else 0.0);
      (match t.ev with
       | None -> ()
       | Some st ->
         Obs.gauge "fb.net.loop.connections" (fun () ->
             float_of_int (Atomic.get st.open_conns));
         Obs.gauge "fb.net.loop.outbox_hwm_bytes" (fun () ->
             float_of_int (Atomic.get st.outbox_hwm));
         Obs.gauge "fb.net.loop.worker_queue_depth" (fun () ->
             float_of_int
               (Mutex.protect st.jobs_mu (fun () -> Queue.length st.jobs)));
         Obs.gauge "fb.net.loop.subscriptions" (fun () ->
             float_of_int (Hashtbl.length st.subs)));
      (match config.metrics_port with
       | None -> ()
       | Some mport -> (
         match Http.start ~host:config.host ~port:mport (http_handler t) with
         | Ok http -> t.metrics_http <- Some http
         | Error e ->
           (* A node that cannot serve its binary port must not start;
              one that cannot serve telemetry should — log and go on. *)
           Obs.log_event ~fields:[ ("error", e) ] Obs.Error
             "metrics sidecar failed to start"));
      (match t.ev with
       | None -> t.accept_thread <- Some (Thread.create accept_loop_threaded t)
       | Some st ->
         (* Every branch-head movement — whoever caused it — funnels into
            the loop, which fans it out to matching subscriptions. *)
         st.watch <-
           Some
             (Forkbase.watch fb (fun ev ->
                  let trace =
                    Option.map
                      (fun (c : Obs.context) ->
                        { Frame.trace_id = c.trace_id;
                          parent_span = c.span_id })
                      (Obs.current_context ())
                  in
                  Mutex.protect st.done_mu (fun () ->
                      Queue.push (ev, trace) st.pushes);
                  wake st));
         st.loop_thread <- Some (Thread.create (event_loop t st) ());
         st.worker_threads <-
           List.init (max 1 config.workers) (fun _ ->
               Thread.create (worker_loop t st) ()));
      Obs.log_event
        ~fields:
          [ ("host", config.host); ("port", string_of_int bound_port);
            ("mode",
             match config.mode with `Event -> "event" | `Threaded -> "threaded");
            ("metrics_port",
             match metrics_port t with
             | Some p -> string_of_int p
             | None -> "off") ]
        Obs.Info "server started";
      Ok t
    | exception Unix.Unix_error (err, _, _) ->
      Error
        (Printf.sprintf "listen %s:%d: %s" config.host config.port
           (Unix.error_message err)))

let stop t =
  let was_running =
    Mutex.protect t.state (fun () ->
        let r = t.running in
        t.running <- false;
        r)
  in
  if was_running then begin
    (match t.ev with
     | None ->
       (* Wake the accept loop, then kick every live connection: their
          blocking reads see EOF and the threads unwind through their
          [finally] (closing fds and deregistering themselves). *)
       shutdown_quiet t.listen_fd;
       close_quiet t.listen_fd;
       List.iter
         (fun (_, fd) -> shutdown_quiet fd)
         (Mutex.protect t.state (fun () -> t.conns_threaded));
       let deadline = Unix.gettimeofday () +. 5.0 in
       while
         Mutex.protect t.state (fun () -> t.conns_threaded <> [])
         && Unix.gettimeofday () < deadline
       do
         Thread.delay 0.01
       done;
       (match t.accept_thread with Some th -> Thread.join th | None -> ())
     | Some st ->
       (* Detach the watch first: a late flush must not write into a
          pipe we are about to close. *)
       (match st.watch with
        | Some w ->
          Forkbase.unwatch t.fb w;
          st.watch <- None
        | None -> ());
       wake st;
       (match st.loop_thread with Some th -> Thread.join th | None -> ());
       Mutex.protect st.jobs_mu (fun () ->
           Condition.broadcast st.jobs_cond);
       List.iter Thread.join st.worker_threads;
       st.worker_threads <- [];
       shutdown_quiet t.listen_fd;
       close_quiet t.listen_fd;
       close_quiet st.wake_r;
       close_quiet st.wake_w);
    (match t.metrics_http with
     | Some http ->
       Http.stop http;
       t.metrics_http <- None
     | None -> ());
    Obs.log_event
      ~fields:[ ("port", string_of_int t.bound_port) ]
      Obs.Info "server stopped"
  end

let run t =
  let stop_requested = Atomic.make false in
  let handler _ = Atomic.set stop_requested true in
  let old_int = Sys.signal Sys.sigint (Sys.Signal_handle handler) in
  let old_term = Sys.signal Sys.sigterm (Sys.Signal_handle handler) in
  Fun.protect
    ~finally:(fun () ->
      Sys.set_signal Sys.sigint old_int;
      Sys.set_signal Sys.sigterm old_term)
    (fun () ->
      while (not (Atomic.get stop_requested)) && is_running t do
        Thread.delay 0.1
      done;
      stop t)
