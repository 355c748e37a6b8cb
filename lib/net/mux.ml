module Errors = Fb_core.Errors
module Obs = Fb_obs.Obs

type error = Client.error =
  | Remote of Errors.t
  | Transport of string

type callback = Frame.trace option -> Frame.event -> unit

type slot = Pending | Done of (Frame.response, error) result

type t = {
  fd : Unix.file_descr;
  user : string;
  max_frame : int;
  timeout_s : float option;  (* bounds sends; receives block on the reader *)
  mu : Mutex.t;              (* pending / subs / lifecycle state *)
  cond : Condition.t;
  wr_mu : Mutex.t;           (* serializes frame writes across threads *)
  pending : (int, slot ref) Hashtbl.t;
  (* seq -> callback to install the moment the subscribe reply lands;
     installing on the reader thread (before it reads the next frame)
     closes the race where an event for a fresh subscription beats the
     caller's return from [subscribe]. *)
  sub_installs : (int, callback) Hashtbl.t;
  sub_cbs : (int, callback) Hashtbl.t;  (* sub id -> live callback *)
  mutable next_seq : int;
  mutable closed : bool;
  mutable poison_reason : string;
}

let close_quiet fd = try Unix.close fd with Unix.Unix_error _ -> ()
let shutdown_quiet fd =
  try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ()

(* Kill the connection: every waiter (current and future) gets [reason]
   as a [Transport] error, callbacks stop firing.  Idempotent — the
   first reason wins.  The fd is only {e shut down} here, never closed:
   the reader thread may be blocked in (or about to call) [read], and
   closing out from under it would let the fd number be recycled and the
   reader steal bytes from an unrelated connection.  Shutdown wakes the
   reader with EOF; the reader closes the fd as it exits. *)
let poison t reason =
  Mutex.protect t.mu (fun () ->
      if not t.closed then begin
        t.closed <- true;
        t.poison_reason <- reason;
        Hashtbl.iter
          (fun _ slot ->
            match !slot with
            | Pending -> slot := Done (Error (Transport reason))
            | Done _ -> ())
          t.pending;
        Hashtbl.reset t.sub_cbs;
        Hashtbl.reset t.sub_installs;
        Condition.broadcast t.cond;
        shutdown_quiet t.fd
      end)

let is_open t = Mutex.protect t.mu (fun () -> not t.closed)
let close t = poison t "connection closed"

(* Complete the slot for [seq] on the reader thread.  A reply carrying a
   sequence id we never issued means the stream is not ours to trust any
   more: poison. *)
let complete t seq result =
  let unknown =
    Mutex.protect t.mu (fun () ->
        match Hashtbl.find_opt t.pending seq with
        | None -> true
        | Some slot ->
          (match Hashtbl.find_opt t.sub_installs seq with
           | Some cb ->
             Hashtbl.remove t.sub_installs seq;
             (match result with
              | Ok (Frame.One (Ok payload)) -> (
                match int_of_string_opt payload with
                | Some sid -> Hashtbl.replace t.sub_cbs sid cb
                | None -> ())
              | _ -> ())
           | None -> ());
          slot := Done result;
          Condition.broadcast t.cond;
          false)
  in
  if unknown then
    poison t (Printf.sprintf "reply to unknown sequence id %d" seq)

let deliver_event t trace (ev : Frame.event) =
  let cb = Mutex.protect t.mu (fun () -> Hashtbl.find_opt t.sub_cbs ev.sub_id) in
  match cb with
  | None -> ()  (* unsubscribe raced a push already in flight: drop *)
  | Some cb -> ( try cb trace ev with _ -> ())

let reader_loop t () =
  let rd = Frame.reader ~max_frame:t.max_frame () in
  let rec loop () =
    match Frame.read_frame rd t.fd with
    | Ok payload -> (
      match Frame.decode_response payload with
      | Ok (_, Some seq, resp) ->
        complete t seq (Ok resp);
        if is_open t then loop ()
      | Ok (trace, None, Frame.Event ev) ->
        deliver_event t trace ev;
        loop ()
      | Ok (_, None, Frame.One (Error e)) ->
        (* The server answers without a sequence id only when it could
           not decode our request — nothing on this stream can be
           attributed any more. *)
        poison t ("server rejected request: " ^ Errors.to_string e)
      | Ok (_, None, _) -> poison t "untagged reply on pipelined connection"
      | Error e -> poison t ("bad response frame: " ^ e))
    | Error Frame.Eof -> poison t "connection closed by server"
    | Error e -> poison t (Frame.error_to_string e)
    | exception Unix.Unix_error (err, _, _) ->
      poison t (Unix.error_message err)
  in
  loop ();
  close_quiet t.fd

let connect ?host ?port ?(user = "anonymous")
    ?(max_frame = Frame.default_max_frame) ?(timeout_s = 30.0) () =
  match Client.dial ?host ?port ~timeout_s () with
  | Error e -> Error e
  | Ok fd ->
    let t =
      { fd; user; max_frame;
        timeout_s = (if timeout_s > 0.0 then Some timeout_s else None);
        mu = Mutex.create (); cond = Condition.create ();
        wr_mu = Mutex.create (); pending = Hashtbl.create 16;
        sub_installs = Hashtbl.create 4; sub_cbs = Hashtbl.create 4;
        next_seq = 1; closed = false; poison_reason = "connection closed" }
    in
    ignore (Thread.create (reader_loop t) ());
    Ok t

let current_trace () =
  Option.map
    (fun (c : Obs.context) ->
      { Frame.trace_id = c.trace_id; parent_span = c.span_id })
    (Obs.current_context ())

type ticket = int

(* Register the pending slot before the frame leaves, so the reply can
   never arrive unclaimed; serialize the write itself under [wr_mu] so
   concurrent senders cannot interleave frame bytes. *)
let send ?user ?install t req =
  let user = Option.value user ~default:t.user in
  let registered =
    Mutex.protect t.mu (fun () ->
        if t.closed then Error (Transport t.poison_reason)
        else begin
          let seq = t.next_seq in
          t.next_seq <- seq + 1;
          Hashtbl.replace t.pending seq (ref Pending);
          (match install with
           | Some cb -> Hashtbl.replace t.sub_installs seq cb
           | None -> ());
          Ok seq
        end)
  in
  match registered with
  | Error _ as e -> e
  | Ok seq -> (
    let wire = Frame.request_frame ~user ?trace:(current_trace ()) ~seq req in
    match
      Mutex.protect t.wr_mu (fun () ->
          Frame.send_frame ?timeout_s:t.timeout_s t.fd wire)
    with
    | Ok () -> Ok seq
    | Error e ->
      poison t (Frame.error_to_string e);
      Error (Transport (Frame.error_to_string e))
    | exception Unix.Unix_error (err, _, _) ->
      poison t (Unix.error_message err);
      Error (Transport (Unix.error_message err)))

let await t ticket =
  Mutex.protect t.mu (fun () ->
      match Hashtbl.find_opt t.pending ticket with
      | None -> Error (Transport "unknown ticket")
      | Some slot ->
        let rec wait () =
          match !slot with
          | Done res ->
            Hashtbl.remove t.pending ticket;
            res
          | Pending ->
            (* poison fills every pending slot before waking us, so a
               Pending slot always means "still in flight". *)
            Condition.wait t.cond t.mu;
            wait ()
        in
        wait ())

let mismatch t what =
  let msg = "mismatched reply shape for " ^ what in
  poison t msg;
  Error (Transport msg)

let await_one t ticket =
  match await t ticket with
  | Error _ as e -> e
  | Ok (Frame.One (Ok payload)) -> Ok payload
  | Ok (Frame.One (Error e)) -> Error (Remote e)
  | Ok (Frame.Many _ | Frame.Event _) -> mismatch t "a single request"

let await_many t ticket ~n =
  match await t ticket with
  | Error _ as e -> e
  | Ok (Frame.Many replies) when List.length replies = n -> Ok replies
  | Ok _ -> mismatch t "a batch request"

(* Every request runs inside a [net.client.*] span whose context the
   frame carries, so the server's spans join the caller's trace. *)
let traced req f =
  match req with
  | Frame.Single tokens ->
    let verb = match tokens with v :: _ -> String.lowercase_ascii v | [] -> "" in
    Obs.with_span ~attrs:[ ("verb", verb) ] "net.client.request" f
  | Frame.Batch reqs ->
    Obs.with_span
      ~attrs:[ ("n", string_of_int (List.length reqs)) ]
      "net.client.batch" f

let issue ?user t req = traced req (fun () -> send ?user t req)

let request ?user t tokens =
  let req = Frame.Single tokens in
  traced req (fun () -> Result.bind (send ?user t req) (await_one t))

let batch ?user t reqs =
  let req = Frame.Batch reqs in
  traced req (fun () ->
      Result.bind (send ?user t req) (await_many t ~n:(List.length reqs)))

let subscribe ?user ?(key = "*") ?(branch = "*") t cb =
  match send ?user ~install:cb t (Frame.Single [ "subscribe"; key; branch ]) with
  | Error _ as e -> e
  | Ok tk -> (
    match await t tk with
    | Error _ as e -> e
    | Ok (Frame.One (Ok payload)) -> (
      match int_of_string_opt payload with
      | Some sid -> Ok sid
      | None ->
        let msg = "unparsable subscription id: " ^ payload in
        poison t msg;
        Error (Transport msg))
    | Ok (Frame.One (Error e)) -> Error (Remote e)
    | Ok _ -> mismatch t "subscribe")

let unsubscribe ?user t sid =
  (* Drop the local callback first so deliveries stop immediately; any
     push already in flight hits the unknown-sub drop path. *)
  Mutex.protect t.mu (fun () -> Hashtbl.remove t.sub_cbs sid);
  match request ?user t [ "unsubscribe"; string_of_int sid ] with
  | Ok _ -> Ok ()
  | Error _ as e -> e
