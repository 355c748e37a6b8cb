module Errors = Fb_core.Errors
module Obs = Fb_obs.Obs

type error =
  | Remote of Errors.t
  | Transport of string

let error_to_string = function
  | Remote e -> Errors.to_string e
  | Transport msg -> "transport: " ^ msg

type t = {
  fd : Unix.file_descr;
  user : string;
  timeout_s : float option;
  reader : Frame.reader;
  mutable closed : bool;
}

exception Connect_failed of string

let dial ?(host = "127.0.0.1") ?(port = 7447) ?(timeout_s = 30.0) () =
  match Frame.resolve_host host with
  | Error e -> Error (Transport e)
  | Ok addr ->
    let deadline = Frame.deadline_of_timeout (Some timeout_s) in
    let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    (* Everything after socket creation funnels through this handler:
       whatever fails — connect, the deadline, setsockopt — the fd is
       closed exactly once before the error is returned. *)
    (match
       (match deadline with
        | None -> Unix.connect fd (Unix.ADDR_INET (addr, port))
        | Some _ ->
          (* Deadline-bounded connect: non-blocking + wait_writable, the
             same select helper every other timed IO path uses. *)
          Unix.set_nonblock fd;
          (try Unix.connect fd (Unix.ADDR_INET (addr, port))
           with Unix.Unix_error (Unix.EINPROGRESS, _, _) -> (
             match Frame.wait_writable fd deadline with
             | Error e ->
               raise (Connect_failed ("connect " ^ Frame.error_to_string e))
             | Ok () -> (
               match Unix.getsockopt_error fd with
               | None -> ()
               | Some err -> raise (Unix.Unix_error (err, "connect", "")))));
          Unix.clear_nonblock fd);
       Unix.setsockopt fd Unix.TCP_NODELAY true
     with
    | () -> Ok fd
    | exception e ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      (match e with
       | Unix.Unix_error (err, _, _) ->
         Error
           (Transport
              (Printf.sprintf "connect %s:%d: %s" host port
                 (Unix.error_message err)))
       | Connect_failed msg ->
         Error (Transport (Printf.sprintf "%s (%s:%d)" msg host port))
       | e -> raise e))

let connect ?host ?port ?(user = "anonymous")
    ?(max_frame = Frame.default_max_frame) ?(timeout_s = 30.0) () =
  match dial ?host ?port ~timeout_s () with
  | Error _ as e -> e
  | Ok fd ->
    Ok
      { fd; user;
        timeout_s = (if timeout_s > 0.0 then Some timeout_s else None);
        reader = Frame.reader ~max_frame ();
        closed = false }

let is_open t = not t.closed

let close t =
  if not t.closed then begin
    t.closed <- true;
    (try Unix.close t.fd with Unix.Unix_error _ -> ())
  end

(* The trace header stamped on outgoing frames: the calling thread's
   innermost open span, if tracing is on.  Server-side spans of this
   request will join that trace as children of the client span. *)
let current_trace () =
  Option.map
    (fun (c : Obs.context) ->
      { Frame.trace_id = c.trace_id; parent_span = c.span_id })
    (Obs.current_context ())

(* One framed round trip.  Transport failures poison the connection
   (the stream may be desynchronized); typed server-side errors do not. *)
let roundtrip ?user t req =
  if t.closed then Error (Transport "connection closed")
  else
    let user = Option.value user ~default:t.user in
    match
      match
        Frame.send_frame ?timeout_s:t.timeout_s t.fd
          (Frame.request_frame ~user ?trace:(current_trace ()) req)
      with
      | Ok () -> Frame.read_frame ?timeout_s:t.timeout_s t.reader t.fd
      | Error _ as e -> e
    with
    | Ok payload -> (
      match Frame.decode_response payload with
      | Ok (_, _, resp) -> Ok resp
      | Error e ->
        close t;
        Error (Transport ("bad response frame: " ^ e)))
    | Error err ->
      close t;
      Error (Transport (Frame.error_to_string err))
    | exception Unix.Unix_error (err, _, _) ->
      close t;
      Error (Transport (Unix.error_message err))

let verb_of = function
  | v :: _ -> String.lowercase_ascii v
  | [] -> "(empty)"

(* request/batch open a client-side span around the round trip: the span
   mints (or continues) the trace id, the header stamped by [roundtrip]
   carries it, and the wall time it records is the latency the caller
   saw — wire + server, attributable by diffing against the server span
   of the same trace. *)
let request ?user t tokens =
  Obs.with_span
    ~attrs:[ ("verb", verb_of tokens) ]
    "net.client.request"
    (fun () ->
      match roundtrip ?user t (Frame.Single tokens) with
      | Error _ as e -> e
      | Ok (Frame.One (Ok payload)) -> Ok payload
      | Ok (Frame.One (Error e)) -> Error (Remote e)
      | Ok (Frame.Many _) ->
        close t;
        Error (Transport "batch response to a single request")
      | Ok (Frame.Event _) ->
        (* The blocking client never subscribes; an event frame means the
           stream is not what we think it is. *)
        close t;
        Error (Transport "unexpected event frame"))

let batch_roundtrip ?user t reqs =
  match roundtrip ?user t (Frame.Batch reqs) with
  | Error _ as e -> e
  | Ok (Frame.Many replies) when List.length replies = List.length reqs ->
    Ok replies
  | Ok (Frame.Many replies) ->
    close t;
    Error
      (Transport
         (Printf.sprintf "batch answered %d replies for %d sub-requests"
            (List.length replies) (List.length reqs)))
  | Ok (Frame.One _) ->
    close t;
    Error (Transport "single response to a batch request")
  | Ok (Frame.Event _) ->
    close t;
    Error (Transport "unexpected event frame")

let batch ?user t reqs =
  Obs.with_span
    ~attrs:[ ("n", string_of_int (List.length reqs)) ]
    "net.client.batch"
    (fun () -> batch_roundtrip ?user t reqs)

let request_line ?user t line =
  match Fb_core.Service.tokenize line with
  | Error e -> Error (Remote (Errors.Invalid e))
  | Ok tokens -> request ?user t tokens
