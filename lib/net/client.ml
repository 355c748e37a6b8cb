module Errors = Fb_core.Errors

type error =
  | Remote of Errors.t
  | Transport of string

let error_to_string = function
  | Remote e -> Errors.to_string e
  | Transport msg -> "transport: " ^ msg

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
