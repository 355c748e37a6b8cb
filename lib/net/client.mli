(** What every ForkBase TCP client shares: the typed error and the dial.

    {!Mux} is the client — it pipelines tagged requests over one
    connection.  This module holds the parts a raw-socket peer needs as
    well: the error type a call fails with and the deadline-bounded TCP
    dial. *)

type error =
  | Remote of Fb_core.Errors.t  (** the verb failed server-side *)
  | Transport of string         (** socket/framing failure; connection dead *)

val error_to_string : error -> string
(** Rendering for the CLI edge. *)

val dial :
  ?host:string ->
  ?port:int ->
  ?timeout_s:float ->
  unit ->
  (Unix.file_descr, error) result
(** Defaults: host ["127.0.0.1"], port [7447], [timeout_s] [30.]
    ([<= 0.] disables).  Resolve, non-blocking connect bounded by
    [timeout_s], [TCP_NODELAY]; on any failure (resolve, connect,
    deadline, socket options) the socket fd is closed before the error
    is returned — no descriptor leaks. *)
