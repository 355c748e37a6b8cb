module Codec = Fb_codec.Codec
module Errors = Fb_core.Errors

type error =
  | Eof
  | Timeout
  | Too_large of int
  | Malformed of string

let error_to_string = function
  | Eof -> "connection closed"
  | Timeout -> "timed out"
  | Too_large n -> Printf.sprintf "frame too large (%d bytes)" n
  | Malformed msg -> "malformed frame: " ^ msg

let default_max_frame = 16 * 1024 * 1024

(* A frame length needs at most 5 varint bytes (2^35 > any sane
   max_frame); more means the peer is speaking something else. *)
let max_len_bytes = 5

(* ------------------------- frame builders ------------------------- *)

(* A frame is built by running one encoder twice through [Codec]: a
   counting pass that only sizes it, then a writing pass into a single
   buffer of exactly the frame's size, length prefix included.  Payload
   strings are blitted once, straight from the caller's values — no
   growable buffer, no [contents] copy, no re-framing. *)
let build write =
  let count = Codec.counter () in
  write count;
  let len = Codec.length count in
  Codec.varint count len;
  let w = Codec.exact (Codec.length count) in
  Codec.varint w len;
  write w;
  Codec.contents w

(* Version 2: requests are tagged single/batch, responses carry a typed
   status ahead of the payload (v1 carried a bare bool + pre-rendered
   English).  v1 frames are rejected by version number — the shapes are
   deliberately not bridgeable, so old clients get a clean error instead
   of a misparse. *)
let protocol_version = 2

type request = Single of string list | Batch of string list list

type trace = { trace_id : string; parent_span : int }

let kind_single = 0
let kind_batch = 1

(* Trace context and the pipelining sequence id ride in the same v2
   envelope behind flag bits on the kind byte: a header-less v2 frame
   (kind byte 0 or 1) is still a valid v2 frame, so tracing-unaware and
   pipelining-unaware peers interoperate unchanged.  The trace header
   sits between [user] and the body; the sequence id follows it.

   The sequence id is what makes request pipelining safe: a client may
   keep many tagged requests in flight on one socket, the server answers
   each reply (and server-initiated watch events) tagged, and the client
   matches replies out of order.  Requests without a sequence id keep
   strict in-order request/response semantics. *)
let flag_trace = 0x80
let flag_seq = 0x40
let kind_mask = 0x3f

let put_envelope w ~trace ~seq =
  (match trace with
   | Some t ->
     Codec.bytes w t.trace_id;
     Codec.zigzag w t.parent_span
   | None -> ());
  match seq with Some q -> Codec.varint w q | None -> ()

let flags_of ~trace ~seq =
  (match trace with Some _ -> flag_trace | None -> 0)
  lor (match seq with Some _ -> flag_seq | None -> 0)

let read_envelope_headers r kind_byte =
  let trace =
    if kind_byte land flag_trace <> 0 then begin
      let trace_id = Codec.read_bytes r in
      let parent_span = Codec.read_zigzag r in
      Some { trace_id; parent_span }
    end
    else None
  in
  let seq =
    if kind_byte land flag_seq <> 0 then Some (Codec.read_varint r) else None
  in
  (trace, seq)

let request_frame ~user ?trace ?seq req =
  build (fun w ->
      Codec.u8 w protocol_version;
      Codec.u8 w
        ((match req with Single _ -> kind_single | Batch _ -> kind_batch)
         lor flags_of ~trace ~seq);
      Codec.bytes w user;
      put_envelope w ~trace ~seq;
      match req with
      | Single tokens -> Codec.list w Codec.bytes tokens
      | Batch reqs ->
        Codec.list w (fun w tokens -> Codec.list w Codec.bytes tokens) reqs)

let decode_request payload =
  Codec.of_string
    (fun r ->
      let v = Codec.read_u8 r in
      if v <> protocol_version then
        raise
          (Codec.Decode_error
             (Printf.sprintf
                "unsupported protocol version %d (this server speaks %d)" v
                protocol_version));
      let kind_byte = Codec.read_u8 r in
      let kind = kind_byte land kind_mask in
      let user = Codec.read_bytes r in
      let trace, seq = read_envelope_headers r kind_byte in
      if kind = kind_single then
        (user, trace, seq, Single (Codec.read_list r Codec.read_bytes))
      else if kind = kind_batch then
        ( user,
          trace,
          seq,
          Batch (Codec.read_list r (fun r -> Codec.read_list r Codec.read_bytes))
        )
      else
        raise
          (Codec.Decode_error (Printf.sprintf "unknown request kind %d" kind)))
    payload

(* ------------------------- typed status ------------------------- *)

(* Stable wire codes for Errors.t — the status tag ahead of every
   response payload.  String rendering happens only at the CLI/stdio
   edge; remote callers pattern-match the typed value. *)

let status_ok = 0

let error_code = function
  | Errors.Key_not_found _ -> 1
  | Errors.Branch_not_found _ -> 2
  | Errors.Version_not_found _ -> 3
  | Errors.Permission_denied _ -> 4
  | Errors.Merge_conflict _ -> 5
  | Errors.Type_mismatch _ -> 6
  | Errors.Corrupt _ -> 7
  | Errors.Transient _ -> 8
  | Errors.Invalid _ -> 9

let put_error w (e : Errors.t) =
  Codec.u8 w (error_code e);
  match e with
  | Errors.Key_not_found k -> Codec.bytes w k
  | Errors.Branch_not_found { key; branch } ->
    Codec.bytes w key;
    Codec.bytes w branch
  | Errors.Version_not_found v -> Codec.bytes w v
  | Errors.Permission_denied { user; action } ->
    Codec.bytes w user;
    Codec.bytes w action
  | Errors.Merge_conflict { key; details } ->
    Codec.bytes w key;
    Codec.list w Codec.bytes details
  | Errors.Type_mismatch { expected; got } ->
    Codec.bytes w expected;
    Codec.bytes w got
  | Errors.Corrupt msg | Errors.Transient msg | Errors.Invalid msg ->
    Codec.bytes w msg

let read_error r code : Errors.t =
  match code with
  | 1 -> Errors.Key_not_found (Codec.read_bytes r)
  | 2 ->
    let key = Codec.read_bytes r in
    let branch = Codec.read_bytes r in
    Errors.Branch_not_found { key; branch }
  | 3 -> Errors.Version_not_found (Codec.read_bytes r)
  | 4 ->
    let user = Codec.read_bytes r in
    let action = Codec.read_bytes r in
    Errors.Permission_denied { user; action }
  | 5 ->
    let key = Codec.read_bytes r in
    let details = Codec.read_list r Codec.read_bytes in
    Errors.Merge_conflict { key; details }
  | 6 ->
    let expected = Codec.read_bytes r in
    let got = Codec.read_bytes r in
    Errors.Type_mismatch { expected; got }
  | 7 -> Errors.Corrupt (Codec.read_bytes r)
  | 8 -> Errors.Transient (Codec.read_bytes r)
  | 9 -> Errors.Invalid (Codec.read_bytes r)
  | c -> raise (Codec.Decode_error (Printf.sprintf "unknown error code %d" c))

type reply = (string, Errors.t) result

(* Server-initiated push: one branch-head movement delivered to one
   subscription (the SUBSCRIBE verb).  Heads travel in their rendered
   (Base32) form like every other uid on this protocol. *)
type event = {
  sub_id : int;
  ev_key : string;
  ev_branch : string;
  new_head : string;
  old_head : string option;
}

type response = One of reply | Many of reply list | Event of event

let kind_event = 2

let put_reply w (reply : reply) =
  match reply with
  | Ok payload ->
    Codec.u8 w status_ok;
    Codec.bytes w payload
  | Error e -> put_error w e

let read_reply r : reply =
  let code = Codec.read_u8 r in
  if code = status_ok then Ok (Codec.read_bytes r) else Error (read_error r code)

let response_frame ?trace ?seq resp =
  build (fun w ->
      Codec.u8 w
        ((match resp with
          | One _ -> kind_single
          | Many _ -> kind_batch
          | Event _ -> kind_event)
         lor flags_of ~trace ~seq);
      put_envelope w ~trace ~seq;
      match resp with
      | One reply -> put_reply w reply
      | Many replies -> Codec.list w put_reply replies
      | Event e ->
        Codec.varint w e.sub_id;
        Codec.bytes w e.ev_key;
        Codec.bytes w e.ev_branch;
        Codec.bytes w e.new_head;
        Codec.bool w (Option.is_some e.old_head);
        Option.iter (Codec.bytes w) e.old_head)

let decode_response payload =
  Codec.of_string
    (fun r ->
      let kind_byte = Codec.read_u8 r in
      let kind = kind_byte land kind_mask in
      let trace, seq = read_envelope_headers r kind_byte in
      let resp =
        if kind = kind_single then One (read_reply r)
        else if kind = kind_batch then Many (Codec.read_list r read_reply)
        else if kind = kind_event then begin
          let sub_id = Codec.read_varint r in
          let ev_key = Codec.read_bytes r in
          let ev_branch = Codec.read_bytes r in
          let new_head = Codec.read_bytes r in
          let old_head =
            if Codec.read_bool r then Some (Codec.read_bytes r) else None
          in
          Event { sub_id; ev_key; ev_branch; new_head; old_head }
        end
        else
          raise
            (Codec.Decode_error
               (Printf.sprintf "unknown response kind %d" kind))
      in
      (trace, seq, resp))
    payload

(* ------------------------- socket IO ------------------------- *)

(* All socket deadlines funnel through here: [timeout_s <= 0.] (or
   [None]) uniformly means "no deadline" for connect, read and write
   paths alike. *)
let deadline_of_timeout timeout_s =
  match timeout_s with
  | Some t when t > 0.0 -> Some (Unix.gettimeofday () +. t)
  | _ -> None

let rec wait_fd ~read fd deadline =
  match deadline with
  | None -> Ok ()
  | Some t ->
    let remaining = t -. Unix.gettimeofday () in
    if remaining <= 0.0 then Error Timeout
    else
      let rd = if read then [ fd ] else [] in
      let wr = if read then [] else [ fd ] in
      (match Unix.select rd wr [] remaining with
       | [], [], _ -> Error Timeout
       | _ -> Ok ()
       | exception Unix.Unix_error (Unix.EINTR, _, _) ->
         wait_fd ~read fd deadline)

let wait_readable fd deadline = wait_fd ~read:true fd deadline
let wait_writable fd deadline = wait_fd ~read:false fd deadline

(* ------------------------- incremental reader ------------------------- *)

(* One state machine reads frames for every consumer: the event loop
   (non-blocking, one [read] per readiness), the Mux reader thread and
   the blocking engines.  Socket bytes land in the scratch buffer and are
   parsed from there.  Length-prefix bytes are parsed as they arrive; a
   bad prefix fails before any body byte is buffered, and the failure is
   sticky.

   A body is allocated once, at its announced length, but only after
   [commit] of its bytes (or all of them, if fewer) have arrived; bytes
   before that wait in [stage], which grows with them.  So what a reader
   holds follows what its peer sent, not what the peer announced: a
   prefix alone reserves nothing. *)
type reader = {
  max_frame : int;
  scratch : Bytes.t;
  commit : int;
  mutable len_acc : int;
  mutable len_shift : int;
  mutable len_bytes : int;  (* continuation bytes of the prefix so far *)
  mutable want : int;       (* announced length of the frame being read; 0 between frames *)
  stage : Buffer.t;         (* its first bytes, until [commit] of them arrive *)
  mutable body : Bytes.t;   (* the frame's body once allocated; empty before *)
  mutable fill : int;
  mutable failed : error option;
  ready : string Queue.t;   (* complete frames not yet taken *)
}

let reader ?(max_frame = default_max_frame) ?scratch () =
  let scratch =
    match scratch with Some b -> b | None -> Bytes.create 65536
  in
  if Bytes.length scratch = 0 then invalid_arg "Frame.reader: empty scratch";
  (* Half a scratch: one full read that starts a large frame commits it
     without staging. *)
  { max_frame; scratch; commit = max 1 (Bytes.length scratch / 2);
    len_acc = 0; len_shift = 0; len_bytes = 0; want = 0;
    stage = Buffer.create 64; body = Bytes.empty; fill = 0; failed = None;
    ready = Queue.create () }

let next r = Queue.take_opt r.ready

(* Checked on every byte, so an invalid prefix fails on the byte that
   makes it invalid. *)
let prefix_byte r b =
  let acc = r.len_acc lor ((b land 0x7f) lsl r.len_shift) in
  if b land 0x80 <> 0 then begin
    r.len_bytes <- r.len_bytes + 1;
    if r.len_bytes >= max_len_bytes then
      r.failed <- Some (Malformed "length varint too long")
    else begin
      r.len_acc <- acc;
      r.len_shift <- r.len_shift + 7
    end
  end
  else if b = 0 && r.len_bytes > 0 then
    r.failed <- Some (Malformed "non-minimal length")
  else if acc > r.max_frame then r.failed <- Some (Too_large acc)
  else begin
    r.len_acc <- 0;
    r.len_shift <- 0;
    r.len_bytes <- 0;
    if acc = 0 then Queue.push "" r.ready else r.want <- acc
  end

(* Offer the [avail] bytes at [src.[i]] to the frame being read; returns
   how many it took (none when the call only allocated the body). *)
let body_bytes r src i avail =
  if Bytes.length r.body = 0 then begin
    let staged = Buffer.length r.stage in
    if staged + avail < min r.want r.commit then begin
      Buffer.add_subbytes r.stage src i avail;
      avail
    end
    else begin
      r.body <- Bytes.create r.want;
      Buffer.blit r.stage 0 r.body 0 staged;
      Buffer.reset r.stage;
      r.fill <- staged;
      0
    end
  end
  else begin
    let k = min (r.want - r.fill) avail in
    Bytes.blit src i r.body r.fill k;
    r.fill <- r.fill + k;
    if r.fill = r.want then begin
      Queue.push (Bytes.unsafe_to_string r.body) r.ready;
      r.body <- Bytes.empty;
      r.fill <- 0;
      r.want <- 0
    end;
    k
  end

let feed r src off len =
  if off < 0 || len < 0 || off + len > Bytes.length src then
    invalid_arg "Frame.feed";
  let stop = off + len in
  let rec go i =
    if Option.is_none r.failed && i < stop then
      if r.want > 0 then go (i + body_bytes r src i (stop - i))
      else begin
        prefix_byte r (Char.code (Bytes.get src i));
        go (i + 1)
      end
  in
  go off;
  match r.failed with None -> Ok () | Some e -> Error e

let read_some r read =
  match r.failed with
  | Some e -> Error e
  | None ->
    let n = read r.scratch 0 (Bytes.length r.scratch) in
    Result.map (fun () -> n) (feed r r.scratch 0 n)

let read_frame ?timeout_s r fd =
  let deadline = deadline_of_timeout timeout_s in
  let rec go () =
    match next r with
    | Some frame -> Ok frame
    | None -> (
      match r.failed with
      | Some e -> Error e
      | None -> (
        match wait_readable fd deadline with
        | Error _ as e -> e
        | Ok () -> (
          match read_some r (Unix.read fd) with
          | Ok 0 -> Error Eof
          | Ok _ | Error _ -> go ()
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ())))
  in
  go ()

let send_frame ?timeout_s fd frame =
  let deadline = deadline_of_timeout timeout_s in
  let b = Bytes.unsafe_of_string frame in
  let len = Bytes.length b in
  let rec go off =
    if off >= len then Ok ()
    else
      match wait_writable fd deadline with
      | Error _ as e -> e
      | Ok () -> (
        match Unix.write fd b off (len - off) with
        | k -> go (off + k)
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off)
  in
  go 0

let resolve_host host =
  match Unix.inet_addr_of_string host with
  | addr -> Ok addr
  | exception Failure _ -> (
    match (Unix.gethostbyname host).Unix.h_addr_list with
    | [||] -> Error (Printf.sprintf "host %s has no address" host)
    | addrs -> Ok addrs.(0)
    | exception Not_found -> Error (Printf.sprintf "unknown host %s" host))
