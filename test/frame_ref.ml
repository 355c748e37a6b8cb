(* Reference codecs for the v2 wire format: the straightforward
   Fb_codec-based encoders and the whole-buffer frame decoder that the
   exact-size builders and the incremental reader in [Fb_net.Frame]
   replaced.  They are kept only as the test oracle — the tests demand
   byte-identical frames and identical frame/error sequences. *)

module Codec = Fb_codec.Codec
module Errors = Fb_core.Errors
module Frame = Fb_net.Frame

let max_len_bytes = 5

let encode_frame payload = Codec.to_string Codec.bytes payload

let decode_frame ?(max_frame = Frame.default_max_frame) ?(pos = 0) buf =
  let n = String.length buf in
  let rec varint i shift acc count =
    if count >= max_len_bytes then
      Error (Frame.Malformed "length varint too long")
    else if i >= n then Ok `Need_more
    else
      let b = Char.code (String.unsafe_get buf i) in
      let acc = acc lor ((b land 0x7f) lsl shift) in
      if b land 0x80 <> 0 then varint (i + 1) (shift + 7) acc (count + 1)
      else if b = 0 && count > 0 then Error (Frame.Malformed "non-minimal length")
      else if acc > max_frame then Error (Frame.Too_large acc)
      else if n - (i + 1) < acc then Ok `Need_more
      else Ok (`Frame (String.sub buf (i + 1) acc, i + 1 + acc))
  in
  varint pos 0 0 0

let write_envelope_headers w ~(trace : Frame.trace option) ~seq =
  (match trace with
   | Some t ->
     Codec.bytes w t.trace_id;
     Codec.zigzag w t.parent_span
   | None -> ());
  match seq with Some s -> Codec.varint w s | None -> ()

let flags_of ~trace ~seq =
  (match trace with Some _ -> 0x80 | None -> 0)
  lor (match seq with Some _ -> 0x40 | None -> 0)

let encode_request ~user ?trace ?seq (req : Frame.request) =
  Codec.to_string
    (fun w () ->
      Codec.u8 w 2;
      let kind =
        (match req with Frame.Single _ -> 0 | Frame.Batch _ -> 1)
        lor flags_of ~trace ~seq
      in
      Codec.u8 w kind;
      Codec.bytes w user;
      write_envelope_headers w ~trace ~seq;
      match req with
      | Frame.Single tokens -> Codec.list w Codec.bytes tokens
      | Frame.Batch reqs ->
        Codec.list w (fun w tokens -> Codec.list w Codec.bytes tokens) reqs)
    ()

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

let write_error w (e : Errors.t) =
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

let write_reply w (reply : Frame.reply) =
  match reply with
  | Ok payload ->
    Codec.u8 w 0;
    Codec.bytes w payload
  | Error e -> write_error w e

let encode_response ?trace ?seq (resp : Frame.response) =
  Codec.to_string
    (fun w () ->
      let kind =
        (match resp with
         | Frame.One _ -> 0
         | Frame.Many _ -> 1
         | Frame.Event _ -> 2)
        lor flags_of ~trace ~seq
      in
      Codec.u8 w kind;
      write_envelope_headers w ~trace ~seq;
      match resp with
      | Frame.One reply -> write_reply w reply
      | Frame.Many replies -> Codec.list w write_reply replies
      | Frame.Event e ->
        Codec.varint w e.sub_id;
        Codec.bytes w e.ev_key;
        Codec.bytes w e.ev_branch;
        Codec.bytes w e.new_head;
        (match e.old_head with
         | None -> Codec.bool w false
         | Some h ->
           Codec.bool w true;
           Codec.bytes w h))
    ()

(* The payload of one complete frame. *)
let payload_of frame =
  match decode_frame frame with
  | Ok (`Frame (p, next)) when next = String.length frame -> p
  | _ -> invalid_arg "Frame_ref.payload_of: not exactly one frame"
