(* One writer, three ways of keeping bytes: [Grow] (what [writer] makes)
   doubles its buffer as needed; [Count] keeps none and only advances
   [pos], sizing an encoding; [Exact] writes into a buffer of exactly the
   encoding's size.  Every encoder below stores through the same checks,
   so an encoding is defined once whichever way its bytes are kept. *)
type mode = Grow | Count | Exact

type writer = { mutable buf : Bytes.t; mutable pos : int; mode : mode }

let writer ?(initial_size = 256) () =
  { buf = Bytes.create (max 1 initial_size); pos = 0; mode = Grow }

let counter () = { buf = Bytes.empty; pos = 0; mode = Count }

let exact n =
  if n < 0 then invalid_arg "Codec.exact: negative size";
  { buf = Bytes.create n; pos = 0; mode = Exact }

let length w = w.pos

let contents w =
  match w.mode with
  | Grow -> Bytes.sub_string w.buf 0 w.pos
  | Exact when w.pos = Bytes.length w.buf -> Bytes.unsafe_to_string w.buf
  | Exact -> invalid_arg "Codec.contents: exact writer not full"
  | Count -> invalid_arg "Codec.contents: a counter keeps no bytes"

(* [n] more bytes do not fit at [pos]: grow the buffer, or answer false
   when the writer keeps no bytes. *)
let overflow w n =
  match w.mode with
  | Count -> false
  | Exact -> invalid_arg "Codec: write past the end of an exact writer"
  | Grow ->
    let len = ref (Bytes.length w.buf) in
    while w.pos + n > !len do
      len := 2 * !len
    done;
    let b = Bytes.create !len in
    Bytes.blit w.buf 0 b 0 w.pos;
    w.buf <- b;
    true

let add_byte w v =
  let pos = w.pos in
  if pos < Bytes.length w.buf || overflow w 1 then
    Bytes.unsafe_set w.buf pos (Char.unsafe_chr v);
  w.pos <- pos + 1

let u8 w v =
  if v < 0 || v > 255 then invalid_arg "Codec.u8: out of range";
  add_byte w v

(* LEB128 over the 63-bit two's-complement pattern of an OCaml int: at most
   9 bytes (9 × 7 = 63 bits exactly).  [lsr] makes the loop terminate for
   negative patterns too, which zigzag encoding relies on. *)
let varint_bits w v =
  let rec go v =
    if v land lnot 0x7f = 0 then add_byte w v
    else begin
      add_byte w (0x80 lor (v land 0x7f));
      go (v lsr 7)
    end
  in
  go v

let varint w v =
  if v < 0 then invalid_arg "Codec.varint: negative";
  varint_bits w v

let zigzag w v = varint_bits w ((v lsl 1) lxor (v asr (Sys.int_size - 1)))

let i64 w v =
  let pos = w.pos in
  if pos + 8 <= Bytes.length w.buf || overflow w 8 then
    Bytes.set_int64_be w.buf pos v;
  w.pos <- pos + 8

let f64 w v = i64 w (Int64.bits_of_float v)
let bool w v = u8 w (if v then 1 else 0)

let raw w s =
  let n = String.length s in
  let pos = w.pos in
  if pos + n <= Bytes.length w.buf || overflow w n then
    Bytes.unsafe_blit_string s 0 w.buf pos n;
  w.pos <- pos + n

let bytes w s =
  varint w (String.length s);
  raw w s

let hash w h = raw w (Fb_hash.Hash.to_raw h)

let list w enc xs =
  varint w (List.length xs);
  List.iter (enc w) xs

let to_string enc v =
  let w = writer () in
  enc w v;
  contents w

(* ------------------------------------------------------------------ *)

type reader = { buf : string; mutable pos : int }

exception Decode_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Decode_error s)) fmt

let reader ?(pos = 0) buf =
  if pos < 0 || pos > String.length buf then fail "reader: bad start position";
  { buf; pos }

let pos r = r.pos
let remaining r = String.length r.buf - r.pos

let need r n =
  if remaining r < n then
    fail "truncated input: need %d bytes at offset %d, have %d" n r.pos
      (remaining r)

let expect_end r =
  if remaining r <> 0 then fail "trailing garbage: %d bytes left" (remaining r)

let read_u8 r =
  need r 1;
  let v = Char.code r.buf.[r.pos] in
  r.pos <- r.pos + 1;
  v

let read_varint_bits r =
  let rec go shift acc =
    if shift > 56 then fail "varint overflow";
    let b = read_u8 r in
    let acc = acc lor ((b land 0x7f) lsl shift) in
    if b land 0x80 <> 0 then go (shift + 7) acc
    else begin
      (* Reject non-minimal encodings: a final zero byte is only canonical
         when it is the sole byte. *)
      if b = 0 && shift > 0 then fail "non-minimal varint";
      acc
    end
  in
  go 0 0

let read_varint r =
  let v = read_varint_bits r in
  if v < 0 then fail "varint overflow" else v

let read_zigzag r =
  let v = read_varint_bits r in
  (v lsr 1) lxor (- (v land 1))

let read_i64 r =
  need r 8;
  let v = String.get_int64_be r.buf r.pos in
  r.pos <- r.pos + 8;
  v

let read_f64 r = Int64.float_of_bits (read_i64 r)

let read_bool r =
  match read_u8 r with
  | 0 -> false
  | 1 -> true
  | v -> fail "bad boolean byte %d" v

let read_raw r n =
  if n < 0 then fail "negative length";
  need r n;
  let s = String.sub r.buf r.pos n in
  r.pos <- r.pos + n;
  s

let read_bytes r = read_raw r (read_varint r)

let read_hash r =
  match Fb_hash.Hash.of_raw (read_raw r Fb_hash.Hash.size) with
  | Ok h -> h
  | Error e -> fail "%s" e

let read_list r dec =
  let n = read_varint r in
  (* Guard against absurd counts from corrupt data before allocating. *)
  if n > remaining r then fail "list count %d exceeds remaining input" n;
  List.init n (fun _ -> dec r)

let of_string dec s =
  match
    let r = reader s in
    let v = dec r in
    expect_end r;
    v
  with
  | v -> Ok v
  | exception Decode_error e -> Error e

let of_string_exn dec s =
  match of_string dec s with Ok v -> v | Error e -> raise (Decode_error e)
