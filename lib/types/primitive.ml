module Codec = Fb_codec.Codec

type t =
  | Null
  | Bool of bool
  | Int of int64
  | Float of float
  | String of string

let equal a b =
  match a, b with
  | Null, Null -> true
  | Bool x, Bool y -> x = y
  | Int x, Int y -> Int64.equal x y
  | Float x, Float y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
  | String x, String y -> String.equal x y
  | (Null | Bool _ | Int _ | Float _ | String _), _ -> false

let rank = function
  | Null -> 0
  | Bool _ -> 1
  | Int _ -> 2
  | Float _ -> 3
  | String _ -> 4

let compare a b =
  match a, b with
  | Null, Null -> 0
  | Bool x, Bool y -> Bool.compare x y
  | Int x, Int y -> Int64.compare x y
  | Float x, Float y -> Float.compare x y
  | String x, String y -> String.compare x y
  | _ -> Int.compare (rank a) (rank b)

let encode w = function
  | Null -> Codec.u8 w 0
  | Bool b ->
    Codec.u8 w 1;
    Codec.bool w b
  | Int i ->
    Codec.u8 w 2;
    Codec.i64 w i
  | Float f ->
    Codec.u8 w 3;
    Codec.f64 w f
  | String s ->
    Codec.u8 w 4;
    Codec.bytes w s

let decode r =
  match Codec.read_u8 r with
  | 0 -> Null
  | 1 -> Bool (Codec.read_bool r)
  | 2 -> Int (Codec.read_i64 r)
  | 3 -> Float (Codec.read_f64 r)
  | 4 -> String (Codec.read_bytes r)
  | t -> raise (Codec.Decode_error (Printf.sprintf "bad primitive tag %d" t))

let float_to_string f =
  (* Shortest representation that round-trips. *)
  let s = Printf.sprintf "%.12g" f in
  if float_of_string s = f then s else Printf.sprintf "%.17g" f

let to_string = function
  | Null -> ""
  | Bool b -> string_of_bool b
  | Int i -> Int64.to_string i
  | Float f -> float_to_string f
  | String s -> s

let looks_like_float s =
  (* Reject nan/inf-as-data and hex floats: CSV cells with those spellings
     stay strings. *)
  String.length s > 0
  && String.exists (fun c -> c = '.' || c = 'e' || c = 'E') s
  && String.for_all
       (fun c ->
         (c >= '0' && c <= '9')
         || c = '.' || c = 'e' || c = 'E' || c = '+' || c = '-')
       s

let parse_float s =
  if looks_like_float s then
    match float_of_string_opt s with Some f -> Float f | None -> String s
  else String s

let parse s =
  if s = "" then Null
  else if s = "true" then Bool true
  else if s = "false" then Bool false
  else
    (* [Int64.of_string] wants a sign or a digit first and a float cell is
       all float characters, so a word cell is a string at its first byte. *)
    match s.[0] with
    | '0' .. '9' | '+' | '-' -> (
      match Int64.of_string_opt s with Some i -> Int i | None -> parse_float s)
    | '.' | 'e' | 'E' -> parse_float s
    | _ -> String s

(* [parse] reads a float only from float characters, and [float_to_string]
   drops the point of an integral value ([2], not [2.0]) and spells
   infinity [inf]: put the point back, and spell an infinity as the
   overflowing literal [parse] reads it from. *)
let csv_float f =
  if f = Float.infinity then "1e999"
  else if f = Float.neg_infinity then "-1e999"
  else
    let s = float_to_string f in
    if String.exists (fun c -> c = '.' || c = 'e' || c = 'n') s then s else s ^ ".0"

(* A string cell of under 128 bytes, the common cell, is copied in place
   from its encoding (tag 4, a one-byte length, the bytes); every other
   cell goes through a reader. *)
let add_csv buf src pos =
  let n = String.length src in
  if pos + 1 < n && String.unsafe_get src pos = '\004'
     && Char.code (String.unsafe_get src (pos + 1)) < 0x80
     && pos + 2 + Char.code (String.unsafe_get src (pos + 1)) <= n
  then begin
    let len = Char.code (String.unsafe_get src (pos + 1)) in
    Csv.add_cell buf src (pos + 2) len;
    pos + 2 + len
  end
  else begin
    let r = Codec.reader ~pos src in
    (match decode r with
     | Float f -> Buffer.add_string buf (csv_float f)
     | String s -> Csv.add_cell buf s 0 (String.length s)
     | p -> Buffer.add_string buf (to_string p));
    Codec.pos r
  end

(* Order-preserving byte encodings.  Ints: flip the sign bit so two's
   complement order becomes unsigned byte order.  Floats: the classic IEEE
   trick — positive values get their sign bit set, negative values are
   bitwise-negated — which makes byte order match numeric order. *)
let sortable_key p =
  let b = Buffer.create 12 in
  Buffer.add_uint8 b (rank p);
  (match p with
   | Null -> ()
   | Bool v -> Buffer.add_uint8 b (if v then 1 else 0)
   | Int v ->
     let flipped = Int64.logxor v Int64.min_int in
     Buffer.add_int64_be b flipped
   | Float v ->
     (* Normalize -0.0: Float.compare treats the zeros as equal, so their
        sortable keys must coincide too. *)
     let v = if v = 0.0 then 0.0 else v in
     let bits = Int64.bits_of_float v in
     let mapped =
       if Int64.compare bits 0L < 0 then Int64.lognot bits
       else Int64.logxor bits Int64.min_int
     in
     Buffer.add_int64_be b mapped
   | String s -> Buffer.add_string b s);
  Buffer.contents b

let type_name = function
  | Null -> "null"
  | Bool _ -> "bool"
  | Int _ -> "int"
  | Float _ -> "float"
  | String _ -> "string"

let pp fmt = function
  | Null -> Format.pp_print_string fmt "null"
  | String s -> Format.fprintf fmt "%S" s
  | p -> Format.pp_print_string fmt (to_string p)
