(* The Bloom filter as Sync.Bloom built it before its index loop went
   allocation-free (List.init of the indices, boxed Int64 words, a
   bit-by-bit fill count).  Kept verbatim as the oracle test_sync.ml
   checks the current module against: same wire bytes, same answers. *)

module Hash = Fb_hash.Hash
module Errors = Fb_core.Errors

type t = {
  bits : Bytes.t;
  m : int;  (* filter size in bits *)
  k : int;  (* hash functions *)
}

let bits_per_chunk = 10
let hashes = 7
let max_bits = 8 * 1024 * 1024 * 8  (* 8 MiB of filter, ~6.7M chunks *)

let create ~expected =
  let m =
    max 64 (min max_bits (bits_per_chunk * max 1 expected))
  in
  { bits = Bytes.make ((m + 7) / 8) '\000'; m; k = hashes }

let m t = t.m
let k t = t.k

(* Double hashing over the id's own SHA-256 bytes: h1 from bytes 0-7,
   h2 from bytes 8-15, index_i = h1 + i*h2 (mod m).  The id is already
   a uniform digest, so no further mixing is needed. *)
let word id off =
  let raw = Hash.to_raw id in
  let v = ref 0L in
  for i = 0 to 7 do
    v := Int64.logor (Int64.shift_left !v 8)
           (Int64.of_int (Char.code raw.[off + i]))
  done;
  Int64.to_int (Int64.logand !v Int64.max_int)

let indices t id =
  let h1 = word id 0 and h2 = word id 8 in
  List.init t.k (fun i ->
      let ix = (h1 + (i * h2)) mod t.m in
      if ix < 0 then ix + t.m else ix)

let add t id =
  List.iter
    (fun ix ->
      let b = ix / 8 and bit = ix mod 8 in
      Bytes.set t.bits b
        (Char.chr (Char.code (Bytes.get t.bits b) lor (1 lsl bit))))
    (indices t id)

let mem t id =
  List.for_all
    (fun ix ->
      let b = ix / 8 and bit = ix mod 8 in
      Char.code (Bytes.get t.bits b) land (1 lsl bit) <> 0)
    (indices t id)

let fill_ratio t =
  let set = ref 0 in
  Bytes.iter
    (fun c ->
      let c = Char.code c in
      for bit = 0 to 7 do
        if c land (1 lsl bit) <> 0 then incr set
      done)
    t.bits;
  float_of_int !set /. float_of_int t.m

(* Past half-full the false-positive rate climbs steeply (~(1/2)^k only
   holds near the design load); callers should fall back to exact
   waves rather than burn round trips confirming noise. *)
let saturated t = fill_ratio t > 0.5

(* Wire form: "m:k:" ++ raw bit bytes.  The prefix makes the geometry
   explicit so both ends agree without negotiating defaults. *)
let encode t =
  Printf.sprintf "%d:%d:%s" t.m t.k (Bytes.to_string t.bits)

let decode s =
  match String.index_opt s ':' with
  | None -> Error (Errors.Invalid "bloom: missing size prefix")
  | Some i -> (
    match String.index_from_opt s (i + 1) ':' with
    | None -> Error (Errors.Invalid "bloom: missing hash-count prefix")
    | Some j -> (
      match
        ( int_of_string_opt (String.sub s 0 i),
          int_of_string_opt (String.sub s (i + 1) (j - i - 1)) )
      with
      | Some m, Some k when m > 0 && m <= max_bits && k > 0 && k <= 32 ->
        let bits = String.sub s (j + 1) (String.length s - j - 1) in
        if String.length bits <> (m + 7) / 8 then
          Error
            (Errors.Invalid
               (Printf.sprintf "bloom: %d bits need %d bytes, got %d" m
                  ((m + 7) / 8) (String.length bits)))
        else Ok { bits = Bytes.of_string bits; m; k }
      | _ -> Error (Errors.Invalid "bloom: unparsable geometry prefix")))
