module Codec = Fb_codec.Codec

module Entry = struct
  type t = string
  type key = string

  let key x = x
  let compare_key = String.compare
  let key_size = String.length
  let equal = String.equal
  let encode = Codec.bytes
  let decode = Codec.read_bytes
  let encode_key = Codec.bytes
  let decode_key = Codec.read_bytes
  let leaf_kind = Fb_chunk.Chunk.Leaf_set
  let pp fmt s = Format.fprintf fmt "%S" s
  let pp_key = pp
end

include Postree.Make (Entry)

let elements = to_list
let of_elements = build
let add = insert
