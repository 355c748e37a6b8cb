module Codec = Fb_codec.Codec

type binding = { key : string; value : string }

let binding key value = { key; value }

module Entry = struct
  type t = binding
  type key = string

  let key b = b.key
  let compare_key = String.compare
  let key_size = String.length
  let equal a b = String.equal a.key b.key && String.equal a.value b.value

  let encode w b =
    Codec.bytes w b.key;
    Codec.bytes w b.value

  let decode r =
    let key = Codec.read_bytes r in
    let value = Codec.read_bytes r in
    { key; value }

  let encode_key = Codec.bytes
  let decode_key = Codec.read_bytes
  let leaf_kind = Fb_chunk.Chunk.Leaf_map
  let pp fmt b = Format.fprintf fmt "%S -> %S" b.key b.value
  let pp_key fmt k = Format.fprintf fmt "%S" k
end

include Postree.Make (Entry)

let find_value t k = Option.map (fun (b : binding) -> b.value) (find t k)

let bindings t =
  List.map (fun (b : binding) -> (b.key, b.value)) (to_list t)

let of_bindings store bs =
  build store (List.map (fun (key, value) -> { key; value }) bs)

let put t key value = insert t { key; value }
