module Codec = Fb_codec.Codec
module Chunk = Fb_chunk.Chunk
module Rolling = Fb_hash.Rolling

module Leaf = struct
  type seg = string array

  let kind = Chunk.Leaf_list
  let name = "Plist"
  let noun = "list"
  let unit = "items"

  let encode items =
    let w = Codec.writer () in
    Codec.varint w (Array.length items);
    Array.iter (Codec.bytes w) items;
    Codec.contents w

  let decode payload =
    match Codec.of_string (fun r -> Codec.read_list r Codec.read_bytes) payload with
    | Ok items -> Ok (Array.of_list items)
    | Error e -> Error ("list leaf: " ^ e)

  let length = Array.length
  let sub = Array.sub
  let concat = Array.concat
  let equal_at a b i j = String.equal a.(i) b.(j)

  (* Item-granularity: a boundary never splits an element. *)
  type chunker = string Chunker.t

  let params = Rolling.default_node_params

  let chunker emit =
    Chunker.create ~params ~max_bytes:(16 * (1 lsl params.q))
      ~emit:(fun items -> emit (Array.of_list items))
      ()

  let feed ch items =
    Array.iter (fun it -> Chunker.add ch it (Codec.to_string Codec.bytes it)) items

  let pending = Chunker.pending
  let finish = Chunker.finish
end

include Seqtree.Make (Leaf)

type range_diff = Seqtree.range_diff =
  { old_pos : int; old_len : int; new_pos : int; new_len : int }

type proof = string list

let of_list store items = of_seg store (Array.of_list items)
let to_list t = Array.to_list (to_seg t)
let iter f t = iter_leaves t (Array.iter f)

let fold f acc t =
  let acc = ref acc in
  iter (fun x -> acc := f !acc x) t;
  !acc

let get t n =
  if n < 0 || n >= length t then None else Some (read t ~pos:n ~len:1).(0)

let splice t ~pos ~remove ~insert =
  splice t ~pos ~remove ~insert:(Array.of_list insert)

let set t n x =
  if n < 0 || n >= length t then invalid_arg "Plist.set: out of bounds";
  splice t ~pos:n ~remove:1 ~insert:[ x ]

let push_back t x = splice t ~pos:(length t) ~remove:0 ~insert:[ x ]

let prove t n =
  if n < 0 then Error "prove: negative index" else prove t ~pos:n ~len:1

let verify_proof ~root n proof =
  if n < 0 then Ok None
  else
    Result.map
      (fun items -> if items = [||] then None else Some items.(0))
      (verify_proof ~root ~pos:n ~len:1 proof)
