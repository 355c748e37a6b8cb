module Chunk = Fb_chunk.Chunk
module Rolling = Fb_hash.Rolling

module Leaf = struct
  type seg = string

  let kind = Chunk.Leaf_blob
  let name = "Pblob"
  let noun = "blob"
  let unit = "bytes"
  let encode s = s
  let decode s = Ok s
  let length = String.length
  let sub = String.sub
  let concat = String.concat ""
  let equal_at a b i j = Char.equal a.[i] b.[j]

  let params = Rolling.default_blob_params
  let max_chunk_bytes = 16 * (1 lsl params.q)

  (* Byte-granularity content-defined chunker. *)
  type chunker = { rolling : Rolling.t; buf : Buffer.t; emit : string -> unit }

  let chunker emit =
    { rolling = Rolling.create params; buf = Buffer.create 8192; emit }

  let flush ch =
    ch.emit (Buffer.contents ch.buf);
    Buffer.clear ch.buf;
    Rolling.reset ch.rolling

  let feed_char ch c =
    let hit = Rolling.feed ch.rolling c in
    Buffer.add_char ch.buf c;
    if hit || Buffer.length ch.buf >= max_chunk_bytes then flush ch

  let feed ch s = String.iter (feed_char ch) s
  let pending ch = Buffer.length ch.buf > 0
  let finish ch = if pending ch then flush ch
end

include Seqtree.Make (Leaf)

type range_diff = Seqtree.range_diff =
  { old_pos : int; old_len : int; new_pos : int; new_len : int }

type proof = string list

let of_string = of_seg
let to_string = to_seg
let append t s = splice t ~pos:(length t) ~remove:0 ~insert:s

let prove t ~pos ~len =
  if pos < 0 || len < 0 || pos + len > length t then
    Error "prove: range out of bounds"
  else prove t ~pos ~len

let verify_proof ~root ~pos ~len proof =
  if pos < 0 || len < 0 then Error "proof: negative range"
  else
    match verify_proof ~root ~pos ~len proof with
    | Ok bytes when String.length bytes <> len ->
      Error "proof: range not fully covered"
    | r -> r
