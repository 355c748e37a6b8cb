(* Reference CRC-32: the table-driven OCaml byte loop that the C
   slice-by-8 kernel behind [Fb_hash.Crc32] replaced.  Kept only as the
   test oracle — the native kernel must agree with it on every input, and
   the on-disk compatibility tests seal logs and checkpoints with it. *)

(* Standard reflected table for polynomial 0xEDB88320. *)
let table =
  lazy
    (Array.init 256 (fun n ->
         let c = ref n in
         for _ = 0 to 7 do
           c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
         done;
         !c))

let empty = 0

let mask = 0xFFFFFFFF

let update_bytes_sub crc buf ~pos ~len =
  if pos < 0 || len < 0 || pos + len > Bytes.length buf then
    invalid_arg "Crc32_ref.update_bytes_sub";
  let table = Lazy.force table in
  (* Keep the pre/post inversion out of the loop: work on the raw state. *)
  let c = ref (crc lxor mask) in
  for i = pos to pos + len - 1 do
    c :=
      Array.unsafe_get table ((!c lxor Char.code (Bytes.unsafe_get buf i)) land 0xff)
      lxor (!c lsr 8)
  done;
  !c lxor mask

let update_sub crc s ~pos ~len =
  update_bytes_sub crc (Bytes.unsafe_of_string s) ~pos ~len

let string s = update_sub empty s ~pos:0 ~len:(String.length s)
