type t = int

(* The kernel is the slice-by-8 loop in [crc32_stubs.c]; its tables are
   filled here, once, before anything can call [unsafe_update]. *)
external init_tables : unit -> unit = "fb_crc32_init" [@@noalloc]

let () = init_tables ()

(* [unsafe_update crc b pos len] folds [b.[pos .. pos+len-1]] into [crc];
   no bounds check. *)
external unsafe_update : t -> Bytes.t -> int -> int -> t = "fb_crc32_update"
  [@@noalloc]

let empty = 0

let update_bytes_sub crc buf ~pos ~len =
  (* [pos > length - len], not [pos + len > length]: no overflow. *)
  if pos < 0 || len < 0 || pos > Bytes.length buf - len then
    invalid_arg "Crc32.update_bytes_sub";
  unsafe_update crc buf pos len

let update_sub crc s ~pos ~len =
  update_bytes_sub crc (Bytes.unsafe_of_string s) ~pos ~len

let string s = update_sub empty s ~pos:0 ~len:(String.length s)
