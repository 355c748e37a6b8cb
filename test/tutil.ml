(* Small shared helpers for the test suites. *)

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  if nn = 0 then true
  else begin
    let rec go i =
      if i + nn > nh then false
      else if String.sub haystack i nn = needle then true
      else go (i + 1)
    in
    go 0
  end

(* A BRANCHES/TAGS file as roots kept them before heads moved into the
   log: a varint key count, then per key its bytes, a varint branch count
   and per branch its name bytes and uid. *)
let old_table (keys : (string * (string * Fb_hash.Hash.t) list) list) =
  let module Codec = Fb_codec.Codec in
  let w = Codec.writer () in
  Codec.varint w (List.length keys);
  List.iter
    (fun (key, branches) ->
      Codec.bytes w key;
      Codec.varint w (List.length branches);
      List.iter
        (fun (name, uid) ->
          Codec.bytes w name;
          Codec.hash w uid)
        branches)
    keys;
  Codec.contents w

(* [f] on a copy of directory [src] as it stands on disk — what a crash of
   the instance holding [src] would leave — removed afterwards.  The
   holder keeps [src]: a root opens in one instance at a time. *)
let with_snapshot src f =
  let dst = Filename.temp_file "fb_snap" "" in
  Sys.remove dst;
  let sh fmt = Printf.ksprintf (fun c -> ignore (Sys.command c)) fmt in
  sh "cp -r %s %s" (Filename.quote src) (Filename.quote dst);
  Fun.protect ~finally:(fun () -> sh "rm -rf %s" (Filename.quote dst)) (fun () ->
      f dst)

(* [f] on the instance at [root], closed again afterwards (a root opens
   in one instance at a time); an open failure fails the test. *)
let with_fb ?fsync ~root f =
  match
    Fb_core.Persistent.with_instance ?fsync ~root (fun i ->
        Ok (f i.Fb_core.Persistent.fb))
  with
  | Ok v -> v
  | Error e -> Alcotest.fail (Fb_core.Errors.to_string e)
