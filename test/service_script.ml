(* A fixed request script over every service verb, run through a
   [dispatch] function.  Steps reuse earlier replies (uids, chunk bytes),
   so the script is the same whatever produces the replies: in-process
   [Service.dispatch], or a server over TCP.  Arguments carry binary
   bytes, '=', newlines, quotes and empty strings; errors of every kind
   except wrong arity are exercised too.

   The result is one line per step, ["<tokens> -> OK <payload>"] or
   ["<tokens> -> ERR <kind> <message>"], every string escaped with %S.
   Replies that depend on process-wide state (the metrics registry) are
   [volatile]: only their status is kept. *)

module Errors = Fb_core.Errors

let kind = function
  | Errors.Key_not_found _ -> "key_not_found"
  | Errors.Branch_not_found _ -> "branch_not_found"
  | Errors.Version_not_found _ -> "version_not_found"
  | Errors.Permission_denied _ -> "permission_denied"
  | Errors.Merge_conflict _ -> "merge_conflict"
  | Errors.Type_mismatch _ -> "type_mismatch"
  | Errors.Corrupt _ -> "corrupt"
  | Errors.Transient _ -> "transient"
  | Errors.Invalid _ -> "invalid"

let render ?(volatile = false) tokens reply =
  Printf.sprintf "%s -> %s"
    (String.concat " " (List.map (Printf.sprintf "%S") tokens))
    (match reply with
     | Ok _ when volatile -> "OK <volatile>"
     | Ok p -> Printf.sprintf "OK %S" p
     | Error e -> Printf.sprintf "ERR %s %S" (kind e) (Errors.to_string e))

(* Hex of a base32 uid, through the service itself. *)
let hex_of_uid uid =
  match Fb_hash.Hash.of_base32 uid with
  | Ok h -> Fb_hash.Hash.to_hex h
  | Error _ -> uid

let zero_hex = String.make 64 '0'

let run (dispatch : string list -> (string, Errors.t) result) =
  let out = ref [] in
  let step ?volatile tokens =
    let r = dispatch tokens in
    out := render ?volatile tokens r :: !out;
    match r with Ok p -> p | Error _ -> ""
  in
  let s = step in
  let binary = "line1\nline2 = \"q\" \000\255 tail" in
  let u0 = s [ "put"; "k1"; "master"; binary ] in
  ignore (s [ "put"; "k1"; "master"; "second" ]);
  ignore (s [ "put-csv"; "t1"; "master"; "id,v\n1,x\n2,y\n" ]);
  ignore (s [ "PUT"; "K2"; "master"; "" ]);
  ignore (s [ "put"; "k=1"; "b\"r"; "v\nw" ]);
  ignore (s [ "get"; "k1"; "master" ]);
  ignore (s [ "GET"; "K2"; "master" ]);
  ignore (s [ "get"; "nokey"; "master" ]);
  ignore (s [ "get"; "k1"; "nobranch" ]);
  let u1 = s [ "head"; "k1"; "master" ] in
  ignore (s [ "head"; "k=1"; "b\"r" ]);
  ignore (s [ "get-at"; u0 ]);
  ignore (s [ "get-at"; hex_of_uid u1 ]);
  ignore (s [ "get-at"; "notauid" ]);
  ignore (s [ "get-at"; zero_hex ]);
  ignore (s [ "latest"; "k1" ]);
  ignore (s [ "list" ]);
  ignore (s [ "log"; "k1"; "master" ]);
  ignore (s [ "branch"; "k1"; "master"; "dev" ]);
  ignore (s [ "branch"; "k1"; "nobranch"; "dev3" ]);
  ignore (s [ "put"; "k1"; "dev"; "dev-side" ]);
  ignore (s [ "rename"; "k1"; "dev"; "dev2" ]);
  ignore (s [ "rename"; "k1"; "dev"; "dev4" ]);
  ignore (s [ "tag"; "k1"; "v1"; u0 ]);
  ignore (s [ "tag"; "k1"; "v1"; u1 ]);
  ignore (s [ "tag"; "k1"; "v2"; "zzz" ]);
  ignore (s [ "latest"; "k1" ]);
  ignore (s [ "meta"; u1 ]);
  ignore (s [ "meta"; "zzz" ]);
  ignore (s [ "diff"; "k1"; "master"; "dev2" ]);
  ignore (s [ "branch"; "t1"; "master"; "side" ]);
  ignore (s [ "put-csv"; "t1"; "side"; "id,v\n1,x\n2,z\n3,w\n" ]);
  ignore (s [ "diff"; "t1"; "master"; "side" ]);
  ignore (s [ "diff-json"; "t1"; "master"; "side" ]);
  ignore (s [ "merge"; "t1"; "master"; "side" ]);
  ignore (s [ "merge"; "k1"; "master"; "dev2" ]);
  ignore (s [ "verify"; "k1"; "master" ]);
  ignore (s [ "verify"; "t1"; "master" ]);
  ignore (s [ "prove"; "t1"; "master"; "1" ]);
  ignore (s [ "prove"; "t1"; "master"; "nope" ]);
  ignore (s [ "prove"; "k1"; "master"; "1" ]);
  ignore (s [ "stat" ]);
  ignore (s [ "fsck" ]);
  ignore (s [ "scrub" ]);
  ignore (s [ "get-json"; "t1"; "master" ]);
  ignore (s [ "get-json"; "k1"; "master" ]);
  ignore (s [ "log-json"; "k1"; "master" ]);
  ignore (s [ "stat-json" ]);
  ignore (s [ "latest-json"; "k1" ]);
  ignore (s ~volatile:true [ "metrics" ]);
  ignore (s ~volatile:true [ "metrics-json" ]);
  let h1 = hex_of_uid u1 in
  ignore (s [ "sync-have"; h1; zero_hex; hex_of_uid u0 ]);
  ignore (s [ "sync-have"; h1; "nothex" ]);
  let bytes = s [ "sync-get"; h1 ] in
  ignore (s [ "sync-get"; zero_hex ]);
  ignore (s [ "sync-get"; "nothex" ]);
  ignore (s [ "sync-bloom" ]);
  ignore (s [ "sync-put"; "k3"; "master"; h1; bytes ]);
  ignore (s [ "sync-put"; "k3"; "master"; h1; "garbage" ]);
  ignore (s [ "sync-put"; "k3"; "master"; "nothex"; bytes ]);
  ignore (s [ "sync-advance"; "k3"; "master"; h1 ]);
  ignore (s [ "sync-advance"; "k1"; "master"; h1 ]);
  ignore (s [ "sync-advance"; "k1"; "master"; "zzz" ]);
  ignore (s [ "chunk-put"; h1; bytes ]);
  ignore (s [ "chunk-put"; h1; "garbage" ]);
  ignore (s [ "chunk-put"; "nothex"; bytes ]);
  ignore (s [ "chunk-stat" ]);
  ignore (s [ "Chunk-Stat" ]);
  ignore (s [ "frobnicate"; "a"; "b" ]);
  ignore (s []);
  ignore (s [ "stat" ]);
  List.rev !out
