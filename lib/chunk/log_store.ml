module Hash = Fb_hash.Hash
module Crc32 = Fb_hash.Crc32
module Obs = Fb_obs.Obs

(* On-disk layout (see the .mli for the contract):
     <root>/gen-<N>.log   header, then CRC-sealed records
     <root>/gen-<N>.idx   base checkpoint of the (id -> off, len) index
     <root>/gen-<N>.delta index deltas since the base, appended
     <root>/CURRENT       ASCII generation number, swapped atomically

   Log header:  magic (8) | generation (8, BE)
   Record:      kind (1) | length (4, BE) | id (32) | payload | crc32 (4, BE)
                kind 0 = append, 1 = delete tombstone (length 0), 2 = ref
                move (payload: see [encode_ref_payload]);
                the CRC covers kind..payload.
   Checkpoint:  magic (8) | generation (8) | covered (8) | count (8)
                | count * (id 32, off 8, len 8) | [ref_records] | crc32 (4)
                [covered] is the log prefix the entries describe; replay
                resumes there.
   Delta:       magic (8) | covered (8) | size (8) | count (8) | dead (8)
                | prev seal (4) | count * (id 32, off 8, len 8)
                | dead * id 32 | [ref_records] | crc32 (4)
                [size] counts the whole delta; [prev seal] is the CRC of
                the base or delta before it, so deltas chain to one base. *)

let log_magic = "FBLOG01\n"
let idx_magic = "FBLOGIX\n"
let delta_magic = "FBLOGDX\n"
let header_size = 16
let rec_head_size = 1 + 4 + 32 (* kind, length, id *)
let rec_overhead = rec_head_size + 4 (* + crc *)
let max_payload = 1 lsl 30

type config = {
  fsync : bool;
  group_chunks : int;
  group_window_s : float;
  checkpoint_bytes : int;
  compactor : bool;
  tick_s : float;
  auto_compact : float;
  compact_min_bytes : int;
}

let default_config =
  { fsync = true;
    group_chunks = 64;
    group_window_s = 0.01;
    checkpoint_bytes = 1 lsl 20;
    compactor = false;
    tick_s = 0.05;
    auto_compact = 0.5;
    compact_min_bytes = 1 lsl 16 }

type counters = {
  mutable appends : int;
  mutable deletes : int;
  mutable flushes : int;
  mutable checkpoints : int;
  mutable deltas : int;
  mutable checkpoint_bytes : int;
  mutable compactions : int;
  mutable auto_compactions : int;
  mutable loaded_deltas : int;
  mutable replayed_records : int;
  mutable truncated_bytes : int;
  mutable background_errors : int;
}

type entry = { off : int; len : int } (* payload position in the log file *)

type ref_table = Branches | Tags

(* Current heads: (table, key, branch) -> uid. *)
type refs = (ref_table * string * string, Hash.t) Hashtbl.t

type compact_stage = After_data | Before_switch | After_switch

type t = {
  root : string;
  config : config;
  holder : string * Unix.file_descr; (* this instance's hold on [root] *)
  lock : Mutex.t;
  mutable gen : int;
  mutable wfd : Unix.file_descr;
  mutable rfd : Unix.file_descr;
  mutable file_len : int;
  mutable synced_len : int;
  mutable ckpt_len : int; (* file_len as of the last checkpoint *)
  mutable base_size : int; (* bytes of the base checkpoint, 0 if none *)
  mutable delta_size : int; (* bytes of the deltas chained to it *)
  mutable seal : int; (* CRC of the last base or delta: the next link *)
  dirty : unit Hash.Tbl.t; (* ids appended or tombstoned since then *)
  dirty_refs : (ref_table * string * string, unit) Hashtbl.t; (* heads moved *)
  mutable pending : int; (* records appended since the last sync *)
  mutable pending_since : float;
  index : entry Hash.Tbl.t;
  refs : refs;
  mutable committing : bool; (* a waiter is in fsync outside [lock] *)
  committed : Condition.t; (* broadcast when it returns *)
  rec_buf : Bytes.t; (* record staging buffer, used under [lock] *)
  nowait : bool ref; (* [read_at]'s fast read works here *)
  mutable live_payload : int; (* sum of live entry lengths *)
  mutable closed : bool;
  mutable thread : Thread.t option;
  c : counters;
  (* Store.t session stats *)
  mutable puts : int;
  mutable gets : int;
  mutable dedup_hits : int;
  mutable logical_bytes : int;
}

(* ------------------------- small file helpers ------------------------- *)

let mkdir_p dir =
  let rec go d =
    if d <> "/" && d <> "." && not (Sys.file_exists d) then begin
      go (Filename.dirname d);
      (try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ())
    end
  in
  go dir

let fsync_dir dir =
  match Unix.openfile dir [ Unix.O_RDONLY ] 0 with
  | fd ->
    Fun.protect
      ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
      (fun () -> try Unix.fsync fd with Unix.Unix_error _ -> ())
  | exception Unix.Unix_error _ -> ()

let write_file_atomic ~fsync path data =
  let tmp = path ^ ".tmp" in
  let oc = open_out_bin tmp in
  (try
     output_string oc data;
     if fsync then begin
       flush oc;
       Unix.fsync (Unix.descr_of_out_channel oc)
     end;
     close_out oc
   with e ->
     close_out_noerr oc;
     (try Sys.remove tmp with Sys_error _ -> ());
     raise e);
  Sys.rename tmp path;
  if fsync then fsync_dir (Filename.dirname path)

let read_file_opt path =
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | data -> Some data
  | exception (Sys_error _ | End_of_file) -> None

let write_all fd bytes len =
  let n = ref 0 in
  while !n < len do
    n := !n + Unix.write fd bytes !n (len - !n)
  done

let u32be s pos =
  Int32.to_int (String.get_int32_be s pos) land 0xFFFFFFFF

let u64be s pos = Int64.to_int (String.get_int64_be s pos)

(* ------------------------- paths ------------------------- *)

let log_file root gen = Filename.concat root (Printf.sprintf "gen-%d.log" gen)
let idx_file root gen = Filename.concat root (Printf.sprintf "gen-%d.idx" gen)
let delta_file root gen = Filename.concat root (Printf.sprintf "gen-%d.delta" gen)
let current_file root = Filename.concat root "CURRENT"

let gen_of_filename name =
  if String.length name > 8 && String.sub name 0 4 = "gen-" then
    let stem = Filename.remove_extension name in
    let ext = Filename.extension name in
    if ext = ".log" || ext = ".idx" || ext = ".delta" then
      int_of_string_opt (String.sub stem 4 (String.length stem - 4))
    else None
  else None

(* ------------------------- record encoding ------------------------- *)

(* Records up to this size are laid out in the store's reusable buffer; a
   larger one gets a buffer of its own, so one big chunk pins no memory. *)
let rec_buf_size = 1 lsl 16

let record_size payload = rec_overhead + String.length payload

(* Lays the record out at the start of [buf] if it fits, else in a fresh
   buffer, and returns the buffer holding it ([record_size payload]
   bytes). *)
let encode_record buf ~kind ~id ~payload =
  let len = String.length payload in
  let b =
    if record_size payload <= Bytes.length buf then buf
    else Bytes.create (record_size payload)
  in
  Bytes.set b 0 (Char.chr kind);
  Bytes.set_int32_be b 1 (Int32.of_int len);
  Bytes.blit_string (Hash.to_raw id) 0 b 5 32;
  Bytes.blit_string payload 0 b rec_head_size len;
  let crc = Crc32.update_bytes_sub Crc32.empty b ~pos:0 ~len:(rec_head_size + len) in
  Bytes.set_int32_be b (rec_head_size + len) (Int32.of_int crc);
  b

(* A ref move's record id is the new uid, its payload
   [table (1) | old uid (32) | key length (4, BE) | key | branch]; the
   all-zero uid stands for "absent". *)
let no_uid = String.make 32 '\000'
let ref_head_size = 1 + 32 + 4
let raw_uid = function Some u -> Hash.to_raw u | None -> no_uid
let uid_of_raw s = if String.equal s no_uid then None else Some (Hash.of_raw_exn s)

let encode_ref_payload table ~key ~old ~branch =
  let klen = String.length key in
  let b = Bytes.create (ref_head_size + klen + String.length branch) in
  Bytes.set b 0 (match table with Branches -> '\000' | Tags -> '\001');
  Bytes.blit_string (raw_uid old) 0 b 1 32;
  Bytes.set_int32_be b 33 (Int32.of_int klen);
  Bytes.blit_string key 0 b ref_head_size klen;
  Bytes.blit_string branch 0 b (ref_head_size + klen) (String.length branch);
  Bytes.unsafe_to_string b

(* [Some ((table, key, branch), old, next)], or [None] for a payload
   that is not a well-formed ref move. *)
let decode_ref ~id payload =
  let n = String.length payload in
  if n < ref_head_size then None
  else
    let klen = u32be payload 33 in
    match payload.[0] with
    | ('\000' | '\001') as c when klen <= n - ref_head_size ->
      let table = if c = '\000' then Branches else Tags in
      let branch = String.sub payload (ref_head_size + klen) (n - ref_head_size - klen) in
      Some
        ( (table, String.sub payload ref_head_size klen, branch),
          uid_of_raw (String.sub payload 1 32),
          uid_of_raw (Hash.to_raw id) )
    | _ -> None

let header_bytes gen =
  let b = Bytes.create header_size in
  Bytes.blit_string log_magic 0 b 0 8;
  Bytes.set_int64_be b 8 (Int64.of_int gen);
  b

(* ------------------------- the read path ------------------------- *)

external pread_nowait : Unix.file_descr -> Bytes.t -> int -> int -> int -> int
  = "fb_log_pread_nowait"
[@@noalloc]

let reads = Obs.counter "fb.log.reads"
let read_fallbacks = Obs.counter "fb.log.read_fallbacks"

(* The one read of a byte range, into [buf] from [pos]: first one [fast]
   read (one syscall that keeps the runtime lock, so a page-cache hit
   never waits for another thread to hand the lock back), then, for
   whatever it left, [lseek] and [read], which release the lock while the
   disk works.  [fast]'s count is only a head start: the blocking reads
   alone decide the end of the file.  A [-2] from [fast] (no such read
   here) clears [nowait] for good.  Answers the bytes read: [len], or
   fewer where the file ends or a read fails. *)
let read_into ?(fast = pread_nowait) ~nowait fd buf ~pos ~off ~len =
  Obs.incr reads;
  let got =
    if len = 0 || not !nowait then 0
    else
      match fast fd buf pos len off with
      | n when n > 0 -> min n len
      | -2 ->
        nowait := false;
        0
      | _ -> 0
  in
  if got = len then len
  else begin
    Obs.incr read_fallbacks;
    let n = ref got and eof = ref false in
    (try
       ignore (Unix.lseek fd (off + got) Unix.SEEK_SET);
       while (not !eof) && !n < len do
         let r = Unix.read fd buf (pos + !n) (len - !n) in
         if r = 0 then eof := true else n := !n + r
       done
     with Unix.Unix_error _ -> ());
    !n
  end

let read_at ?fast ~nowait fd ~off ~len =
  let b = Bytes.create len in
  if read_into ?fast ~nowait fd b ~pos:0 ~off ~len = len then
    Some (Bytes.unsafe_to_string b)
  else None

(* Replay and fsck read a log front to back through [read_into] too,
   into one buffer of [window_bytes] (or one record, if larger) that each
   refill overwrites. *)
let window_bytes = 1 lsl 16

type window = {
  w_fd : Unix.file_descr;
  w_size : int;
  w_nowait : bool ref;
  mutable w_buf : Bytes.t;
  mutable w_start : int; (* file offset of [w_buf]'s first byte *)
  mutable w_len : int; (* bytes of [w_buf] that hold the file *)
}

let with_window path ~size f =
  let fd = Unix.openfile path [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      f { w_fd = fd; w_size = size; w_nowait = ref true;
          w_buf = Bytes.create window_bytes; w_start = 0; w_len = 0 })

(* Brings [len] bytes at file offset [pos] into the window and answers
   where they start in [w_buf], or [None] past the end of the file.  The
   bytes stay there until the next fill. *)
let window_fill w ~pos ~len =
  if pos < w.w_start || pos + len > w.w_start + w.w_len then begin
    let want = max len (min window_bytes (w.w_size - pos)) in
    if want > Bytes.length w.w_buf then w.w_buf <- Bytes.create want;
    w.w_start <- pos;
    w.w_len <- read_into ~nowait:w.w_nowait w.w_fd w.w_buf ~pos:0 ~off:pos ~len:want
  end;
  if pos + len <= w.w_start + w.w_len then Some (pos - w.w_start) else None

(* ------------------------- replay ------------------------- *)

(* The sealed record starting at [pos] of [w], if one does: its kind,
   id and payload, read whole and checked against its CRC (and, for a
   ref move, its payload's shape).  The head and the CRC are read in
   the window; only the payload is copied out. *)
let sealed_at w ~pos ~size =
  if pos + rec_overhead > size then None
  else
    match window_fill w ~pos ~len:rec_head_size with
    | None -> None
    | Some o ->
      let kind = Char.code (Bytes.get w.w_buf o) in
      let len = u32be (Bytes.unsafe_to_string w.w_buf) (o + 1) in
      if
        kind > 2 || len > max_payload
        || (kind = 1 && len <> 0)
        || pos + rec_overhead + len > size
      then None
      else
        match window_fill w ~pos ~len:(rec_overhead + len) with
        | None -> None
        | Some o ->
          (* A view of the window, read before the next fill. *)
          let data = Bytes.unsafe_to_string w.w_buf in
          let crc = Crc32.update_sub Crc32.empty data ~pos:o ~len:(rec_head_size + len) in
          if crc <> u32be data (o + rec_head_size + len) then None
          else
            let payload = String.sub data (o + rec_head_size) len in
            let id = Hash.of_raw_exn (String.sub data (o + 5) 32) in
            if kind = 2 && decode_ref ~id payload = None then None
            else Some (kind, id, payload)

(* Scan sealed records from [start]; [apply] sees each one in log order.
   Returns the offset one past the last sealed record, where the scan
   stopped, and the records seen.  [verify_hash] additionally re-hashes
   append payloads (fsck); replay proper trusts the CRC seal. *)
let scan_records path ~start ~size ?(verify_hash = fun _ _ -> ()) apply =
  with_window path ~size (fun w ->
      let rec go pos records =
        match sealed_at w ~pos ~size with
        | None -> (pos, records)
        | Some (kind, id, payload) ->
          let len = String.length payload in
          if kind = 0 then verify_hash id payload;
          apply ~kind ~id ~off:(pos + rec_head_size) ~len ~payload;
          go (pos + rec_overhead + len) (records + 1)
      in
      go start 0)

(* Where a scan stopped short of the end of the file, the bytes from
   [stop] are a torn tail only if no sealed record starts anywhere after
   it: a crash tears the end of the log, never its middle.  Anything else
   is damage, reported as [Some stop].  The byte-by-byte search runs
   only on this failure path. *)
let damage_at path ~stop ~size =
  if stop >= size then None
  else
    with_window path ~size (fun w ->
        let rec search pos =
          if pos + rec_overhead > size then None
          else if sealed_at w ~pos ~size <> None then Some stop
          else search (pos + 1)
        in
        search (stop + 1))

let damage_message path off =
  Printf.sprintf
    "log: damaged record at offset %d of %s: sealed records follow it, so it \
     is not a torn tail; refusing to truncate"
    off path

let apply_ref refs (name, _, next) =
  match next with
  | Some u -> Hashtbl.replace refs name u
  | None -> Hashtbl.remove refs name

(* One sealed record's effect on an index and a ref table. *)
let replay_record index refs ~kind ~id ~off ~len ~payload =
  match kind with
  | 0 -> Hash.Tbl.replace index id { off; len }
  | 1 -> Hash.Tbl.remove index id
  | _ -> Option.iter (apply_ref refs) (decode_ref ~id payload)

(* Bytes the current heads take as records: live, not garbage. *)
let ref_bytes refs =
  Hashtbl.fold
    (fun (_, key, branch) _ acc ->
      acc + rec_overhead + ref_head_size + String.length key + String.length branch)
    refs 0

(* ------------------------- checkpoint index ------------------------- *)

let idx_head_size = 32 (* magic, generation, covered, count *)
let idx_entry_size = 48 (* id 32, off 8, len 8 *)
let delta_head_size = 44 (* magic, covered, size, count, dead, prev seal *)

let checkpoint_size count = idx_head_size + (count * idx_entry_size) + 4

(* A head as a sealed ref record, "absent before": [None] (a removed
   head) is the all-zero uid. *)
let ref_record (table, key, branch) uid =
  let payload = encode_ref_payload table ~key ~old:None ~branch in
  let id = match uid with Some u -> u | None -> Hash.of_raw_exn no_uid in
  Bytes.unsafe_to_string (encode_record Bytes.empty ~kind:2 ~id ~payload)

(* The current heads as ref records: what a compaction appends after the
   live chunks and a base checkpoint carries after its index. *)
let ref_records refs =
  Hashtbl.fold (fun name uid acc -> ref_record name (Some uid) :: acc) refs []

let total_length = List.fold_left (fun acc r -> acc + String.length r) 0

let set_entry b pos id e =
  Bytes.blit_string (Hash.to_raw id) 0 b pos 32;
  Bytes.set_int64_be b (pos + 32) (Int64.of_int e.off);
  Bytes.set_int64_be b (pos + 40) (Int64.of_int e.len)

let blit_all b pos records =
  List.fold_left
    (fun pos r ->
      Bytes.blit_string r 0 b pos (String.length r);
      pos + String.length r)
    pos records

(* Seal [b] in place: the CRC of everything before its last four bytes
   goes there, and is returned. *)
let seal_bytes b =
  let n = Bytes.length b in
  let crc = Crc32.update_bytes_sub Crc32.empty b ~pos:0 ~len:(n - 4) in
  Bytes.set_int32_be b (n - 4) (Int32.of_int crc);
  crc

(* One exactly sized buffer, sealed in place: no per-entry allocation and
   no copy of the body to append the CRC.  Returns the bytes written and
   the seal. *)
let write_checkpoint_file ~fsync path ~gen ~covered index refs =
  let count = Hash.Tbl.length index in
  let heads = ref_records refs in
  let n = checkpoint_size count + total_length heads in
  let b = Bytes.create n in
  Bytes.blit_string idx_magic 0 b 0 8;
  Bytes.set_int64_be b 8 (Int64.of_int gen);
  Bytes.set_int64_be b 16 (Int64.of_int covered);
  Bytes.set_int64_be b 24 (Int64.of_int count);
  let pos = ref idx_head_size in
  Hash.Tbl.iter
    (fun id e ->
      set_entry b !pos id e;
      pos := !pos + idx_entry_size)
    index;
  ignore (blit_all b !pos heads);
  let crc = seal_bytes b in
  write_file_atomic ~fsync path (Bytes.unsafe_to_string b);
  (n, crc)

(* A delta: the entries of the [dirty] ids still in [index], the
   tombstones of those gone from it, and each moved head's current value
   — what changed since the checkpoint whose seal is [prev]. *)
let encode_delta ~covered ~prev index dirty refs dirty_refs =
  let count = Hash.Tbl.fold (fun id () n -> if Hash.Tbl.mem index id then n + 1 else n) dirty 0 in
  let dead = Hash.Tbl.length dirty - count in
  let heads =
    Hashtbl.fold (fun name () acc -> ref_record name (Hashtbl.find_opt refs name) :: acc)
      dirty_refs []
  in
  let n =
    delta_head_size + (count * idx_entry_size) + (dead * 32) + total_length heads + 4
  in
  let b = Bytes.create n in
  Bytes.blit_string delta_magic 0 b 0 8;
  Bytes.set_int64_be b 8 (Int64.of_int covered);
  Bytes.set_int64_be b 16 (Int64.of_int n);
  Bytes.set_int64_be b 24 (Int64.of_int count);
  Bytes.set_int64_be b 32 (Int64.of_int dead);
  Bytes.set_int32_be b 40 (Int32.of_int prev);
  let live = ref delta_head_size in
  let gone = ref (delta_head_size + (count * idx_entry_size)) in
  Hash.Tbl.iter
    (fun id () ->
      match Hash.Tbl.find_opt index id with
      | Some e ->
        set_entry b !live id e;
        live := !live + idx_entry_size
      | None ->
        Bytes.blit_string (Hash.to_raw id) 0 b !gone 32;
        gone := !gone + 32)
    dirty;
  ignore (blit_all b !gone heads);
  let crc = seal_bytes b in
  (b, crc)

(* The ref moves laid end to end in [raw] from [pos] to [stop] (a
   checkpoint's heads), each a sealed, well-formed ref record; [None] if
   anything else is there. *)
let moves_in raw ~pos ~stop =
  let rec go pos acc =
    if pos = stop then Some (List.rev acc)
    else if pos + rec_overhead > stop || raw.[pos] <> '\002' then None
    else
      let len = u32be raw (pos + 1) in
      if len > stop - pos - rec_overhead then None
      else
        let next = pos + rec_overhead + len in
        if
          Crc32.update_sub Crc32.empty raw ~pos ~len:(rec_head_size + len)
          <> u32be raw (next - 4)
        then None
        else
          let id = Hash.of_raw_exn (String.sub raw (pos + 5) 32) in
          match decode_ref ~id (String.sub raw (pos + rec_head_size) len) with
          | None -> None
          | Some move -> go next (move :: acc)
  in
  go pos []

(* The [count] index entries from [pos] of [raw] all lie inside the log
   prefix [covered]. *)
let entries_ok raw ~pos ~count ~covered =
  let rec go i =
    i = count
    ||
    let base = pos + (i * idx_entry_size) in
    let off = u64be raw (base + 32) and len = u64be raw (base + 40) in
    off >= header_size && len >= 0 && off <= covered - len && go (i + 1)
  in
  go 0

let add_entries index raw ~pos ~count =
  for i = 0 to count - 1 do
    let base = pos + (i * idx_entry_size) in
    Hash.Tbl.replace index
      (Hash.of_raw_exn (String.sub raw base 32))
      { off = u64be raw (base + 32); len = u64be raw (base + 40) }
  done

(* When the base checkpoint verifies and describes a prefix of the
   current log file, loads its entries and heads into [index] and [refs]
   and returns [Some (covered, size, seal)]; anything suspicious makes
   recovery fall back to a full replay, with nothing loaded. *)
let load_checkpoint path ~gen ~file_size index refs =
  match read_file_opt path with
  | None -> None
  | Some raw ->
    let n = String.length raw in
    if n < idx_head_size + 4 then None
    else if not (String.equal (String.sub raw 0 8) idx_magic) then None
    else
      let crc = Crc32.update_sub Crc32.empty raw ~pos:0 ~len:(n - 4) in
      let covered = u64be raw 16 and count = u64be raw 24 in
      if
        crc <> u32be raw (n - 4)
        || u64be raw 8 <> gen || count < 0
        || count > (n - idx_head_size - 4) / idx_entry_size
        || covered < header_size || covered > file_size
      then None
      else
        match moves_in raw ~pos:(checkpoint_size count - 4) ~stop:(n - 4) with
        | Some moves when entries_ok raw ~pos:idx_head_size ~count ~covered ->
          add_entries index raw ~pos:idx_head_size ~count;
          List.iter (apply_ref refs) moves;
          Some (covered, n, crc)
        | _ -> None

(* The delta at [pos] of [raw], if it is whole, sealed, chained to [seal]
   and covers a prefix of the log between [covered] and [file_size]:
   its size, seal and covered offset, its entry and tombstone counts and
   its head moves. *)
let delta_at raw ~pos ~seal ~covered ~file_size =
  let n = String.length raw - pos in
  if n < delta_head_size + 4 || not (String.equal (String.sub raw pos 8) delta_magic)
  then None
  else
    let size = u64be raw (pos + 16) in
    let count = u64be raw (pos + 24) and dead = u64be raw (pos + 32) in
    let body = size - delta_head_size - 4 in
    if
      size < delta_head_size + 4 || size > n
      || Crc32.update_sub Crc32.empty raw ~pos ~len:(size - 4) <> u32be raw (pos + size - 4)
      || u32be raw (pos + 40) <> seal
      || count < 0 || dead < 0
      || count > body / idx_entry_size
      || dead > (body - (count * idx_entry_size)) / 32
    then None
    else
      let covered' = u64be raw (pos + 8) in
      let gone = pos + delta_head_size + (count * idx_entry_size) in
      if
        covered' < covered || covered' > file_size
        || not (entries_ok raw ~pos:(pos + delta_head_size) ~count ~covered:covered')
      then None
      else
        Option.map
          (fun moves -> (size, u32be raw (pos + size - 4), covered', count, dead, moves))
          (moves_in raw ~pos:(gone + (dead * 32)) ~stop:(pos + size - 4))

(* Apply the deltas of [path] chained to a base sealed [seal] that
   covered [covered], in order, up to the first that does not verify.
   Returns the covered offset and seal they reach, the bytes they take
   and how many there were. *)
let load_deltas path ~seal ~covered ~file_size index refs =
  match read_file_opt path with
  | None -> (covered, seal, 0, 0)
  | Some raw ->
    let rec go pos seal covered k =
      match delta_at raw ~pos ~seal ~covered ~file_size with
      | None -> (covered, seal, pos, k)
      | Some (size, seal', covered', count, dead, moves) ->
        add_entries index raw ~pos:(pos + delta_head_size) ~count;
        let gone = pos + delta_head_size + (count * idx_entry_size) in
        for i = 0 to dead - 1 do
          Hash.Tbl.remove index (Hash.of_raw_exn (String.sub raw (gone + (32 * i)) 32))
        done;
        List.iter (apply_ref refs) moves;
        go (pos + size) seal' covered' (k + 1)
    in
    go 0 seal covered 0

(* ------------------------- observability ------------------------- *)

(* Dead record bytes: superseded or deleted chunks and superseded ref
   moves. *)
let garbage_locked t =
  t.file_len - header_size - t.live_payload
  - (rec_overhead * Hash.Tbl.length t.index)
  - ref_bytes t.refs

let register_gauges t =
  let g name f = Obs.gauge ("log." ^ t.root ^ "." ^ name) f in
  let gi name f = g name (fun () -> float_of_int (f ())) in
  gi "generation" (fun () -> t.gen);
  gi "file_bytes" (fun () -> t.file_len);
  gi "synced_bytes" (fun () -> t.synced_len);
  gi "live_chunks" (fun () -> Hash.Tbl.length t.index);
  gi "live_bytes" (fun () -> t.live_payload);
  gi "garbage_bytes" (fun () -> garbage_locked t);
  gi "appends" (fun () -> t.c.appends);
  gi "deletes" (fun () -> t.c.deletes);
  gi "flushes" (fun () -> t.c.flushes);
  gi "checkpoints" (fun () -> t.c.checkpoints);
  gi "deltas" (fun () -> t.c.deltas);
  gi "checkpoint_bytes" (fun () -> t.c.checkpoint_bytes);
  gi "compactions" (fun () -> t.c.compactions);
  gi "auto_compactions" (fun () -> t.c.auto_compactions);
  gi "loaded_deltas" (fun () -> t.c.loaded_deltas);
  gi "replayed_records" (fun () -> t.c.replayed_records);
  gi "truncated_bytes" (fun () -> t.c.truncated_bytes);
  gi "background_errors" (fun () -> t.c.background_errors)

(* ------------------------- locked core ------------------------- *)

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let checkpoint_hist = Obs.histogram "fb.log.checkpoint_seconds"

let clean_locked t = Hash.Tbl.length t.dirty = 0 && Hashtbl.length t.dirty_refs = 0

let note_dirty_locked t id = Hash.Tbl.replace t.dirty id ()

(* A fresh base of the whole index, then the old deltas dropped: until
   the base's rename they chain to the old base, after it to nothing, so
   a crash in between loads one base or the other with its own deltas. *)
let write_base_locked t =
  let n, crc =
    write_checkpoint_file ~fsync:t.config.fsync (idx_file t.root t.gen)
      ~gen:t.gen ~covered:t.synced_len t.index t.refs
  in
  (try Sys.remove (delta_file t.root t.gen) with Sys_error _ -> ());
  t.base_size <- n;
  t.delta_size <- 0;
  t.seal <- crc;
  n

(* What changed since the last checkpoint, appended to the delta file
   and chained to it.  A torn append is a tail the next open drops. *)
let write_delta_locked t =
  let b, crc =
    encode_delta ~covered:t.synced_len ~prev:t.seal t.index t.dirty t.refs t.dirty_refs
  in
  let n = Bytes.length b in
  let fd =
    Unix.openfile (delta_file t.root t.gen)
      [ Unix.O_WRONLY; Unix.O_APPEND; Unix.O_CREAT; Unix.O_CLOEXEC ] 0o644
  in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      write_all fd b n;
      if t.config.fsync then Unix.fsync fd);
  t.delta_size <- t.delta_size + n;
  t.seal <- crc;
  t.c.deltas <- t.c.deltas + 1;
  n

(* A checkpoint is a delta, unless there is no base yet, [base] asks for
   one, or the deltas have outgrown both the base and [delta_floor]: then
   the index is folded into a fresh base, so base rewrites cost no more
   than the deltas they replace and open reads at most about twice the
   index (or [delta_floor] of deltas). *)
let delta_floor = 1 lsl 16

let checkpoint_locked ?(base = false) t =
  let t0 = Unix.gettimeofday () in
  let n =
    if base || t.base_size = 0 || t.delta_size >= max t.base_size delta_floor then
      write_base_locked t
    else write_delta_locked t
  in
  Obs.observe checkpoint_hist (Unix.gettimeofday () -. t0);
  Hash.Tbl.clear t.dirty;
  Hashtbl.clear t.dirty_refs;
  t.ckpt_len <- t.synced_len;
  t.c.checkpoints <- t.c.checkpoints + 1;
  t.c.checkpoint_bytes <- t.c.checkpoint_bytes + n

(* The group commit point: push appended records to stable storage, then
   checkpoint once [checkpoint_bytes] of log have accumulated since the
   last one.  The checkpoint can only cover a synced prefix — its entries
   must never point past what a power cut can preserve. *)
let sync_locked t =
  if t.synced_len < t.file_len || t.pending > 0 then begin
    if t.config.fsync then Unix.fsync t.wfd;
    t.synced_len <- t.file_len;
    t.pending <- 0;
    t.c.flushes <- t.c.flushes + 1
  end;
  if t.synced_len - t.ckpt_len >= t.config.checkpoint_bytes then checkpoint_locked t

let maybe_group_commit_locked t =
  t.pending <- t.pending + 1;
  if t.pending = 1 then t.pending_since <- Unix.gettimeofday ();
  if
    t.pending >= t.config.group_chunks
    || Unix.gettimeofday () -. t.pending_since >= t.config.group_window_s
  then sync_locked t

(* Appends one record and returns its payload offset.  The caller applies
   the record to the index and the dirty sets, then runs
   [maybe_group_commit_locked]: a checkpoint that covers a record must
   hold its effect. *)
let append_record_locked t ~kind ~id ~payload =
  let n = record_size payload in
  write_all t.wfd (encode_record t.rec_buf ~kind ~id ~payload) n;
  let payload_off = t.file_len + rec_head_size in
  t.file_len <- t.file_len + n;
  payload_off

(* The acknowledgement wait for a record ending at [upto] in generation
   [gen] (a compaction syncs all it carries over).  One waiter at a time
   leads an fsync, outside [lock] so appends — and the branch table locks
   held around them — never wait for the disk; the others wait for it and
   find themselves covered, or lead the next fsync with everything
   appended meanwhile. *)
let commit_wait_hist = Obs.histogram "fb.log.commit_wait_seconds"

let wait_durable t ~gen ~upto =
  let t0 = Unix.gettimeofday () in
  locked t (fun () ->
      while t.gen = gen && t.synced_len < upto do
        if t.committing then Condition.wait t.committed t.lock
        else begin
          t.committing <- true;
          let fd = t.wfd and target = t.file_len in
          Mutex.unlock t.lock;
          let failed = match Unix.fsync fd with () -> None | exception e -> Some e in
          Mutex.lock t.lock;
          t.committing <- false;
          Condition.broadcast t.committed;
          Option.iter raise failed;
          if t.gen = gen && target > t.synced_len then begin
            t.synced_len <- target;
            t.c.flushes <- t.c.flushes + 1;
            (* Everything appended is synced: only a due checkpoint is left. *)
            if target = t.file_len then begin
              t.pending <- 0;
              sync_locked t
            end
          end
        end
      done);
  Obs.observe commit_wait_hist (Unix.gettimeofday () -. t0)

(* Descriptors must not be swapped or closed under a leader's fsync. *)
let await_commit_locked t =
  while t.committing do
    Condition.wait t.committed t.lock
  done

let pread_locked t off len = read_at ~nowait:t.nowait t.rfd ~off ~len

let ensure_open t = if t.closed then failwith ("log store closed: " ^ t.root)

(* ------------------------- recovery / open ------------------------- *)

let valid_header path gen =
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        if in_channel_length ic < header_size then `Short
        else
          let h = really_input_string ic header_size in
          if
            String.equal (String.sub h 0 8) log_magic
            && u64be h 8 = gen
          then `Ok
          else `Bad)
  with
  | v -> v
  | exception (Sys_error _ | End_of_file) -> `Short

let init_generation root gen =
  let path = log_file root gen in
  let fd =
    Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
  in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      write_all fd (header_bytes gen) header_size;
      Unix.fsync fd);
  write_file_atomic ~fsync:true (current_file root) (string_of_int gen ^ "\n")

let pick_generation root =
  let on_disk =
    if Sys.file_exists root && Sys.is_directory root then
      Array.to_list (Sys.readdir root)
      |> List.filter_map (fun f ->
             if Filename.check_suffix f ".log" then gen_of_filename f else None)
      |> List.sort_uniq compare
    else []
  in
  let classify g = valid_header (log_file root g) g in
  let from_current =
    match read_file_opt (current_file root) with
    | None -> None
    | Some s -> int_of_string_opt (String.trim s)
  in
  match from_current with
  | Some g when List.mem g on_disk && classify g = `Ok -> `Use g
  | _ -> (
    (* CURRENT missing or stale (crash during init or swap): newest
       generation with an intact header wins. *)
    match List.filter (fun g -> classify g = `Ok) on_disk with
    | _ :: _ as ok -> `Use (List.fold_left max (List.hd ok) ok)
    | [] -> (
      (* A file shorter than its header is a crash during creation —
         nothing in it was ever acknowledged, so it is re-initializable.
         A full-size file with a wrong magic is damage, not a crash. *)
      match List.filter (fun g -> classify g = `Short) on_disk with
      | _ :: _ as short -> `Reinit (List.fold_left max (List.hd short) short)
      | [] -> if on_disk = [] then `Fresh else `Corrupt))

let remove_orphans root gen =
  if Sys.file_exists root && Sys.is_directory root then
    Array.iter
      (fun f ->
        let stale =
          match gen_of_filename f with
          | Some g -> g <> gen
          | None -> Filename.check_suffix f ".tmp"
        in
        if stale then
          try Sys.remove (Filename.concat root f) with Sys_error _ -> ())
      (Sys.readdir root)

let append_ref t table ~key ~branch ~old next =
  let gen, upto =
    locked t (fun () ->
        ensure_open t;
        let payload = encode_ref_payload table ~key ~old ~branch in
        let id =
          match next with Some u -> u | None -> Hash.of_raw_exn no_uid
        in
        ignore (append_record_locked t ~kind:2 ~id ~payload);
        apply_ref t.refs ((table, key, branch), old, next);
        Hashtbl.replace t.dirty_refs (table, key, branch) ();
        let upto = t.file_len in
        maybe_group_commit_locked t;
        (t.gen, upto))
  in
  fun () -> if t.config.fsync then wait_durable t ~gen ~upto

let refs t =
  locked t (fun () ->
      Hashtbl.fold (fun (table, key, branch) uid acc -> (table, key, branch, uid) :: acc)
        t.refs [])

let recover t =
  let path = log_file t.root t.gen in
  let size = (Unix.stat path).Unix.st_size in
  (match valid_header path t.gen with
  | `Ok -> ()
  | `Short | `Bad when size < header_size ->
    (* Crash before the first header sync completed: nothing was ever
       acknowledged from this file — re-initialize it. *)
    init_generation t.root t.gen
  | `Short | `Bad -> failwith (Printf.sprintf "log: bad header in %s" path));
  let size = (Unix.stat path).Unix.st_size in
  let deltas = delta_file t.root t.gen in
  let start =
    match
      load_checkpoint (idx_file t.root t.gen) ~gen:t.gen ~file_size:size t.index t.refs
    with
    | Some (covered, base_size, seal) ->
      let covered, seal, delta_size, loaded =
        load_deltas deltas ~seal ~covered ~file_size:size t.index t.refs
      in
      t.base_size <- base_size;
      t.delta_size <- delta_size;
      t.seal <- seal;
      t.c.loaded_deltas <- t.c.loaded_deltas + loaded;
      covered
    | None -> header_size
  in
  (* The replayed tail is in no checkpoint yet: the next delta carries
     it.  Without a base the next checkpoint is a base anyway. *)
  let replay ~kind ~id ~off ~len ~payload =
    replay_record t.index t.refs ~kind ~id ~off ~len ~payload;
    if t.base_size > 0 then
      if kind = 2 then
        Option.iter
          (fun (name, _, _) -> Hashtbl.replace t.dirty_refs name ())
          (decode_ref ~id payload)
      else note_dirty_locked t id
  in
  let stop, replayed = scan_records path ~start ~size replay in
  t.c.replayed_records <- t.c.replayed_records + replayed;
  Option.iter
    (fun off -> failwith (damage_message path off))
    (damage_at path ~stop ~size);
  (* Deltas past the last good one (or all, without a base) chain to
     nothing: drop them so the next delta links to the live chain. *)
  (match (Unix.stat deltas).Unix.st_size with
  | n when t.delta_size = 0 && n > 0 -> Sys.remove deltas
  | n when n > t.delta_size -> Unix.truncate deltas t.delta_size
  | _ -> ()
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ());
  if stop < size then begin
    (* Torn tail: physically drop it so the next append starts on a
       record boundary and a later scan sees only sealed records. *)
    let fd = Unix.openfile path [ Unix.O_WRONLY ] 0o644 in
    Fun.protect
      ~finally:(fun () -> Unix.close fd)
      (fun () ->
        Unix.ftruncate fd stop;
        if t.config.fsync then Unix.fsync fd);
    t.c.truncated_bytes <- t.c.truncated_bytes + (size - stop)
  end;
  t.file_len <- stop;
  t.synced_len <- stop;
  t.ckpt_len <- stop;
  t.live_payload <- Hash.Tbl.fold (fun _ e acc -> acc + e.len) t.index 0

(* ------------------------- compaction ------------------------- *)

let reopen_fds_locked t =
  (try Unix.close t.wfd with Unix.Unix_error _ -> ());
  (try Unix.close t.rfd with Unix.Unix_error _ -> ());
  let path = log_file t.root t.gen in
  t.wfd <- Unix.openfile path [ Unix.O_WRONLY; Unix.O_APPEND ] 0o644;
  t.rfd <- Unix.openfile path [ Unix.O_RDONLY ] 0

let compact_locked ?(live = fun _ -> true) ?(on_stage = fun _ -> ()) t =
  ensure_open t;
  await_commit_locked t;
  sync_locked t;
  let new_gen = t.gen + 1 in
  let new_log = log_file t.root new_gen in
  let tmp = new_log ^ ".tmp" in
  let new_index = Hash.Tbl.create (max 16 (Hash.Tbl.length t.index)) in
  let fd = Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let new_len = ref header_size in
  (try
     Fun.protect
       ~finally:(fun () -> Unix.close fd)
       (fun () ->
         write_all fd (header_bytes new_gen) header_size;
         (* Rewrite in offset order: sequential reads of the old file. *)
         let entries =
           Hash.Tbl.fold (fun id e acc -> (id, e) :: acc) t.index []
           |> List.sort (fun (_, a) (_, b) -> compare a.off b.off)
         in
         List.iter
           (fun (id, e) ->
             if live id then
               match pread_locked t e.off e.len with
               | None -> () (* unreadable record: dropped, fsck's territory *)
               | Some payload ->
                 let n = record_size payload in
                 write_all fd (encode_record t.rec_buf ~kind:0 ~id ~payload) n;
                 Hash.Tbl.replace new_index id
                   { off = !new_len + rec_head_size; len = e.len };
                 new_len := !new_len + n)
           entries;
         (* Current heads follow the chunks they name. *)
         let heads = ref_records t.refs in
         List.iter
           (fun r -> write_all fd (Bytes.unsafe_of_string r) (String.length r))
           heads;
         new_len := !new_len + total_length heads;
         if t.config.fsync then Unix.fsync fd)
   with e ->
     (try Sys.remove tmp with Sys_error _ -> ());
     raise e);
  Sys.rename tmp new_log;
  if t.config.fsync then fsync_dir t.root;
  let t0 = Unix.gettimeofday () in
  let base_size, seal =
    write_checkpoint_file ~fsync:t.config.fsync (idx_file t.root new_gen)
      ~gen:new_gen ~covered:!new_len new_index t.refs
  in
  Obs.observe checkpoint_hist (Unix.gettimeofday () -. t0);
  on_stage After_data;
  on_stage Before_switch;
  (* The commit point: CURRENT flips atomically to the new generation. *)
  write_file_atomic ~fsync:true (current_file t.root)
    (string_of_int new_gen ^ "\n");
  on_stage After_switch;
  let old_gen = t.gen in
  t.gen <- new_gen;
  reopen_fds_locked t;
  (try Sys.remove (log_file t.root old_gen) with Sys_error _ -> ());
  (try Sys.remove (idx_file t.root old_gen) with Sys_error _ -> ());
  (try Sys.remove (delta_file t.root old_gen) with Sys_error _ -> ());
  Hash.Tbl.reset t.index;
  Hash.Tbl.iter (fun id e -> Hash.Tbl.replace t.index id e) new_index;
  t.file_len <- !new_len;
  t.synced_len <- !new_len;
  t.ckpt_len <- !new_len;
  t.base_size <- base_size;
  t.delta_size <- 0;
  t.seal <- seal;
  Hash.Tbl.reset t.dirty;
  Hashtbl.reset t.dirty_refs;
  t.pending <- 0;
  t.live_payload <- Hash.Tbl.fold (fun _ e acc -> acc + e.len) t.index 0;
  t.c.compactions <- t.c.compactions + 1

(* ------------------------- background thread ------------------------- *)

let background_loop t =
  while not t.closed do
    Thread.delay t.config.tick_s;
    Mutex.lock t.lock;
    (try
       if not t.closed then begin
         if
           t.pending > 0
           && Unix.gettimeofday () -. t.pending_since >= t.config.group_window_s
         then sync_locked t;
         if t.config.auto_compact > 0.0 then begin
           let total = t.file_len - header_size in
           let garbage = garbage_locked t in
           if
             total > 0
             && garbage >= t.config.compact_min_bytes
             && float_of_int garbage > t.config.auto_compact *. float_of_int total
           then begin
             compact_locked t;
             t.c.auto_compactions <- t.c.auto_compactions + 1
           end
         end
       end
     with _ -> t.c.background_errors <- t.c.background_errors + 1);
    Mutex.unlock t.lock
  done

(* ------------------------- construction ------------------------- *)

exception Root_in_use of string

(* One open instance per root.  An exclusive [lockf] on [root/LOCK]
   excludes other processes and dies with its holder; POSIX record locks
   never conflict within one process, so a set of the roots open here
   excludes a second instance in this one. *)
let open_roots : (string, unit) Hashtbl.t = Hashtbl.create 8
let open_roots_lock = Mutex.create ()

let hold_root root =
  let key = Unix.realpath root in
  Mutex.protect open_roots_lock (fun () ->
      if Hashtbl.mem open_roots key then raise (Root_in_use root);
      let fd =
        Unix.openfile (Filename.concat root "LOCK")
          [ Unix.O_RDWR; Unix.O_CREAT; Unix.O_CLOEXEC ] 0o644
      in
      (try Unix.lockf fd Unix.F_TLOCK 0
       with Unix.Unix_error ((Unix.EAGAIN | Unix.EACCES), _, _) ->
         Unix.close fd;
         raise (Root_in_use root));
      Hashtbl.replace open_roots key ();
      (key, fd))

let release_root (key, fd) =
  Mutex.protect open_roots_lock (fun () ->
      Hashtbl.remove open_roots key;
      try Unix.close fd with Unix.Unix_error _ -> ())

(* Recover [root], already held: nothing on disk is touched before the
   hold is taken. *)
let create_held ~config ~root ~holder =
  let gen =
    match pick_generation root with
    | `Use g -> g
    | `Reinit g ->
      init_generation root g;
      g
    | `Fresh ->
      init_generation root 0;
      0
    | `Corrupt -> failwith ("log: no intact generation under " ^ root)
  in
  remove_orphans root gen;
  let path = log_file root gen in
  let t =
    { root;
      config;
      holder;
      lock = Mutex.create ();
      gen;
      (* placeholders; recover/reopen set the real state below *)
      wfd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_APPEND ] 0o644;
      rfd = Unix.openfile path [ Unix.O_RDONLY ] 0;
      file_len = 0;
      synced_len = 0;
      ckpt_len = 0;
      base_size = 0;
      delta_size = 0;
      seal = 0;
      dirty = Hash.Tbl.create 256;
      dirty_refs = Hashtbl.create 16;
      pending = 0;
      pending_since = 0.0;
      index = Hash.Tbl.create 1024;
      refs = Hashtbl.create 64;
      committing = false;
      committed = Condition.create ();
      rec_buf = Bytes.create rec_buf_size;
      nowait = ref true;
      live_payload = 0;
      closed = false;
      thread = None;
      c =
        { appends = 0; deletes = 0; flushes = 0; checkpoints = 0; deltas = 0;
          checkpoint_bytes = 0; compactions = 0; auto_compactions = 0;
          loaded_deltas = 0; replayed_records = 0; truncated_bytes = 0;
          background_errors = 0 };
      puts = 0;
      gets = 0;
      dedup_hits = 0;
      logical_bytes = 0 }
  in
  (try recover t
   with e ->
     Unix.close t.wfd;
     Unix.close t.rfd;
     raise e);
  register_gauges t;
  if config.compactor then t.thread <- Some (Thread.create background_loop t);
  t

let create ?(config = default_config) ~root () =
  mkdir_p root;
  let holder = hold_root root in
  match create_held ~config ~root ~holder with
  | t -> t
  | exception e ->
    release_root holder;
    raise e

let sync t = locked t (fun () -> ensure_open t; sync_locked t)

let checkpoint t =
  locked t (fun () ->
      ensure_open t;
      sync_locked t;
      checkpoint_locked ~base:true t)

let compact ?live ?on_stage t = locked t (fun () -> compact_locked ?live ?on_stage t)

let close t =
  let first =
    locked t (fun () ->
        if t.closed then None
        else begin
          t.closed <- true;
          let th = t.thread in
          t.thread <- None;
          Some th
        end)
  in
  match first with
  | None -> () (* second close: already torn down *)
  | Some th ->
    Option.iter Thread.join th;
    locked t (fun () ->
        await_commit_locked t;
        (* closed is already set; flush and seal directly. *)
        (if t.synced_len < t.file_len || t.pending > 0 then begin
           if t.config.fsync then Unix.fsync t.wfd;
           t.synced_len <- t.file_len;
           t.pending <- 0;
           t.c.flushes <- t.c.flushes + 1
         end);
        Fun.protect
          ~finally:(fun () ->
            (try Unix.close t.wfd with Unix.Unix_error _ -> ());
            (try Unix.close t.rfd with Unix.Unix_error _ -> ());
            release_root t.holder)
          (fun () -> if t.base_size = 0 || not (clean_locked t) then checkpoint_locked t));
    Obs.unregister_gauges_prefix ("log." ^ t.root ^ ".")

(* ------------------------- introspection ------------------------- *)

let generation t = locked t (fun () -> t.gen)
let file_bytes t = locked t (fun () -> t.file_len)
let synced_bytes t = locked t (fun () -> t.synced_len)
let garbage_bytes t = locked t (fun () -> garbage_locked t)
let live_chunks t = locked t (fun () -> Hash.Tbl.length t.index)
let counters t = t.c
let root t = t.root
let log_path t = log_file t.root t.gen
let idx_path t = idx_file t.root t.gen
let delta_path t = delta_file t.root t.gen

(* ------------------------- Store.t view ------------------------- *)

let store t =
  let put chunk =
    locked t (fun () ->
        ensure_open t;
        let id = Chunk.hash chunk in
        let size = Chunk.encoded_size chunk in
        t.puts <- t.puts + 1;
        t.logical_bytes <- t.logical_bytes + size;
        if Hash.Tbl.mem t.index id then begin
          t.dedup_hits <- t.dedup_hits + 1;
          id
        end
        else begin
          let payload = Chunk.encode chunk in
          let off = append_record_locked t ~kind:0 ~id ~payload in
          Hash.Tbl.replace t.index id { off; len = size };
          note_dirty_locked t id;
          t.live_payload <- t.live_payload + size;
          t.c.appends <- t.c.appends + 1;
          maybe_group_commit_locked t;
          id
        end)
  in
  let read ?(count = true) id =
    locked t (fun () ->
        ensure_open t;
        if count then t.gets <- t.gets + 1;
        match Hash.Tbl.find_opt t.index id with
        | None -> None
        | Some e -> pread_locked t e.off e.len)
  in
  let get_raw id = read id in
  let get id =
    match get_raw id with
    | None -> None
    | Some raw -> (
      match Chunk.decode raw with Ok c -> Some c | Error _ -> None)
  in
  let peek id = read ~count:false id in
  let mem id = locked t (fun () -> Hash.Tbl.mem t.index id) in
  let delete id =
    locked t (fun () ->
        ensure_open t;
        match Hash.Tbl.find_opt t.index id with
        | None -> false
        | Some e ->
          ignore (append_record_locked t ~kind:1 ~id ~payload:"");
          Hash.Tbl.remove t.index id;
          note_dirty_locked t id;
          t.live_payload <- t.live_payload - e.len;
          t.c.deletes <- t.c.deletes + 1;
          maybe_group_commit_locked t;
          true)
  in
  let snapshot () =
    locked t (fun () -> Hash.Tbl.fold (fun id _ acc -> id :: acc) t.index [])
  in
  let iter f =
    (* Snapshot the ids, then re-look each one up: a compaction between
       the snapshot and the read invalidates offsets but not ids, and a
       concurrently deleted id is an absence (File_store's TOCTOU rule). *)
    List.iter
      (fun id -> match peek id with Some raw -> f id raw | None -> ())
      (snapshot ())
  in
  let ids f = List.iter f (snapshot ()) in
  let stats () =
    locked t (fun () ->
        { Store.physical_chunks = Hash.Tbl.length t.index;
          physical_bytes = t.live_payload;
          puts = t.puts;
          dedup_hits = t.dedup_hits;
          logical_bytes = t.logical_bytes;
          gets = t.gets })
  in
  { Store.name = "log:" ^ t.root; put; ingest = Store.plain_ingest; get; get_raw;
    peek; mem; stats; iter; ids; delete }

let export_pack t ~path =
  let entries = ref [] in
  (store t).Store.iter (fun id raw -> entries := (id, raw) :: !entries);
  Pack.write_file ~path !entries

(* ------------------------- fsck ------------------------- *)

type fsck_report = {
  fsck_generation : int;
  fsck_records : int;
  fsck_live : int;
  fsck_bytes : int;
  fsck_torn_bytes : int;
  fsck_damage : int option;
  fsck_bad_hash : Hash.t list;
  fsck_idx_valid : bool;
  fsck_idx_consistent : bool;
  fsck_deltas : int;
  fsck_bad_delta_bytes : int;
  fsck_orphan_gens : int list;
  fsck_ref_records : int;
  fsck_heads : int;
  fsck_dangling_heads : (ref_table * string * string) list;
  fsck_ref_conflicts : int;
}

let fsck_clean r =
  r.fsck_bad_hash = [] && r.fsck_torn_bytes = 0 && r.fsck_damage = None
  && r.fsck_orphan_gens = []
  && r.fsck_idx_valid && r.fsck_idx_consistent && r.fsck_bad_delta_bytes = 0
  && r.fsck_dangling_heads = [] && r.fsck_ref_conflicts = 0

let pp_fsck ppf r =
  Format.fprintf ppf
    "gen %d: %d records (%d live, %d bytes), %s, %d bad \
     hashes, idx %s/%s, %d deltas (%d bad bytes), %d orphan generations; \
     %d ref records (%d heads, %d dangling, %d conflicting)"
    r.fsck_generation r.fsck_records r.fsck_live r.fsck_bytes
    (match r.fsck_damage with
     | Some off -> Printf.sprintf "DAMAGED record at offset %d" off
     | None -> Printf.sprintf "%d torn tail bytes" r.fsck_torn_bytes)
    (List.length r.fsck_bad_hash)
    (if r.fsck_idx_valid then "valid" else "INVALID")
    (if r.fsck_idx_consistent then "consistent" else "INCONSISTENT")
    r.fsck_deltas r.fsck_bad_delta_bytes
    (List.length r.fsck_orphan_gens)
    r.fsck_ref_records r.fsck_heads
    (List.length r.fsck_dangling_heads)
    r.fsck_ref_conflicts

let same_index a b =
  Hash.Tbl.length a = Hash.Tbl.length b
  && Hash.Tbl.fold
       (fun id (e : entry) acc ->
         acc
         && match Hash.Tbl.find_opt b id with
            | Some e' -> e.off = e'.off && e.len = e'.len
            | None -> false)
       a true

let same_refs (a : refs) b =
  Hashtbl.length a = Hashtbl.length b
  && Hashtbl.fold
       (fun k uid acc -> acc && Option.equal Hash.equal (Some uid) (Hashtbl.find_opt b k))
       a true

let run_fsck ~mem ~root =
  if not (Sys.file_exists root && Sys.is_directory root) then
    Error (Printf.sprintf "fsck: %s is not a log root" root)
  else
    match pick_generation root with
    | `Fresh | `Corrupt | `Reinit _ ->
      Error (Printf.sprintf "fsck: no intact generation under %s" root)
    | `Use gen -> (
      let path = log_file root gen in
      match
        let size = (Unix.stat path).Unix.st_size in
        let bad = ref [] in
        let full = Hash.Tbl.create 256 in
        let full_refs : refs = Hashtbl.create 16 in
        let ref_records = ref 0 in
        let conflicts = ref 0 in
        let stop, records =
          scan_records path ~start:header_size ~size
            ~verify_hash:(fun id payload ->
              if not (Hash.equal (Hash.of_string payload) id) then
                bad := id :: !bad)
            (fun ~kind ~id ~off ~len ~payload ->
              (if kind = 2 then
                 Option.iter
                   (fun (name, old, _) ->
                     incr ref_records;
                     let replayed = Hashtbl.find_opt full_refs name in
                     if not (Option.equal Hash.equal replayed old) then incr conflicts)
                   (decode_ref ~id payload));
              replay_record full full_refs ~kind ~id ~off ~len ~payload)
        in
        let damage = damage_at path ~stop ~size in
        let delta_bytes =
          match (Unix.stat (delta_file root gen)).Unix.st_size with
          | n -> n
          | exception Unix.Unix_error (Unix.ENOENT, _, _) -> 0
        in
        let via_idx = Hash.Tbl.create 256 and idx_refs = Hashtbl.create 16 in
        let idx_valid, idx_consistent, deltas, good =
          if not (Sys.file_exists (idx_file root gen)) then (true, true, 0, 0)
          else
            match load_checkpoint (idx_file root gen) ~gen ~file_size:stop via_idx idx_refs with
            | None -> (false, false, 0, 0)
            | Some (covered, _, seal) ->
              let covered, _, good, deltas =
                load_deltas (delta_file root gen) ~seal ~covered ~file_size:stop
                  via_idx idx_refs
              in
              ignore
                (scan_records path ~start:covered ~size:stop
                   (replay_record via_idx idx_refs));
              ( true,
                same_index full via_idx && same_refs full_refs idx_refs,
                deltas,
                good )
        in
        let orphans =
          Array.to_list (Sys.readdir root)
          |> List.filter_map gen_of_filename
          |> List.sort_uniq compare
          |> List.filter (fun g -> g <> gen)
        in
        let mem = Option.value mem ~default:(Hash.Tbl.mem full) in
        let dangling =
          Hashtbl.fold
            (fun k uid acc -> if mem uid then acc else k :: acc)
            full_refs []
          |> List.sort compare
        in
        { fsck_generation = gen;
          fsck_records = records;
          fsck_live = Hash.Tbl.length full;
          fsck_bytes = size;
          fsck_torn_bytes = (if damage = None then size - stop else 0);
          fsck_damage = damage;
          fsck_bad_hash = List.rev !bad;
          fsck_idx_valid = idx_valid;
          fsck_idx_consistent = idx_consistent;
          fsck_deltas = deltas;
          fsck_bad_delta_bytes = delta_bytes - good;
          fsck_orphan_gens = orphans;
          fsck_ref_records = !ref_records;
          fsck_heads = Hashtbl.length full_refs;
          fsck_dangling_heads = dangling;
          fsck_ref_conflicts = !conflicts }
      with
      | r -> Ok r
      | exception Sys_error e -> Error ("fsck: " ^ e)
      | exception Unix.Unix_error (e, _, _) ->
        Error ("fsck: " ^ Unix.error_message e))

let fsck ~root = run_fsck ~mem:None ~root
let fsck_with ~mem ~root = run_fsck ~mem:(Some mem) ~root
