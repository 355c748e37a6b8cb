module Hash = Fb_hash.Hash

let mkdir_p dir =
  let rec go d =
    if d <> "/" && d <> "." && not (Sys.file_exists d) then begin
      go (Filename.dirname d);
      (try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ())
    end
  in
  go dir

let path_of root id =
  let hex = Hash.to_hex id in
  Filename.concat (Filename.concat root (String.sub hex 0 2))
    (String.sub hex 2 (String.length hex - 2))

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* Reads race concurrent [delete] (GC, scrub, another server thread): a
   path observed via [readdir]/[file_exists] may be gone by the time it
   is opened.  A vanished file is an absence, not an error. *)
let read_file_opt path =
  match read_file path with
  | data -> Some data
  | exception (Sys_error _ | End_of_file) -> None

let write_file_atomic ~fsync path data =
  mkdir_p (Filename.dirname path);
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
  Sys.rename tmp path

(* Rebuild physical statistics by scanning the fan-out directories.  A
   leftover [*.tmp] is a write the previous process never renamed — a
   crash artifact; recovery deletes it (the chunk was never committed, and
   its writer's put will be retried or surfaced by scrub). *)
let scan ~recover root =
  let chunks = ref 0 and bytes = ref 0 in
  if Sys.file_exists root && Sys.is_directory root then
    Array.iter
      (fun sub ->
        let dir = Filename.concat root sub in
        if String.length sub = 2 && Sys.is_directory dir then
          Array.iter
            (fun f ->
              let path = Filename.concat dir f in
              if Filename.check_suffix f ".tmp" then begin
                if recover then try Sys.remove path with Sys_error _ -> ()
              end
              else begin
                incr chunks;
                bytes := !bytes + (Unix.stat path).Unix.st_size
              end)
            (Sys.readdir dir))
      (Sys.readdir root);
  (!chunks, !bytes)

let create ?(fsync = false) ~root () =
  mkdir_p root;
  let physical_chunks, physical_bytes = scan ~recover:true root in
  let stats =
    ref
      { Store.empty_stats with physical_chunks; physical_bytes }
  in
  let put chunk =
    (* Hash first (streamed, memoized on the chunk); encode only when the
       file is actually missing. *)
    let id = Chunk.hash chunk in
    let size = Chunk.encoded_size chunk in
    let path = path_of root id in
    let s = !stats in
    let present = Sys.file_exists path in
    if not present then write_file_atomic ~fsync path (Chunk.encode chunk);
    stats :=
      { s with
        puts = s.puts + 1;
        logical_bytes = s.logical_bytes + size;
        dedup_hits = (s.dedup_hits + if present then 1 else 0);
        physical_chunks = (s.physical_chunks + if present then 0 else 1);
        physical_bytes = (s.physical_bytes + if present then 0 else size);
      };
    id
  in
  let get_raw id =
    stats := { !stats with gets = !stats.gets + 1 };
    read_file_opt (path_of root id)
  in
  let get id =
    match get_raw id with
    | None -> None
    | Some encoded -> (
      match Chunk.decode encoded with Ok c -> Some c | Error _ -> None)
  in
  let peek id = read_file_opt (path_of root id) in
  let mem id = Sys.file_exists (path_of root id) in
  (* Every committed chunk file as (id, path); names only, no reads. *)
  let walk f =
    Array.iter
      (fun sub ->
        let dir = Filename.concat root sub in
        if String.length sub = 2 && Sys.is_directory dir then
          Array.iter
            (fun file ->
              if not (Filename.check_suffix file ".tmp") then
                match Fb_hash.Hex.decode (sub ^ file) with
                | Error _ -> ()
                | Ok raw -> (
                  match Hash.of_raw raw with
                  | Error _ -> ()
                  | Ok id -> f id (Filename.concat dir file)))
            (Sys.readdir dir))
      (Sys.readdir root)
  in
  let iter f =
    walk (fun id path ->
        match read_file_opt path with None -> () | Some data -> f id data)
  in
  let ids f = walk (fun id _ -> f id) in
  let delete id =
    let path = path_of root id in
    match (Unix.stat path).Unix.st_size with
    | exception Unix.Unix_error _ -> false
    | size -> (
      (* The file can vanish between stat and remove (concurrent GC or
         scrub on the same root); losing that race is a no-op delete. *)
      match Sys.remove path with
      | exception Sys_error _ -> false
      | () ->
        (* Clamp at zero: another instance on the same root may have
           written chunks this one's session counters never saw. *)
        stats :=
          { !stats with
            physical_chunks = max 0 (!stats.physical_chunks - 1);
            physical_bytes = max 0 (!stats.physical_bytes - size) };
        true)
  in
  { Store.name = "file:" ^ root; put; ingest = Store.plain_ingest; get; get_raw;
    peek; mem; stats = (fun () -> !stats); iter; ids; delete }
