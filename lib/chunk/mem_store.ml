module Hash = Fb_hash.Hash

(* The backing hashtable is shared by every connection thread of the
   network service; a writer inserting a chunk can trigger a resize while
   a concurrent reader probes, so every table access runs under a private
   mutex.  Sections are single probes — the lock is never held across
   hashing or encoding (both are memoized on the chunk before the store
   is touched). *)
type handle = {
  lock : Mutex.t;
  tbl : string Hash.Tbl.t;
  mutable stats : Store.stats;
}

let create_with_handle ?(name = "mem") () =
  let h =
    { lock = Mutex.create (); tbl = Hash.Tbl.create 4096;
      stats = Store.empty_stats }
  in
  let put chunk =
    (* Hash first (streamed, memoized on the chunk); encode only when the
       chunk is actually absent. *)
    let id = Chunk.hash chunk in
    let size = Chunk.encoded_size chunk in
    (* Probe before encoding so a dedup hit still skips the encode; the
       chunk is encoded outside the lock (memoized, possibly slow) and the
       presence check is repeated under it in case another writer won the
       race in between. *)
    let encoded =
      if Mutex.protect h.lock (fun () -> Hash.Tbl.mem h.tbl id) then None
      else Some (Chunk.encode chunk)
    in
    Mutex.protect h.lock (fun () ->
        let s = h.stats in
        let present =
          match encoded with
          | None -> true
          | Some enc ->
            Hash.Tbl.mem h.tbl id
            || (Hash.Tbl.replace h.tbl id enc; false)
        in
        h.stats <-
          { s with
            puts = s.puts + 1;
            logical_bytes = s.logical_bytes + size;
            dedup_hits = (s.dedup_hits + if present then 1 else 0);
            physical_chunks = (s.physical_chunks + if present then 0 else 1);
            physical_bytes = (s.physical_bytes + if present then 0 else size);
          });
    id
  in
  let get_raw id =
    Mutex.protect h.lock (fun () ->
        h.stats <- { h.stats with gets = h.stats.gets + 1 };
        Hash.Tbl.find_opt h.tbl id)
  in
  let get id =
    match get_raw id with
    | None -> None
    | Some encoded -> (
      match Chunk.decode encoded with Ok c -> Some c | Error _ -> None)
  in
  let peek id = Mutex.protect h.lock (fun () -> Hash.Tbl.find_opt h.tbl id) in
  let mem id = Mutex.protect h.lock (fun () -> Hash.Tbl.mem h.tbl id) in
  let iter f =
    (* Snapshot the bindings first: [f] may be arbitrarily slow (scrub
       re-hashes every chunk) and must not run under the lock. *)
    let snapshot =
      Mutex.protect h.lock (fun () ->
          Hash.Tbl.fold (fun id enc acc -> (id, enc) :: acc) h.tbl [])
    in
    List.iter (fun (id, enc) -> f id enc) snapshot
  in
  let ids f =
    List.iter f
      (Mutex.protect h.lock (fun () ->
           Hash.Tbl.fold (fun id _ acc -> id :: acc) h.tbl []))
  in
  let delete id =
    Mutex.protect h.lock (fun () ->
        match Hash.Tbl.find_opt h.tbl id with
        | None -> false
        | Some encoded ->
          Hash.Tbl.remove h.tbl id;
          let s = h.stats in
          h.stats <-
            { s with
              physical_chunks = max 0 (s.physical_chunks - 1);
              physical_bytes = max 0 (s.physical_bytes - String.length encoded)
            };
          true)
  in
  ( { Store.name; put; ingest = Store.plain_ingest; get; get_raw; peek; mem;
      stats = (fun () -> h.stats); iter; ids; delete },
    h )

let create ?name () = fst (create_with_handle ?name ())

let tamper h id ~f =
  Mutex.protect h.lock (fun () ->
      match Hash.Tbl.find_opt h.tbl id with
      | None -> false
      | Some encoded ->
        Hash.Tbl.replace h.tbl id (f encoded);
        true)
