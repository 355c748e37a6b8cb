module Hash = Fb_hash.Hash
module Obs = Fb_obs.Obs

type violations = {
  mutable rejected_reads : int;
  mutable last_offender : Hash.t option;
  mutable hashed_reads : int;
}

let ingest_marked = Obs.counter "fb.verified.ingest_marked"

let wrap ?(once = false) (inner : Store.t) =
  let v = { rejected_reads = 0; last_offender = None; hashed_reads = 0 } in
  (* [once] mode: ids whose served bytes already passed the hash check.
     Content addressing makes a healthy chunk immutable, so re-verifying
     it guards only against the medium mutating underneath us — the
     paranoid default; first-read verification is the cheap clean path
     for the media-fault (not malicious-provider) threat model. *)
  (* Concurrent readers race to record first-read verdicts; the table is
     guarded so a resize cannot tear under a parallel probe (the re-hash
     itself runs outside the lock — verifying twice is harmless). *)
  let seen : unit Hash.Tbl.t = Hash.Tbl.create 64 in
  let seen_lock = Mutex.create () in
  let verified id =
    once && Mutex.protect seen_lock (fun () -> Hash.Tbl.mem seen id)
  in
  let mark id = Mutex.protect seen_lock (fun () -> Hash.Tbl.replace seen id ()) in
  let forget id = Mutex.protect seen_lock (fun () -> Hash.Tbl.remove seen id) in
  let check_bytes id raw =
    if verified id then Some raw
    else begin
      v.hashed_reads <- v.hashed_reads + 1;
      if Hash.equal (Hash.of_string raw) id then begin
        if once then mark id;
        Some raw
      end
      else begin
        v.rejected_reads <- v.rejected_reads + 1;
        v.last_offender <- Some id;
        None
      end
    end
  in
  let checked id =
    match inner.Store.get_raw id with
    | None -> None
    | Some raw -> check_bytes id raw
  in
  let checked_peek id =
    match inner.Store.peek id with
    | None -> None
    | Some raw -> check_bytes id raw
  in
  let get id =
    match checked id with
    | None -> None
    | Some raw -> (
      match Chunk.decode raw with Ok c -> Some c | Error _ -> None)
  in
  (* [mem] must not vouch for bytes a read would refuse: answer through the
     checked (non-counting) path so a tampered chunk is absent everywhere.
     An id whose bytes already passed in [once] mode would be served
     unhashed by that path anyway, so only its presence is asked: an index
     probe instead of a read. *)
  let mem id =
    if verified id then inner.Store.mem id else checked_peek id <> None
  in
  (* Bytes an ingest gate just hashed against their id pass when the put
     that follows writes them: their first read would hash them again.
     A put that finds the id already held wrote nothing, and the record
     it found was hashed by no one, so only an absent id is marked.  The
     mark is set before the write, which goes through [self.put] (the
     whole stack above and below): a [delete] landing anywhere after it
     removes the mark with the chunk, or before the chunk exists, so no
     mark outlives its chunk.  A put that raises takes its mark back.
     Under a cluster router a marked read still re-hashes there: the
     router refuses member bytes that do not hash to the id. *)
  let ingest =
    if not once then Store.plain_ingest
    else fun self chunk ->
      let id = Chunk.hash chunk in
      if inner.Store.mem id then self.Store.put chunk
      else begin
        mark id;
        match self.Store.put chunk with
        | id ->
          Obs.incr ingest_marked;
          id
        | exception e ->
          forget id;
          raise e
      end
  in
  let delete id =
    forget id;
    inner.Store.delete id
  in
  ( { inner with
      Store.name = "verified:" ^ inner.Store.name;
      ingest;
      get;
      get_raw = checked;
      peek = checked_peek;
      mem;
      delete },
    v )
