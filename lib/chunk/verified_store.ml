module Hash = Fb_hash.Hash

type violations = {
  mutable rejected_reads : int;
  mutable last_offender : Hash.t option;
}

let wrap ?(once = false) (inner : Store.t) =
  let v = { rejected_reads = 0; last_offender = None } in
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
  let check_bytes id raw =
    if verified id then Some raw
    else if Hash.equal (Hash.of_string raw) id then begin
      if once then
        Mutex.protect seen_lock (fun () -> Hash.Tbl.replace seen id ());
      Some raw
    end
    else begin
      v.rejected_reads <- v.rejected_reads + 1;
      v.last_offender <- Some id;
      None
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
  let delete id =
    Mutex.protect seen_lock (fun () -> Hash.Tbl.remove seen id);
    inner.Store.delete id
  in
  ( { inner with
      Store.name = "verified:" ^ inner.Store.name;
      get;
      get_raw = checked;
      peek = checked_peek;
      mem;
      delete },
    v )
