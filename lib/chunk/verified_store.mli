(** Integrity-checking store wrapper — tamper {e rejection} at read time.

    Wraps any backend so that every [get]/[get_raw] re-hashes the served
    bytes and refuses (returns [None] and counts a violation) anything that
    does not match the requested identity.  This is the paranoid-client
    mode: instead of detecting tampering during an explicit [verify] pass,
    a malicious provider simply cannot get forged bytes past a read. *)

type violations = {
  mutable rejected_reads : int;
      (** reads whose bytes did not hash to the requested id *)
  mutable last_offender : Fb_hash.Hash.t option;
  mutable hashed_reads : int;  (** reads whose bytes were hashed *)
}

val wrap : ?once:bool -> Store.t -> Store.t * violations
(** [wrap inner] — same contents, verified reads.  Writes pass through
    (they are self-addressed already).  [mem] also answers through the
    checked read path: a chunk whose stored bytes fail verification is
    reported absent (and counted as a violation), never vouched for.

    [once] (default [false]) verifies each chunk only the first time its
    bytes are served and trusts repeats — the cheap clean path when the
    threat is media damage rather than a malicious provider that could
    swap bytes between reads.  The default re-hashes every read.

    Cost of [mem]: with [once:false] every call reads and hashes the
    chunk.  With [once:true] the first call on an id reads, hashes and
    records it like a read does; once an id has passed, [mem] is the
    inner store's [mem] (an index probe on the log backend) and reads no
    bytes.  Only bytes that were hashed mark an id as passed — [put]
    does not — and [delete] forgets the mark before the inner delete
    (so [gc]'s sweep and [scrub]'s quarantine, which delete through
    {!Store.delete}, never leave a mark behind).  [ids] and [iter] pass
    through to the inner store unverified.

    With [once], {!Store.ingest} also marks the chunk passed when the
    put writes it: the caller's gate has just hashed those bytes against
    their id, so the first read serves them unhashed.  Only a write
    marks — an ingest of an id the inner store already holds (checked
    with the inner [mem] before the put) marks nothing, so a damaged
    record the ingest deduplicates onto is still refused at its first
    read.  Plain [put]s never mark.  The mark is set before the write
    and taken back if the put raises, so a [delete] racing the ingest
    never leaves a mark on a deleted id.  Over a cluster router a marked
    id is still hashed on every read, by the router, which refuses
    member bytes that do not hash to the id.  Marks count in
    [fb.verified.ingest_marked]. *)
