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
    does not — and [delete] forgets it.  [ids] and [iter] pass through
    to the inner store unverified. *)
