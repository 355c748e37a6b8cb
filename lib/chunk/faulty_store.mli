(** Deterministic fault injection for any {!Store.t}.

    Wraps a store so that reads and writes misbehave in the ways real
    storage media do — transiently failing operations, flipping bits on
    the read path, tearing writes so only a prefix of the chunk survives,
    and crashing mid-write — all driven by a seeded {!Fb_hash.Prng}, so a
    given [seed] replays the exact same fault schedule on the exact same
    operation sequence.

    Fault model:

    - {b transient} read/write failures raise {!Store.Transient}; a retry
      may succeed (the next draw is independent).
    - {b bit flips} corrupt bytes on the way out of [get]/[get_raw] only;
      the stored bytes stay healthy, so a retry can return clean data.
    - {b torn writes} persist a strict prefix of the encoded chunk under
      its declared identity.  Like a real content-addressed store, a
      later re-put of the same chunk sees the name already taken and
      skips the write — only [delete] followed by [put] repairs it.
    - {b torn appends} persist the full length but with a garbage tail:
      from a seeded cut point onward the bytes are stale junk — the shape
      a power cut leaves at the end of an append-only log, where the tail
      sectors were never written.  Re-put semantics match torn writes.
    - {b crash} ([crash_on_put = Some n]) tears the [n]-th put and raises
      {!Crash}, simulating the process dying mid-write.

    [peek] and [mem] are maintenance interfaces and inject no faults
    (they do expose torn bytes, which is what a scrubber must see). *)

exception Crash
(** Raised by the [crash_on_put] trigger after persisting a torn chunk. *)

type config = {
  seed : int64;  (** PRNG seed; same seed + same op sequence = same faults *)
  transient_read_p : float;  (** probability a read raises {!Store.Transient} *)
  transient_put_p : float;  (** probability a put raises {!Store.Transient} *)
  bit_flip_p : float;  (** probability a served read has one bit flipped *)
  torn_write_p : float;  (** probability a new put persists only a prefix *)
  torn_append_p : float;
      (** probability a new put persists with a garbage tail (partial
          append: full length, stale bytes past a seeded cut point) *)
  fail_nth_read : int option;  (** force exactly the [n]-th read to fail *)
  crash_on_put : int option;  (** tear the [n]-th put, then raise {!Crash} *)
}

val calm : config
(** All probabilities zero, no triggers — a transparent wrapper.  Use
    [{ calm with ... }] to enable individual faults. *)

type counters = {
  mutable reads : int;
  mutable puts : int;
  mutable transient_reads : int;
  mutable transient_puts : int;
  mutable bit_flips : int;
  mutable torn_writes : int;
  mutable torn_appends : int;
  mutable crashes : int;
}
(** One counter per injected fault kind, plus total reads/puts observed. *)

val total_faults : counters -> int
(** Sum of all injected faults (excludes the read/put op totals). *)

val wrap : config -> Store.t -> Store.t * counters
(** [wrap config inner] returns the fault-injecting store and its live
    fault counters.  Torn bytes are held in an overlay and never written
    into [inner], so [inner] itself stays healthy; [iter], [ids], [mem],
    [peek] and [delete] all see the overlay as if it were physical storage. *)
