(** Cyclic-polynomial rolling hash and pattern detector (paper §II-A).

    POS-Tree node boundaries are defined by content: a window of [k] bytes is
    hashed with the cyclic polynomial (buzhash)

    {v Φ(b1…bk) = δ(Φ(b0…b(k-1))) ⊕ δ^k(Γ(b0)) ⊕ Γ(bk) v}

    where [Γ] maps a byte to a pseudo-random integer in [\[0, 2^q)] and [δ]
    rotates its argument left by one bit within [q] bits.  A {e pattern}
    occurs when [Φ mod 2^q = 0]; since the state is kept in exactly [q] bits
    this means the state is zero.  Boundaries therefore depend only on the
    last [k] bytes of content — the structural-invariance foundation of the
    POS-Tree. *)

type params = {
  window : int;  (** bytes hashed at a time, [k]; must be >= 1 *)
  q : int;       (** pattern bits; expected chunk size is [2^q] bytes *)
}

val default_node_params : params
(** Window 32, [q] = 11: ~2 KiB expected POS-Tree node payload. *)

val default_blob_params : params
(** Window 48, [q] = 12: ~4 KiB expected blob chunk. *)

type t
(** Rolling state over a byte stream. *)

val create : params -> t

val reset : t -> unit
(** Forget all absorbed bytes (fresh node start). *)

val feed : t -> char -> bool
(** Absorb one byte; [true] iff the window is full and the pattern fires at
    this position. *)

val feed_string : t -> string -> bool
(** Absorb all bytes of a string; [true] iff the pattern fired on {e any}
    byte of it.  Used when boundaries are checked at entry granularity: a
    pattern inside an entry extends the boundary to the entry's end.

    This is the hot path of every POS-Tree build: once the window is full
    it runs a fused branch-free loop with hoisted table lookups instead of
    calling {!feed} per byte.  It is observationally identical to feeding
    each byte through {!feed} (property-tested). *)

val feed_sub : t -> string -> int -> int -> bool
(** [feed_sub t s off len] is {!feed_string} over [String.sub s off len],
    without the copy.  @raise Invalid_argument on a range outside [s]. *)

val fingerprint : t -> int
(** Current rolling state Φ (q bits).  Exposed for diagnostics and for the
    differential tests that check {!feed_string} against per-byte
    {!feed}. *)

type stats = {
  gamma_builds : int;     (** Γ tables actually constructed *)
  gamma_memo_hits : int;  (** [create] calls served from the memo *)
  bytes_scanned : int;    (** total bytes absorbed via {!feed_string} *)
}

val stats : unit -> stats
(** Process-wide chunker counters (monotonic). *)

val hits_in : params -> string -> int list
(** Offsets (0-based, inclusive of the byte that completes the window) at
    which the pattern fires when scanning the whole string from a fresh
    state.  For tests and the chunk-size analysis bench. *)
