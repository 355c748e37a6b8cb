(** CRC-32 (IEEE 802.3, the zlib/gzip polynomial).

    The integrity seal on append-only log records: cheap enough to pay on
    every append, strong enough that a torn or bit-damaged record fails
    verification with probability [1 - 2^-32].  Not a substitute for the
    content hash — chunks keep their SHA-256 identity; the CRC only
    decides "is this record physically intact" during recovery replay.

    Computed by a portable C slice-by-8 kernel ([crc32_stubs.c]); the
    range is checked here, before the kernel runs. *)

type t = int
(** A running CRC state, also the finished digest (low 32 bits). *)

val empty : t
(** The CRC of zero bytes. *)

val update_sub : t -> string -> pos:int -> len:int -> t
(** Fold [len] bytes of [s] starting at [pos] into the state.
    @raise Invalid_argument on an out-of-bounds range. *)

val update_bytes_sub : t -> Bytes.t -> pos:int -> len:int -> t
(** Same over a [Bytes.t] (no copy of the buffer being sealed). *)

val string : string -> t
(** One-shot digest of a whole string. *)
