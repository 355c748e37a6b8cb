(** Deterministic binary encoding for chunk payloads.

    Chunk identity is the hash of the encoded bytes, so encodings must be
    canonical: one value, one byte string.  All integers use LEB128 varints
    (minimal form enforced on decode); strings are length-prefixed; there is
    no padding or alignment. *)

(** {1 Writer} *)

type writer

val writer : ?initial_size:int -> unit -> writer
(** A writer into a buffer that grows as needed. *)

val counter : unit -> writer
(** A writer that keeps no bytes, only their count ({!length}): run an
    encoder on it to size the encoding. *)

val exact : int -> writer
(** A writer into one buffer of exactly [n] bytes, for an encoding a
    {!counter} has sized.  {!contents} returns that buffer, without a
    copy, once it is full.
    @raise Invalid_argument on a write past the [n] bytes. *)

val contents : writer -> string
(** The bytes written.
    @raise Invalid_argument on a {!counter}, or on an {!exact} writer that
    is not full. *)

val length : writer -> int
(** Bytes written (or counted) so far. *)

val u8 : writer -> int -> unit
(** @raise Invalid_argument if outside [\[0, 255\]]. *)

val varint : writer -> int -> unit
(** Unsigned LEB128. @raise Invalid_argument on negative input. *)

val zigzag : writer -> int -> unit
(** Signed integer via zigzag + LEB128. *)

val i64 : writer -> int64 -> unit
(** Fixed 8-byte big-endian. *)

val f64 : writer -> float -> unit
(** IEEE 754 bits, big-endian. *)

val bool : writer -> bool -> unit

val bytes : writer -> string -> unit
(** Varint length followed by the raw bytes. *)

val raw : writer -> string -> unit
(** Raw bytes, no length prefix (caller frames them). *)

val hash : writer -> Fb_hash.Hash.t -> unit
(** 32 raw digest bytes. *)

val list : writer -> (writer -> 'a -> unit) -> 'a list -> unit
(** Varint count followed by the elements. *)

val to_string : ((writer -> 'a -> unit) -> 'a -> string)
(** [to_string enc v] runs [enc] on a fresh writer. *)

(** {1 Reader} *)

type reader

exception Decode_error of string
(** Raised on malformed input: truncation, non-minimal varints, trailing
    garbage (via {!expect_end}). *)

val reader : ?pos:int -> string -> reader
val pos : reader -> int
val remaining : reader -> int
val expect_end : reader -> unit

val read_u8 : reader -> int
val read_varint : reader -> int
val read_zigzag : reader -> int
val read_i64 : reader -> int64
val read_f64 : reader -> float
val read_bool : reader -> bool
val read_bytes : reader -> string
val read_raw : reader -> int -> string
val read_hash : reader -> Fb_hash.Hash.t
val read_list : reader -> (reader -> 'a) -> 'a list

val read_count : reader -> int
(** A list's element count, as {!read_list} reads it (refused when it
    exceeds the bytes left); the caller then reads the elements. *)

val of_string : (reader -> 'a) -> string -> ('a, string) result
(** Decode a complete string; checks that all input is consumed. *)

val of_string_exn : (reader -> 'a) -> string -> 'a
(** @raise Decode_error *)
