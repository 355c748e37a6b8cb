(** POS-Tree blob: an immutable byte string chunked by content.

    An instance of {!Seqtree.Make} whose elements are bytes.  Leaves are
    raw byte runs cut by the rolling-hash pattern (content-based slicing,
    as in LBFS [8]); internal nodes are {!Seqtree} count-indexed nodes.
    Two blobs differing in a local edit share every chunk outside a small
    window around the edit, whatever the byte offsets — this is the
    deduplication Fig. 4 demonstrates on CSV files. *)

type t

val store : t -> Fb_chunk.Store.t
val root : t -> Fb_hash.Hash.t option

val of_string : Fb_chunk.Store.t -> string -> t
val of_root : Fb_chunk.Store.t -> Fb_hash.Hash.t option -> t

val length : t -> int
val is_empty : t -> bool

val to_string : t -> string

val read : t -> pos:int -> len:int -> string
(** @raise Invalid_argument if the range exceeds the blob. *)

val splice : t -> pos:int -> remove:int -> insert:string -> t
(** Replace [remove] bytes at [pos] with [insert].  Only chunks around the
    edit are rebuilt; chunking re-synchronizes with the original boundaries
    and the remaining chunks are shared.  The result is bit-identical to
    [of_string] of the edited content. *)

val append : t -> string -> t

type range_diff = Seqtree.range_diff = {
  old_pos : int; old_len : int;   (** replaced range in the old blob *)
  new_pos : int; new_len : int;   (** replacement range in the new blob *)
}

val diff : t -> t -> range_diff option
(** [None] when equal; otherwise the byte-exact replaced range: common
    prefix and suffix chunks are pruned by id without reading, then equal
    bytes are trimmed from both ends of the remaining window. *)

val merge : base:t -> ours:t -> theirs:t -> (t, range_diff * range_diff) result
(** Three-way merge of byte-disjoint edits ({!Seqtree} merge rule); two
    edits in one chunk merge when their bytes do not overlap.
    [Error (ours, theirs)]: the two diffs against base overlap. *)

(** {1 Merkle proofs}

    Byte-range proofs: authenticate a substring of a blob against its root
    hash alone.  The proof carries the index path(s) plus only the leaf
    chunks overlapping the range — O(len/chunk + log N) bytes. *)

type proof = string list
(** Encoded chunks in deterministic pre-order, root first. *)

val prove : t -> pos:int -> len:int -> (proof, string) result
(** @raise nothing; errors on out-of-range or corrupt store. *)

val verify_proof :
  root:Fb_hash.Hash.t -> pos:int -> len:int -> proof ->
  (string, string) result
(** [Ok bytes]: the blob provably contains [bytes] at [pos].  [Error _]:
    forged, malformed, or out of range. *)

val chunk_count : t -> int
val leaf_sizes : t -> int list
val node_hashes : t -> Fb_hash.Hash.t list
val validate : t -> (unit, string) result
val pp : Format.formatter -> t -> unit
