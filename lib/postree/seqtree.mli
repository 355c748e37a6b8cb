(** The positional POS-Tree, written once for {!Pblob} and {!Plist}.

    Sequence trees index by position instead of key: an internal
    ([Seq_index]) node entry carries the element count of its child
    sub-tree, so the n-th element is found by walking cumulative counts.
    Leaf boundaries are content-defined, exactly as in the keyed tree, so
    a tree's shape is a function of its content alone (structural
    invariance) and trees that share runs share pages.  {!Make} takes a
    {!LEAF} — what an element run is, how a leaf chunk stores one, where
    the boundaries fall — and writes everything else once.

    {b Diff rule.}  [diff a b] prunes the leaves both rows share by id from
    the front and the back, then trims equal elements at both ends of the
    remaining window: an element-exact range (list items, blob bytes).

    {b Merge rule.}  [merge ~base ~ours ~theirs] diffs base against each
    side.  If either side left base unchanged, the other side wins.  If
    the two replaced base ranges are disjoint (touching counts as
    disjoint; two insertions at one offset apply ours first), theirs'
    replacement is read from theirs and spliced into ours; otherwise the
    two ranges are the conflict.  Only the leaves around the two edits are
    read. *)

type range_diff = {
  old_pos : int; old_len : int;   (** replaced range in the old sequence *)
  new_pos : int; new_len : int;   (** its replacement in the new one *)
}

module type LEAF = sig
  type seg
  (** A run of elements: bytes for a blob, items for a list. *)

  val kind : Fb_chunk.Chunk.kind
  (** Kind of the leaf chunks. *)

  val name : string
  val noun : string
  val unit : string
  (** Words for messages and [pp]: the module (["Pblob"]), one tree
      (["blob"]) and its elements (["bytes"]). *)

  val encode : seg -> string
  (** The leaf chunk payload of a run. *)

  val decode : string -> (seg, string) result
  val length : seg -> int
  val sub : seg -> int -> int -> seg
  val concat : seg list -> seg

  val equal_at : seg -> seg -> int -> int -> bool
  (** [equal_at a b i j]: element [i] of [a] equals element [j] of [b]. *)

  type chunker
  (** The boundary feed: a content-defined chunker over elements.  Where
      it cuts may depend only on the elements fed since its last cut. *)

  val chunker : (seg -> unit) -> chunker
  (** A fresh chunker handing each completed leaf's run to the callback. *)

  val feed : chunker -> seg -> unit
  val pending : chunker -> bool
  (** Elements were fed since the last cut. *)

  val finish : chunker -> unit
  (** Emit the trailing run, if any. *)
end

module Make (L : LEAF) : sig
  type t

  val store : t -> Fb_chunk.Store.t
  val root : t -> Fb_hash.Hash.t option
  val of_root : Fb_chunk.Store.t -> Fb_hash.Hash.t option -> t
  val of_seg : Fb_chunk.Store.t -> L.seg -> t
  val to_seg : t -> L.seg
  val length : t -> int
  val is_empty : t -> bool
  val iter_leaves : t -> (L.seg -> unit) -> unit

  val leaf_sizes : t -> int list
  (** Element count of each leaf, in order. *)

  val chunk_count : t -> int

  val read : t -> pos:int -> len:int -> L.seg
  (** Elements [\[pos, pos+len)], read root-down through the chunks that
      cover them.  @raise Invalid_argument if the range exceeds the tree. *)

  val splice : t -> pos:int -> remove:int -> insert:L.seg -> t
  (** Replace [remove] elements at [pos] with [insert], re-chunking only
      until a boundary realigns with the old leaves.  Bit-identical to
      [of_seg] of the edited content.
      @raise Invalid_argument if the range exceeds the tree. *)

  val diff : t -> t -> range_diff option
  (** [None] when the roots are equal; else the diff rule's range. *)

  val merge :
    base:t -> ours:t -> theirs:t -> (t, range_diff * range_diff) result
  (** The merge rule; [Error] carries the diffs of ours and theirs
      against base.  The result is written to ours' store. *)

  val prove : t -> pos:int -> len:int -> (string list, string) result
  (** Encoded chunks covering [\[pos, pos+len)], root first in pre-order
      (no bounds check).  When [len > 0] and no child of a node is in the
      range, the walk takes its last child: a position past the end is
      proven by the path to the last leaf. *)

  val verify_proof :
    root:Fb_hash.Hash.t -> pos:int -> len:int -> string list ->
    (L.seg, string) result
  (** Replay {!prove}'s walk over the proof, checking each chunk against
      the id its parent names; the covered elements (fewer than [len]
      where the range passes the end). *)

  val node_hashes : t -> Fb_hash.Hash.t list
  (** Every chunk of the tree, pre-order. *)

  val validate : t -> (unit, string) result
  (** [Ok] iff the stored root equals [of_seg]'s root over the tree's
      elements; reads raw store bytes.  One walk reads each chunk once
      (never through the chunk cache) and checks each index node's hash;
      the leaf runs stream through the builder into a store that only
      hashes, so a forged count, a leaf cut anywhere the chunker does not
      cut, or a wrapped root is an [Error]. *)

  val pp : Format.formatter -> t -> unit
end
