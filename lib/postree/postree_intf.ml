(** Module types for {!Postree}.  This compilation unit has no
    implementation content; it exists so the [ENTRY] and [S] signatures can
    be referenced from both [postree.mli] and instantiation interfaces
    without duplication. *)

(** The entries a POS-Tree is built over: a string key, with a string
    value in a map.  The tree owns the encoding (see {!Postree.Make}):
    keys order bytewise ([String.compare]). *)
module type ENTRY = sig
  type t

  val has_value : bool
  (** Whether an entry holds a value besides its key: [true] for maps
      (their leaves are [Leaf_map] chunks), [false] for sets ([Leaf_set]). *)

  val key : t -> string

  val value : t -> string
  (** Called only when [has_value]. *)

  val make : string -> string -> t
  (** [make key value]; [value] is [""] when not [has_value]. *)
end

(** Output signature of {!Make}. *)
module type S = sig
  type entry
  type key

  type t
  (** A tree handle: a chunk store plus the root id.  The handle is
      immutable; updates return new handles and share unmodified pages. *)

  type edit = Put of entry | Remove of key

  type change =
    | Added of entry              (** present in [t2] only *)
    | Removed of entry            (** present in [t1] only *)
    | Modified of entry * entry   (** same key, different entries *)

  val change_key : change -> key

  (** {1 Construction} *)

  val empty : Fb_chunk.Store.t -> t

  val build : Fb_chunk.Store.t -> entry list -> t
  (** Bulk-build from entries; they are sorted and key-deduplicated
      (last wins) first, unless their keys already strictly increase. *)

  val build_sorted_seq : Fb_chunk.Store.t -> entry Seq.t -> t
  (** Streaming bulk-build from an already strictly-key-sorted sequence —
      the whole entry set never needs to be resident.
      @raise Invalid_argument if keys are not strictly increasing. *)

  val of_root : Fb_chunk.Store.t -> Fb_hash.Hash.t option -> t
  (** Re-attach a handle to a previously stored root. *)

  (** {1 Accessors} *)

  val store : t -> Fb_chunk.Store.t
  val root : t -> Fb_hash.Hash.t option
  val is_empty : t -> bool

  val cardinal : t -> int
  (** Number of entries, from index-node counts: O(root width). *)

  val height : t -> int
  (** Levels in the tree; 0 for empty, 1 for a single-leaf tree. *)

  val find : t -> key -> entry option
  val mem : t -> key -> bool
  val min_entry : t -> entry option
  val max_entry : t -> entry option

  val iter : (entry -> unit) -> t -> unit
  val fold : ('acc -> entry -> 'acc) -> 'acc -> t -> 'acc
  val to_list : t -> entry list

  val to_seq : t -> entry Seq.t
  (** Lazy in-order traversal: chunks are read as the sequence is consumed,
      so early termination reads O(consumed/B + log N) chunks. *)

  (** {1 Range queries}

      Bounds are inclusive; [None] means unbounded on that side.  Sub-trees
      wholly outside the range are pruned via split keys, so a narrow range
      touches O(log N + matches/B) chunks. *)

  val iter_range : ?lo:key -> ?hi:key -> (entry -> unit) -> t -> unit
  val fold_range :
    ?lo:key -> ?hi:key -> ('acc -> entry -> 'acc) -> 'acc -> t -> 'acc
  val to_list_range : ?lo:key -> ?hi:key -> t -> entry list

  val count_range : ?lo:key -> ?hi:key -> t -> int
  (** Entries in the range.  Interior sub-trees are counted from index
      statistics without reading their leaves, so this is O(log N) for any
      range width. *)

  val nth : t -> int -> entry option
  (** The [n]-th smallest entry (0-based), located through index counts in
      O(log N); [None] when out of range. *)

  (** {1 Updates} *)

  val update : t -> edit list -> t
  (** Apply a batch of edits.  Only the paths to edited leaves are read;
      each level is re-chunked past an edit until its boundary
      re-synchronizes with the original layout, and every other sub-tree
      is reused by reference.  The result is bit-identical to [build] over
      the edited record set (structural invariance). *)

  val insert : t -> entry -> t
  val remove : t -> key -> t

  (** {1 Diff and merge (paper §II-B)} *)

  val diff : t -> t -> change list
  (** [diff t1 t2] — changes turning [t1] into [t2], sorted by key.
      Sub-trees with equal ids are pruned without being read.  Each tree is
      read through its own store, so [t1] and [t2] may live in different
      stores; a diff across two stores equals the same diff inside one. *)

  val edit_of_change : change -> edit
  (** Forward direction: the edit that applies the change to [t1]. *)

  type conflict = {
    key : key;
    base : entry option;  (** entry in the common base, if any *)
    ours : edit;          (** what [ours] did to the key *)
    theirs : edit;        (** what [theirs] did to the key *)
  }

  type resolver = conflict -> edit option
  (** Return [Some edit] to resolve, [None] to leave unresolved. *)

  val resolve_ours : resolver
  val resolve_theirs : resolver

  val merge :
    ?on_conflict:resolver -> base:t -> ours:t -> theirs:t -> unit ->
    (t, conflict list) result
  (** Three-way merge (Fig. 3).  The three trees are walked root-down at a
      common height; at each level their rows are cut into segments at the
      split keys where all three end a node.  A segment that only one side
      changed is taken from that side as whole sub-trees, linked into the
      result by reference where its boundaries allow (neither decoded nor
      re-hashed).  Segments both sides changed are expanded down to the
      leaves and merged entry by entry: a side equal to [base] yields the
      other side, two equal edits agree, and anything else is a conflict.
      Conflicts are found in key order and [on_conflict] is called once
      per conflict, in key order; its edit must be for the conflict's key
      ([Invalid_argument] otherwise).  The default resolver resolves
      nothing, so any genuine conflict yields [Error] with the conflicts
      in key order.

      The result is the tree [build] would make from the merged record set
      (structural invariance).  It lives in [ours]'s store: a leaf taken
      from [theirs] that this store lacks is copied into it (from another
      store only leaves are linked).  A merge that returns [Error] writes
      nothing: conflicts are found and the merge planned before any chunk
      is put. *)

  (** {1 Merkle proofs}

      A proof is the chunk path from the root to the leaf responsible for a
      key — O(log N) chunks.  A verifier holding only the trusted root hash
      can check membership ({e this} entry is in the tree) or absence ({e
      no} entry has this key) without any store access: each chunk must
      hash to the id its parent names, and the leaf settles the question.
      This is how a light client audits single rows of a huge dataset from
      a version uid. *)

  type proof = string list
  (** Encoded chunks, root first. *)

  val prove : t -> key -> (proof, string) result
  (** Build the proof path for [key] (works for both present and absent
      keys); fails on an empty tree or corrupt store. *)

  val verify_proof :
    root:Fb_hash.Hash.t -> key -> proof -> (entry option, string) result
  (** Pure check against a trusted [root].  [Ok (Some e)]: [e] is proven to
      be the tree's entry for [key].  [Ok None]: the tree provably has no
      entry for [key].  [Error _]: the proof does not authenticate. *)

  (** {1 Introspection and validation} *)

  type node_stats = {
    levels : int;
    nodes_per_level : int list;    (** root level first *)
    bytes_per_level : int list;
    leaf_entries : int;
    leaf_node_sizes : int list;    (** encoded sizes of every leaf chunk *)
  }

  val node_stats : t -> node_stats

  val leaf_hashes : t -> Fb_hash.Hash.t list
  val node_hashes : t -> Fb_hash.Hash.t list
  (** All chunk ids reachable from the root (for GC and page-sharing
      accounting). *)

  val validate : t -> (unit, string) result
  (** [Ok] iff the stored root equals [build]'s root over the tree's
      entries; reads raw store bytes.  One walk reads each chunk once
      (never through the node cache), checks each index node's hash, and
      streams the leaf entries through the builder into a store that only
      hashes.  A missing or tampered chunk, keys out of order, or any
      shape other than the one [build] makes (a wrapped root, a node split
      early or merged, leaves at mixed depths) is an [Error]. *)

  val pp : Format.formatter -> t -> unit
end


