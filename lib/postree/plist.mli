(** POS-Tree list: an immutable sequence of opaque string elements with
    positional access.

    An instance of {!Seqtree.Make} whose elements are strings.  Like
    {!Pblob} but element-granular: node boundaries never split an
    element, and positions index elements instead of bytes.  Backs the
    ForkBase [List] value type. *)

type t

val store : t -> Fb_chunk.Store.t
val root : t -> Fb_hash.Hash.t option

val of_list : Fb_chunk.Store.t -> string list -> t
val of_root : Fb_chunk.Store.t -> Fb_hash.Hash.t option -> t

val length : t -> int
val is_empty : t -> bool

val get : t -> int -> string option
val to_list : t -> string list
val iter : (string -> unit) -> t -> unit
val fold : ('acc -> string -> 'acc) -> 'acc -> t -> 'acc

val splice : t -> pos:int -> remove:int -> insert:string list -> t
(** Replace [remove] elements at [pos] with [insert]; chunk reuse and
    structural invariance as in {!Pblob.splice}. *)

val set : t -> int -> string -> t
(** @raise Invalid_argument if out of bounds. *)

val push_back : t -> string -> t

type range_diff = Seqtree.range_diff = {
  old_pos : int; old_len : int;
  new_pos : int; new_len : int;
}

val diff : t -> t -> range_diff option
(** Element-granular minimal replaced range: chunk-level pruning by id,
    then element-level prefix/suffix trimming inside the changed window. *)

val merge : base:t -> ours:t -> theirs:t -> (t, range_diff * range_diff) result
(** Three-way merge of disjoint edits ({!Seqtree} merge rule), reading
    only the leaves around them.  [Error (ours, theirs)]: the two diffs
    against base overlap. *)

(** {1 Merkle proofs}

    Positional counterpart of {!Postree.S.prove}: the chunk path to the
    element at an index, verifiable against the root hash alone.  Counts in
    index entries are covered by the hashes, so a prover cannot misroute. *)

type proof = string list
(** Encoded chunks, root first. *)

val prove : t -> int -> (proof, string) result
(** Proof for the element at the index (also proves out-of-range). *)

val verify_proof :
  root:Fb_hash.Hash.t -> int -> proof -> (string option, string) result
(** [Ok (Some e)]: the list provably holds [e] at the index.  [Ok None]:
    the index is provably out of range.  [Error _]: forged or malformed. *)

val chunk_count : t -> int
val node_hashes : t -> Fb_hash.Hash.t list
val validate : t -> (unit, string) result
val pp : Format.formatter -> t -> unit
