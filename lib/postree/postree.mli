(** Pattern-Oriented-Split Tree — a structurally invariant Merkle B+-tree
    (paper §II-A/B, Figs. 2-3).

    A POS-Tree instance over a set of records has exactly one physical shape
    regardless of the order or batching of the operations that produced it
    (SIRI Property 1): node boundaries are decided by a rolling-hash pattern
    over entry content, and child pointers are the cryptographic hashes of
    child chunks.  Consequences:

    - logically equal trees share {e all} pages, so the chunk store
      deduplicates them to a single copy;
    - [diff] prunes identical sub-trees by id and runs in O(D log N);
    - three-way [merge] links in whole sub-trees only one side modified
      and re-chunks only what both sides modified;
    - the root hash authenticates the entire content (tamper evidence).

    The functor is instantiated for maps ({!Pmap}) and sets ({!Pset});
    sequences use {!Seqtree}. *)

exception Corrupt of string
(** Raised when the chunk store returns missing or undecodable chunks while
    navigating a tree.  Use [validate] (or [Forkbase.verify]) for a
    non-raising integrity check. *)

exception Unbuildable of string
(** Raised by a build that cannot make a tree: an entry whose key is
    longer than {!max_key_bytes}, or an index level that does not shrink
    (split keys carried in by a pushed tree that no builder made).  The
    API layer returns it as [Errors.Invalid]. *)

val max_key_bytes : int
(** Longest key, in bytes, that a tree accepts: 4 KiB.
    Each index entry holds a split key, so the limit keeps every index
    entry well below half of the 32 KiB node cap: two entries always fit
    in one index node, and every index level shrinks.  A longer key is
    refused with {!Unbuildable} when it is fed to the leaf chunker. *)

val oversized_key : Fb_chunk.Chunk.t -> int option
(** The length of the first key over {!max_key_bytes} in a map or set
    leaf or an index node, found by reading lengths only (no entry is
    decoded or allocated): the ingest check for trees no builder made.
    [None] for other kinds and for a payload that does not parse. *)

module type ENTRY = Postree_intf.ENTRY
(** The entries a POS-Tree is built over. *)

module type S = Postree_intf.S
(** Output signature of {!Make}. *)

module Make (E : ENTRY) : S with type entry = E.t and type key = string
