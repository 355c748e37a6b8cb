(** Merkle-DAG delta sync — the pure pieces shared by both ends of a
    PUSH/PULL session (ROADMAP item 4; the Fossil tip-exchange protocol
    over ForkBase's content-addressed chunks).

    A sync session exchanges branch heads, walks the version DAG and
    POS-Tree structure from each head to find the {e missing-chunk
    frontier} — descent stops at any chunk the peer already has, because
    content addressing makes an equal id an equal subtree — and streams
    only the frontier chunks.  The receiver re-hashes every chunk
    ({!verify_encoded}) and refuses mismatches, so a replica built over
    sync carries the same tamper-evidence as a local store.

    The wire verbs themselves live in {!Service} (sync-have / sync-get /
    sync-put / sync-advance); the client-side walk lives in
    [Fb_net.Remote.push]/[pull].  This module holds what both ends and
    their tests share: verification, ordering, the set of ids a push
    need not probe, and the have-bitmap codec. *)

type stats = {
  chunks_moved : int;   (** chunks that crossed the wire *)
  bytes_moved : int;    (** their encoded bytes — the delta-sync payoff *)
  chunks_skipped : int;
      (** frontier cuts: chunks the peer already had, whether a probe
          confirmed it or the peer's head vouched for it ({!known_held}) *)
  rounds : int;         (** request round trips (probes + transfers + advance) *)
  bloom_fp : int;
      (** bloom-positive ids the exact confirmation wave revealed absent —
          each one is a probe the filter failed to save, never a wrongly
          skipped chunk (positives are always confirmed exactly) *)
}

val empty_stats : stats

(** {1 Batch shaping} *)

val have_batch : int
(** Ids per sync-have probe request. *)

val get_batch : int
(** sync-get sub-requests per BATCH frame. *)

val wave_window : int
(** sync-have and sync-get waves a walk keeps in flight: the client
    verifies one wave's reply while the server reads the next.  A partial
    wave goes out only when none is in flight, so the walk sends the same
    waves as one that waits for each reply before the next. *)

val put_batch : int
val put_batch_bytes : int
(** sync-put sub-requests per BATCH frame are capped by count {e and}
    cumulative encoded bytes, so a batch stays well under the frame
    ceiling. *)

val children : Fb_chunk.Chunk.t -> Fb_hash.Hash.t list
(** Chunk-level children for the frontier walk: FNode bases + value
    roots, POS-Tree index fan-out, nothing for leaves (alias of
    {!Fb_repr.Dag.fnode_children}). *)

val verify_encoded :
  Fb_hash.Hash.t -> string -> (Fb_chunk.Chunk.t, Errors.t) result
(** [verify_encoded id bytes] re-hashes [bytes] and decodes them: the
    result is [Ok chunk] only when the bytes really are the chunk named
    [id].  [Error (Corrupt _)] otherwise — the ingest gate both ends
    apply to every received chunk. *)

val plan_order :
  children:(Fb_hash.Hash.t -> Fb_hash.Hash.t list) ->
  missing:(Fb_hash.Hash.t -> bool) ->
  roots:Fb_hash.Hash.t list ->
  Fb_hash.Hash.t list
(** Child-first order of the subgraph of [missing] ids reachable from
    [roots]: every id appears after all of its missing children.
    Streaming in this order lets the receiver maintain the closure
    invariant (no stored chunk ever references an absent one) by
    checking only the incoming chunk's direct children. *)

val known_held :
  read:(Fb_hash.Hash.t -> string option) ->
  remote:Fb_hash.Hash.t ->
  local:Fb_hash.Hash.t ->
  unit Fb_hash.Hash.Tbl.t
(** [known_held ~read ~remote ~local] is a set of ids the peer must hold
    because its head [remote] reaches them (the peer keeps heads
    closure-complete): [remote], its bases, its value roots, and the
    children of every node of [remote]'s value tree that [local]'s
    replaced.  [read] fetches a chunk's encoded bytes from the pusher's
    store.  The two value trees are descended together, so the reads are
    O(changed): the fresh nodes of [local]'s tree above its leaves, the
    replaced nodes of [remote]'s tree (each re-hashed before its children
    are trusted), and the two leftmost paths down to where they meet,
    which tell the trees' heights.  No history is read.  Empty when
    [read] cannot produce [remote].  A push cuts these ids without a
    probe. *)

(** {1 Have-bitmap codec} *)

val encode_have : bool list -> string
(** One byte per probed id, ['1'] = held, positional. *)

val decode_have : string -> (bool list, Errors.t) result

(** {1 Bloom-filter have-exchange}

    One [sync-bloom] round replaces many 256-id probe waves: the peer
    summarises every chunk reachable from its branch heads in a sized
    Bloom filter; the sender tests its frontier locally.  Negatives are
    definitive misses (send the chunk); positives are only {e probably}
    held, so they are confirmed with exact {!encode_have} waves before
    being skipped — correctness never rests on the filter.  When a
    filter arrives {!Bloom.saturated} (loaded past its design) the
    sender ignores it and falls back to exact waves entirely. *)
module Bloom : sig
  type t

  val bits_per_chunk : int
  (** Filter sizing: 10 bits per expected chunk ⇒ ~1% fp at design load. *)

  val hashes : int
  (** Double-hashing probe count (7). *)

  val create : expected:int -> t
  (** A filter sized for [expected] chunks ([bits_per_chunk] each,
      clamped to \[64 bits, 8 MiB\]). *)

  val add : t -> Fb_hash.Hash.t -> unit
  val mem : t -> Fb_hash.Hash.t -> bool
  val m : t -> int
  val k : t -> int

  val fill_ratio : t -> float
  val saturated : t -> bool
  (** The false-positive rate the fill implies (fill{^k}) is past 4x the
      rate at the filter's design load of [m / bits_per_chunk] ids — for
      k = 7 a fill above ~0.614.  An overloaded filter's positives are
      mostly noise, and exact waves are cheaper than confirmations. *)

  val encode : t -> string
  (** ["m:k:" ^ bits] — geometry travels with the filter. *)

  val decode : string -> (t, Errors.t) result
end
