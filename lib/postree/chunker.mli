(** Pattern-driven node splitting (paper §II-A).

    Items (serialized entries) are streamed in; the rolling hash scans their
    bytes and a node boundary is placed after the first item in which the
    pattern fires — "if a pattern occurs in the middle of an entry, the page
    boundary is extended to cover the whole entry".  A hard byte cap forces
    a boundary on pathological pattern-free content so node size stays
    bounded.  The rolling state is reset at every boundary, which is what
    makes node layout a function of content alone (structural
    invariance). *)

type 'a t

val create :
  ?params:Fb_hash.Rolling.params ->
  ?max_bytes:int ->
  emit:('a list -> unit) ->
  unit ->
  'a t
(** [emit] receives each completed node's items in order.  [max_bytes]
    defaults to 16 × the expected node size ([2^q] bytes). *)

val add : 'a t -> 'a -> string -> unit
(** Feed one item together with its serialized bytes. *)

val add_keyed : 'a t -> 'a -> string -> key_end:int -> unit
(** [add] for an index entry whose encoding starts with a key's encoding,
    [key_end] bytes long.  A pattern hit whose whole window lies inside
    that key is ignored: the muted range is the positions [p] (0-based in
    the entry, [p] the byte completing the window) with
    [window - 1 <= p < key_end].  Such a hit depends on the key alone, so
    it would fire again for the same split key at every index level above
    and keep the level from shrinking.  Hits whose window reaches into the
    previous entry or past the key still count.  A key encoding shorter
    than the window has an empty muted range, so [add_keyed] then cuts
    exactly where [add] does. *)

val pending : 'a t -> bool
(** [true] if items have been fed since the last boundary. *)

val finish : 'a t -> unit
(** Flush the trailing node, if any (the only node allowed to end without a
    pattern).  The chunker is reusable afterwards. *)
