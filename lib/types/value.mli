(** The ForkBase value model: primitives, blobs, maps, sets, lists and
    relational tables (paper §II overview, Fig. 1 API layer).

    A value's {e descriptor} is its canonical serialized identity — inline
    bytes for primitives, the POS-Tree root (plus schema, for tables) for
    structured values.  FNodes store descriptors, so a version uid covers
    the full value content through the Merkle structure. *)

type t =
  | Primitive of Primitive.t
  | Blob of Fb_postree.Pblob.t
  | Map of Fb_postree.Pmap.t
  | Set of Fb_postree.Pset.t
  | List of Fb_postree.Plist.t
  | Table of Table.t

type kind = K_primitive | K_blob | K_map | K_set | K_list | K_table

val kind : t -> kind
val kind_name : kind -> string
val equal_kind : kind -> kind -> bool

val descriptor : t -> string
(** Canonical serialized descriptor (what an FNode embeds). *)

val of_descriptor : Fb_chunk.Store.t -> string -> (t, string) result
(** Re-attach a value from its descriptor and the store holding its
    chunks. *)

val equal : t -> t -> bool
(** Content equality — descriptor equality, O(1) for structured values
    thanks to Merkle roots. *)

val roots : t -> Fb_hash.Hash.t list
(** POS-Tree root chunks referenced by the value (for GC). *)

val roots_of_descriptor : string -> (Fb_hash.Hash.t list, string) result
(** Same, parsed straight from descriptor bytes without re-attaching the
    value to a store. *)

val type_name : t -> string

val pp : Format.formatter -> t -> unit

(** {1 Convenience constructors} *)

val string : string -> t
val int : int -> t
val bool : bool -> t
val float : float -> t
val blob_of_string : Fb_chunk.Store.t -> string -> t
val map_of_bindings : Fb_chunk.Store.t -> (string * string) list -> t
val set_of_elements : Fb_chunk.Store.t -> string list -> t
(** Both raise [Fb_postree.Postree.Unbuildable] on a key over
    [Postree.max_key_bytes]. *)

val list_of_strings : Fb_chunk.Store.t -> string list -> t

(** {1 Projections} *)

val to_primitive : t -> Primitive.t option
val to_blob : t -> Fb_postree.Pblob.t option
val to_map : t -> Fb_postree.Pmap.t option
val to_set : t -> Fb_postree.Pset.t option
val to_list : t -> Fb_postree.Plist.t option
val to_table : t -> Table.t option
