(** Structured differences between two values — the differential-query
    result ForkBase's UI highlights "at multiple scopes, from dataset to
    data entry" (paper §III-B, Fig. 5). *)

type t =
  | Same
  | Type_change of Fb_types.Value.kind * Fb_types.Value.kind
  | Primitive_change of Fb_types.Primitive.t * Fb_types.Primitive.t
  | Blob_change of Fb_postree.Pblob.range_diff
  | Map_changes of Fb_postree.Pmap.change list
  | Set_changes of Fb_postree.Pset.change list
  | List_change of Fb_postree.Plist.range_diff
  | Table_changes of Fb_types.Table.row_change list

val compute : Fb_types.Value.t -> Fb_types.Value.t -> (t, Errors.t) result
(** Type-directed diff; equal-rooted structures short-circuit to [Same].
    Tables with differing schemas report [Type_change]-style errors as
    [Error (Type_mismatch _)]. *)

val is_same : t -> bool

val summary : t -> string
(** One-line account: ["3 rows added, 1 modified (2 cells)"]. *)

val render : Buffer.t -> t -> unit
(** Multi-scope textual rendering, appended to the buffer: per-row, then
    per-cell for tables; per-entry for maps and sets; replaced ranges for
    blobs and lists. *)

val report : t -> string
(** [summary], a newline, then [render]: the reply of the [diff] verb. *)
