(** Relational table stored as a POS-Tree map: primary key → encoded row.

    The composite data type of the paper's dataset experiments.  Because
    rows live in a POS-Tree, two table versions differing in a few rows
    share almost all pages, table diff prunes identical sub-trees, and the
    rows root hash authenticates the table content. *)

type t

type row = Primitive.t list

val create : Fb_chunk.Store.t -> Schema.t -> t
val schema : t -> Schema.t
val rows_map : t -> Fb_postree.Pmap.t
val rows_root : t -> Fb_hash.Hash.t option

val of_rows_root :
  Fb_chunk.Store.t -> Schema.t -> Fb_hash.Hash.t option -> t

val cardinal : t -> int

val key_of_row : Schema.t -> row -> string
(** Rendering of the key cell (must not be [Null]). *)

val encode_row : row -> string
val decode_row : string -> (row, string) result

val insert : t -> row -> (t, string) result
(** Upsert after {!Schema.check_row}. *)

val insert_many : t -> row list -> (t, string) result
val insert_exn : t -> row -> t

val delete : t -> string -> t
(** Remove by key; absent keys are a no-op. *)

val find : t -> string -> row option
val mem : t -> string -> bool

val iter : (row -> unit) -> t -> unit
val fold : ('acc -> row -> 'acc) -> 'acc -> t -> 'acc
val to_rows : t -> row list

val select : t -> (row -> bool) -> row list
val project : t -> string list -> (Primitive.t list list, string) result
(** Column subset, by name, over all rows. *)

(** {1 Diff (paper §III-B)} *)

type cell_change = {
  column : string;
  before : Primitive.t;
  after : Primitive.t;
}

type row_change =
  | Row_added of row
  | Row_removed of row
  | Row_modified of string * cell_change list
      (** key, changed cells only *)

val diff : t -> t -> (row_change list, string) result
(** Errors if the schemas differ; POS-Tree sub-tree pruning underneath. *)

(** {1 Column statistics (the [Stat] API)} *)

type col_stat = {
  column : string;
  values : int;          (** non-null cells *)
  nulls : int;
  distinct : int;
  min : Primitive.t option;   (** numeric/string minimum, if comparable *)
  max : Primitive.t option;
}

val stat : t -> col_stat list

(** {1 Schema evolution} *)

type migration =
  | Add_column of Schema.column * Primitive.t
      (** append a column, filling existing rows with the default *)
  | Drop_column of string
  | Rename_column of string * string

val migrate : t -> migration list -> (t, string) result
(** Apply migrations in order, rewriting every row once at the end.  The
    key column may be renamed but not dropped; adding duplicates or
    dropping/renaming unknown columns fails; the default value of an added
    column must conform to its type.  The result is a fresh table version
    whose POS-Tree shares nothing forced — but committing it alongside the
    old version still dedups any untouched row bytes. *)

(** {1 Aggregation} *)

type aggregate = Count | Sum | Avg | Min | Max

val aggregate_name : aggregate -> string

val group_by :
  t -> by:string -> targets:(string * aggregate) list ->
  ((Primitive.t * Primitive.t list) list, string) result
(** [group_by t ~by ~targets] groups rows on column [by] and computes each
    [(column, aggregate)] target per group; groups are sorted by key value.
    [Count] counts non-null cells; [Sum]/[Avg] require numeric cells
    ([Null] skipped) and yield [Float] when any operand is; [Min]/[Max] use
    {!Primitive.compare}.  Errors on unknown columns or non-numeric
    sums. *)

(** {1 CSV} *)

val of_csv :
  Fb_chunk.Store.t -> ?key_column:int -> string -> (t, string) result
(** First row is the header; cells are typed by {!Primitive.parse} and
    column types joined by {!Schema.join_cell}.  The key is the key
    cell's {!Primitive.to_string} ([007] gives key [7]); among rows with
    one key the last wins.  Errors, first found first: CSV syntax, the
    schema (duplicate names, key column), the first ragged row, a null
    key, a key over the POS-Tree limit. *)

val to_csv : t -> string
(** Header plus one line per row, in key order, rendered from the encoded
    rows (cells as {!Primitive.add_csv} spells them).  For a table [of_csv]
    made, [of_csv] of the result gives the same rows root, and the same
    schema unless a row a duplicate key overwrote was what widened a
    column's type. *)

val pp : Format.formatter -> t -> unit
