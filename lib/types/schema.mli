(** Relational table schema: named, typed columns and a primary-key column.

    Tables are the composite data structure the paper's dataset experiments
    are built on (relational table over the primitive types). *)

type col_type = T_string | T_int | T_float | T_bool | T_any

val col_type_name : col_type -> string
val equal_col_type : col_type -> col_type -> bool

type column = { name : string; ty : col_type }

type t = private {
  columns : column list;
  key_column : int;   (** index into [columns] of the primary key *)
}

val v : ?key_column:int -> column list -> (t, string) result
(** Validates: at least one column, unique names, key index in range. *)

val v_exn : ?key_column:int -> column list -> t

val arity : t -> int
val column_names : t -> string list
val key_name : t -> string

val column_index : t -> string -> int option

val equal : t -> t -> bool

val encode : Fb_codec.Codec.writer -> t -> unit
val decode : Fb_codec.Codec.reader -> t

val check_row : t -> Primitive.t list -> (unit, string) result
(** Arity and per-cell type conformance ([Null] matches any type; [T_any]
    matches everything; the key cell must not be [Null]). *)

val join_cell : col_type option array -> int -> Primitive.t -> unit
(** [join_cell tys i p] widens column [i]'s type in [tys] ([None]: no
    non-null cell yet) to the narrowest type covering [p] too ([T_any]
    when mixed; ints embed in floats); a cell beyond the array is
    ignored. *)

val of_types :
  ?key_column:int -> header:string list -> col_type option array ->
  (t, string) result
(** The schema of a CSV header whose column types {!join_cell} gathered
    (a column with no non-null cell is [T_string]).  Errors on duplicate
    names, then on the key column. *)

val pp : Format.formatter -> t -> unit
