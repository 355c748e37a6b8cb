(** RFC 4180-style CSV reading and writing.

    Supports quoted fields with embedded commas, quotes (doubled) and
    newlines; both LF and CRLF row separators (a lone CR is cell data).
    This is the import/export format of the demo's dataset experiments
    (paper §III-A). *)

val scan : string -> cell:(string -> unit) -> row:(unit -> unit) -> (unit, string) result
(** [scan doc ~cell ~row] reads [doc] once, calling [cell text] for each
    cell (quotes removed and unescaped) and [row ()] after each row's last
    cell.  Rows come as {!parse} returns them; on malformed input the
    calls made so far stand and the result is {!parse}'s error. *)

val parse : string -> (string list list, string) result
(** Parse a whole document into rows of cells.  A trailing newline does not
    produce an empty row.  Errors on unterminated quotes or stray quote
    characters. *)

val parse_exn : string -> string list list
(** @raise Invalid_argument on malformed input. *)

val add_cell : Buffer.t -> string -> int -> int -> unit
(** [add_cell buf src off len] appends the cell [String.sub src off len],
    quoted (quotes doubled) only if it holds a comma, quote, CR or LF.
    The one cell writer: {!render} and [Table.to_csv] both use it. *)

val render : string list list -> string
(** Render rows, quoting only cells that need it.  Inverse of {!parse}. *)
