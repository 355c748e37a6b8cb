(** Primitive values: string, number (int/float), boolean, null.

    These are the scalar leaves of the ForkBase data model (paper §II
    overview); they appear as standalone object values and as relational
    table cells. *)

type t =
  | Null
  | Bool of bool
  | Int of int64
  | Float of float
  | String of string

val equal : t -> t -> bool
val compare : t -> t -> int

val encode : Fb_codec.Codec.writer -> t -> unit
val decode : Fb_codec.Codec.reader -> t

val to_string : t -> string
(** Human rendering (CSV cell form): [Null] is the empty string, booleans
    are [true]/[false], floats use shortest round-trip notation. *)

val parse : string -> t
(** Inverse-ish of {!to_string} with inference: empty → [Null], [true]/
    [false] → [Bool], integer syntax → [Int], float syntax → [Float],
    anything else → [String]. *)

val add_csv : Buffer.t -> string -> int -> int
(** [add_csv buf src pos] appends the CSV cell of the primitive encoded
    ({!encode}) at [src.[pos]] and returns the offset past it; a short
    string is copied straight from [src].  The text is {!to_string}'s (a
    string quoted by {!Csv.add_cell}) except that a float keeps a float
    spelling, so {!parse} reads the same float back: [2.0], not [2];
    [1e999] for infinity.
    @raise Fb_codec.Codec.Decode_error where {!decode} would. *)

val type_name : t -> string
val pp : Format.formatter -> t -> unit
