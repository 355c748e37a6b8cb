(** Branch table: per-key branch heads.

    In ForkBase every object key may carry multiple named branches (paper
    §II-D).  Heads are the one piece of mutable state in the system; under
    the tamper-evidence threat model they are what "the users keep track
    of", so the table lives {e outside} the (possibly malicious) chunk
    store.  A durable table journals every move to a local log
    ({!Fb_chunk.Log_store.append_ref}). *)

type t

val default_branch : string
(** ["master"], the branch a key's first Put creates. *)

type journal =
  key:string -> branch:string -> old:Fb_hash.Hash.t option ->
  Fb_hash.Hash.t option -> unit -> unit
(** [journal ~key ~branch ~old next] records one move of [key]/[branch]
    from [old] to [next] ([None] = absent) and returns its
    acknowledgement wait.  The table calls it under its lock, in table
    order, and runs the wait after releasing the lock, before the
    mutating call returns. *)

val create : ?journal:journal -> unit -> t
(** Without a journal nothing is recorded: the table is memory only. *)

val load : t -> (string * string * Fb_hash.Hash.t) list -> unit
(** Install recovered [(key, branch, uid)] heads without journaling
    them. *)

val head : t -> key:string -> branch:string -> Fb_hash.Hash.t option
val set_head : t -> key:string -> branch:string -> Fb_hash.Hash.t -> unit

val branches : t -> key:string -> (string * Fb_hash.Hash.t) list
(** Branch names and heads of a key, sorted by name. *)

val keys : t -> string list
(** All keys with at least one branch, sorted. *)

val exists : t -> key:string -> branch:string -> bool

val remove : t -> key:string -> branch:string -> bool
(** [true] if the branch existed. *)

val rename :
  t -> key:string -> from_branch:string -> to_branch:string ->
  (unit, string) result
(** Fails if [from_branch] is missing or [to_branch] exists.  Journaled
    as [to_branch]'s creation, then [from_branch]'s removal. *)

val deserialize : string -> (t, string) result
(** Reads the table files older roots kept ([BRANCHES], [TAGS]): a
    varint key count, then per key its bytes, a varint branch count and
    per branch its name bytes and uid. *)
