(** In-memory chunk store backend.

    The default backend for experiments: deterministic, fast, and it exposes
    a {!tamper} hook so the tamper-evidence experiments (paper §III-C) can
    simulate a malicious storage provider that alters bytes in place while
    keeping the advertised identity. *)

type handle

val create : ?name:string -> unit -> Store.t
(** Fresh empty store. *)

val create_with_handle : ?name:string -> unit -> Store.t * handle

val tamper :
  handle -> Fb_hash.Hash.t -> f:(string -> string) -> bool
(** [tamper h id ~f] replaces the stored encoded bytes of chunk [id] with
    [f bytes], {e without} changing the identity it is served under — the
    malicious-provider move.  Returns [false] if the chunk is absent. *)
