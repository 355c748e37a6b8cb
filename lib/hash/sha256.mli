(** SHA-256 (FIPS 180-4).

    Two block kernels share one incremental [init]/[update]/[finalize]
    interface, so large values can be hashed without concatenating their
    serialized form:

    - a C kernel on the x86 SHA extensions (SHA-NI), used when CPUID
      reports SHA, SSE4.1 and SSSE3 (see {!native});
    - a fully unrolled, branch-free [Int64] OCaml kernel (generated by
      [tools/gen_sha256_kernel.py]) that ocamlopt compiles to straight-line
      unboxed machine arithmetic.  It is the fallback on every other CPU and
      architecture.

    The kernel is chosen once, when the module is initialised.  Both give
    bit-identical digests: the test suite runs each through the NIST
    vectors and against {!Sha256_ref}, the original Int32 kernel kept as a
    differential-testing oracle. *)

type ctx
(** Mutable hashing context. *)

val native : bool
(** [true] when this CPU's SHA-256 instructions compress every block. *)

val init : unit -> ctx
(** Fresh context. *)

val init_ocaml : unit -> ctx
(** Test-only: a fresh context that compresses with the OCaml kernel even
    when {!native} holds, so tests and the hot-path benchmark can compare
    the two kernels on one machine. *)

val update : ctx -> string -> unit
(** Absorb a whole string. *)

val update_sub : ctx -> string -> pos:int -> len:int -> unit
(** Absorb [len] bytes of [s] starting at [pos].
    @raise Invalid_argument if the range is out of bounds. *)

val update_char : ctx -> char -> unit
(** Absorb a single byte. *)

val update_bytes : ctx -> Bytes.t -> pos:int -> len:int -> unit
(** Absorb [len] bytes of [b] starting at [pos], streaming whole blocks
    directly from [b] without an intermediate copy.
    @raise Invalid_argument if the range is out of bounds. *)

val finalize : ctx -> string
(** Produce the 32-byte digest.  The context must not be reused. *)

val finalize_into : ctx -> Bytes.t -> pos:int -> unit
(** Zero-copy variant of {!finalize}: write the 32-byte digest into [out]
    at [pos].  The context must not be reused.
    @raise Invalid_argument if the range is out of bounds. *)

val digest : string -> string
(** [digest s] is the 32-byte SHA-256 digest of [s]. *)

val digest_strings : string list -> string
(** Digest of the concatenation of the given strings, without building the
    concatenation. *)
