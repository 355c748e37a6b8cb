(** Self-healing wrapper: retries, replica fallback, read repair.

    [wrap primary] returns a store that absorbs {!Store.Transient}
    failures with bounded exponential-backoff retries, and — when a
    [replica] is supplied — serves reads the primary cannot, re-putting
    the healthy bytes into the primary so the damage does not survive the
    read (self-healing reads).  Writes go to the primary first and are
    mirrored to the replica best-effort.

    Read path, in order:

    + read the primary, retrying on {!Store.Transient}; bytes failing the
      hash check count as a retryable failure too (a flipped bit on the
      way out heals on re-read, latent media damage does not);
    + still damaged or absent → read the replica (verified against the
      chunk id unconditionally);
    + replica had healthy bytes for a {e damaged} primary chunk →
      delete-then-put them back into the primary ([delete] first, because
      a content-addressed [put] skips names that already exist).

    The clean path does one extra hash per read at most ([verify_reads]),
    and none when the primary is already a {!Verified_store} (pass
    [~verify_reads:false]).

    After [max_retries] extra attempts a transient failure is re-raised
    for the caller (Forkbase surfaces it as a typed [Errors.Transient]).

    [iter], [ids], [delete] and [stats] address the primary only. *)

type stats = {
  mutable retries : int;  (** extra attempts made after a transient fault *)
  mutable absorbed : int;  (** ops that succeeded after at least one retry *)
  mutable gave_up : int;  (** ops re-raised after exhausting [max_retries] *)
  mutable fallback_reads : int;  (** reads served by the replica *)
  mutable heals : int;  (** healthy chunks re-put into the primary *)
  mutable corrupt_rejected : int;  (** primary reads failing the hash check *)
  mutable unrecovered : int;  (** damaged reads no replica could satisfy *)
}

val backoff_duration :
  ?max_backoff_s:float -> backoff_s:float -> jitter:float -> int -> float
(** [backoff_duration ~backoff_s ~jitter attempt] is the pre-retry sleep
    for the given (0-based) attempt: [backoff_s * 2^min(attempt, 16) *
    (0.5 + jitter)], capped at [max_backoff_s] (default [1.0]).  [jitter]
    is a uniform draw in [\[0, 1)]; the exponent cap keeps the shift from
    overflowing on large attempt counts.  Exposed for tests. *)

val wrap :
  ?replica:Store.t ->
  ?max_retries:int ->
  ?backoff_s:float ->
  ?max_backoff_s:float ->
  ?max_total_backoff_s:float ->
  ?jitter_seed:int64 ->
  ?verify_reads:bool ->
  Store.t ->
  Store.t * stats
(** Defaults: no replica, [max_retries = 4], [backoff_s = 0.] (no
    sleeping — tests stay fast; production might pass [0.01]),
    [verify_reads = true].  Each retry sleeps {!backoff_duration} with
    jitter drawn from a {!Fb_hash.Prng} seeded with [jitter_seed]
    (deterministic per wrapper, decorrelated across replicas given
    distinct seeds); one sleep never exceeds [max_backoff_s] (default
    [1.0]) and the wrapper's lifetime sleep total is clamped to
    [max_total_backoff_s] (default [30.0]) — past the budget, retries
    continue without sleeping. *)
