(** Instrumented store wrapper: the measurement substrate of the storage
    stack.

    [wrap] times every [put]/[get]/[get_raw]/[mem]/[delete] into
    {!Fb_obs.Obs} latency histograms ([<prefix>.put_seconds], ...) and
    registers the store's own counters ({!Store.stats}) as gauges, so a
    single registry dump reports the whole storage picture.  [peek],
    [iter] and [ids] pass through unmetered — maintenance reads (scrub, gc
    marking, replica repair) must not distort the operational numbers.

    When {!Fb_obs.Obs.is_enabled} is false each operation pays one
    boolean test over the bare store. *)

val wrap : ?prefix:string -> Store.t -> Store.t
(** Meter a store under [prefix] (default ["fb_store"]).  Wrapping two
    stores under one prefix aggregates them into the same histograms;
    use distinct prefixes to separate. *)

val register_store_stats : ?prefix:string -> Store.t -> unit
(** Register gauges over {!Store.stats} (physical chunks/bytes, logical
    bytes, puts, gets, dedup hits, dedup ratio) without metering. *)
