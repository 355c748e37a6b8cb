module Obs = Fb_obs.Obs

(* Observable store wrapper: every [put]/[get]/[mem]/[delete] is timed
   into an [Fb_obs] latency histogram, and the store's own counters are
   folded into the registry as callback gauges read at dump time.

   [peek] deliberately bypasses accounting — it is the maintenance
   backdoor (scrub, gc marking, replica repair) whose whole contract is
   to leave the operational picture untouched. *)

let register_store_stats ?(prefix = "fb_store") (s : Store.t) =
  let stat f = Obs.gauge (prefix ^ f) in
  stat ".physical_chunks" (fun () ->
      float_of_int (Store.stats s).Store.physical_chunks);
  stat ".physical_bytes" (fun () ->
      float_of_int (Store.stats s).Store.physical_bytes);
  stat ".logical_bytes" (fun () ->
      float_of_int (Store.stats s).Store.logical_bytes);
  stat ".puts" (fun () -> float_of_int (Store.stats s).Store.puts);
  stat ".gets" (fun () -> float_of_int (Store.stats s).Store.gets);
  stat ".dedup_hits" (fun () -> float_of_int (Store.stats s).Store.dedup_hits);
  stat ".dedup_ratio" (fun () -> Store.dedup_ratio (Store.stats s))

let wrap ?(prefix = "fb_store") (inner : Store.t) =
  register_store_stats ~prefix inner;
  let h_put = Obs.histogram (prefix ^ ".put_seconds") in
  let h_get = Obs.histogram (prefix ^ ".get_seconds") in
  let h_mem = Obs.histogram (prefix ^ ".mem_seconds") in
  let h_delete = Obs.histogram (prefix ^ ".delete_seconds") in
  (* Inlined timing (rather than closing over [Obs.time]) keeps the
     disabled path to a single branch per operation. *)
  let timed h f x =
    if not (Obs.is_enabled ()) then f x
    else begin
      let t0 = Unix.gettimeofday () in
      match f x with
      | r ->
        Obs.observe h (Unix.gettimeofday () -. t0);
        r
      | exception e ->
        Obs.observe h (Unix.gettimeofday () -. t0);
        raise e
    end
  in
  { inner with
    Store.name = "metered:" ^ inner.Store.name;
    put = timed h_put inner.Store.put;
    get = timed h_get inner.Store.get;
    get_raw = timed h_get inner.Store.get_raw;
    mem = timed h_mem inner.Store.mem;
    delete = timed h_delete inner.Store.delete }
