module Hash = Fb_hash.Hash

type stats = {
  mutable retries : int;
  mutable absorbed : int;
  mutable gave_up : int;
  mutable fallback_reads : int;
  mutable heals : int;
  mutable corrupt_rejected : int;
  mutable unrecovered : int;
}

(* Exponent capped so the shift cannot overflow and one retry cannot
   sleep past [max_backoff_s]; [jitter] (a uniform draw in [0,1)) scales
   the delay into [0.5x, 1.5x) so a fleet of replicas hitting the same
   fault does not retry in lockstep. *)
let max_exponent = 16

let backoff_duration ?(max_backoff_s = 1.0) ~backoff_s ~jitter attempt =
  let e = min (max attempt 0) max_exponent in
  let d = backoff_s *. float_of_int (1 lsl e) *. (0.5 +. jitter) in
  Float.min d max_backoff_s

let wrap ?replica ?(max_retries = 4) ?(backoff_s = 0.0) ?(max_backoff_s = 1.0)
    ?(max_total_backoff_s = 30.0) ?(jitter_seed = 0x7e5171e4L)
    ?(verify_reads = true) (primary : Store.t) =
  let st =
    { retries = 0; absorbed = 0; gave_up = 0; fallback_reads = 0; heals = 0;
      corrupt_rejected = 0; unrecovered = 0 }
  in
  let prng = Fb_hash.Prng.create jitter_seed in
  let slept = ref 0.0 in
  let sleep_backoff attempt =
    if backoff_s > 0.0 then begin
      let jitter = Fb_hash.Prng.next_float prng in
      let d = backoff_duration ~max_backoff_s ~backoff_s ~jitter attempt in
      (* Clamp the lifetime sleep budget so a persistently failing store
         degrades to fast-fail instead of stalling callers forever. *)
      let d = Float.min d (Float.max 0.0 (max_total_backoff_s -. !slept)) in
      if d > 0.0 then begin
        slept := !slept +. d;
        Unix.sleepf d
      end
    end
  in
  let with_retries f =
    let rec go attempt =
      match f () with
      | r ->
        if attempt > 0 then st.absorbed <- st.absorbed + 1;
        r
      | exception Store.Transient _ when attempt < max_retries ->
        st.retries <- st.retries + 1;
        sleep_backoff attempt;
        go (attempt + 1)
      | exception (Store.Transient _ as e) ->
        st.gave_up <- st.gave_up + 1;
        raise e
    in
    go 0
  in
  let healthy id raw = (not verify_reads) || Hash.equal (Hash.of_string raw) id in
  (* One primary read outcome; corrupt bytes count as a retryable failure
     because flipped bits on the read path (bus, cache, page) heal on the
     next attempt, while latent media damage keeps failing and falls
     through to the replica. *)
  let read_primary id =
    let corrupt_seen = ref false in
    let rec go attempt =
      match primary.Store.get_raw id with
      | None -> if !corrupt_seen then `Corrupt else `Absent
      | Some raw when healthy id raw ->
        if attempt > 0 then st.absorbed <- st.absorbed + 1;
        `Good raw
      | Some _ ->
        st.corrupt_rejected <- st.corrupt_rejected + 1;
        corrupt_seen := true;
        retry attempt
      | exception Store.Transient _ when attempt < max_retries ->
        st.retries <- st.retries + 1;
        retry attempt
      | exception (Store.Transient _ as e) ->
        st.gave_up <- st.gave_up + 1;
        raise e
    and retry attempt =
      if attempt < max_retries then begin
        sleep_backoff attempt;
        go (attempt + 1)
      end
      else `Corrupt
    in
    go 0
  in
  let heal id raw =
    (* Content-addressed [put] skips names that already exist, so a
       damaged copy must be deleted before the healthy bytes go back. *)
    match Chunk.decode raw with
    | Error _ -> ()
    | Ok chunk -> (
      ignore (primary.Store.delete id);
      match with_retries (fun () -> primary.Store.put chunk) with
      | _ -> st.heals <- st.heals + 1
      | exception Store.Transient _ -> ())
  in
  let from_replica ~damaged id =
    match replica with
    | None ->
      if damaged then st.unrecovered <- st.unrecovered + 1;
      None
    | Some (r : Store.t) -> (
      match with_retries (fun () -> r.Store.get_raw id) with
      | Some raw when Hash.equal (Hash.of_string raw) id ->
        st.fallback_reads <- st.fallback_reads + 1;
        if damaged then heal id raw;
        Some raw
      | Some _ | None ->
        if damaged then st.unrecovered <- st.unrecovered + 1;
        None)
  in
  let get_raw id =
    match read_primary id with
    | `Good raw -> Some raw
    | `Absent -> from_replica ~damaged:false id
    | `Corrupt -> from_replica ~damaged:true id
  in
  let get id =
    match get_raw id with
    | None -> None
    | Some raw -> (
      match Chunk.decode raw with Ok chunk -> Some chunk | Error _ -> None)
  in
  let put chunk =
    let id = with_retries (fun () -> primary.Store.put chunk) in
    (match replica with
    | None -> ()
    | Some r -> (
      try ignore (r.Store.put chunk) with Store.Transient _ -> ()));
    id
  in
  let peek id =
    let checked raw = if healthy id raw then Some raw else None in
    match Option.bind (primary.Store.peek id) checked with
    | Some raw -> Some raw
    | None -> (
      match replica with
      | None -> None
      | Some r ->
        Option.bind (r.Store.peek id) (fun raw ->
            if Hash.equal (Hash.of_string raw) id then Some raw else None))
  in
  let mem id =
    with_retries (fun () -> primary.Store.mem id)
    || (match replica with Some r -> r.Store.mem id | None -> false)
  in
  ( { Store.name = "resilient:" ^ primary.Store.name;
      put; get; get_raw; peek; mem;
      stats = primary.Store.stats;
      iter = primary.Store.iter;
      ids = primary.Store.ids;
      delete = primary.Store.delete },
    st )
