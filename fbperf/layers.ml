(* The traced run's per-layer split.

   Three sources meet here: client spans around each Remote/Mux call
   (latency samples per operation role), the server's own Obs registry
   differenced over the timed phase, and an in-process replay of the same
   request sequence through [Service.dispatch] on a [Forkbase] over a
   timed wrapper of a [Log_store] store.  For every role the layers
   partition the traced client time:

     remote = transit + service + forkbase + chunk + unexplained

   where transit = client time - server handler time, and unexplained =
   server handler time - the replay's service + forkbase + chunk time
   (lock waits and whatever the replay does not reproduce). *)

open Common
module Store = Fb_chunk.Store
module Log_store = Fb_chunk.Log_store
module Forkbase = Fb_core.Forkbase
module Service = Fb_core.Service

(* Operation roles, shared by every workload so that metric names are
   too: read (get / pull), write (put / put-csv / push), diff, merge and
   branch. *)
let roles = [ "read"; "write"; "diff"; "merge"; "branch" ]

(* ------------------------- timed store wrapper ------------------------- *)

type store_acct = {
  mutable get_s : float;
  mutable put_s : float;
  mutable other_s : float;  (* mem / peek *)
  mutable outer_s : float;  (* store time directly under a dispatch span *)
  mutable gets : int;
  mutable puts : int;
  mutable put_bytes : int;  (* encoded bytes put: each is hashed once *)
}

(* The span id of the replay's current [dispatch], or -1.  A store call
   made while it is the innermost open span happens in the service layer
   itself (rendering a value), not beneath a Forkbase or POS-Tree call. *)
let dispatch_span = ref (-1)

let wrap a (s : Store.t) : Store.t =
  let timed add f =
    let t0 = now () in
    Fun.protect f ~finally:(fun () ->
        let d = now () -. t0 in
        add d;
        match Obs.current_context () with
        | Some c when c.Obs.span_id = !dispatch_span -> a.outer_s <- a.outer_s +. d
        | _ -> ())
  in
  let get_t d = a.get_s <- a.get_s +. d
  and put_t d = a.put_s <- a.put_s +. d
  and other_t d = a.other_s <- a.other_s +. d in
  { s with
    put =
      (fun c ->
        a.puts <- a.puts + 1;
        a.put_bytes <- a.put_bytes + Fb_chunk.Chunk.encoded_size c;
        timed put_t (fun () -> s.put c));
    get = (fun id -> a.gets <- a.gets + 1; timed get_t (fun () -> s.get id));
    get_raw = (fun id -> a.gets <- a.gets + 1; timed get_t (fun () -> s.get_raw id));
    peek = (fun id -> timed other_t (fun () -> s.peek id));
    mem = (fun id -> timed other_t (fun () -> s.mem id)) }

let store_seconds a = a.get_s +. a.put_s +. a.other_s

(* ------------------------- the replay ------------------------- *)

type role_acct = {
  mutable ops : int;
  mutable dispatch_s : float;
  mutable fb_s : float;
  mutable store_s : float;
  mutable outer_store_s : float;
}

type replay = {
  fb : Forkbase.t;
  log : Log_store.t;
  acct : store_acct;
  accts : (string, role_acct) Hashtbl.t;
  dir : string;
  mutable measuring : bool;
}

(* Appends are flushed every 64 records only (no time window), so the
   flush count repeats exactly for one request sequence. *)
let replay_log_config =
  { Log_store.default_config with fsync = false; group_window_s = 3600.0 }

let create_replay () =
  (* Decoded-node caches are process-wide: start the replay cold, like
     the freshly spawned server. *)
  Fb_postree.Node_cache.set_capacity_all 0;
  Fb_postree.Node_cache.set_capacity_all Fb_postree.Node_cache.default_capacity;
  let dir = scratch_dir "replay" in
  let log = Log_store.create ~config:replay_log_config ~root:(Filename.concat dir "log") () in
  let acct = { get_s = 0.; put_s = 0.; other_s = 0.; outer_s = 0.; gets = 0; puts = 0; put_bytes = 0 } in
  let fb = Forkbase.create (wrap acct (Log_store.store log)) in
  { fb; log; acct; accts = Hashtbl.create 8; dir; measuring = false }

let close_replay rp =
  Log_store.close rp.log;
  forget_dir rp.dir

let role_acct rp role =
  match Hashtbl.find_opt rp.accts role with
  | Some a -> a
  | None ->
    let a = { ops = 0; dispatch_s = 0.; fb_s = 0.; store_s = 0.; outer_store_s = 0. } in
    Hashtbl.replace rp.accts role a;
    a

(* Forkbase records its own latency histogram for these verbs: the time
   of the Forkbase call beneath [Service.dispatch].  For the other verbs
   (put-csv, branch and the sync verbs) the service wrapper only parses ids and
   renders a uid, and its time is counted with Forkbase. *)
let forkbase_hist verb =
  match verb with
  | "put" | "get" | "diff" | "merge" ->
    Some (Obs.histogram (Printf.sprintf "fb.%s_seconds" verb))
  | _ -> None

(* One request through the service layer, charged to [role] while
   measuring. *)
let dispatch rp ?role tokens =
  let verb = String.lowercase_ascii (List.hd tokens) in
  let h = forkbase_hist verb in
  let h0 = match h with Some h -> Obs.hist_sum h | None -> 0.0 in
  let s0 = store_seconds rp.acct and o0 = rp.acct.outer_s in
  let t0 = now () in
  let r =
    Obs.with_span "fbperf.dispatch" (fun () ->
        dispatch_span := (match Obs.current_context () with Some c -> c.Obs.span_id | None -> -1);
        Fun.protect ~finally:(fun () -> dispatch_span := -1) (fun () ->
            Service.dispatch rp.fb tokens))
  in
  let d = now () -. t0 in
  (match role with
   | Some role when rp.measuring ->
     let a = role_acct rp role in
     a.dispatch_s <- a.dispatch_s +. d;
     a.store_s <- a.store_s +. (store_seconds rp.acct -. s0);
     (match h with
      | Some h ->
        a.fb_s <- a.fb_s +. (Obs.hist_sum h -. h0);
        a.outer_store_s <- a.outer_store_s +. (rp.acct.outer_s -. o0)
      | None -> a.fb_s <- a.fb_s +. d)
   | _ -> ());
  r

let count_op rp role = if rp.measuring then (role_acct rp role).ops <- (role_acct rp role).ops + 1

(* Replay a push of [head] from a local store: exact sync-have waves
   over the frontier, sync-put child-first, then sync-advance — the
   server side of Remote.push without the Bloom round. *)
let replay_push rp ?(role = "write") ~(src : Store.t) ~key ~branch head =
  let module H = Fb_hash.Hash in
  let children = H.Tbl.create 64 and missing = H.Tbl.create 64 in
  let kids id =
    match H.Tbl.find_opt children id with
    | Some k -> k
    | None ->
      let k = Fb_core.Sync.children (Store.get_exn src id) in
      H.Tbl.replace children id k;
      k
  in
  let rec walk level =
    if level <> [] then begin
      let rec waves acc = function
        | [] -> acc
        | ids ->
          let n = min Fb_core.Sync.have_batch (List.length ids) in
          let wave = List.filteri (fun i _ -> i < n) ids
          and rest = List.filteri (fun i _ -> i >= n) ids in
          let reply =
            ok_or "replay sync-have"
              (dispatch rp ~role ("sync-have" :: List.map H.to_hex wave))
          in
          let have =
            Array.of_list (ok_or "replay have-bitmap" (Fb_core.Sync.decode_have reply))
          in
          let absent = List.filteri (fun i _ -> not have.(i)) wave in
          waves (List.rev_append absent acc) rest
      in
      let absent = List.rev (waves [] level) in
      List.iter (fun id -> H.Tbl.replace missing id ()) absent;
      walk
        (List.sort_uniq H.compare
           (List.filter (fun id -> not (H.Tbl.mem missing id)) (List.concat_map kids absent)))
    end
  in
  walk [ head ];
  let order =
    Fb_core.Sync.plan_order ~children:kids ~missing:(H.Tbl.mem missing) ~roots:[ head ]
  in
  List.iter
    (fun id ->
      let bytes = Option.get (Store.peek src id) in
      ignore (ok_or "replay sync-put" (dispatch rp ~role [ "sync-put"; key; branch; H.to_hex id; bytes ])))
    order;
  ignore (ok_or "replay sync-advance" (dispatch rp ~role [ "sync-advance"; key; branch; H.to_hex head ]))

(* Replay a pull into a local store [dst]: head, then sync-get for every
   chunk [dst] lacks, walking down from the head. *)
let replay_pull rp ?(role = "read") ~(dst : Store.t) ~key ~branch () =
  let module H = Fb_hash.Hash in
  let head = ok_or "replay head" (dispatch rp ~role [ "head"; key; branch ]) in
  let head = ok_or "replay head uid" (Forkbase.parse_version head) in
  let seen = H.Tbl.create 64 in
  let rec fetch got = function
    | [] -> got
    | id :: rest when H.Tbl.mem seen id || Store.mem dst id -> fetch got rest
    | id :: rest ->
      H.Tbl.replace seen id ();
      let bytes = ok_or "replay sync-get" (dispatch rp ~role [ "sync-get"; H.to_hex id ]) in
      let chunk = ok_or "replay verify" (Fb_core.Sync.verify_encoded id bytes) in
      fetch (chunk :: got) (List.rev_append (Fb_core.Sync.children chunk) rest)
  in
  (* Parents were fetched before their children: storing in reverse
     keeps [dst] closure-complete. *)
  List.iter (fun c -> ignore (Store.put dst c)) (fetch [] [ head ])

(* ------------------------- measured window ------------------------- *)

type counts = {
  c_gets : int;
  c_puts : int;
  c_new_puts : int;
  c_flushes : int;
  c_put_bytes : int;
  c_log_bytes : int;
  c_get_s : float;
  c_put_s : float;
  c_cache_hits : float;
  c_cache_misses : float;
  c_chunker_bytes : float;
}

(* Sum of the in-process Obs gauges whose names match. *)
let gauge_sum pred =
  match Json.parse (Obs.dump_json ()) with
  | Error _ -> 0.0
  | Ok j -> (
    match Json.member "gauges" j with
    | Some (Json.Object kv) ->
      List.fold_left
        (fun acc (k, v) -> match v with Json.Number f when pred k -> acc +. f | _ -> acc)
        0.0 kv
    | _ -> 0.0)

let cache_gauge suffix k =
  String.starts_with ~prefix:"node_cache." k && String.ends_with ~suffix k

let counts rp =
  let st = Store.stats (Log_store.store rp.log) in
  { c_gets = rp.acct.gets;
    c_puts = rp.acct.puts;
    c_new_puts = st.Store.puts - st.Store.dedup_hits;
    c_flushes = (Log_store.counters rp.log).Log_store.flushes;
    c_put_bytes = rp.acct.put_bytes;
    c_log_bytes = Log_store.file_bytes rp.log;
    c_get_s = rp.acct.get_s;
    c_put_s = rp.acct.put_s;
    c_cache_hits = gauge_sum (cache_gauge ".hits");
    c_cache_misses = gauge_sum (cache_gauge ".misses");
    c_chunker_bytes = gauge_sum (( = ) "chunker.bytes_scanned") }

let start_measuring rp =
  rp.measuring <- true;
  counts rp

(* ------------------------- the per-layer metrics ------------------------- *)

(* What a workload's traced run hands over. *)
type traced = {
  client : (string * samples) list;   (* role -> traced client latencies *)
  server_s : (string * float) list;   (* role -> server handler seconds *)
  before : snap;                      (* server registry around the timed phase *)
  after : snap;
  ops : int;                          (* timed-phase operations *)
  user_bytes : int;                   (* payload submitted in the timed phase *)
  sync : int * int * int * int;       (* rounds, moved, skipped, bloom_fp *)
  overhead_pct : float;               (* see [Common.traced_pairs] *)
}

let ms s = s *. 1000.0

let per_layer (t : traced) rp (c0 : counts) =
  let c1 = counts rp in
  let ops = float_of_int (max 1 t.ops) in
  let per_op x = float_of_int x /. ops in
  let role_metrics role =
    let s = Option.value (List.assoc_opt role t.client) ~default:(samples ()) in
    let count = List.length s.lat in
    let n = float_of_int (max 1 count) in
    let remote = ms (mean s.lat) in
    let server = ms (Option.value (List.assoc_opt role t.server_s) ~default:0.0) /. n in
    let a = Option.value (Hashtbl.find_opt rp.accts role)
        ~default:{ ops = 0; dispatch_s = 0.; fb_s = 0.; store_s = 0.; outer_store_s = 0. } in
    let rn = float_of_int (max 1 a.ops) in
    (* Store calls split by where they were made: directly in the service
       layer (outer) or beneath the Forkbase call (inner). *)
    let inner = a.store_s -. a.outer_store_s in
    let service = ms (a.dispatch_s -. a.fb_s -. a.outer_store_s) /. rn in
    let forkbase = ms (a.fb_s -. inner) /. rn in
    let chunk = ms a.store_s /. rn in
    let unexplained = if count = 0 then 0.0 else server -. service -. forkbase -. chunk in
    [ m (Printf.sprintf "remote.%s_ms" role) "ms" remote;
      m (Printf.sprintf "remote.%s_p99_ms" role) "ms" (ms (quantile s.lat 0.99));
      m (Printf.sprintf "remote.%s_samples" role) "count" (float_of_int count);
      m (Printf.sprintf "server.%s_ms" role) "ms" server;
      m (Printf.sprintf "server.transit_%s_ms" role) "ms" (if count = 0 then 0.0 else remote -. server);
      m (Printf.sprintf "service.%s_self_ms" role) "ms" service;
      m (Printf.sprintf "forkbase.%s_self_ms" role) "ms" forkbase;
      m (Printf.sprintf "chunk.%s_ms" role) "ms" chunk;
      m (Printf.sprintf "unexplained.%s_ms" role) "ms" unexplained ]
  in
  let rw_sum = hist_delta ~before:t.before ~after:t.after "fb.rwlock.wait_seconds" in
  let hits = c1.c_cache_hits -. c0.c_cache_hits and misses = c1.c_cache_misses -. c0.c_cache_misses in
  let rounds, moved, skipped, fp = t.sync in
  List.concat_map role_metrics roles
  @ [ m "server.rwlock_wait_ms" "ms" (ms rw_sum /. ops);
      m "server.frames_per_op" "count" (counter_delta ~before:t.before ~after:t.after "fb.net.frames" /. ops);
      m "postree.node_cache_hit_ratio" "ratio" (if hits +. misses > 0.0 then hits /. (hits +. misses) else 0.0);
      m "postree.chunks_read_per_op" "count" (misses /. ops);
      m "postree.chunker_bytes_per_op" "B" ((c1.c_chunker_bytes -. c0.c_chunker_bytes) /. ops);
      m "chunk.get_ms" "ms" (ms (c1.c_get_s -. c0.c_get_s) /. ops);
      m "chunk.put_ms" "ms" (ms (c1.c_put_s -. c0.c_put_s) /. ops);
      m "chunk.gets_per_op" "count" (per_op (c1.c_gets - c0.c_gets));
      m "chunk.puts_per_op" "count" (per_op (c1.c_puts - c0.c_puts));
      m "chunk.new_puts_per_op" "count" (per_op (c1.c_new_puts - c0.c_new_puts));
      m "chunk.flushes_per_op" "count" (per_op (c1.c_flushes - c0.c_flushes));
      m "chunk.log_bytes_per_user_byte" "ratio"
        (float_of_int (c1.c_log_bytes - c0.c_log_bytes) /. float_of_int (max 1 t.user_bytes));
      m "hash.bytes_per_op" "B" (per_op (c1.c_put_bytes - c0.c_put_bytes));
      m "sync.rounds_per_op" "count" (per_op rounds);
      m "sync.chunks_moved_per_op" "count" (per_op moved);
      m "sync.chunks_skipped_per_op" "count" (per_op skipped);
      m "sync.bloom_fp_per_op" "count" (per_op fp);
      m "trace.overhead_pct" "%" t.overhead_pct ]
