(* sync: delta replication of a map larger than the node cache.

   This process holds a local Forkbase over a mem store with a
   1,000,000-record map (~9,000 chunks, ~9x the 1,024-entry node cache)
   on master, and a "curated" branch of it that changes 100 reserved
   records.  Set-up pushes both to the server and pulls master into a
   second local replica.  One operation is a seeded 0.1% edit of master
   (half a contiguous key range, half scattered keys, applied with
   Pmap.update), committed locally and pushed; the server then diffs
   curated against master and merges master into curated, a three-way
   merge of a 1M-record map.  Every 4th operation also pulls master into
   the replica. *)

open Common
module Prng = Fb_hash.Prng
module Hash = Fb_hash.Hash
module Pmap = Fb_postree.Pmap
module Forkbase = Fb_core.Forkbase
module Sync = Fb_core.Sync

let records = 1_000_000
let edits_per_op = 1_000
(* Operations per 10 s of --seconds, before the split into repetitions. *)
let ops_per_10s = 30
let pull_every = 4
let tkey = "table"

(* Records only the curated branch changes; master's edits avoid them,
   so every merge is clean. *)
let reserved i = i mod 10_000 = 5_000
let curated_edits = records / 10_000

let key i = Printf.sprintf "r%07d" i
let letters rng n = String.init n (fun _ -> Char.chr (97 + Prng.next_int rng 26))

type inputs = {
  seed : int;                          (* the base map's values derive from it *)
  curated : (int * string) array;      (* the curated branch's edit *)
  edits : (int * string) array array;  (* per op: (record, new value), by record *)
}

let value_len = 8

(* The base map's values are a function of (seed, record), drawn while
   the map is built rather than kept: a million small strings would only
   slow the client's collector. *)
let generate ~seed ~n_ops =
  let rng = Prng.create (Int64.of_int (seed + 1)) in
  let curated =
    Array.init curated_edits (fun j -> ((j * 10_000) + 5_000, "c-" ^ letters rng 6))
  in
  let edits =
    Array.init n_ops (fun i ->
        let picked = Hashtbl.create edits_per_op in
        let start = Prng.next_int rng (records - edits_per_op) in
        let r = ref start in
        while Hashtbl.length picked < edits_per_op / 2 do
          if not (reserved !r) then Hashtbl.replace picked !r ();
          incr r
        done;
        while Hashtbl.length picked < edits_per_op do
          let r = Prng.next_int rng records in
          if not (reserved r) then Hashtbl.replace picked r ()
        done;
        let rs = List.sort compare (List.of_seq (Hashtbl.to_seq_keys picked)) in
        Array.of_list (List.map (fun r -> (r, Printf.sprintf "e%d-%s" i (letters rng 4))) rs))
  in
  { seed; curated; edits }

let record_bytes k v = String.length k + String.length v

let update map es =
  Pmap.update map (Array.to_list (Array.map (fun (r, v) -> Pmap.Put (Pmap.binding (key r) v)) es))

(* The local store and version 0 of the map, built once per run. *)
type base = { store : Fb_chunk.Store.t; map0 : Pmap.t; curated_map : Pmap.t }

let build_base inp =
  let store = Fb_chunk.Mem_store.create () in
  let map0 =
    Pmap.build_sorted_seq store
      (Seq.init records (fun i ->
           let rng = Prng.create (Int64.add (Int64.mul (Int64.of_int inp.seed) 1_000_003L) (Int64.of_int i)) in
           Pmap.binding (key i) (letters rng value_len)))
  in
  { store; map0; curated_map = update map0 inp.curated }

(* A fresh local source over the shared store: master at version 0 and
   curated one commit ahead of it.  The versions are content-addressed,
   so every repetition starts from identical uids. *)
let source b =
  let fb = Forkbase.create b.store in
  let head0 = ok_or "local put" (Forkbase.put fb ~key:tkey (Fb_types.Value.Map b.map0)) in
  ignore (ok_or "local fork" (Forkbase.fork fb ~key:tkey ~new_branch:"curated"));
  let curated =
    ok_or "local curated put"
      (Forkbase.put fb ~branch:"curated" ~key:tkey (Fb_types.Value.Map b.curated_map))
  in
  (fb, head0, curated)

type live = { srv : server; r : Remote.t; replica : Forkbase.t }

let setup ~exe ~src i =
  let srv = spawn ~exe (Printf.sprintf "sync%d" i) in
  let r = connect srv in
  ignore (ok_or "full push" (Remote.push r src ~key:tkey));
  ignore (ok_or "curated push" (Remote.push r src ~branch:"curated" ~key:tkey));
  let replica = Forkbase.create (Fb_chunk.Mem_store.create ()) in
  ignore (ok_or "full pull" (Remote.pull r replica ~key:tkey));
  { srv; r; replica }

let discard l =
  Remote.close l.r;
  stop l.srv

type timed = {
  push_lat : samples;
  pull_lat : samples;
  diff_lat : samples;
  merge_lat : samples;
  wall : float;
  wire : int;
  heads : Hash.t array;
  stats : int * int * int * int;
  pull_server_s : float;   (* server handler seconds inside pulls (traced runs) *)
}

(* Server handler seconds of every verb but the ones named. *)
let handler_seconds ~before ~after ~except =
  List.fold_left
    (fun acc (name, _) ->
      if String.starts_with ~prefix:"fb.net." name
         && String.ends_with ~suffix:"_seconds" name
         && not (List.mem name except)
      then acc +. hist_delta ~before ~after name
      else acc)
    0.0 after.hists

let not_pull = [ "fb.net.metrics_json_seconds" ]

let timed_phase inp ~src ~map0 l tl =
  let push_lat = samples () and pull_lat = samples () in
  let diff_lat = samples () and merge_lat = samples () in
  let map = ref map0 in
  let rounds = ref 0 and moved = ref 0 and skipped = ref 0 and fp = ref 0 in
  let pull_server_s = ref 0.0 in
  let add (s : Sync.stats) =
    rounds := !rounds + s.Sync.rounds;
    moved := !moved + s.Sync.chunks_moved;
    skipped := !skipped + s.Sync.chunks_skipped;
    fp := !fp + s.Sync.bloom_fp
  in
  let timed_call lat name f =
    let t0 = now () in
    let res = call name f in
    record lat (now () -. t0);
    res
  in
  let n = Array.length inp.edits in
  let heads = Array.make n (Hash.of_string "") in
  let io0 = io_mark () in
  let t0 = now () in
  for i = 0 to n - 1 do
    let es = inp.edits.(i) in
    map := update !map es;
    let head = ok_or "local commit" (Forkbase.put src ~key:tkey (Fb_types.Value.Map !map)) in
    heads.(i) <- head;
    let what s = Printf.sprintf "%s at op %d" s i in
    (match timed_call push_lat "fbperf.push" (fun () -> Remote.push l.r src ~key:tkey) with
     | Ok (uid, s) -> add s; check tl (Hash.equal uid head) (what "push head")
     | Error _ -> check tl false (what "push"));
    (* Curated is master's previous head plus its own edit: the diff is
       exactly that edit and this operation's. *)
    let n_mod = Array.length es + curated_edits in
    let expect = Printf.sprintf "0 entries added, 0 removed, %d modified\n" n_mod in
    check tl
      (match timed_call diff_lat "fbperf.diff" (fun () -> Remote.raw l.r [ "diff"; tkey; "curated"; "master" ]) with
       | Ok d -> String.starts_with ~prefix:expect d
       | Error _ -> false)
      (what "diff");
    check tl
      (Result.is_ok
         (timed_call merge_lat "fbperf.merge" (fun () -> Remote.raw l.r [ "merge"; tkey; "curated"; "master" ])))
      (what "merge");
    if i mod pull_every = pull_every - 1 then begin
      let before = if !traced then Some (snapshot l.r) else None in
      (match timed_call pull_lat "fbperf.pull" (fun () -> Remote.pull l.r l.replica ~key:tkey) with
       | Ok (uid, s) -> add s; check tl (Hash.equal uid head) (what "pull head")
       | Error _ -> check tl false (what "pull"));
      Option.iter
        (fun before ->
          let after = snapshot l.r in
          pull_server_s := !pull_server_s +. handler_seconds ~before ~after ~except:not_pull)
        before
    end
  done;
  let wall = now () -. t0 in
  let wire = io_since io0 in
  (* The replica holds what the server holds, and every Merkle hash of
     it recomputes. *)
  let last = heads.(n - 1) in
  check tl (Result.map (Hash.equal last) (Remote.head l.r ~key:tkey) = Ok true) "server head";
  let pulled = heads.((n / pull_every * pull_every) - 1) in
  check tl (Result.map (Hash.equal pulled) (Forkbase.head l.replica ~key:tkey) = Ok true)
    "replica head";
  check tl (Result.is_ok (Forkbase.verify l.replica (ok_or "replica head" (Forkbase.head l.replica ~key:tkey))))
    "replica verify";
  { push_lat; pull_lat; diff_lat; merge_lat; wall; wire; heads;
    stats = (!rounds, !moved, !skipped, !fp); pull_server_s = !pull_server_s }

let user_bytes inp ~initial =
  let edits =
    Array.fold_left
      (fun a es -> Array.fold_left (fun a (r, v) -> a + record_bytes (key r) v) a es)
      0 inp.edits
  in
  let curated = Array.fold_left (fun a (r, v) -> a + record_bytes (key r) v) 0 inp.curated in
  if initial then
    edits + curated + (records * (String.length (key 0) + value_len))
  else edits

let replay ~store ~head0 ~curated heads =
  let rp = Layers.create_replay () in
  Layers.replay_push rp ~src:store ~key:tkey ~branch:"master" head0;
  Layers.replay_push rp ~src:store ~key:tkey ~branch:"curated" curated;
  let replica = Fb_chunk.Mem_store.create () in
  Layers.replay_pull rp ~dst:replica ~key:tkey ~branch:"master" ();
  let c0 = Layers.start_measuring rp in
  Array.iteri
    (fun i head ->
      Layers.count_op rp "write";
      Layers.replay_push rp ~src:store ~key:tkey ~branch:"master" head;
      Layers.count_op rp "diff";
      ignore (Layers.dispatch rp ~role:"diff" [ "diff"; tkey; "curated"; "master" ]);
      Layers.count_op rp "merge";
      ignore (Layers.dispatch rp ~role:"merge" [ "merge"; tkey; "curated"; "master" ]);
      if i mod pull_every = pull_every - 1 then begin
        Layers.count_op rp "read";
        Layers.replay_pull rp ~dst:replica ~key:tkey ~branch:"master" ()
      end)
    heads;
  (rp, c0)

(* Repetitions per run; each runs a fifth of the operations --seconds
   asks for, from version 0 of a fresh source. *)
let reps = 5

let run ~exe ~seed ~seconds ~trace =
  let n_ops = max pull_every (ops_per_10s * seconds / 10 / reps / pull_every * pull_every) in
  let inp = generate ~seed ~n_ops in
  let base = build_base inp in
  let tl = tally () in
  if not trace then begin
    let one i =
      let src, _, _ = source base in
      let l, setup_s = timed_s (fun () -> setup ~exe ~src i) in
      let t = timed_phase inp ~src ~map0:base.map0 l tl in
      let space = float_of_int (log_bytes l.srv.root) /. float_of_int (user_bytes inp ~initial:true) in
      let rss = peak_rss_mb l.srv.pid in
      discard l;
      [ m "setup_s" "s" setup_s;
        m "ops_per_s" "1/s" (float_of_int n_ops /. t.wall);
        m "read_p50_ms" "ms" (1000.0 *. median t.pull_lat.lat);
        m "write_p50_ms" "ms" (1000.0 *. median t.push_lat.lat);
        m "diff_p50_ms" "ms" (1000.0 *. median t.diff_lat.lat);
        m "merge_p50_ms" "ms" (1000.0 *. median t.merge_lat.lat);
        m "space_amp" "ratio" space;
        m "wire_kib_per_op" "KiB" (float_of_int t.wire /. float_of_int n_ops /. 1024.0);
        m "server_rss_mb" "MB" rss ]
    in
    (repeat ~reps one, tl)
  end
  else begin
    (* Every pass starts from version 0 of a fresh source, on a fresh
       server; two pairs keep the traced run well inside its time. *)
    let pass ~trace i =
      let src, head0, curated = source base in
      let l = setup ~exe ~src i in
      Fun.protect ~finally:(fun () -> discard l) (fun () ->
          with_tracing trace (fun () ->
              let before = snapshot l.r in
              let t = timed_phase inp ~src ~map0:base.map0 l tl in
              let after = snapshot l.r in
              (float_of_int n_ops /. t.wall, (t, before, after, head0, curated))))
    in
    let (t, before, after, head0, curated), overhead_pct = traced_pairs ~pairs:2 pass in
    let rp, c0 = replay ~store:base.store ~head0 ~curated t.heads in
    let hist name = hist_delta ~before ~after name in
    let all = handler_seconds ~before ~after ~except:not_pull in
    let diff = hist "fb.net.diff_seconds" and merge = hist "fb.net.merge_seconds" in
    let layers =
      Layers.per_layer
        { Layers.client =
            [ ("read", t.pull_lat); ("write", t.push_lat); ("diff", t.diff_lat);
              ("merge", t.merge_lat) ];
          server_s =
            [ ("read", t.pull_server_s); ("diff", diff); ("merge", merge);
              ("write", all -. diff -. merge -. t.pull_server_s) ];
          before; after;
          ops = n_ops;
          user_bytes = user_bytes inp ~initial:false;
          sync = t.stats;
          overhead_pct }
        rp c0
    in
    Layers.close_replay rp;
    (layers, tl)
  end
