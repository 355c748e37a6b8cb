(* dataset: versioned-table editing on two concurrent connections.

   Each of two client threads owns one connection and one table key
   (5,000 rows x 6 string columns, ~0.42 MB of CSV, ~200 leaf chunks;
   both trees fit the 1,024-entry node cache).  One operation is one
   iteration on one connection, one request in flight, and each step
   starts on both connections together:

     branch; put-csv of the branch (edits in the first half of the rows);
     put-csv of master (edits in the second half); diff master b;
     merge b into master (a real three-way merge); get master. *)

open Common
module Prng = Fb_hash.Prng
module Csv = Fb_types.Csv

let rows = 5_000
let string_columns = 6
let conns = 2
let edits_per_half = 8
let iterations_per_second = 11

type iter = {
  b : string;                  (* the iteration's branch *)
  csv_b : string;              (* branch version: first-half edits *)
  csv_m : string;              (* master version: second-half edits *)
  merged : Digest.t;           (* rendering of the merge of both *)
  edited : string list;        (* ids of the edited rows, sorted *)
}

type table = { tkey : string; initial : string; iters : iter array }

(* Every CSV version and edit set of one table, from the seed alone. *)
let generate_table ~seed ~c ~n =
  let spec =
    { Fb_workload.Csvgen.rows; string_columns; int_columns = 0;
      seed = Int64.of_int ((seed * 16) + c) }
  in
  let header, data =
    match Fb_workload.Csvgen.generate_rows spec with
    | h :: d -> (h, Array.of_list d)
    | [] -> assert false
  in
  let rng = Prng.create (Int64.of_int ((seed * 16) + c + 8)) in
  let render d = Csv.render (header :: Array.to_list d) in
  let initial = render data in
  (* [k] distinct rows in [lo, lo + rows/2), one fresh cell each. *)
  let edits i ~lo =
    let picked = Hashtbl.create 16 in
    while Hashtbl.length picked < edits_per_half do
      Hashtbl.replace picked (lo + Prng.next_int rng (rows / 2)) ()
    done;
    List.map
      (fun r ->
        let col = 1 + Prng.next_int rng string_columns in
        (r, col, Printf.sprintf "upd%d-%d-%d" c i r))
      (List.sort compare (List.of_seq (Hashtbl.to_seq_keys picked)))
  in
  let apply d es =
    let d = Array.copy d in
    List.iter (fun (r, col, v) -> d.(r) <- List.mapi (fun j x -> if j = col then v else x) d.(r)) es;
    d
  in
  let state = ref data in
  let iters =
    Array.init n (fun i ->
        let e1 = edits i ~lo:0 and e2 = edits i ~lo:(rows / 2) in
        let s = !state in
        let merged = apply s (e1 @ e2) in
        state := merged;
        { b = Printf.sprintf "b%d" i;
          csv_b = render (apply s e1);
          csv_m = render (apply s e2);
          merged = Digest.string (render merged);
          edited = List.map (fun (r, _, _) -> List.hd data.(r)) (e1 @ e2) })
  in
  { tkey = Printf.sprintf "t%d" c; initial; iters }

let generate ~seed ~seconds =
  let n = max 1 (iterations_per_second * seconds / conns) in
  Array.init conns (fun c -> generate_table ~seed ~c ~n)

(* The rows a diff reports as modified: its "~ row "ID":" lines. *)
let modified_rows diff =
  List.filter_map
    (fun l ->
      if String.starts_with ~prefix:"~ row \"" l then
        match String.index_from_opt l 7 '"' with
        | Some j -> Some (String.sub l 7 (j - 7))
        | None -> None
      else None)
    (String.split_on_char '\n' diff)

type lat = { branch : samples; write : samples; diff : samples; merge : samples; read : samples }

let lat () =
  { branch = samples (); write = samples (); diff = samples (); merge = samples (); read = samples () }

(* Combine the connections' latencies.  [`Steps]: one sample per step,
   the later of its twins (both started together) — the end-to-end
   view.  A single request's latency is bimodal here (its twin held the
   runtime lock first, or not), so its median jumps between the modes;
   a step's is not.  [`Requests]: every request's own latency — the
   traced view, which the server's per-request times are set against. *)
let combine how ls =
  let each f =
    match how, ls with
    | `Steps, first :: rest ->
      { lat = List.fold_left (fun acc l -> List.map2 Float.max acc (f l).lat) (f first).lat rest }
    | _ -> { lat = List.concat_map (fun l -> (f l).lat) ls }
  in
  { branch = each (fun l -> l.branch); write = each (fun l -> l.write); diff = each (fun l -> l.diff);
    merge = each (fun l -> l.merge); read = each (fun l -> l.read) }

(* Each step of an iteration starts on both connections together: a
   request then overlaps only its twin on the other connection, not
   whichever step the other thread happens to be in.  A thread that fails
   breaks the barrier so that the other cannot wait forever. *)
type barrier = {
  mu : Mutex.t;
  cv : Condition.t;
  mutable waiting : int;
  mutable generation : int;
  mutable broken : bool;
}

let barrier () =
  { mu = Mutex.create (); cv = Condition.create (); waiting = 0; generation = 0; broken = false }

let await b =
  Mutex.protect b.mu (fun () ->
      let g = b.generation in
      b.waiting <- b.waiting + 1;
      if b.waiting = conns then begin
        b.waiting <- 0;
        b.generation <- g + 1;
        Condition.broadcast b.cv
      end
      else
        while b.generation = g && not b.broken do Condition.wait b.cv b.mu done)

let break b =
  Mutex.protect b.mu (fun () ->
      b.broken <- true;
      Condition.broadcast b.cv)

(* One connection's iterations, checking every answer. *)
let drive b r tbl tl l =
  let req s name tokens =
    await b;
    let t0 = now () in
    let res = call name (fun () -> Remote.raw r tokens) in
    record s (now () -. t0);
    res
  in
  let k = tbl.tkey in
  Array.iter
    (fun it ->
      let ok what res = check tl (Result.is_ok res) (what ^ " " ^ k ^ " " ^ it.b) in
      ok "branch" (req l.branch "fbperf.branch" [ "branch"; k; "master"; it.b ]);
      ok "put-csv" (req l.write "fbperf.put-csv" [ "put-csv"; k; it.b; it.csv_b ]);
      ok "put-csv" (req l.write "fbperf.put-csv" [ "put-csv"; k; "master"; it.csv_m ]);
      let n = List.length it.edited in
      let expect = Printf.sprintf "0 rows added, 0 removed, %d modified (%d cells)\n" n n in
      check tl
        (match req l.diff "fbperf.diff" [ "diff"; k; "master"; it.b ] with
         | Ok d ->
           String.starts_with ~prefix:expect d
           && List.sort compare (modified_rows d) = List.sort compare it.edited
         | Error _ -> false)
        ("diff " ^ k ^ " " ^ it.b);
      ok "merge" (req l.merge "fbperf.merge" [ "merge"; k; "master"; it.b ]);
      check tl
        (match req l.read "fbperf.get" [ "get"; k; "master" ] with
         | Ok csv -> Digest.equal (Digest.string csv) it.merged
         | Error _ -> false)
        ("merged get " ^ k ^ " " ^ it.b))
    tbl.iters

let setup ~exe ~tables i =
  let srv = spawn ~exe (Printf.sprintf "dataset%d" i) in
  let rs = Array.map (fun _ -> connect srv) tables in
  Array.iteri
    (fun c tbl ->
      ignore (ok_or "initial put-csv" (Remote.raw rs.(c) [ "put-csv"; tbl.tkey; "master"; tbl.initial ]));
      for _ = 1 to 4 do
        let got = ok_or "warm-up get" (Remote.raw rs.(c) [ "get"; tbl.tkey; "master" ]) in
        if not (String.equal got tbl.initial) then failwith "warm-up get: table differs from its CSV"
      done)
    tables;
  (srv, rs)

let discard (srv, rs) =
  Array.iter Remote.close rs;
  stop srv

(* Both connections at once; returns combined latencies, wall time and
   wire bytes. *)
let timed_phase ~how tables rs tl =
  let ls = Array.map (fun _ -> lat ()) tables in
  let io0 = io_mark () in
  let t0 = now () in
  let failure = Atomic.make None in
  let b = barrier () in
  let threads =
    Array.mapi
      (fun c tbl ->
        Thread.create
          (fun () ->
            try drive b rs.(c) tbl tl ls.(c)
            with e -> Atomic.set failure (Some e); break b)
          ())
      tables
  in
  Array.iter Thread.join threads;
  let wall = now () -. t0 in
  let wire = io_since io0 in
  Option.iter raise (Atomic.get failure);
  (combine how (Array.to_list ls), wall, wire)

let n_ops tables = Array.fold_left (fun a t -> a + Array.length t.iters) 0 tables

let user_bytes ~initial tables =
  Array.fold_left
    (fun a t ->
      Array.fold_left
        (fun a it -> a + String.length it.csv_b + String.length it.csv_m)
        (if initial then a + String.length t.initial else a) t.iters)
    0 tables

let replay tables =
  let rp = Layers.create_replay () in
  let d ?role tokens = ignore (Layers.dispatch rp ?role tokens) in
  Array.iter
    (fun t ->
      d [ "put-csv"; t.tkey; "master"; t.initial ];
      for _ = 1 to 4 do d [ "get"; t.tkey; "master" ] done)
    tables;
  let c0 = Layers.start_measuring rp in
  let n = Array.length tables.(0).iters in
  for i = 0 to n - 1 do
    Array.iter
      (fun t ->
        let it = t.iters.(i) and k = t.tkey in
        let op role tokens = Layers.count_op rp role; d ~role tokens in
        op "branch" [ "branch"; k; "master"; it.b ];
        op "write" [ "put-csv"; k; it.b; it.csv_b ];
        op "write" [ "put-csv"; k; "master"; it.csv_m ];
        op "diff" [ "diff"; k; "master"; it.b ];
        op "merge" [ "merge"; k; "master"; it.b ];
        op "read" [ "get"; k; "master" ])
      tables
  done;
  (rp, c0)

(* Repetitions per run; each runs a tenth of the iterations --seconds
   asks for, so that no branch history grows long. *)
let reps = 10

let run ~exe ~seed ~seconds ~trace =
  let tables = generate ~seed ~seconds:(max 1 (seconds / reps)) in
  let ops = n_ops tables in
  let tl = tally () in
  if not trace then begin
    let one i =
      let (srv, rs), setup_s = timed_s (fun () -> setup ~exe ~tables i) in
      let l, wall, wire = timed_phase ~how:`Steps tables rs tl in
      let space = float_of_int (log_bytes srv.root) /. float_of_int (user_bytes ~initial:true tables) in
      let rss = peak_rss_mb srv.pid in
      discard (srv, rs);
      [ m "setup_s" "s" setup_s;
        m "ops_per_s" "1/s" (float_of_int ops /. wall);
        m "read_p50_ms" "ms" (1000.0 *. median l.read.lat);
        m "write_p50_ms" "ms" (1000.0 *. median l.write.lat);
        m "diff_p50_ms" "ms" (1000.0 *. median l.diff.lat);
        m "merge_p50_ms" "ms" (1000.0 *. median l.merge.lat);
        m "space_amp" "ratio" space;
        m "wire_kib_per_op" "KiB" (float_of_int wire /. float_of_int ops /. 1024.0);
        m "server_rss_mb" "MB" rss ]
    in
    (repeat ~reps one, tl)
  end
  else begin
    let pass ~trace i =
      let ((_, rs) as st) = setup ~exe ~tables i in
      Fun.protect ~finally:(fun () -> discard st) (fun () ->
          with_tracing trace (fun () ->
              let before = snapshot rs.(0) in
              let l, wall, _ = timed_phase ~how:`Requests tables rs tl in
              let after = snapshot rs.(0) in
              (float_of_int ops /. wall, (l, before, after))))
    in
    let (l, before, after), overhead_pct = traced_pairs ~pairs:3 pass in
    let rp, c0 = replay tables in
    let sv verbs = verb_seconds ~before ~after verbs in
    let layers =
      Layers.per_layer
        { Layers.client =
            [ ("read", l.read); ("write", l.write); ("diff", l.diff); ("merge", l.merge);
              ("branch", l.branch) ];
          server_s =
            [ ("read", sv [ "get" ]); ("write", sv [ "put-csv" ]); ("diff", sv [ "diff" ]);
              ("merge", sv [ "merge" ]); ("branch", sv [ "branch" ]) ];
          before; after; ops;
          user_bytes = user_bytes ~initial:false tables;
          sync = (0, 0, 0, 0);
          overhead_pct }
        rp c0
    in
    Layers.close_replay rp;
    (layers, tl)
  end
