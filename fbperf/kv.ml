(* kv: point get/put over one pipelined connection.

   Set-up preloads 50,000 keys with 100-B values in 64-op BATCH frames.
   The timed phase is a fixed count of requests, 90% get and 10% put on
   Zipfian (theta 0.99) keys, with 8 requests in flight (Mux.send/await).
   After it, a fixed probe of 300 branch / diff / merge requests on
   separate keys gives the versioning verbs' latency on small values. *)

open Common
module Mux = Fb_net.Mux
module Frame = Fb_net.Frame
module Prng = Fb_hash.Prng

let n_keys = 50_000
let value_len = 100
let window = 8
let preload_batch = 64
let ops_per_second = 20_000
let probes = 300

type op = Get of int | Put of int * string

let key i = Printf.sprintf "k%05d" i
let probe_key p = Printf.sprintf "p%03d" p
let letters rng n = String.init n (fun _ -> Char.chr (97 + Prng.next_int rng 26))

(* A 100-B value whose first 8 bytes make it unique to its writer. *)
let value rng tag = Printf.sprintf "%08d" tag ^ letters rng (value_len - 8)

type inputs = {
  initial : string array;
  ops : op array;
  warm : op array;
  probe_v0 : string array;
  probe_v1 : string array;
  puts_of_key : (int, (int * string) array) Hashtbl.t;  (* ascending op index *)
}

(* Every key, value and operation, from the seed alone.  Two puts to one
   key are never within [window] operations of each other, so the server
   applies a key's puts in order and each get has a precise model. *)
let generate ~seed ~n_ops =
  let rng = Prng.create (Int64.of_int seed) in
  let initial = Array.init n_keys (fun i -> value rng (100_000_000 + i)) in
  let perm = Array.init n_keys Fun.id in
  for i = n_keys - 1 downto 1 do
    let j = Prng.next_int rng (i + 1) in
    let t = perm.(i) in
    perm.(i) <- perm.(j);
    perm.(j) <- t
  done;
  let zipf = Fb_workload.Zipf.create ~theta:0.99 (Prng.split rng) ~n:n_keys in
  let draw () = perm.(Fb_workload.Zipf.next zipf) in
  let last_put = Array.make n_keys (-window) in
  let ops =
    Array.init n_ops (fun i ->
        if Prng.next_int rng 10 = 0 then begin
          let rec pick () =
            let k = draw () in
            if i - last_put.(k) < window then pick () else k
          in
          let k = pick () in
          last_put.(k) <- i;
          Put (k, value rng i)
        end
        else Get (draw ()))
  in
  let warm = Array.init 4_096 (fun _ -> Get (draw ())) in
  let puts_of_key = Hashtbl.create 1024 in
  Array.iteri
    (fun i -> function
      | Put (k, v) ->
        Hashtbl.replace puts_of_key k
          ((i, v) :: Option.value (Hashtbl.find_opt puts_of_key k) ~default:[])
      | Get _ -> ())
    ops;
  let puts_of_key =
    let t = Hashtbl.create 1024 in
    Hashtbl.iter (fun k l -> Hashtbl.replace t k (Array.of_list (List.rev l))) puts_of_key;
    t
  in
  { initial; ops; warm;
    probe_v0 = Array.init probes (fun p -> value rng (200_000_000 + p));
    probe_v1 = Array.init probes (fun p -> value rng (300_000_000 + p));
    puts_of_key }

(* The values a get at op [i] may return: the last put to its key that
   was acknowledged before the get was sent (index <= i - window), or any
   put still in flight around it. *)
let get_ok inp i k got =
  let puts = Option.value (Hashtbl.find_opt inp.puts_of_key k) ~default:[||] in
  let settled = ref inp.initial.(k) and ok = ref false in
  Array.iter
    (fun (j, v) ->
      if j <= i - window then settled := v
      else if j < i + window && String.equal v got then ok := true)
    puts;
  !ok || String.equal !settled got

let request = function
  | Get k -> Frame.Single [ "get"; key k; "master" ]
  | Put (k, v) -> Frame.Single [ "put"; key k; "master"; v ]

(* Issue [ops] with [window] requests in flight; [on_done i dt reply]
   sees each reply in issue order. *)
let pipeline mux ops ~on_done =
  let q = Queue.create () in
  let finish () =
    let i, tk, t0 = Queue.pop q in
    let r = match tk with Ok tk -> Mux.await mux tk | Error e -> Error e in
    on_done i (now () -. t0) r
  in
  Array.iteri
    (fun i op ->
      if Queue.length q >= window then finish ();
      let name = match op with Get _ -> "fbperf.get" | Put _ -> "fbperf.put" in
      let t0 = now () in
      let tk = call name (fun () -> Mux.send mux (request op)) in
      Queue.push (i, tk, t0) q)
    ops;
  while not (Queue.is_empty q) do finish () done

let payload = function
  | Ok (Frame.One (Ok s)) -> Some s
  | _ -> None

let setup ~exe ~inp i =
  let srv = spawn ~exe (Printf.sprintf "kv%d" i) in
  let r = connect srv in
  let puts =
    List.init n_keys (fun k ->
        Remote.Put { key = key k; branch = "master"; value = inp.initial.(k) })
    @ List.init probes (fun p ->
        Remote.Put { key = probe_key p; branch = "master"; value = inp.probe_v0.(p) })
  in
  let rec load = function
    | [] -> ()
    | l ->
      let chunk = List.filteri (fun j _ -> j < preload_batch) l in
      let rest = List.filteri (fun j _ -> j >= preload_batch) l in
      let replies = ok_or "preload batch" (Remote.batch r chunk) in
      if List.exists Result.is_error replies then failwith "preload: a put was refused";
      load rest
  in
  load puts;
  let mux = match Mux.connect ~port:srv.port () with
    | Ok m -> m
    | Error e -> failwith ("mux connect: " ^ Fb_net.Client.error_to_string e)
  in
  pipeline mux inp.warm ~on_done:(fun _ _ reply ->
      if payload reply = None then failwith "warm-up get failed");
  (srv, r, mux)

let discard (srv, r, mux) =
  Mux.close mux;
  Remote.close r;
  stop srv

type timed = {
  get_lat : samples;
  put_lat : samples;
  wall : float;
  wire : int;
}

(* Replies are kept and checked after the clock stops, so the client
   does no more per-request work than the pipeline itself. *)
let timed_phase inp mux tl =
  let n = Array.length inp.ops in
  let lat = Array.make n 0.0 and replies = Array.make n None in
  let io0 = io_mark () in
  let t0 = now () in
  pipeline mux inp.ops ~on_done:(fun i dt reply ->
      lat.(i) <- dt;
      replies.(i) <- payload reply);
  let wall = now () -. t0 in
  let wire = io_since io0 in
  let get_lat = samples () and put_lat = samples () in
  Array.iteri
    (fun i op ->
      match op with
      | Get k ->
        record get_lat lat.(i);
        let ok = match replies.(i) with Some v -> get_ok inp i k v | None -> false in
        check tl ok (if ok then "" else Printf.sprintf "get %s at op %d" (key k) i)
      | Put _ ->
        record put_lat lat.(i);
        check tl (replies.(i) <> None) "put")
    inp.ops;
  { get_lat; put_lat; wall; wire }

type probe = { branch_lat : samples; diff_lat : samples; merge_lat : samples }

(* Branch, write the branch, diff it against master, merge it back (a
   fast-forward for a string) and read master. *)
let probe_phase inp r tl =
  let branch_lat = samples () and diff_lat = samples () and merge_lat = samples () in
  let timed_raw lat name tokens =
    let t0 = now () in
    let res = call name (fun () -> Remote.raw r tokens) in
    record lat (now () -. t0);
    res
  in
  for p = 0 to probes - 1 do
    let k = probe_key p and v0 = inp.probe_v0.(p) and v1 = inp.probe_v1.(p) in
    let b = timed_raw branch_lat "fbperf.branch" [ "branch"; k; "master"; "b" ] in
    check tl (Result.is_ok b) ("branch " ^ k);
    check tl (Result.is_ok (Remote.raw r [ "put"; k; "b"; v1 ])) ("put on branch " ^ k);
    let d = timed_raw diff_lat "fbperf.diff" [ "diff"; k; "master"; "b" ] in
    check tl
      (match d with
       | Ok s -> String.starts_with ~prefix:(Printf.sprintf "value changed: %s -> %s\n" v0 v1) s
       | Error _ -> false)
      ("diff " ^ k);
    let mg = timed_raw merge_lat "fbperf.merge" [ "merge"; k; "master"; "b" ] in
    check tl (Result.is_ok mg) ("merge " ^ k);
    check tl (Remote.raw r [ "get"; k; "master" ] = Ok v1) ("get after merge " ^ k)
  done;
  { branch_lat; diff_lat; merge_lat }

(* Payload submitted after set-up: timed puts and probe branch writes. *)
let user_bytes inp =
  Array.fold_left (fun acc -> function Put (_, v) -> acc + String.length v | Get _ -> acc) 0 inp.ops
  + (probes * value_len)

(* The same request sequence through Service.dispatch in-process. *)
let replay inp =
  let rp = Layers.create_replay () in
  let d ?role tokens = ignore (Layers.dispatch rp ?role tokens) in
  Array.iteri (fun k v -> d [ "put"; key k; "master"; v ]) inp.initial;
  Array.iteri (fun p v -> d [ "put"; probe_key p; "master"; v ]) inp.probe_v0;
  Array.iter (function Get k -> d [ "get"; key k; "master" ] | Put _ -> ()) inp.warm;
  let c0 = Layers.start_measuring rp in
  Array.iter
    (function
      | Get k -> Layers.count_op rp "read"; d ~role:"read" [ "get"; key k; "master" ]
      | Put (k, v) -> Layers.count_op rp "write"; d ~role:"write" [ "put"; key k; "master"; v ])
    inp.ops;
  for p = 0 to probes - 1 do
    let k = probe_key p in
    Layers.count_op rp "branch";
    d ~role:"branch" [ "branch"; k; "master"; "b" ];
    d [ "put"; k; "b"; inp.probe_v1.(p) ];
    Layers.count_op rp "diff";
    d ~role:"diff" [ "diff"; k; "master"; "b" ];
    Layers.count_op rp "merge";
    d ~role:"merge" [ "merge"; k; "master"; "b" ];
    d [ "get"; k; "master" ]
  done;
  (rp, c0)

(* Repetitions per run; the timed phase of each is a fifth of the
   operations --seconds asks for. *)
let reps = 5

let run ~exe ~seed ~seconds ~trace =
  let n_ops = ops_per_second * seconds / reps in
  let inp = generate ~seed ~n_ops in
  let tl = tally () in
  if not trace then begin
    let one i =
      let (srv, r, mux), setup_s = timed_s (fun () -> setup ~exe ~inp i) in
      let t = timed_phase inp mux tl in
      let p = probe_phase inp r tl in
      let initial = (n_keys + probes) * value_len in
      let space = float_of_int (log_bytes srv.root) /. float_of_int (initial + user_bytes inp) in
      let rss = peak_rss_mb srv.pid in
      discard (srv, r, mux);
      [ m "setup_s" "s" setup_s;
        m "ops_per_s" "1/s" (float_of_int n_ops /. t.wall);
        m "read_p50_ms" "ms" (1000.0 *. median t.get_lat.lat);
        m "write_p50_ms" "ms" (1000.0 *. median t.put_lat.lat);
        m "diff_p50_ms" "ms" (1000.0 *. median p.diff_lat.lat);
        m "merge_p50_ms" "ms" (1000.0 *. median p.merge_lat.lat);
        m "space_amp" "ratio" space;
        m "wire_kib_per_op" "KiB" (float_of_int t.wire /. float_of_int n_ops /. 1024.0);
        m "server_rss_mb" "MB" rss ]
    in
    (repeat ~reps one, tl)
  end
  else begin
    let pass ~trace i =
      let ((_, r, mux) as st) = setup ~exe ~inp i in
      Fun.protect ~finally:(fun () -> discard st) (fun () ->
          with_tracing trace (fun () ->
              let before = snapshot r in
              let t = timed_phase inp mux tl in
              let mid = snapshot r in
              let p = probe_phase inp r tl in
              let after = snapshot r in
              (float_of_int n_ops /. t.wall, (t, p, before, mid, after))))
    in
    let (t, p, before, mid, after), overhead_pct = traced_pairs ~pairs:3 pass in
    let rp, c0 = replay inp in
    let sv a b verbs = verb_seconds ~before:a ~after:b verbs in
    let layers =
      Layers.per_layer
        { Layers.client =
            [ ("read", t.get_lat); ("write", t.put_lat); ("branch", p.branch_lat);
              ("diff", p.diff_lat); ("merge", p.merge_lat) ];
          server_s =
            [ ("read", sv before mid [ "get" ]); ("write", sv before mid [ "put" ]);
              ("branch", sv mid after [ "branch" ]); ("diff", sv mid after [ "diff" ]);
              ("merge", sv mid after [ "merge" ]) ];
          before; after;
          ops = n_ops + (3 * probes);
          user_bytes = user_bytes inp;
          sync = (0, 0, 0, 0);
          overhead_pct }
        rp c0
    in
    Layers.close_replay rp;
    (layers, tl)
  end
