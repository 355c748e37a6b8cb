(* Shared machinery of the benchmark: clocks and quantiles, the result
   line, the `forkbase serve` child, /proc readings, server metric
   snapshots, and the layer accounts of the traced run. *)

module Obs = Fb_obs.Obs
module Json = Fb_types.Json
module Remote = Fb_net.Remote

let now = Unix.gettimeofday

(* ------------------------- statistics ------------------------- *)

(* Linear interpolation between closest ranks over a copy of [xs]. *)
let quantile xs q =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then 0.0
  else
    let pos = q *. float_of_int (n - 1) in
    let lo = int_of_float pos in
    let hi = min (n - 1) (lo + 1) in
    a.(lo) +. ((pos -. float_of_int lo) *. (a.(hi) -. a.(lo)))

let median xs = quantile xs 0.5
let mean xs = match xs with [] -> 0.0 | _ -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

(* Latency samples of one operation role, in seconds. *)
type samples = { mutable lat : float list }

let samples () = { lat = [] }
let record s dt = s.lat <- dt :: s.lat

(* ------------------------- the result line ------------------------- *)

type metric = { name : string; value : float; unit_ : string }

let m name unit_ value = { name; value; unit_ }

let json_number v =
  if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let print_result ~correct ~attempted ~failed metrics =
  let body =
    String.concat ", "
      (List.map
         (fun x ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" x.name
             (json_number x.value) x.unit_)
         metrics)
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed body

(* Operation outcomes of one run: every refused, failed or wrong answer
   counts against the number attempted. *)
type tally = { mutable attempted : int; mutable failed : int; mutable notes : string list }

let tally () = { attempted = 0; failed = 0; notes = [] }

let tally_lock = Mutex.create ()

(* Thread-safe: the dataset workload checks from two threads. *)
let check t ok what =
  Mutex.protect tally_lock (fun () ->
      t.attempted <- t.attempted + 1;
      if not ok then begin
        t.failed <- t.failed + 1;
        if List.length t.notes < 5 then t.notes <- what :: t.notes
      end)

(* ------------------------- files ------------------------- *)

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    (try Unix.rmdir path with Unix.Unix_error _ -> ())
  | _ -> ( try Unix.unlink path with Unix.Unix_error _ -> ())

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* Bytes of the pack-log generation files under a store root. *)
let log_bytes root =
  let dir = Filename.concat root "log" in
  Array.fold_left
    (fun acc f ->
      if Filename.check_suffix f ".log" then
        acc + (Unix.stat (Filename.concat dir f)).Unix.st_size
      else acc)
    0
    (try Sys.readdir dir with Sys_error _ -> [||])

(* A "Field:   value ..." line of /proc text, as an integer. *)
let proc_field_of text ~path field =
  let prefix = field ^ ":" in
  match List.find_opt (String.starts_with ~prefix) (String.split_on_char '\n' text) with
  | None -> failwith (Printf.sprintf "%s: no %s line" path field)
  | Some l ->
    let rest = String.sub l (String.length prefix) (String.length l - String.length prefix) in
    let words = List.filter (( <> ) "") (String.split_on_char ' ' (String.trim rest)) in
    int_of_string (List.hd (String.split_on_char '\t' (List.hd words)))

let proc_field path field = proc_field_of (read_file path) ~path field

(* Bytes this process moved through read/write system calls: during a
   timed phase that does no file I/O these are the client's wire bytes.
   [io_mark ()] samples the counters; [io_since mark] is the traffic
   since, less the bytes of reading /proc/self/io at the mark (whose
   length varies with the counters' digits). *)
type io_mark = { total : int; self_read : int }

let io_mark () =
  let path = "/proc/self/io" in
  let text = read_file path in
  { total = proc_field_of text ~path "rchar" + proc_field_of text ~path "wchar";
    self_read = String.length text }

let io_since m = (io_mark ()).total - m.total - m.self_read

let peak_rss_mb pid =
  float_of_int (proc_field (Printf.sprintf "/proc/%d/status" pid) "VmHWM") /. 1024.0

(* ------------------------- the serve child ------------------------- *)

(* Every workload runs the server with these flags on a fresh root; all
   else (event engine, 4 workers, 16 stripes, 5 s table saves, the log
   backend) stays at serve's defaults.  BENCHMARK.json records them. *)
let serve_flags = [ "--port"; "0"; "--fsync"; "false" ]

type server = { pid : int; port : int; root : string; dir : string }

let live_pids : int list ref = ref []
let live_dirs : string list ref = ref []
let cleanup_lock = Mutex.create ()

let reap ?(grace_s = 10.0) pid =
  (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
  let deadline = now () +. grace_s in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ when now () < deadline -> Thread.delay 0.01; wait ()
    | 0, _ ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (Unix.waitpid [] pid)
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
    | exception Unix.Unix_error _ -> ()
  in
  wait ()

(* Kill and reap every child still alive, then remove every scratch
   directory — installed with [at_exit], so it runs on every exit path. *)
let cleanup () =
  Mutex.protect cleanup_lock (fun () ->
      List.iter (reap ~grace_s:2.0) !live_pids;
      live_pids := [];
      List.iter rm_rf !live_dirs;
      live_dirs := [];
      try Unix.rmdir ".fbperf_tmp" with Unix.Unix_error _ -> ())

let scratch_dir name =
  let d =
    Filename.concat ".fbperf_tmp" (Printf.sprintf "%d-%s" (Unix.getpid ()) name)
  in
  rm_rf d;
  mkdir_p d;
  Mutex.protect cleanup_lock (fun () -> live_dirs := d :: !live_dirs);
  d

let forget_dir d =
  rm_rf d;
  Mutex.protect cleanup_lock (fun () ->
      live_dirs := List.filter (( <> ) d) !live_dirs)

(* The port from serve's banner "forkbase: serving ROOT on HOST:PORT ...". *)
let banner_port text =
  let marker = " on 127.0.0.1:" in
  let ml = String.length marker and tl = String.length text in
  let rec find i =
    if i + ml > tl then None
    else if String.sub text i ml = marker then begin
      let j = ref (i + ml) in
      while !j < tl && text.[!j] >= '0' && text.[!j] <= '9' do incr j done;
      if !j > i + ml && !j < tl then
        Some (int_of_string (String.sub text (i + ml) (!j - i - ml)))
      else None
    end
    else find (i + 1)
  in
  find 0

let spawn ~exe name =
  let dir = scratch_dir name in
  let root = Filename.concat dir "root" in
  let out_path = Filename.concat dir "serve.out" in
  let err_path = Filename.concat dir "serve.err" in
  let open_w p = Unix.openfile p [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let out = open_w out_path and err = open_w err_path in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let argv = Array.of_list ((exe :: "serve" :: "--root" :: root :: serve_flags)) in
  let pid = Unix.create_process exe argv devnull out err in
  List.iter Unix.close [ out; err; devnull ];
  Mutex.protect cleanup_lock (fun () -> live_pids := pid :: !live_pids);
  let deadline = now () +. 60.0 in
  let rec await_banner () =
    match banner_port (read_file out_path) with
    | Some port -> port
    | None ->
      (match Unix.waitpid [ Unix.WNOHANG ] pid with
       | 0, _ -> ()
       | _ ->
         failwith ("forkbase serve exited before its banner: " ^ read_file err_path));
      if now () > deadline then failwith "forkbase serve printed no banner in 60 s";
      Thread.delay 0.005;
      await_banner ()
  in
  let port = await_banner () in
  { pid; port; root; dir }

let stop srv =
  reap srv.pid;
  Mutex.protect cleanup_lock (fun () ->
      live_pids := List.filter (( <> ) srv.pid) !live_pids);
  forget_dir srv.dir

let connect srv =
  match Remote.connect ~port:srv.port ~timeout_s:60.0 () with
  | Ok r -> r
  | Error e -> failwith ("connect: " ^ Fb_core.Errors.to_string e)

let ok_or what = function
  | Ok v -> v
  | Error e -> failwith (what ^ ": " ^ Fb_core.Errors.to_string e)

(* ------------------------- repetitions ------------------------- *)

(* [reps] independent repetitions, each on a freshly spawned and set-up
   server: [one i] returns that repetition's metrics, and each reported
   metric is the median of the per-repetition values.  A burst of host
   noise, or a server process that settles into a slow thread schedule,
   then moves a minority of repetitions and not the result.  Byte and
   count metrics are identical across repetitions, as the inputs are. *)
let repeat ~reps one =
  let runs =
    List.init reps (fun i ->
        (* Each repetition starts from a compacted client heap, so garbage
           left by the previous one does not slow it. *)
        Gc.compact ();
        let r = one i in
        Printf.eprintf "rep %d:%s\n%!" i
          (String.concat "" (List.map (fun x -> Printf.sprintf " %s=%.4g" x.name x.value) r));
        r)
  in
  match runs with
  | [] -> []
  | first :: _ ->
    List.map
      (fun x ->
        let vals = List.map (fun r -> (List.find (fun y -> y.name = x.name) r).value) runs in
        { x with value = median vals })
      first

(* Time [f], returning its result and the elapsed seconds. *)
let timed_s f =
  let t0 = now () in
  let v = f () in
  (v, now () -. t0)

(* ------------------------- server metric snapshots ------------------------- *)

(* The server's Obs registry via the metrics-json verb: histogram sums
   (seconds) and counter values, for before/after differences. *)
type snap = {
  hists : (string * float) list;
  counters : (string * float) list;
}

let num = function Some (Json.Number f) -> f | _ -> 0.0

let snapshot r =
  let body = ok_or "metrics-json" (Remote.raw r [ "metrics-json" ]) in
  let j = match Json.parse body with Ok j -> j | Error e -> failwith ("metrics-json: " ^ e) in
  let members name =
    match Json.member name j with Some (Json.Object kv) -> kv | _ -> []
  in
  { hists =
      List.map
        (fun (k, v) -> (k, num (Json.member "sum" v)))
        (members "histograms");
    counters =
      List.filter_map
        (fun (k, v) -> match v with Json.Number f -> Some (k, f) | _ -> None)
        (members "counters") }

let hist_delta ~before ~after name =
  let get s = Option.value (List.assoc_opt name s.hists) ~default:0.0 in
  get after -. get before

let counter_delta ~before ~after name =
  let get s = Option.value (List.assoc_opt name s.counters) ~default:0.0 in
  get after -. get before

(* Seconds the server spent in the given verbs' handlers between two
   snapshots (fb.net.<verb>_seconds: lock wait plus dispatch). *)
let verb_seconds ~before ~after verbs =
  List.fold_left
    (fun acc v ->
      let v = String.map (fun c -> if c = '-' then '_' else c) v in
      acc +. hist_delta ~before ~after (Printf.sprintf "fb.net.%s_seconds" v))
    0.0 verbs

(* ------------------------- traced client spans ------------------------- *)

(* A span around one call into Remote/Mux when tracing is on: the span
   joins the request's trace context to the server's, which is the cost
   the traced run pays. *)
let traced = ref false

let call name f = if !traced then Obs.with_span name f else f ()

(* Alternate [pairs] untraced and traced passes, each on a fresh server:
   [pass ~trace i] runs one and returns its ops/s and its result.  Gives
   the last traced pass's result and the tracing overhead in percent, the
   gap between the median untraced and the median traced ops/s.  The
   order within a pair alternates too, and every pass starts from a
   compacted client heap, so neither host drift nor a pass's position
   lands in the gap. *)
let traced_pairs ~pairs pass =
  let run ~trace i =
    Gc.compact ();
    pass ~trace i
  in
  let rec go i us ts last =
    if i = pairs then (last, us, ts)
    else
      let first = i mod 2 = 1 in
      let a, ra = run ~trace:first (2 * i) in
      let b, rb = run ~trace:(not first) ((2 * i) + 1) in
      let (u, t), r = if first then ((b, a), ra) else ((a, b), rb) in
      go (i + 1) (u :: us) (t :: ts) (Some r)
  in
  match go 0 [] [] None with
  | Some r, us, ts ->
    let mu = median us in
    (r, 100.0 *. (mu -. median ts) /. mu)
  | None, _, _ -> invalid_arg "traced_pairs: pairs must be positive"

(* Run [f] with client tracing set to [on], restoring it after. *)
let with_tracing on f =
  traced := on;
  Fun.protect ~finally:(fun () -> traced := false) f
