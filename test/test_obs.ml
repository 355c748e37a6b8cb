(* Observability layer: histogram accuracy, metered stores, span ring,
   METRICS exposition through the service. *)

module Obs = Fb_obs.Obs
module Store = Fb_chunk.Store
module Chunk = Fb_chunk.Chunk
module FB = Fb_core.Forkbase
module Service = Fb_core.Service

let check = Alcotest.check
let bool_ = Alcotest.bool
let int_ = Alcotest.int

(* The registry is process-global and shared with every other suite in
   this binary: tests only assert on names they own and on deltas. *)

let within_rel ~tol expected actual =
  expected > 0.0 && Float.abs (actual -. expected) /. expected <= tol

(* ---------------- histograms ---------------- *)

let test_quantile_accuracy () =
  let h = Obs.histogram "test.obs.quantiles" in
  Obs.reset_histogram h;
  (* Uniform 0.1ms..100ms, shuffled order must not matter. *)
  let n = 1000 in
  let values = Array.init n (fun i -> float_of_int (i + 1) *. 1e-4) in
  let rng = Fb_hash.Prng.create 99L in
  for i = n - 1 downto 1 do
    let j = Fb_hash.Prng.next_int rng (i + 1) in
    let tmp = values.(i) in
    values.(i) <- values.(j);
    values.(j) <- tmp
  done;
  Array.iter (fun v -> Obs.observe h v) values;
  check int_ "count" n (Obs.hist_count h);
  check bool_ "sum exact" true
    (within_rel ~tol:1e-9 (Array.fold_left ( +. ) 0.0 values) (Obs.hist_sum h));
  check bool_ "min exact" true (Obs.hist_min h = 1e-4);
  check bool_ "max exact" true (Obs.hist_max h = 0.1);
  (* Log-bucketing with ratio 1.1 promises < ~5% relative error; allow 6%. *)
  List.iter
    (fun (q, expected) ->
      let got = Obs.quantile h q in
      if not (within_rel ~tol:0.06 expected got) then
        Alcotest.failf "q=%.2f: expected ~%g, got %g" q expected got)
    [ (0.5, 0.05); (0.9, 0.09); (0.99, 0.099); (1.0, 0.1) ];
  check bool_ "empty quantile" true
    (Obs.quantile (Obs.histogram "test.obs.empty") 0.5 = 0.0)

let test_histogram_reset () =
  let h = Obs.histogram "test.obs.reset" in
  Obs.observe h 0.5;
  Obs.reset_histogram h;
  check int_ "count zero" 0 (Obs.hist_count h);
  check bool_ "sum zero" true (Obs.hist_sum h = 0.0);
  check bool_ "quantile zero" true (Obs.quantile h 0.5 = 0.0)

(* ---------------- metered store ---------------- *)

let test_metered_store () =
  let h_put = Obs.histogram "test.metered.put_seconds" in
  let h_get = Obs.histogram "test.metered.get_seconds" in
  let h_mem = Obs.histogram "test.metered.mem_seconds" in
  List.iter Obs.reset_histogram [ h_put; h_get; h_mem ];
  let s =
    Fb_chunk.Metered_store.wrap ~prefix:"test.metered"
      (Fb_chunk.Mem_store.create ())
  in
  let ids =
    List.init 5 (fun i ->
        Store.put s (Chunk.v Chunk.Leaf_blob (Printf.sprintf "payload-%d" i)))
  in
  List.iter (fun id -> ignore (Store.get s id)) ids;
  ignore (s.Store.mem (List.hd ids));
  check int_ "puts timed" 5 (Obs.hist_count h_put);
  check int_ "gets timed" 5 (Obs.hist_count h_get);
  check int_ "mems timed" 1 (Obs.hist_count h_mem);
  (* peek is the maintenance read: outside both the store's own gets
     accounting and the latency histograms. *)
  let gets_before = (s.Store.stats ()).Store.gets in
  List.iter (fun id -> ignore (Store.peek s id)) ids;
  check int_ "peek not timed" 5 (Obs.hist_count h_get);
  check int_ "peek not counted" gets_before (s.Store.stats ()).Store.gets;
  (* The wrapped store still stores: durations are non-negative and the
     payloads round-trip. *)
  check bool_ "min >= 0" true (Obs.hist_min h_get >= 0.0);
  check bool_ "roundtrip" true
    (match Store.get s (List.hd ids) with
     | Some c -> String.equal c.Chunk.payload "payload-0"
     | None -> false)

let test_disabled_is_noop () =
  let was = Obs.is_enabled () in
  Fun.protect
    ~finally:(fun () -> Obs.set_enabled was)
    (fun () ->
      Obs.set_enabled true;
      let c = Obs.counter "test.obs.disabled_counter" in
      let h = Obs.histogram "test.obs.disabled_hist" in
      Obs.reset_histogram h;
      Obs.incr c;
      let base = Obs.counter_value c in
      let spans_base = Obs.spans_recorded () in
      Obs.set_enabled false;
      Obs.incr c;
      Obs.add c 10;
      Obs.observe h 0.5;
      let r = Obs.time h (fun () -> 42) in
      check int_ "time still runs thunk" 42 r;
      let r' = Obs.with_span "test.disabled" (fun () -> 7) in
      check int_ "with_span still runs thunk" 7 r';
      check int_ "counter untouched" base (Obs.counter_value c);
      check int_ "histogram untouched" 0 (Obs.hist_count h);
      check int_ "no span recorded" spans_base (Obs.spans_recorded ()))

(* ---------------- spans ---------------- *)

let test_span_ring () =
  let cap = Obs.span_capacity () in
  Fun.protect
    ~finally:(fun () -> Obs.set_span_capacity cap)
    (fun () ->
      Obs.set_span_capacity 8;
      for i = 1 to 20 do
        Obs.with_span (Printf.sprintf "ring-%d" i) (fun () -> ())
      done;
      let kept = Obs.spans () in
      check int_ "ring keeps capacity" 8 (List.length kept);
      check int_ "total recorded" 20 (Obs.spans_recorded ());
      (* Oldest-first: the survivors are ring-13 .. ring-20. *)
      check bool_ "oldest evicted" true
        (List.for_all
           (fun (s : Obs.span) ->
             Scanf.sscanf s.Obs.name "ring-%d" (fun i -> i > 12))
           kept);
      (* Parent linkage: a nested span records its enclosing span's id,
         and completes before it. *)
      Obs.set_span_capacity 8;
      Obs.with_span "outer" (fun () ->
          Obs.with_span "inner" (fun () -> ()));
      (match Obs.spans () with
       | [ inner; outer ] ->
         check bool_ "inner first" true (inner.Obs.name = "inner");
         check bool_ "outer is root" true (outer.Obs.parent = -1);
         check int_ "inner parent" outer.Obs.id inner.Obs.parent
       | l -> Alcotest.failf "expected 2 spans, got %d" (List.length l));
      (* Exceptions still record the span and pop the stack. *)
      (try Obs.with_span "thrower" (fun () -> failwith "boom")
       with Failure _ -> ());
      Obs.with_span "after" (fun () -> ());
      let by_name n =
        List.find (fun (s : Obs.span) -> s.Obs.name = n) (Obs.spans ())
      in
      check bool_ "thrower recorded" true
        (match by_name "thrower" with _ -> true | exception Not_found -> false);
      check bool_ "after is root" true ((by_name "after").Obs.parent = -1))

(* ---------------- exposition ---------------- *)

let test_metrics_verbs () =
  let fb = FB.create (Fb_chunk.Mem_store.create ()) in
  let expect_ok req =
    let resp = Service.handle fb req in
    if String.length resp < 2 || String.sub resp 0 2 <> "OK" then
      Alcotest.failf "request %S -> %s" req resp;
    if String.length resp > 3 then String.sub resp 3 (String.length resp - 3)
    else ""
  in
  ignore (expect_ok "put answer master fortytwo");
  ignore (expect_ok "get answer master");
  let prom = expect_ok "metrics" in
  check bool_ "prometheus has put histogram" true
    (Tutil.contains prom "fb_put_seconds");
  check bool_ "prometheus has quantile label" true
    (Tutil.contains prom "quantile=\"0.99\"");
  check bool_ "prometheus has TYPE lines" true
    (Tutil.contains prom "# TYPE");
  let json = expect_ok "metrics-json" in
  (match Fb_types.Json.parse json with
   | Error e -> Alcotest.failf "metrics-json is not valid JSON: %s" e
   | Ok _ -> ());
  check bool_ "json has histograms" true (Tutil.contains json "\"histograms\"");
  check bool_ "json has put latency" true (Tutil.contains json "fb.put_seconds");
  check bool_ "json has spans" true (Tutil.contains json "\"spans\"");
  (* dump_json without spans stays lean (the bench artifact path). *)
  check bool_ "spans only on request" false
    (Tutil.contains (Obs.dump_json ()) "\"spans\"")

(* ---------------- exposition lint ---------------- *)

(* Hand-rolled validator for the Prometheus text exposition grammar:
   every line is either a [# TYPE name kind] comment or a sample
   [name[{labels}] value] with a legal metric name and a value the
   format allows (decimal float, NaN, +Inf, -Inf).  Scrapers reject
   anything else, so the whole dump must pass — including gauges that
   currently read NaN. *)
let is_name_char = function
  | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> true
  | _ -> false

let valid_metric_name s =
  s <> ""
  && (match s.[0] with '0' .. '9' -> false | c -> is_name_char c)
  && String.for_all is_name_char s

let valid_value v =
  match v with
  | "NaN" | "+Inf" | "-Inf" -> true
  | _ -> Option.is_some (float_of_string_opt v)

let lint_prometheus text =
  List.iteri
    (fun i line ->
      let fail fmt = Alcotest.failf ("line %d: " ^^ fmt ^^ ": %S") (i + 1) line in
      if line = "" then ()
      else if String.length line > 1 && line.[0] = '#' then begin
        match String.split_on_char ' ' line with
        | [ "#"; "TYPE"; name; kind ] ->
          if not (valid_metric_name name) then fail "bad name in TYPE";
          if not (List.mem kind [ "counter"; "gauge"; "summary"; "histogram"; "untyped" ])
          then fail "unknown metric kind"
        | "#" :: ("HELP" | "EOF") :: _ -> ()
        | _ -> fail "malformed comment"
      end
      else begin
        let n = String.length line in
        let name_end =
          let rec go j = if j < n && is_name_char line.[j] then go (j + 1) else j in
          go 0
        in
        if name_end = 0 || not (valid_metric_name (String.sub line 0 name_end))
        then fail "bad metric name";
        let rest = String.sub line name_end (n - name_end) in
        let rest =
          if rest <> "" && rest.[0] = '{' then (
            match String.index_opt rest '}' with
            | None -> fail "unterminated label set"
            | Some j ->
              let labels = String.sub rest 1 (j - 1) in
              if not (String.contains labels '=' && String.contains labels '"')
              then fail "malformed labels";
              String.sub rest (j + 1) (String.length rest - j - 1))
          else rest
        in
        match String.split_on_char ' ' (String.trim rest) with
        | [ v ] when valid_value v -> ()
        | _ -> fail "bad sample value"
      end)
    (String.split_on_char '\n' text)

let test_prometheus_lint () =
  (* Seed the registry with every shape, including the values "%g" would
     print illegally. *)
  let c = Obs.counter "test.lint.requests" in
  Obs.incr c;
  let h = Obs.histogram "test.lint.latency_seconds" in
  Obs.reset_histogram h;
  List.iter (Obs.observe h) [ 0.001; 0.01; 0.1 ];
  Obs.gauge "test.lint.nan_ratio" (fun () -> Float.nan);
  Obs.gauge "test.lint.pos_inf" (fun () -> Float.infinity);
  Obs.gauge "test.lint.neg_inf" (fun () -> Float.neg_infinity);
  Fun.protect
    ~finally:(fun () -> Obs.unregister_gauges_prefix "test.lint.")
    (fun () ->
      let dump = Obs.dump_prometheus () in
      lint_prometheus dump;
      check bool_ "NaN spelled per grammar" true (Tutil.contains dump " NaN");
      check bool_ "+Inf spelled per grammar" true (Tutil.contains dump " +Inf");
      check bool_ "-Inf spelled per grammar" true (Tutil.contains dump " -Inf"))

(* ---------------- snapshots & deltas ---------------- *)

(* The interval readout forkbase top relies on: two snapshots of a
   growing histogram subtract into the distribution of just the interval
   between them. *)
let test_snapshot_delta () =
  let h = Obs.histogram "test.obs.delta" in
  Obs.reset_histogram h;
  List.iter (Obs.observe h) [ 0.001; 0.002; 0.003 ];
  let s1 = Obs.snapshot h in
  check int_ "first snapshot total" 3 (Obs.snapshot_total s1);
  let interval = List.init 100 (fun i -> 0.01 +. (float_of_int i *. 1e-4)) in
  List.iter (Obs.observe h) interval;
  let s2 = Obs.snapshot h in
  let d = Obs.snapshot_sub s2 s1 in
  check int_ "delta count" 100 d.Obs.snap_count;
  check int_ "delta bucket total" 100 (Obs.snapshot_total d);
  check bool_ "delta sum" true
    (within_rel ~tol:1e-9
       (List.fold_left ( +. ) 0.0 interval)
       d.Obs.snap_sum);
  (* The delta's median sits in the interval's range (~15ms), unpolluted
     by the pre-snapshot 1–3ms samples; log buckets are ~5% accurate. *)
  check bool_ "delta p50 reflects only the interval" true
    (within_rel ~tol:0.08 0.015 (Obs.snapshot_quantile d 0.5));
  check bool_ "delta p99 near interval max" true
    (within_rel ~tol:0.08 0.0199 (Obs.snapshot_quantile d 0.99));
  (* Self-delta is empty; reversed order (a remote reset) clamps to
     empty instead of going negative. *)
  check int_ "self delta empty" 0 (Obs.snapshot_total (Obs.snapshot_sub s2 s2));
  let r = Obs.snapshot_sub s1 s2 in
  check int_ "reversed delta clamps count" 0 r.Obs.snap_count;
  check int_ "reversed delta clamps buckets" 0 (Obs.snapshot_total r);
  check bool_ "reversed delta clamps sum" true (r.Obs.snap_sum = 0.0)

let test_snapshot_of_buckets () =
  (* The wire form: unsorted, with out-of-range junk a bad peer could
     send — rebuilt sorted and filtered. *)
  let s =
    Obs.snapshot_of_buckets ~count:5 ~sum:1.0
      [ (50, 3); (10, 2); (-1, 9); (100000, 4); (20, 0) ]
  in
  check bool_ "sorted and filtered" true (s.Obs.snap_buckets = [ (10, 2); (50, 3) ]);
  check int_ "total" 5 (Obs.snapshot_total s);
  let q25 = Obs.snapshot_quantile s 0.25 in
  let q95 = Obs.snapshot_quantile s 0.95 in
  check bool_ "quantiles positive and monotone" true (q25 > 0.0 && q95 > q25);
  check int_ "empty snapshot" 0 (Obs.snapshot_total Obs.empty_snapshot);
  check bool_ "empty quantile is zero" true
    (Obs.snapshot_quantile Obs.empty_snapshot 0.5 = 0.0)

(* ---------------- structured events ---------------- *)

let test_event_log () =
  Obs.reset ();
  Obs.set_log_level Obs.Info;
  Obs.log_event Obs.Debug "dropped";
  Obs.log_event ~fields:[ ("k", "v \"quoted\"\n") ] Obs.Warn "kept";
  (match Obs.events () with
   | [ e ] ->
     check bool_ "below-threshold event dropped" true (e.Obs.ev_msg = "kept");
     check bool_ "no trace outside a span" true (e.Obs.ev_trace = None);
     (* The JSON line a sink would receive must be valid JSON even with
        quotes and newlines in field values. *)
     (match Fb_types.Json.parse (Obs.event_to_json e) with
      | Error err -> Alcotest.failf "event json invalid: %s" err
      | Ok j ->
        check bool_ "json msg field" true
          (Fb_types.Json.member "msg" j = Some (Fb_types.Json.String "kept")))
   | l -> Alcotest.failf "expected 1 ring event, got %d" (List.length l));
  (* An event emitted inside a span carries that span's trace id. *)
  Obs.with_span "evspan" (fun () -> Obs.log_event Obs.Error "inside");
  let inside =
    List.find (fun (e : Obs.event) -> e.Obs.ev_msg = "inside") (Obs.events ())
  in
  let span =
    List.find (fun (s : Obs.span) -> s.Obs.name = "evspan") (Obs.spans ())
  in
  (match inside.Obs.ev_trace with
   | Some t ->
     check int_ "trace id is 32 hex chars" 32 (String.length t);
     check Alcotest.string "event joins the span's trace" span.Obs.trace t
   | None -> Alcotest.fail "no trace attached inside span");
  (* A sink diverts events away from the ring. *)
  let captured = ref [] in
  Obs.set_log_sink (Some (fun line -> captured := line :: !captured));
  Fun.protect
    ~finally:(fun () -> Obs.set_log_sink None)
    (fun () ->
      Obs.log_event Obs.Info "to sink";
      check int_ "sink received the line" 1 (List.length !captured);
      check bool_ "sink line is json" true
        (Result.is_ok (Fb_types.Json.parse (List.hd !captured)));
      check bool_ "sinked event bypasses the ring" true
        (not
           (List.exists
              (fun (e : Obs.event) -> e.Obs.ev_msg = "to sink")
              (Obs.events ()))))

let test_chrome_trace_json () =
  Obs.reset ();
  Obs.with_span ~attrs:[ ("key", "va\"lue") ] "chrome-span" (fun () ->
      Obs.with_span "chrome-child" (fun () -> ()));
  match Fb_types.Json.parse (Obs.dump_chrome_trace ()) with
  | Error e -> Alcotest.failf "chrome trace is not valid JSON: %s" e
  | Ok j -> (
    match Fb_types.Json.member "traceEvents" j with
    | Some (Fb_types.Json.Array evs) ->
      check bool_ "both spans exported" true (List.length evs >= 2);
      List.iter
        (fun ev ->
          check bool_ "complete event" true
            (Fb_types.Json.member "ph" ev = Some (Fb_types.Json.String "X"));
          check bool_ "microsecond timestamp" true
            (match Fb_types.Json.member "ts" ev with
             | Some (Fb_types.Json.Number _) -> true
             | _ -> false))
        evs
    | _ -> Alcotest.fail "no traceEvents array")

(* ---------------- gauge lifecycle ---------------- *)

let gauge_value name =
  match Fb_types.Json.parse (Obs.dump_json ()) with
  | Error e -> Alcotest.failf "dump_json invalid: %s" e
  | Ok j -> (
    match Fb_types.Json.member "gauges" j with
    | Some g -> Fb_types.Json.member name g
    | None -> None)

let test_gauge_reregistration () =
  (* Close/reopen cycles re-register under the same names: registration
     must be idempotent-by-name with the newest closure winning, never a
     duplicated time series. *)
  Obs.gauge "test.lww.g" (fun () -> 1.0);
  Obs.gauge "test.lww.g" (fun () -> 2.0);
  Fun.protect
    ~finally:(fun () -> Obs.unregister_gauges_prefix "test.lww.")
    (fun () ->
      check bool_ "last registration wins" true
        (gauge_value "test.lww.g" = Some (Fb_types.Json.Number 2.0));
      let dump = Obs.dump_prometheus () in
      let occurrences =
        let rec go pos acc =
          if pos >= String.length dump then acc
          else
            match String.index_from_opt dump pos '\n' with
            | None -> acc
            | Some nl ->
              let line = String.sub dump pos (nl - pos) in
              go (nl + 1)
                (if Tutil.contains line "test_lww_g" then acc + 1 else acc)
        in
        go 0 0
      in
      (* One TYPE line + one sample — not two series. *)
      check int_ "no duplicate series" 2 occurrences)

let test_persistent_gauge_retirement () =
  let root =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "fb_obs_gauges_%d_%d" (Unix.getpid ()) (Random.bits ()))
  in
  let ok = function
    | Ok v -> v
    | Error e -> Alcotest.fail (Fb_core.Errors.to_string e)
  in
  let gname = "log." ^ Filename.concat root "log" ^ ".generation" in
  let reopened = ref None in
  Fun.protect
    ~finally:(fun () ->
      Option.iter Fb_core.Persistent.close !reopened;
      ignore (Sys.command ("rm -rf " ^ Filename.quote root)))
    (fun () ->
      let i = ok (Fb_core.Persistent.open_instance ~backend:"log" ~root ()) in
      ignore (ok (FB.put i.fb ~key:"k" (Fb_types.Value.string "v")));
      check bool_ "gauges live while open" true (gauge_value gname <> None);
      Fb_core.Persistent.close i;
      check bool_ "gauges retired on close" true (gauge_value gname = None);
      (* Reopen takes the same names back. *)
      reopened :=
        Some (ok (Fb_core.Persistent.open_instance ~backend:"log" ~root ()));
      check bool_ "gauges return on reopen" true (gauge_value gname <> None))

let suite =
  [ Alcotest.test_case "quantile accuracy" `Quick test_quantile_accuracy;
    Alcotest.test_case "histogram reset" `Quick test_histogram_reset;
    Alcotest.test_case "metered store" `Quick test_metered_store;
    Alcotest.test_case "disabled is no-op" `Quick test_disabled_is_noop;
    Alcotest.test_case "span ring" `Quick test_span_ring;
    Alcotest.test_case "metrics verbs" `Quick test_metrics_verbs;
    Alcotest.test_case "prometheus exposition lint" `Quick test_prometheus_lint;
    Alcotest.test_case "snapshot delta math" `Quick test_snapshot_delta;
    Alcotest.test_case "snapshot from wire buckets" `Quick
      test_snapshot_of_buckets;
    Alcotest.test_case "structured event log" `Quick test_event_log;
    Alcotest.test_case "chrome trace export" `Quick test_chrome_trace_json;
    Alcotest.test_case "gauge re-registration" `Quick test_gauge_reregistration;
    Alcotest.test_case "persistent gauge retirement" `Quick
      test_persistent_gauge_retirement ]
