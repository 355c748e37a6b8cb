(* Chunker counters surfaced through the Obs registry, which feeds the
   METRICS/METRICS-JSON service verbs and `forkbase metrics`. *)
let () =
  let g suffix f = Fb_obs.Obs.gauge ("chunker." ^ suffix) f in
  g "gamma_builds" (fun () ->
      float_of_int (Fb_hash.Rolling.stats ()).Fb_hash.Rolling.gamma_builds);
  g "gamma_memo_hits" (fun () ->
      float_of_int (Fb_hash.Rolling.stats ()).Fb_hash.Rolling.gamma_memo_hits);
  g "bytes_scanned" (fun () ->
      float_of_int (Fb_hash.Rolling.stats ()).Fb_hash.Rolling.bytes_scanned)

type 'a t = {
  rolling : Fb_hash.Rolling.t;
  window : int;
  max_bytes : int;
  emit : 'a list -> unit;
  mutable items : 'a list;      (* current node's items, reversed *)
  mutable bytes : int;          (* current node's byte size *)
}

let create ?(params = Fb_hash.Rolling.default_node_params) ?max_bytes ~emit ()
    =
  let max_bytes =
    match max_bytes with Some m -> m | None -> 16 * (1 lsl params.q)
  in
  if max_bytes < 1 then invalid_arg "Chunker.create: max_bytes must be >= 1";
  { rolling = Fb_hash.Rolling.create params;
    window = params.window;
    max_bytes;
    emit;
    items = [];
    bytes = 0 }

let boundary t =
  t.emit (List.rev t.items);
  t.items <- [];
  t.bytes <- 0;
  Fb_hash.Rolling.reset t.rolling

let push t item encoded hit =
  t.items <- item :: t.items;
  t.bytes <- t.bytes + String.length encoded;
  if hit || t.bytes >= t.max_bytes then boundary t

let add t item encoded =
  push t item encoded (Fb_hash.Rolling.feed_string t.rolling encoded)

(* Three runs of [encoded]: before the muted range, the muted range (its
   hits dropped), and after it; one when the muted range is empty. *)
let add_keyed t item encoded ~key_end =
  let n = String.length encoded in
  let lo = min (t.window - 1) n in
  let hi = max lo (min key_end n) in
  if hi = lo then add t item encoded
  else
    let r = t.rolling in
    let before = Fb_hash.Rolling.feed_sub r encoded 0 lo in
    ignore (Fb_hash.Rolling.feed_sub r encoded lo (hi - lo));
    let after = Fb_hash.Rolling.feed_sub r encoded hi (n - hi) in
    push t item encoded (before || after)

let pending t = t.items <> []
let finish t = if pending t then boundary t
