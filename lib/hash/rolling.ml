type params = { window : int; q : int }

let default_node_params = { window = 32; q = 11 }
let default_blob_params = { window = 48; q = 12 }

(* Γ: one fixed pseudo-random table per q, derived from a pinned SplitMix64
   seed.  Chunk boundaries — and hence every stored hash — depend on this
   table, so the seed must never change. *)
let gamma_seed = 0x666f726b62617365L (* "forkbase" *)

(* Module-level instrumentation, surfaced through [stats] and the Obs
   gauges registered by the chunker. *)
let gamma_builds = ref 0
let gamma_memo_hits = ref 0
let bytes_scanned = ref 0

(* The table for a given q is deterministic, so one copy is shared by every
   roller.  Rollers only ever read it.  Before memoization, every
   [create] — one per POS-Tree build or blob chunking pass — rebuilt the
   256-entry table from the PRNG. *)
let gamma_cache : (int, int array) Hashtbl.t = Hashtbl.create 4

let gamma_table q =
  match Hashtbl.find_opt gamma_cache q with
  | Some t ->
      incr gamma_memo_hits;
      t
  | None ->
      incr gamma_builds;
      let rng = Prng.create gamma_seed in
      let mask = (1 lsl q) - 1 in
      let t =
        Array.init 256 (fun _ -> Int64.to_int (Prng.next_int64 rng) land mask)
      in
      Hashtbl.add gamma_cache q t;
      t

type stats = {
  gamma_builds : int;
  gamma_memo_hits : int;
  bytes_scanned : int;
}

let stats () =
  { gamma_builds = !gamma_builds;
    gamma_memo_hits = !gamma_memo_hits;
    bytes_scanned = !bytes_scanned }

type t = {
  params : params;
  table : int array;
  mask : int;
  rot_k : int;              (* k mod q, for removing the outgoing byte *)
  ring : Bytes.t;           (* last [window] bytes *)
  mutable pos : int;        (* ring cursor *)
  mutable count : int;      (* bytes absorbed since reset, saturates *)
  mutable state : int;      (* Φ over the current window, q bits *)
}

let create params =
  if params.window < 1 then invalid_arg "Rolling.create: window must be >= 1";
  if params.q < 1 || params.q > 30 then
    invalid_arg "Rolling.create: q must be in [1, 30]";
  { params;
    table = gamma_table params.q;
    mask = (1 lsl params.q) - 1;
    rot_k = params.window mod params.q;
    ring = Bytes.make params.window '\x00';
    pos = 0;
    count = 0;
    state = 0 }

let reset t =
  t.pos <- 0;
  t.count <- 0;
  t.state <- 0
  (* The ring need not be cleared: bytes are only consulted once the window
     has refilled past them. *)

let fingerprint t = t.state

let rotl t v n =
  let n = n mod t.params.q in
  if n = 0 then v
  else ((v lsl n) lor (v lsr (t.params.q - n))) land t.mask

let feed t c =
  let k = t.params.window in
  let incoming = t.table.(Char.code c) in
  if t.count >= k then begin
    (* δ(Φ) ⊕ δ^k(Γ(out)) ⊕ Γ(in) *)
    let outgoing = t.table.(Char.code (Bytes.get t.ring t.pos)) in
    t.state <- rotl t t.state 1 lxor rotl t outgoing t.rot_k lxor incoming
  end else
    t.state <- rotl t t.state 1 lxor incoming;
  Bytes.set t.ring t.pos c;
  t.pos <- (t.pos + 1) mod k;
  if t.count < k then t.count <- t.count + 1;
  t.count >= k && t.state = 0

let feed_sub t s off len =
  if off < 0 || len < 0 || off > String.length s - len then
    invalid_arg "Rolling.feed_sub";
  let n = off + len in
  bytes_scanned := !bytes_scanned + len;
  let hit = ref false in
  let i = ref off in
  let k = t.params.window in
  (* Warm-up: per-char until the window is full, so the not-yet-full branch
     stays out of the main loop. *)
  while !i < n && t.count < k do
    if feed t (String.unsafe_get s !i) then hit := true;
    incr i
  done;
  if !i < n then begin
    (* Steady state: the window is full, so every byte runs the same
       three-term recurrence δ(Φ) ⊕ δ^k(Γ(out)) ⊕ Γ(in).  Table, masks and
       shift counts are hoisted; ring and table accesses are unsafe (the
       ring index is always in [0, k) and table indices are byte values).
       The branch-free rotations are valid at the edge cases: for a shift
       of 0 the [lsr q] term vanishes because values fit in q bits, leaving
       the identity, exactly as [rotl] computes it. *)
    let q = t.params.q in
    let mask = t.mask in
    let table = t.table in
    let ring = t.ring in
    let rk = t.rot_k in
    let qm1 = q - 1 in
    let qmrk = q - rk in
    let state = ref t.state in
    let pos = ref t.pos in
    for j = !i to n - 1 do
      let c = String.unsafe_get s j in
      let incoming = Array.unsafe_get table (Char.code c) in
      let outgoing =
        Array.unsafe_get table (Char.code (Bytes.unsafe_get ring !pos))
      in
      let st = !state in
      let st = ((st lsl 1) lor (st lsr qm1)) land mask in
      let out = ((outgoing lsl rk) lor (outgoing lsr qmrk)) land mask in
      let st = st lxor out lxor incoming in
      state := st;
      Bytes.unsafe_set ring !pos c;
      let p = !pos + 1 in
      pos := if p = k then 0 else p;
      if st = 0 then hit := true
    done;
    t.state <- !state;
    t.pos <- !pos
  end;
  !hit

let feed_string t s = feed_sub t s 0 (String.length s)

let hits_in params s =
  let t = create params in
  let acc = ref [] in
  String.iteri (fun i c -> if feed t c then acc := i :: !acc) s;
  List.rev !acc
