module Codec = Fb_codec.Codec
module Chunk = Fb_chunk.Chunk
module Store = Fb_chunk.Store
module Hash = Fb_hash.Hash
module Rolling = Fb_hash.Rolling
module Obs = Fb_obs.Obs

exception Corrupt of string
exception Unbuildable of string

let corrupt fmt = Printf.ksprintf (fun s -> raise (Corrupt s)) fmt

let max_key_bytes = 4096

(* The varint at [pos] of [s] as [(value lsl 32) lor next position], or
   -1 if it runs past [n], is not minimal (a final zero byte after the
   first, which [Codec] refuses too) or its value exceeds [n] (no length
   in a node can). *)
let rec varint_from s n pos shift acc =
  if pos >= n || shift > 28 then -1
  else
    let b = Char.code (String.unsafe_get s pos) in
    let acc = acc lor ((b land 0x7f) lsl shift) in
    if b land 0x80 <> 0 then varint_from s n (pos + 1) (shift + 7) acc
    else if acc > n || (b = 0 && shift > 0) then -1
    else (acc lsl 32) lor (pos + 1)

(* The position past the length-prefixed bytes at [pos] (one-byte
   lengths inline), or -1. *)
let skip_bytes s n pos =
  if pos >= n then -1
  else
    let b = Char.code (String.unsafe_get s pos) in
    if b < 0x80 then pos + 1 + b
    else
      let v = varint_from s n pos 0 0 in
      if v < 0 then -1 else (v land 0xFFFFFFFF) + (v asr 32)

(* The position past the varint at [pos], or -1. *)
let rec skip_varint s n pos =
  if pos >= n then -1
  else if Char.code (String.unsafe_get s pos) land 0x80 = 0 then pos + 1
  else skip_varint s n (pos + 1)

external get64u : string -> int -> int64 = "%caml_string_get64u"

(* Byte comparisons in place.  The loops are top-level functions, not
   closures over their arguments, so a call allocates nothing. *)
let rec compare_bytes s1 o1 s2 o2 i m l1 l2 =
  if i = m then Int.compare l1 l2
  else
    let c1 = String.unsafe_get s1 (o1 + i)
    and c2 = String.unsafe_get s2 (o2 + i) in
    if c1 = c2 then compare_bytes s1 o1 s2 o2 (i + 1) m l1 l2
    else Char.compare c1 c2

let rec compare_words s1 o1 s2 o2 i m l1 l2 =
  if i + 8 <= m && Int64.equal (get64u s1 (o1 + i)) (get64u s2 (o2 + i))
  then compare_words s1 o1 s2 o2 (i + 8) m l1 l2
  else compare_bytes s1 o1 s2 o2 i m l1 l2

(* The order [String.compare] gives the [l1] bytes at [o1] of [s1] and
   the [l2] bytes at [o2] of [s2]. *)
let compare_sub s1 o1 l1 s2 o2 l2 =
  compare_words s1 o1 s2 o2 0 (if l1 < l2 then l1 else l2) l1 l2

let rec equal_from s1 o1 s2 o2 i len =
  if i + 8 <= len then
    Int64.equal (get64u s1 (o1 + i)) (get64u s2 (o2 + i))
    && equal_from s1 o1 s2 o2 (i + 8) len
  else
    i = len
    || String.unsafe_get s1 (o1 + i) = String.unsafe_get s2 (o2 + i)
       && equal_from s1 o1 s2 o2 (i + 1) len

(* Whether the [len] bytes at [o1] of [s1] equal those at [o2] of [s2]. *)
let equal_sub s1 o1 s2 o2 len = equal_from s1 o1 s2 o2 0 len

let diff_leaves_encoded = Obs.counter "fb.postree.diff_leaves_encoded"
let diff_entries_decoded = Obs.counter "fb.postree.diff_entries_decoded"

(* Maps and sets encode a node as a varint count, then per entry the key
   as varint length + bytes, followed by the value likewise (map leaves)
   or the child id and a varint count (index nodes).  The scan reads
   lengths and skips bytes: it allocates nothing per entry, and a key
   whose length fits one varint byte (< 128) is short by construction.
   A payload no longer than the limit cannot hold a longer key, so most
   nodes are not scanned at all. *)
let oversized_key (chunk : Chunk.t) =
  let s = chunk.Chunk.payload in
  let n = String.length s in
  (* [after]: what follows each key — 0 nothing, 1 a value, 2 a child *)
  let rec go pos left after =
    if left = 0 || pos >= n then None
    else
      let b = Char.code (String.unsafe_get s pos) in
      if b < 0x80 then past_key (pos + 1 + b) left after
      else
        let v = varint_from s n pos 0 0 in
        if v < 0 then None
        else if v asr 32 > max_key_bytes then Some (v asr 32)
        else past_key ((v land 0xFFFFFFFF) + (v asr 32)) left after
  and past_key key_end left after =
    let pos =
      if key_end > n then -1
      else if after = 0 then key_end
      else if after = 1 then skip_bytes s n key_end
      else skip_varint s n (key_end + Hash.size)
    in
    if pos < 0 || pos > n then None else go pos (left - 1) after
  in
  let scan after =
    let v = varint_from s n 0 0 0 in
    if v < 0 then None else go (v land 0xFFFFFFFF) (v asr 32) after
  in
  if n <= max_key_bytes then None
  else
    match chunk.Chunk.kind with
    | Chunk.Leaf_set -> scan 0
    | Chunk.Leaf_map -> scan 1
    | Chunk.Index -> scan 2
    | Chunk.Leaf_list | Chunk.Leaf_blob | Chunk.Seq_index | Chunk.Fnode -> None

module type ENTRY = Postree_intf.ENTRY
module type S = Postree_intf.S

module Make (E : ENTRY) = struct
  type entry = E.t
  type key = string
  type t = { store : Store.t; root : Hash.t option }

  type edit = Put of E.t | Remove of key

  type change =
    | Added of E.t
    | Removed of E.t
    | Modified of E.t * E.t

  let change_key = function
    | Added e | Removed e | Modified (e, _) -> E.key e

  (* The leaf entry layout, defined here alone: an entry is its key's
     length-prefixed bytes, followed by its value's when entries have
     values (map leaves; set leaves hold keys alone).  Keys order bytewise
     ([String.compare]).  The builder writes entries with [write_entry],
     [decode_node] reads them with [read_entry], and diff's cursor reads
     them in place on the same layout. *)
  let leaf_kind = if E.has_value then Chunk.Leaf_map else Chunk.Leaf_set

  let write_entry w e =
    Codec.bytes w (E.key e);
    if E.has_value then Codec.bytes w (E.value e)

  let read_entry r =
    let key = Codec.read_bytes r in
    E.make key (if E.has_value then Codec.read_bytes r else "")

  let equal_entry a b =
    String.equal (E.key a) (E.key b)
    && ((not E.has_value) || String.equal (E.value a) (E.value b))

  let params = Rolling.default_node_params
  let max_node_bytes = 16 * (1 lsl params.q)

  (* Trace span names, computed once per instantiation so the hot paths
     only pay a pointer pass when tracing is on. *)
  let kind_label = Chunk.kind_to_string leaf_kind
  let span_build = "postree.build(" ^ kind_label ^ ")"
  let span_update = "postree.update(" ^ kind_label ^ ")"
  let span_replace = "postree.replace(" ^ kind_label ^ ")"
  let span_find = "postree.find(" ^ kind_label ^ ")"
  let span_diff = "postree.diff(" ^ kind_label ^ ")"
  let span_merge = "postree.merge(" ^ kind_label ^ ")"

  (* ---------------- node encoding ---------------- *)

  type index_entry = { split : key; child : Hash.t; count : int }

  type node = Leaf of E.t list | Index of index_entry list

  let rec varint_len v = if v < 0x80 then 1 else 1 + varint_len (v lsr 7)
  let bytes_len s = varint_len (String.length s) + String.length s

  let encode_entry e =
    let n = bytes_len (E.key e) + if E.has_value then bytes_len (E.value e) else 0 in
    let w = Codec.exact n in
    write_entry w e;
    Codec.contents w

  (* Returns the length of the split key's encoding, which leads. *)
  let encode_index_entry w ie =
    let start = Codec.length w in
    Codec.bytes w ie.split;
    let key_end = Codec.length w - start in
    Codec.hash w ie.child;
    Codec.varint w ie.count;
    key_end

  let decode_index_entry r =
    let split = Codec.read_bytes r in
    let child = Codec.read_hash r in
    let count = Codec.read_varint r in
    { split; child; count }

  (* A node of [kind] over its entries' encodings: their count, then the
     encodings one after another. *)
  let node_chunk kind items =
    let size = List.fold_left (fun n (_, s) -> n + String.length s) 8 items in
    let w = Codec.writer ~initial_size:size () in
    Codec.varint w (List.length items);
    List.iter (fun (_, s) -> Codec.raw w s) items;
    Chunk.v kind (Codec.contents w)

  let decode_node chunk =
    match chunk.Chunk.kind with
    | k when Chunk.equal_kind k leaf_kind ->
      (match Codec.of_string (fun r -> Codec.read_list r read_entry)
               chunk.Chunk.payload with
       | Ok entries -> Leaf entries
       | Error e -> corrupt "leaf decode: %s" e)
    | Chunk.Index ->
      (match Codec.of_string (fun r -> Codec.read_list r decode_index_entry)
               chunk.Chunk.payload with
       | Ok ies -> Index ies
       | Error e -> corrupt "index decode: %s" e)
    | k ->
      corrupt "unexpected chunk kind %s (wanted %s or index)"
        (Chunk.kind_to_string k)
        (Chunk.kind_to_string leaf_kind)

  (* One decoded-node cache per entry type (functor instantiation), shared
     by every tree of that type.  Containment is by chunk identity, so
     trees over different stores can share it safely: [find_live] only
     serves entries still present in the asking store. *)
  let node_cache : node Node_cache.t =
    Node_cache.create ~name:("postree." ^ kind_label)

  let chunk_of_hash store h =
    match Store.get store h with
    | Some c -> c
    | None -> corrupt "missing chunk %s" (Hash.to_hex h)

  let cache_node h chunk =
    let node = decode_node chunk in
    Node_cache.add node_cache h node;
    node

  let read_node store h =
    match Node_cache.find_live node_cache store h with
    | Some node -> node
    | None -> cache_node h (chunk_of_hash store h)

  (* ---------------- construction ---------------- *)

  let empty store = { store; root = None }
  let of_root store root = { store; root }
  let store t = t.store
  let root t = t.root
  let is_empty t = t.root = None

  let last_exn = function
    | [] -> invalid_arg "last_exn"
    | l -> List.nth l (List.length l - 1)

  let too_long n =
    Unbuildable (Printf.sprintf "key of %d bytes exceeds the %d-byte key limit" n max_key_bytes)

  let check_key k =
    if String.length k > max_key_bytes then raise (too_long (String.length k))

  (* ---------------- the row assembler ----------------

     Every tree is written by one assembler: [build] feeds it entries,
     [update] and [merge] entries and whole subtrees of their inputs.  A
     chunker per level cuts the level below as it grows.  Boundaries are a
     function of the entry bytes since the last boundary, so a subtree of a
     builder-made tree stands for its entries when every chunker below its
     level sits on a boundary and it is not on its tree's right spine
     (whose nodes may end without a pattern): its index entry then goes to
     its level's chunker as it is.  Otherwise it is expanded one level.
     Either way the result is the tree the builder makes (DESIGN.md §4). *)

  (* Row [l]: the index entries of the level-[l] nodes (leaves are level
     0), and the chunker that cuts them into level-[l + 1] nodes.  The
     first entry is [held] until a second arrives: a row of one entry is
     the root, and no node is written over it.  [fed] counts the row's
     entries; a subtree passed at a level above counts as one. *)
  type row = {
    ch : (index_entry * string) Chunker.t;
    mutable held : index_entry option;
    mutable fed : int;
    mutable long_key : int;  (* its first split key over the limit, or 0 *)
  }

  type levels = { a_store : Store.t; mutable rows : row array }
  type assembler = { lv : levels; leaves : (E.t * string) Chunker.t }

  (* Chunkers carry each entry with its encoding, which the node reuses. *)
  let feed r ie =
    let w = Codec.exact (bytes_len ie.split + Hash.size + varint_len ie.count) in
    let key_end = encode_index_entry w ie in
    let enc = Codec.contents w in
    Chunker.add_keyed r.ch (ie, enc) enc ~key_end

  let rec row lv l =
    while Array.length lv.rows <= l do
      let at = Array.length lv.rows in
      let ch =
        Chunker.create ~params ~max_bytes:max_node_bytes
          ~emit:(emit_index lv at) ()
      in
      lv.rows <- Array.append lv.rows [| { ch; held = None; fed = 0; long_key = 0 } |]
    done;
    lv.rows.(l)

  and push lv l ie =
    let r = row lv l in
    if r.long_key = 0 && String.length ie.split > max_key_bytes then
      r.long_key <- String.length ie.split;
    r.fed <- r.fed + 1;
    if r.fed = 1 then r.held <- Some ie
    else begin
      Option.iter (feed r) r.held;
      r.held <- None;
      feed r ie
    end

  (* A row that does not shrink holds split keys too long for two entries
     to share a node, which only a tree no builder made can carry in: a
     row holding a key over the limit is refused once every entry it has
     had ended a node of its own, instead of growing levels without end. *)
  and emit_index lv l items =
    let id = Store.put lv.a_store (node_chunk Chunk.Index items) in
    let count = List.fold_left (fun a (ie, _) -> a + ie.count) 0 items in
    let r = lv.rows.(l) and up = row lv (l + 1) in
    if r.long_key > 0 && up.fed + 1 >= r.fed then raise (too_long r.long_key);
    push lv (l + 1) { split = (fst (last_exn items)).split; child = id; count }

  let assembler store =
    let lv = { a_store = store; rows = [||] } in
    let emit items =
      let id = Store.put store (node_chunk leaf_kind items) in
      push lv 0
        { split = E.key (fst (last_exn items)); child = id;
          count = List.length items }
    in
    { lv; leaves = Chunker.create ~params ~max_bytes:max_node_bytes ~emit () }

  (* The one way an entry enters a leaf. *)
  let add a e =
    check_key (E.key e);
    let enc = encode_entry e in
    Chunker.add a.leaves (e, enc) enc

  (* Whether every chunker below level [h] sits on a boundary. *)
  let clean a h =
    let rows = a.lv.rows in
    let rec idle l =
      l >= h - 1 || l >= Array.length rows
      || (rows.(l).held = None && (not (Chunker.pending rows.(l).ch))
          && idle (l + 1))
    in
    (not (Chunker.pending a.leaves)) && idle 0

  (* A tree that subtrees are taken from, and its greatest key: the split
     key of every node on its right spine. *)
  type source = { tree : t; last : key }

  let node_at src h id =
    match read_node src.tree.store id with
    | Leaf _ as n when h = 1 -> n
    | Index _ as n when h > 1 -> n
    | _ -> corrupt "node %s is not at height %d" (Hash.to_hex id) h

  (* Offer the subtree of [src] that [ie] names, [h] levels tall.  Only
     leaves pass from a tree in another store, copied in if the result's
     store lacks them. *)
  let rec offer a src h ie =
    let store = a.lv.a_store in
    if clean a h && (not (String.equal ie.split src.last))
       && (h = 1 || src.tree.store == store)
    then begin
      if src.tree.store != store && not (Store.mem store ie.child) then
        ignore (Store.put store (chunk_of_hash src.tree.store ie.child));
      for l = 0 to h - 2 do (row a.lv l).fed <- (row a.lv l).fed + 1 done;
      push a.lv (h - 1) ie
    end
    else
      match node_at src h ie.child with
      | Leaf es -> List.iter (add a) es
      | Index ies -> List.iter (offer a src (h - 1)) ies

  (* Flush every level bottom-up; the root is the first row of one entry.
     Where that entry is a passed subtree with nothing beside it, the
     builder's root lies below it, at its first node of two or more
     children. *)
  let finish a =
    Chunker.finish a.leaves;
    let rec descend id =
      match read_node a.lv.a_store id with
      | Index [ ie ] -> descend ie.child
      | _ -> id
    in
    (* Finishing a row may add the row above: [rows] is read afresh. *)
    let rec up l =
      let rows = a.lv.rows in
      if l = Array.length rows then None
      else
        match rows.(l).held with
        | Some ie when l > 0 && rows.(l - 1).fed = 1 -> Some (descend ie.child)
        | Some ie -> Some ie.child
        | None ->
          Chunker.finish rows.(l).ch;
          up (l + 1)
    in
    up 0

  (* The builder every tree comes from: the entries [iter] yields, in
     strictly increasing key order, through the assembler into [store];
     returns the root.  [validate] runs it into [Store.sink]. *)
  let build_root store iter =
    let a = assembler store in
    let prev = ref None in
    iter (fun e ->
        let k = E.key e in
        (match !prev with
         | Some p when String.compare p k >= 0 ->
           invalid_arg "build_sorted_seq: keys not strictly increasing"
         | _ -> ());
        prev := Some k;
        add a e);
    finish a

  (* Stable sort, then last wins among equal keys.  Input already in
     strictly increasing key order (a CSV import of sorted keys, say) is
     returned as it is: one pass of compares instead of the sort. *)
  let sort_dedup key l =
    let cmp a b = String.compare (key a) (key b) in
    let rec increasing = function
      | a :: (b :: _ as rest) -> cmp a b < 0 && increasing rest
      | _ -> true
    in
    let rec dedup = function
      | a :: (b :: _ as rest) when cmp a b = 0 -> dedup rest
      | a :: rest -> a :: dedup rest
      | [] -> []
    in
    if increasing l then l else dedup (List.stable_sort cmp l)

  let build store entries =
    Obs.with_span span_build @@ fun () ->
    let entries = sort_dedup E.key entries in
    { store; root = build_root store (fun f -> List.iter f entries) }

  let build_sorted_seq store seq =
    Obs.with_span span_build @@ fun () ->
    { store; root = build_root store (fun f -> Seq.iter f seq) }

  (* ---------------- accessors ---------------- *)

  let cardinal t =
    match t.root with
    | None -> 0
    | Some h -> (
      match read_node t.store h with
      | Leaf entries -> List.length entries
      | Index ies -> List.fold_left (fun a ie -> a + ie.count) 0 ies)

  let height t =
    let rec go h acc =
      match read_node t.store h with
      | Leaf _ -> acc + 1
      | Index ies -> (
        match ies with
        | [] -> corrupt "empty index node %s" (Hash.to_hex h)
        | ie :: _ -> go ie.child (acc + 1))
    in
    match t.root with None -> 0 | Some h -> go h 0

  (* First index entry whose split key is >= k, B+-tree descent. *)
  let rec find_in store h k =
    match read_node store h with
    | Leaf entries ->
      List.find_opt (fun e -> String.compare (E.key e) k = 0) entries
    | Index ies -> (
      match List.find_opt (fun ie -> String.compare k ie.split <= 0) ies with
      | None -> None
      | Some ie -> find_in store ie.child k)

  let find t k =
    match t.root with
    | None -> None
    | Some h -> Obs.with_span span_find (fun () -> find_in t.store h k)

  let mem t k = find t k <> None

  let rec iter_node store f h =
    match read_node store h with
    | Leaf entries -> List.iter f entries
    | Index ies -> List.iter (fun ie -> iter_node store f ie.child) ies

  let iter f t =
    match t.root with None -> () | Some h -> iter_node t.store f h

  let fold f acc t =
    let acc = ref acc in
    iter (fun e -> acc := f !acc e) t;
    !acc

  let to_list t = List.rev (fold (fun acc e -> e :: acc) [] t)

  let to_seq t =
    (* Explicit stack of pending nodes; chunks are only read on demand. *)
    let rec nodes_seq stack () =
      match stack with
      | [] -> Seq.Nil
      | h :: rest -> (
        match read_node t.store h with
        | Leaf entries -> entries_seq entries rest ()
        | Index ies ->
          nodes_seq (List.map (fun ie -> ie.child) ies @ rest) ())
    and entries_seq entries stack () =
      match entries with
      | [] -> nodes_seq stack ()
      | e :: rest -> Seq.Cons (e, entries_seq rest stack)
    in
    match t.root with None -> Seq.empty | Some h -> nodes_seq [ h ]

  (* ---------------- range queries ----------------

     A child pointed to by index entry [ie] holds keys in the half-open
     range (previous sibling's split, ie.split]; the walk prunes children
     disjoint from [lo, hi] and, for counting, credits fully-covered
     children from their stored counts without reading them. *)

  let ge_lo lo k =
    match lo with None -> true | Some l -> String.compare k l >= 0

  let le_hi hi k =
    match hi with None -> true | Some h -> String.compare k h <= 0

  let iter_range ?lo ?hi f t =
    let rec go h =
      match read_node t.store h with
      | Leaf entries ->
        List.iter
          (fun e ->
            let k = E.key e in
            if ge_lo lo k && le_hi hi k then f e)
          entries
      | Index ies ->
        let rec walk prev = function
          | [] -> ()
          | ie :: rest ->
            let below_lo =
              match lo with
              | Some l -> String.compare ie.split l < 0
              | None -> false
            in
            let above_hi =
              match hi, prev with
              | Some h, Some p -> String.compare p h >= 0
              | _ -> false
            in
            if not (below_lo || above_hi) then go ie.child;
            walk (Some ie.split) rest
        in
        walk None ies
    in
    match t.root with None -> () | Some h -> go h

  let fold_range ?lo ?hi f acc t =
    let acc = ref acc in
    iter_range ?lo ?hi (fun e -> acc := f !acc e) t;
    !acc

  let to_list_range ?lo ?hi t =
    List.rev (fold_range ?lo ?hi (fun acc e -> e :: acc) [] t)

  let count_range ?lo ?hi t =
    let rec go h =
      match read_node t.store h with
      | Leaf entries ->
        List.fold_left
          (fun acc e ->
            let k = E.key e in
            if ge_lo lo k && le_hi hi k then acc + 1 else acc)
          0 entries
      | Index ies ->
        let rec walk prev acc = function
          | [] -> acc
          | ie :: rest ->
            let below_lo =
              match lo with
              | Some l -> String.compare ie.split l < 0
              | None -> false
            in
            let above_hi =
              match hi, prev with
              | Some h, Some p -> String.compare p h >= 0
              | _ -> false
            in
            let acc =
              if below_lo || above_hi then acc
              else begin
                (* Fully covered: min key > prev >= lo and max = split <= hi. *)
                let lo_covered =
                  match lo, prev with
                  | None, _ -> true
                  | Some l, Some p -> String.compare p l >= 0
                  | Some _, None -> false
                in
                if lo_covered && le_hi hi ie.split then acc + ie.count
                else acc + go ie.child
              end
            in
            walk (Some ie.split) acc rest
        in
        walk None 0 ies
    in
    match t.root with None -> 0 | Some h -> go h

  let nth t n =
    if n < 0 then None
    else
      let rec go h n =
        match read_node t.store h with
        | Leaf entries -> List.nth_opt entries n
        | Index ies ->
          let rec pick n = function
            | [] -> None
            | ie :: rest ->
              if n < ie.count then go ie.child n else pick (n - ie.count) rest
          in
          pick n ies
      in
      match t.root with None -> None | Some h -> go h n

  let min_entry t =
    let rec go h =
      match read_node t.store h with
      | Leaf [] -> None
      | Leaf (e :: _) -> Some e
      | Index [] -> None
      | Index (ie :: _) -> go ie.child
    in
    match t.root with None -> None | Some h -> go h

  let max_entry t =
    let rec go h =
      match read_node t.store h with
      | Leaf [] -> None
      | Leaf entries -> Some (last_exn entries)
      | Index [] -> None
      | Index ies -> go (last_exn ies).child
    in
    match t.root with None -> None | Some h -> go h

  (* ---------------- rows ---------------- *)

  (* Index entries [levels] below node [h]; [levels >= 1] and [h] is an
     index node at least [levels] deep. *)
  let rec row_below store h levels =
    match read_node store h with
    | Leaf _ -> corrupt "row_below: unexpected leaf at %s" (Hash.to_hex h)
    | Index ies ->
      if levels = 1 then ies
      else List.concat_map (fun ie -> row_below store ie.child (levels - 1)) ies

  let leaf_entries t h =
    match read_node t.store h with
    | Leaf entries -> entries
    | Index _ -> corrupt "expected leaf at %s" (Hash.to_hex h)

  (* A non-empty tree's root as an index entry, split at its greatest key
     (a root is never passed, so its count is not needed). *)
  let root_entry t root =
    let split =
      match read_node t.store root with
      | Leaf es -> E.key (last_exn es)
      | Index ies -> (last_exn ies).split
    in
    { split; child = root; count = 0 }

  (* ---------------- update ---------------- *)

  let edit_key = function Put e -> E.key e | Remove k -> k
  let apply_edit a = function Put e -> add a e | Remove _ -> ()

  (* A leaf's entries with [edits] applied, both in key order. *)
  let rec apply_leaf a es edits =
    match es, edits with
    | [], [] -> ()
    | e :: es', [] -> add a e; apply_leaf a es' []
    | [], ed :: eds -> apply_edit a ed; apply_leaf a [] eds
    | e :: es', ed :: eds ->
      let c = String.compare (E.key e) (edit_key ed) in
      if c < 0 then (add a e; apply_leaf a es' edits)
      else (apply_edit a ed; apply_leaf a (if c = 0 then es' else es) eds)

  (* Offer the subtree [ie] of [src], [h] levels tall, with [edits]
     applied: only the paths to edited leaves are read, and every other
     subtree is offered whole.  Edits past the last split key (appends)
     go to the right spine. *)
  let rec offer_edited a src h ie edits =
    if edits = [] then offer a src h ie
    else
      match node_at src h ie.child with
      | Leaf es -> apply_leaf a es edits
      | Index ies ->
        let rec go edits = function
          | [] -> ()
          | [ c ] -> offer_edited a src (h - 1) c edits
          | c :: rest ->
            let rec mine acc = function
              | ed :: eds when String.compare (edit_key ed) c.split <= 0 ->
                mine (ed :: acc) eds
              | eds -> (List.rev acc, eds)
            in
            let edits_c, edits = mine [] edits in
            offer_edited a src (h - 1) c edits_c;
            go edits rest
        in
        go edits ies

  let update t edits =
    let edits = sort_dedup edit_key edits in
    if edits = [] then t
    else
      Obs.with_span span_update @@ fun () ->
      let a = assembler t.store in
      (match t.root with
       | None -> List.iter (apply_edit a) edits
       | Some root ->
         let ie = root_entry t root in
         offer_edited a { tree = t; last = ie.split } (height t) ie edits);
      { t with root = finish a }

  let insert t e = update t [ Put e ]
  let remove t k = update t [ Remove k ]

  (* ---------------- replace ---------------- *)

  (* What a subtree of the old tree becomes in the new one: itself, the new
     entries in its key range (a leaf that changed), or a plan per child. *)
  type plan = Same | Entries of E.t list | Children of (index_entry * plan) list

  (* [es] cut after the last entry whose key is at most [hi] ([None]: no
     bound): those entries in order, their count, and the rest. *)
  let rec upto hi acc n = function
    | e :: rest
      when (match hi with None -> true | Some k -> String.compare (E.key e) k <= 0) ->
      check_key (E.key e);
      upto hi (e :: acc) (n + 1) rest
    | rest -> (List.rev acc, n, rest)

  let rec same_entries olds news =
    match olds, news with
    | [], [] -> true
    | o :: olds, e :: news -> equal_entry o e && same_entries olds news
    | _ -> false

  (* The merge-walk of the subtree [ie] of [src], [h] levels tall, against
     the sorted entries [es]: each leaf takes the entries up to its split
     key ([hi] for a node's last child) and is [Same] only when they are
     its own entries, encoding for encoding.  A leaf whose count differs
     is not read.  Returns the plan and the entries past the subtree. *)
  let rec plan src h ie hi es =
    if h = 1 then begin
      let mine, n, rest = upto hi [] 0 es in
      let same =
        n = ie.count
        && match node_at src 1 ie.child with Leaf olds -> same_entries olds mine | Index _ -> false
      in
      ((if same then Same else Entries mine), rest)
    end
    else
      match node_at src h ie.child with
      | Leaf _ -> corrupt "node %s is not at height %d" (Hash.to_hex ie.child) h
      | Index ies ->
        let rec go acc all_same es = function
          | [] -> ((if all_same then Same else Children (List.rev acc)), es)
          | c :: rest ->
            let p, es = plan src (h - 1) c (if rest = [] then hi else Some c.split) es in
            go ((c, p) :: acc) (all_same && p = Same) es rest
        in
        go [] true es ies

  let rec write_plan a src h ie = function
    | Same -> offer a src h ie
    | Entries es -> List.iter (add a) es
    | Children cs -> List.iter (fun (c, p) -> write_plan a src (h - 1) c p) cs

  let replace t entries =
    match t.root with
    | None -> build t.store entries
    | Some root ->
      Obs.with_span span_replace @@ fun () ->
      let ie = { (root_entry t root) with count = cardinal t } in
      let src = { tree = t; last = ie.split } in
      match plan src (height t) ie None (sort_dedup E.key entries) with
      | Same, _ -> t
      | p, _ ->
        let a = assembler t.store in
        write_plan a src (height t) ie p;
        { t with root = finish a }

  (* ---------------- diff ---------------- *)

  let rec entries_of_hash store h acc =
    match read_node store h with
    | Leaf entries -> List.rev_append entries acc
    | Index ies ->
      List.fold_left (fun acc ie -> entries_of_hash store ie.child acc) acc
        ies

  let subtree_entries store hs =
    List.rev
      (List.fold_left (fun acc h -> entries_of_hash store h acc) [] hs)

  (* Merge-walk two sorted entry lists; [acc] is built in reverse. *)
  let diff_entries l1 l2 acc =
    let rec go l1 l2 acc =
      match l1, l2 with
      | [], [] -> acc
      | e1 :: r1, [] -> go r1 [] (Removed e1 :: acc)
      | [], e2 :: r2 -> go [] r2 (Added e2 :: acc)
      | e1 :: r1, e2 :: r2 ->
        let c = String.compare (E.key e1) (E.key e2) in
        if c < 0 then go r1 l2 (Removed e1 :: acc)
        else if c > 0 then go l1 r2 (Added e2 :: acc)
        else if equal_entry e1 e2 then go r1 r2 acc
        else go r1 r2 (Modified (e1, e2) :: acc)
    in
    go l1 l2 acc

  (* A diff's leaf level compares two runs of leaves that cover the same
     key range: an aligned pair, or the boundary-shifted spans of a row.
     When no leaf of either run is in the node cache the runs are read raw
     and walked in their encoded form: a cursor reads each entry's length
     varints, keys compare bytewise in place ([String.compare]'s order,
     the keys' order), and an entry whose key and encoded bytes match
     the other side's is skipped without allocating.  Only added, removed
     and modified entries are decoded, and nothing enters the cache, so a
     one-pass diff does not churn it.  The cursor refuses what
     [decode_node] refuses: a wrong chunk kind, a non-minimal or
     overflowing varint, a count beyond the payload, a length past its
     end, trailing bytes.  When a leaf of either run is cached, decoding
     the other side is cheaper than reading the cached one again, so the
     runs go through [read_node] and [diff_entries]. *)

  (* One tree's side of a diff: its store, and the raw leftmost leaf that
     [node_height] fetched, handed on to the first read of that leaf so a
     cold diff fetches it once. *)
  type side = {
    side_store : Store.t;
    mutable first : (Hash.t * Chunk.t) option;
  }

  let side_chunk side h =
    match side.first with
    | Some (h', chunk) when Hash.equal h h' ->
      side.first <- None;
      chunk
    | _ -> chunk_of_hash side.side_store h

  (* [read_node] through a side. *)
  let side_node side h =
    match Node_cache.find_live node_cache side.side_store h with
    | Some node -> node
    | None -> cache_node h (side_chunk side h)

  type cursor = {
    src : side;
    mutable rest : Hash.t list;  (* leaves after the current one *)
    mutable leaf : Hash.t option;  (* the current leaf *)
    mutable buf : string;  (* its payload *)
    mutable left : int;  (* its entries after the current one *)
    mutable pos : int;  (* the current entry's first byte *)
    mutable kpos : int;  (* its key bytes' first byte *)
    mutable klen : int;
    mutable stop : int;  (* one past its last byte *)
  }

  let cursor src hs =
    { src; rest = hs; leaf = None; buf = ""; left = 0; pos = 0; kpos = 0;
      klen = 0; stop = 0 }

  let leaf_hex c = Option.fold ~none:"?" ~some:Hash.to_hex c.leaf

  let malformed c pos =
    corrupt "leaf decode: %s: malformed entry at offset %d" (leaf_hex c) pos

  let load c h =
    let chunk = side_chunk c.src h in
    if not (Chunk.equal_kind chunk.Chunk.kind leaf_kind) then
      corrupt "unexpected chunk kind %s at %s (wanted %s)"
        (Chunk.kind_to_string chunk.Chunk.kind) (Hash.to_hex h) kind_label;
    let s = chunk.Chunk.payload in
    let n = String.length s in
    let v = varint_from s n 0 0 0 in
    c.leaf <- Some h;
    if v < 0 then malformed c 0;
    let count = v asr 32 and pos = v land 0xFFFFFFFF in
    if count > n - pos then
      corrupt "leaf decode: %s: count %d exceeds the payload" (leaf_hex c)
        count;
    c.buf <- s;
    c.left <- count;
    c.stop <- pos

  (* Move to the run's next entry; [false] past its last. *)
  let rec next c =
    let s = c.buf in
    let n = String.length s in
    if c.left = 0 then begin
      if c.stop <> n then
        corrupt "leaf decode: %s: %d trailing bytes" (leaf_hex c) (n - c.stop);
      match c.rest with
      | [] -> false
      | h :: rest ->
        c.rest <- rest;
        load c h;
        next c
    end
    else begin
      let pos = c.stop in
      let v = varint_from s n pos 0 0 in
      if v < 0 then malformed c pos;
      let kpos = v land 0xFFFFFFFF and klen = v asr 32 in
      let key_end = kpos + klen in
      let stop = if E.has_value then skip_bytes s n key_end else key_end in
      if stop < 0 || stop > n then malformed c pos;
      c.pos <- pos;
      c.kpos <- kpos;
      c.klen <- klen;
      c.stop <- stop;
      c.left <- c.left - 1;
      true
    end

  let decode c =
    Obs.incr diff_entries_decoded;
    read_entry (Codec.reader ~pos:c.pos c.buf)

  (* Lockstep walk of two cursors; [acc] is built in reverse. *)
  let diff_encoded c1 c2 acc =
    let rec go more1 more2 acc =
      match more1, more2 with
      | false, false -> acc
      | true, false ->
        let acc = Removed (decode c1) :: acc in
        go (next c1) false acc
      | false, true ->
        let acc = Added (decode c2) :: acc in
        go false (next c2) acc
      | true, true ->
        let c =
          compare_sub c1.buf c1.kpos c1.klen c2.buf c2.kpos c2.klen
        in
        if c < 0 then
          let acc = Removed (decode c1) :: acc in
          go (next c1) true acc
        else if c > 0 then
          let acc = Added (decode c2) :: acc in
          go true (next c2) acc
        else begin
          (* Equal keys: the rest of each entry is its encoded value. *)
          let v1 = c1.kpos + c1.klen and v2 = c2.kpos + c2.klen in
          let len = c1.stop - v1 in
          let acc =
            if len = c2.stop - v2 && equal_sub c1.buf v1 c2.buf v2 len then
              acc
            else
              let e1 = decode c1 in
              Modified (e1, decode c2) :: acc
          in
          let more1 = next c1 in
          go more1 (next c2) acc
        end
    in
    let more1 = next c1 in
    go more1 (next c2) acc

  let diff_leaves s1 s2 hs1 hs2 acc =
    let probe side =
      List.map (fun h -> (h, Node_cache.find_live node_cache side.side_store h))
    in
    let p1 = probe s1 hs1 and p2 = probe s2 hs2 in
    let cold = List.for_all (fun (_, node) -> Option.is_none node) in
    if cold p1 && cold p2 then begin
      Obs.incr diff_leaves_encoded;
      diff_encoded (cursor s1 hs1) (cursor s2 hs2) acc
    end
    else
      let leaf side (h, cached) =
        let node, decoded =
          match cached with
          | Some node -> (node, false)
          | None -> (cache_node h (side_chunk side h), true)
        in
        match node with
        | Leaf es ->
          if decoded then Obs.add diff_entries_decoded (List.length es);
          es
        | Index _ ->
          corrupt "diff: index node %s where a leaf belongs" (Hash.to_hex h)
      in
      let entries side = List.concat_map (leaf side) in
      diff_entries (entries s1 p1) (entries s2 p2) acc

  (* Diff recursion works on (node, height) pairs at a {e common} height.
     Two logically-close trees can still differ in total height (index-level
     chunking can collapse or add a level), so the taller side's upper
     structure — always a handful of small nodes — is first expanded into
     the row of sub-tree pointers at the shorter side's root height. *)

  (* Down the leftmost path.  The leaf's kind is all the height needs, so
     an uncached leaf is not decoded (nor cached): the side keeps its chunk
     for the diff to compare encoded like any other. *)
  let node_height side h =
    let rec go h acc =
      let node =
        match Node_cache.find_live node_cache side.side_store h with
        | Some node -> node
        | None ->
          let chunk = chunk_of_hash side.side_store h in
          if Chunk.equal_kind chunk.Chunk.kind leaf_kind then begin
            side.first <- Some (h, chunk);
            Leaf []
          end
          else cache_node h chunk
      in
      match node with
      | Leaf _ -> acc
      | Index [] -> corrupt "empty index node %s" (Hash.to_hex h)
      | Index (ie :: _) -> go ie.child (acc + 1)
    in
    go h 1

  (* [s1] holds the first tree's nodes and [s2] the second's: the two trees
     may live in different stores.  Height 1 is the leaf level. *)
  let rec diff_nodes s1 s2 h1 h2 height acc =
    if Hash.equal h1 h2 then acc
    else if height = 1 then diff_leaves s1 s2 [ h1 ] [ h2 ] acc
    else
      match side_node s1 h1, side_node s2 h2 with
      | Index i1, Index i2 -> diff_rows s1 s2 i1 i2 (height - 1) acc
      | Leaf _, _ ->
        corrupt "diff: leaf %s at height %d" (Hash.to_hex h1) height
      | _, Leaf _ ->
        corrupt "diff: leaf %s at height %d" (Hash.to_hex h2) height

  (* Walk two rows of index entries (pointing to sub-trees of [height]) by
     split key.  Children that align on the same split key are recursed into
     (and pruned when ids are equal); boundary-shifted spans are flattened
     and compared entry-wise.  Thanks to structural invariance such spans
     only appear next to actual differences, so the walk skips identical
     regions wholesale. *)
  and diff_rows s1 s2 i1 i2 height acc =
    let flush span1 span2 acc =
      match span1, span2 with
      | [], [] -> acc
      | [ a ], [ b ] ->
        (* A lone realigned pair keeps recursing instead of flattening. *)
        diff_nodes s1 s2 a.child b.child height acc
      | _ when height > 1 ->
        (* Boundary-shifted index spans: expand one level and realign —
           the shift is local, so the next level prunes again. *)
        let expand side span =
          List.concat_map
            (fun ie ->
              match side_node side ie.child with
              | Index ies -> ies
              | Leaf _ ->
                corrupt "diff: leaf at height %d under %s" height
                  (Hash.to_hex ie.child))
            (List.rev span)
        in
        diff_rows s1 s2 (expand s1 span1) (expand s2 span2) (height - 1) acc
      | _ ->
        (* Leaf-level spans: compare the entries of both runs. *)
        let hs l = List.rev_map (fun ie -> ie.child) l in
        diff_leaves s1 s2 (hs span1) (hs span2) acc
    in
    let rec walk l1 l2 span1 span2 acc =
      match l1, l2 with
      | [], [] -> flush span1 span2 acc
      | e1 :: r1, [] -> walk r1 [] (e1 :: span1) span2 acc
      | [], e2 :: r2 -> walk [] r2 span1 (e2 :: span2) acc
      | e1 :: r1, e2 :: r2 ->
        let c = String.compare e1.split e2.split in
        if c = 0 then
          let acc = flush (e1 :: span1) (e2 :: span2) acc in
          walk r1 r2 [] [] acc
        else if c < 0 then walk r1 l2 (e1 :: span1) span2 acc
        else walk l1 r2 span1 (e2 :: span2) acc
    in
    walk i1 i2 [] [] acc

  let diff t1 t2 =
    Obs.with_span span_diff @@ fun () ->
    let acc =
      match t1.root, t2.root with
      | None, None -> []
      | Some h1, None ->
        List.rev_map (fun e -> Removed e) (subtree_entries t1.store [ h1 ])
      | None, Some h2 ->
        List.rev_map (fun e -> Added e) (subtree_entries t2.store [ h2 ])
      | Some h1, Some h2 ->
        if Hash.equal h1 h2 then []
        else begin
          let s1 = { side_store = t1.store; first = None }
          and s2 = { side_store = t2.store; first = None } in
          let ht1 = node_height s1 h1 and ht2 = node_height s2 h2 in
          if ht1 = ht2 then diff_nodes s1 s2 h1 h2 ht1 []
          else begin
            (* Expand both sides to the rows one level below the shorter
               root: that is the first level where content-defined
               boundaries realign, so pruning applies again. *)
            let target = max 1 (min ht1 ht2 - 1) in
            let row_of side h ht =
              if ht = target then
                (* Only when the shorter tree is a single leaf. *)
                let split =
                  match side_node side h with
                  | Leaf es -> E.key (last_exn es)
                  | Index ies -> (last_exn ies).split
                in
                [ { split; child = h; count = 0 } ]
              else row_below side.side_store h (ht - target)
            in
            diff_rows s1 s2 (row_of s1 h1 ht1) (row_of s2 h2 ht2) target []
          end
        end
    in
    List.rev acc

  let edit_of_change = function
    | Added e -> Put e
    | Removed e -> Remove (E.key e)
    | Modified (_, e2) -> Put e2

  (* ---------------- merge ----------------

     The merge walks the three trees root-down at a common height, as
     [diff] does.  At each level the three rows of index entries are cut
     into segments at the split keys where all three end a node, so a
     segment covers the same key range in every row.  A segment that only
     one side changed (its children's ids equal base's, or the other
     side's) is taken from that side as whole subtrees; a segment both
     sides changed is expanded one level and cut again, down to the
     leaves, where its entries are merged one by one.  The pieces then go
     through the row assembler, which passes the subtrees through where it
     can, so the result is the tree [build] would make from the merged
     record set. *)

  type conflict = {
    key : key;
    base : E.t option;
    ours : edit;
    theirs : edit;
  }

  type resolver = conflict -> edit option

  let resolve_ours c = Some c.ours
  let resolve_theirs c = Some c.theirs

  (* One piece of the merged tree, in key order: subtrees of one input
     ([h] levels tall), or the merged entries of a leaf segment both sides
     changed. *)
  type piece =
    | Subtrees of source * int * index_entry list
    | Entries of E.t list

  (* Cut three rows at their common split keys; the last segment runs to
     the end of every row. *)
  let segments f acc rb ro rt =
    let rec go rb ro rt sb so st acc =
      match rb, ro, rt with
      | b :: rb', o :: ro', t :: rt'
        when String.equal b.split o.split && String.equal b.split t.split ->
        go rb' ro' rt' [] [] []
          (f acc (List.rev (b :: sb), List.rev (o :: so), List.rev (t :: st)))
      | b :: rb', o :: ro', t :: rt' ->
        let lo x y = if String.compare x y <= 0 then x else y in
        let m = lo b.split (lo o.split t.split) in
        let step ie rest seg =
          if String.compare ie.split m = 0 then (rest, ie :: seg)
          else (ie :: rest, seg)
        in
        let rb, sb = step b rb' sb
        and ro, so = step o ro' so
        and rt, st = step t rt' st in
        go rb ro rt sb so st acc
      | _ -> f acc (List.rev_append sb rb, List.rev_append so ro, List.rev_append st rt)
    in
    go rb ro rt [] [] [] acc

  let same_children a b =
    List.equal (fun x y -> Hash.equal x.child y.child) a b

  let same_entry a b =
    match a, b with
    | None, None -> true
    | Some x, Some y -> equal_entry x y
    | Some _, None | None, Some _ -> false

  (* Merge the entries of one two-sided segment.  Per key: a side equal to
     base yields the other side, two equal sides agree, anything else is a
     conflict offered to [on_conflict].  [acc] and [conflicts] are
     reversed. *)
  let merge_entries on_conflict bs os ts (acc, conflicts) =
    let take k = function
      | e :: rest when String.compare (E.key e) k = 0 -> (Some e, rest)
      | l -> (None, l)
    in
    let keep e acc = match e with Some e -> e :: acc | None -> acc in
    let rec go bs os ts acc conflicts =
      let min_key =
        List.fold_left
          (fun m l ->
            match l, m with
            | [], _ -> m
            | e :: _, Some k when String.compare k (E.key e) <= 0 -> m
            | e :: _, _ -> Some (E.key e))
          None [ bs; os; ts ]
      in
      match min_key with
      | None -> (acc, conflicts)
      | Some k ->
        let b, bs = take k bs and o, os = take k os and t, ts = take k ts in
        if same_entry o b then go bs os ts (keep t acc) conflicts
        else if same_entry t b || same_entry o t then
          go bs os ts (keep o acc) conflicts
        else
          let edit = function Some e -> Put e | None -> Remove k in
          let c = { key = k; base = b; ours = edit o; theirs = edit t } in
          match on_conflict c with
          | None -> go bs os ts acc (c :: conflicts)
          | Some ed ->
            if String.compare (edit_key ed) k <> 0 then
              invalid_arg "Postree.merge: resolver edit for another key";
            let acc = match ed with Put e -> e :: acc | Remove _ -> acc in
            go bs os ts acc conflicts
    in
    go bs os ts acc conflicts

  let merge ?(on_conflict = fun _ -> None) ~base ~ours ~theirs () =
    Obs.with_span span_merge @@ fun () ->
    let hb = height base and ho = height ours and ht = height theirs in
    let top = List.fold_left (fun m h -> if h > 0 then min m h else m) max_int [ hb; ho; ht ] in
    (* Rows of subtrees [target] levels tall: one level below the shortest
       root, where all three trees' boundaries can first align. *)
    let target = max 1 (top - 1) in
    let row_of t h =
      match t.root with
      | None -> []
      | Some root when h = target -> [ root_entry t root ]
      | Some root -> row_below t.store root (h - target)
    in
    let rb = row_of base hb and ro = row_of ours ho and rt = row_of theirs ht in
    let source tree row =
      { tree; last = (match row with [] -> "" | _ -> (last_exn row).split) }
    in
    let src_o = source ours ro and src_t = source theirs rt in
    let children t ies =
      let kids ie =
        match read_node t.store ie.child with
        | Index c -> c
        | Leaf _ -> corrupt "merge: leaf %s above the leaf level" (Hash.to_hex ie.child)
      in
      match ies with [ ie ] -> kids ie | _ -> List.concat_map kids ies
    in
    let entries t ies = List.concat_map (fun ie -> leaf_entries t ie.child) ies in
    (* Plan before writing anything: the resolver runs and every conflict
       is found first, so a merge that fails leaves the store as it was. *)
    let rec walk h (plan, conflicts) (sb, so, st) =
      if same_children so sb then (Subtrees (src_t, h, st) :: plan, conflicts)
      else if same_children st sb || same_children so st then
        (Subtrees (src_o, h, so) :: plan, conflicts)
      else if h = 1 then
        let merged, conflicts =
          merge_entries on_conflict (entries base sb) (entries ours so)
            (entries theirs st) ([], conflicts)
        in
        (Entries (List.rev merged) :: plan, conflicts)
      else
        segments (walk (h - 1)) (plan, conflicts) (children base sb)
          (children ours so) (children theirs st)
    in
    let plan, conflicts = segments (walk target) ([], []) rb ro rt in
    if conflicts <> [] then Error (List.rev conflicts)
    else begin
      let a = assembler ours.store in
      List.iter
        (function
          | Subtrees (src, h, ies) -> List.iter (offer a src h) ies
          | Entries es -> List.iter (add a) es)
        (List.rev plan);
      Ok { ours with root = finish a }
    end

  (* ---------------- Merkle proofs ---------------- *)

  type proof = string list

  (* Routing is deterministic from node content: the first child whose
     split key is >= the target, else the last child (which also hosts
     absence proofs for keys beyond the key space). *)
  let route ies k =
    match List.find_opt (fun ie -> String.compare k ie.split <= 0) ies with
    | Some ie -> ie
    | None -> last_exn ies

  let prove t k =
    match t.root with
    | None -> Error "cannot prove against an empty tree"
    | Some root ->
      let rec go h acc =
        match t.store.Store.get_raw h with
        | None -> Error (Printf.sprintf "missing chunk %s" (Hash.to_hex h))
        | Some raw -> (
          let acc = raw :: acc in
          match Store.get t.store h with
          | None -> Error "undecodable chunk"
          | Some chunk -> (
            match decode_node chunk with
            | Leaf _ -> Ok (List.rev acc)
            | Index [] -> Error "empty index node"
            | Index ies -> go (route ies k).child acc
            | exception Corrupt m -> Error m))
      in
      go root []

  let verify_proof ~root k proof =
    let decode raw =
      match Chunk.decode raw with
      | Error e -> Error e
      | Ok chunk -> (
        match decode_node chunk with
        | node -> Ok node
        | exception Corrupt m -> Error m)
    in
    let rec walk expected = function
      | [] -> Error "proof: truncated path"
      | raw :: rest ->
        if not (Hash.equal (Hash.of_string raw) expected) then
          Error "proof: chunk does not hash to the id its parent names"
        else (
          match decode raw with
          | Error e -> Error ("proof: " ^ e)
          | Ok (Leaf entries) ->
            if rest <> [] then Error "proof: trailing chunks after leaf"
            else
              Ok
                (List.find_opt (fun e -> String.compare (E.key e) k = 0)
                   entries)
          | Ok (Index []) -> Error "proof: empty index node"
          | Ok (Index ies) -> walk (route ies k).child rest)
    in
    walk root proof

  (* ---------------- introspection ---------------- *)

  type node_stats = {
    levels : int;
    nodes_per_level : int list;
    bytes_per_level : int list;
    leaf_entries : int;
    leaf_node_sizes : int list;
  }

  (* One level at a time, root first; the leaf level also gives the leaf
     sizes and the entry count. *)
  let node_stats t =
    let rec go hs nodes bytes =
      let chunks = List.map (chunk_of_hash t.store) hs in
      let sizes = List.map Chunk.encoded_size chunks in
      let nodes = List.length hs :: nodes in
      let bytes = List.fold_left ( + ) 0 sizes :: bytes in
      let children = function
        | Index ies -> List.map (fun ie -> ie.child) ies
        | Leaf _ -> []
      in
      match List.map decode_node chunks with
      | Index _ :: _ as level -> go (List.concat_map children level) nodes bytes
      | level ->
        { levels = List.length nodes;
          nodes_per_level = List.rev nodes;
          bytes_per_level = List.rev bytes;
          leaf_entries =
            List.fold_left
              (fun a -> function Leaf es -> a + List.length es | Index _ -> a)
              0 level;
          leaf_node_sizes = sizes }
    in
    match t.root with
    | None ->
      { levels = 0; nodes_per_level = []; bytes_per_level = [];
        leaf_entries = 0; leaf_node_sizes = [] }
    | Some h -> go [ h ] [] []

  let node_hashes t =
    let acc = ref [] in
    let rec go h =
      acc := h :: !acc;
      match read_node t.store h with
      | Leaf _ -> ()
      | Index ies -> List.iter (fun ie -> go ie.child) ies
    in
    (match t.root with None -> () | Some h -> go h);
    List.rev !acc

  let leaf_hashes t =
    match t.root with
    | None -> []
    | Some h -> (
      match height t with
      | 1 -> [ h ]
      | ht -> List.map (fun ie -> ie.child) (row_below t.store h (ht - 1)))

  (* ---------------- validation ----------------

     One walk reads each stored chunk once, as raw bytes — never through
     the node cache, which could hide a tampered chunk — and checks each
     index node's hash, which also rules out cycles.  The leaf entries
     stream through [build_root] into [Store.sink]: the tree is valid iff
     the rebuilt root is the stored one.  Leaves need no hash check of
     their own, since the rebuilt root commits to their content. *)

  let validate t =
    let read h =
      match t.store.Store.get_raw h with
      | None -> corrupt "missing chunk %s" (Hash.to_hex h)
      | Some raw -> (
        match Chunk.decode raw with
        | Error e -> corrupt "chunk %s: %s" (Hash.to_hex h) e
        | Ok chunk -> (raw, decode_node chunk))
    in
    let rec walk f h =
      match read h with
      | _, Leaf entries -> List.iter f entries
      | raw, Index ies ->
        let got = Hash.of_string raw in
        if not (Hash.equal got h) then
          corrupt "chunk %s: stored bytes hash to %s (tampered)"
            (Hash.to_hex h) (Hash.to_hex got);
        List.iter (fun ie -> walk f ie.child) ies
    in
    match t.root with
    | None -> Ok ()
    | Some root -> (
      match build_root Store.sink (fun f -> walk f root) with
      | Some r when Hash.equal r root -> Ok ()
      | r ->
        Error
          (Printf.sprintf
             "root %s is not the tree the builder makes over its entries \
              (that is %s)"
             (Hash.to_hex root)
             (Option.fold ~none:"empty" ~some:Hash.to_hex r))
      | exception (Corrupt m | Unbuildable m | Invalid_argument m) -> Error m)

  let pp fmt t =
    match t.root with
    | None -> Format.pp_print_string fmt "<empty pos-tree>"
    | Some h ->
      Format.fprintf fmt "<pos-tree root=%a entries=%d height=%d>" Hash.pp h
        (cardinal t) (height t)
end
