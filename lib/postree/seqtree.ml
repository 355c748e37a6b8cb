module Codec = Fb_codec.Codec
module Chunk = Fb_chunk.Chunk
module Store = Fb_chunk.Store
module Hash = Fb_hash.Hash

type index_entry = { child : Hash.t; count : int }

type range_diff = { old_pos : int; old_len : int; new_pos : int; new_len : int }

module type LEAF = sig
  type seg

  val kind : Chunk.kind
  val name : string
  val noun : string
  val unit : string
  val encode : seg -> string
  val decode : string -> (seg, string) result
  val length : seg -> int
  val sub : seg -> int -> int -> seg
  val concat : seg list -> seg
  val equal_at : seg -> seg -> int -> int -> bool

  type chunker
  val chunker : (seg -> unit) -> chunker
  val feed : chunker -> seg -> unit
  val pending : chunker -> bool
  val finish : chunker -> unit
end

let encode_index_entry w ie =
  Codec.hash w ie.child;
  Codec.varint w ie.count

let index_chunk ies =
  Chunk.v Chunk.Seq_index
    (Codec.to_string (fun w -> Codec.list w encode_index_entry) ies)

let decode_index chunk =
  if chunk.Chunk.kind <> Chunk.Seq_index then
    Error ("expected seq-index chunk, got " ^ Chunk.kind_to_string chunk.Chunk.kind)
  else
    Codec.of_string
      (fun r ->
        Codec.read_list r (fun r ->
            let child = Codec.read_hash r in
            { child; count = Codec.read_varint r }))
      chunk.Chunk.payload

let ok_exn = function Ok v -> v | Error e -> raise (Postree.Corrupt e)
let decode_index_exn chunk = ok_exn (decode_index chunk)

let sum_counts ies = List.fold_left (fun a ie -> a + ie.count) 0 ies

(* Sequence trees (list/blob) cache the chunk value itself: decoding the
   payload is cheap per kind, but [Store.get] re-parses and copies the
   encoded bytes on every call.  One cache serves every instance. *)
let chunk_cache : Chunk.t Node_cache.t = Node_cache.create ~name:"seqtree"

let read_chunk store h =
  match Node_cache.find_live chunk_cache store h with
  | Some c -> c
  | None ->
    (match Store.get store h with
     | Some c ->
       Node_cache.add chunk_cache h c;
       c
     | None -> raise (Postree.Corrupt ("missing chunk " ^ Hash.to_hex h)))

let params = Fb_hash.Rolling.default_node_params
let max_node_bytes = 16 * (1 lsl params.q)

(* Pattern-chunk a row of index entries into [Seq_index] nodes, returning
   the parent row. *)
let chunk_index_level store ies =
  let out = ref [] in
  let emit items =
    let id = Store.put store (index_chunk items) in
    out := { child = id; count = sum_counts items } :: !out
  in
  let ch = Chunker.create ~params ~max_bytes:max_node_bytes ~emit () in
  List.iter
    (fun ie -> Chunker.add ch ie (Codec.to_string encode_index_entry ie))
    ies;
  Chunker.finish ch;
  List.rev !out

let rec build_up store row =
  match row with
  | [] -> None
  | [ ie ] -> Some ie.child
  | _ -> build_up store (chunk_index_level store row)

(* Lengths of the longest common prefix of two sequences of [n1] and [n2]
   elements compared by [eq i j], and of their longest common suffix that
   does not overlap it. *)
let common n1 n2 eq =
  let rec pre i = if i < n1 && i < n2 && eq i i then pre (i + 1) else i in
  let p = pre 0 in
  let rec suf k =
    if n1 - 1 - k >= p && n2 - 1 - k >= p && eq (n1 - 1 - k) (n2 - 1 - k)
    then suf (k + 1)
    else k
  in
  (p, suf 0)

(* The children of an index node meeting [pos, pos+len), with their
   starts.  If none does and [len > 0], the last child: a position past
   the end routes to the last leaf, which proves the bound. *)
let covering ies ~start ~pos ~len =
  let _, all = List.fold_left_map (fun s ie -> (s + ie.count, (ie, s))) start ies in
  match List.filter (fun (ie, s) -> s < pos + len && pos < s + ie.count) all with
  | [] when len > 0 && all <> [] -> [ List.nth all (List.length all - 1) ]
  | l -> l

module Make (L : LEAF) = struct
  type t = { store : Store.t; root : Hash.t option }

  let store t = t.store
  let root t = t.root
  let of_root store root = { store; root }
  let is_empty t = t.root = None

  let leaf_seg chunk =
    if Chunk.equal_kind chunk.Chunk.kind L.kind then L.decode chunk.Chunk.payload
    else
      Error
        (Printf.sprintf "expected %s leaf, got %s" L.noun
           (Chunk.kind_to_string chunk.Chunk.kind))

  let leaf store h = ok_exn (leaf_seg (read_chunk store h))

  let emit_leaf store out seg =
    let id = Store.put store (Chunk.v L.kind (L.encode seg)) in
    out := { child = id; count = L.length seg } :: !out

  (* The builder every tree comes from: [feed] runs the leaf chunker over
     the content, then [build_up]; returns the root.  [validate] runs it
     into [Store.sink]. *)
  let build_root store feed =
    let out = ref [] in
    let ch = L.chunker (emit_leaf store out) in
    feed ch;
    L.finish ch;
    build_up store (List.rev !out)

  let of_seg store seg =
    { store; root = build_root store (fun ch -> L.feed ch seg) }

  let length t =
    match t.root with
    | None -> 0
    | Some h ->
      let chunk = read_chunk t.store h in
      if chunk.Chunk.kind = Chunk.Seq_index then sum_counts (decode_index_exn chunk)
      else L.length (leaf t.store h)

  (* The leaf level as index entries.  Every leaf sits at one depth, so a
     row is the leaf row once its first chunk is a leaf: one leaf read. *)
  let leaf_row t =
    let chunk ie = read_chunk t.store ie.child in
    let rec down = function
      | first :: _ as row when (chunk first).Chunk.kind = Chunk.Seq_index ->
        down (List.concat_map (fun ie -> decode_index_exn (chunk ie)) row)
      | row -> row
    in
    match t.root with
    | None -> []
    | Some h -> down [ { child = h; count = length t } ]

  let iter_leaves t f =
    List.iter (fun ie -> f (leaf t.store ie.child)) (leaf_row t)

  let to_seg t = L.concat (List.map (fun ie -> leaf t.store ie.child) (leaf_row t))
  let leaf_sizes t = List.map (fun ie -> ie.count) (leaf_row t)
  let chunk_count t = List.length (leaf_row t)

  (* Pre-order walk over the chunks covering [pos, pos+len), returning the
     covered elements; [fetch] yields the chunk a parent names.  [read],
     prover and verifier share it, so they take one path.  The offsets
     come from hash-covered counts: a forged count breaks its parent. *)
  let walk ~fetch root ~pos ~len =
    let ( let* ) = Result.bind in
    let pieces = ref [] in
    let rec go h start =
      let* chunk = fetch h in
      match chunk.Chunk.kind with
      | Chunk.Seq_index ->
        let* ies = decode_index chunk in
        List.fold_left
          (fun acc (ie, s) ->
            let* () = acc in
            go ie.child s)
          (Ok ())
          (covering ies ~start ~pos ~len)
      | _ ->
        let* seg = leaf_seg chunk in
        let lo = max pos start and hi = min (pos + len) (start + L.length seg) in
        if lo < hi then pieces := L.sub seg (lo - start) (hi - lo) :: !pieces;
        Ok ()
    in
    let* () = go root 0 in
    Ok (L.concat (List.rev !pieces))

  let read t ~pos ~len =
    if pos < 0 || len < 0 || pos + len > length t then
      invalid_arg (L.name ^ ".read: range out of bounds");
    match t.root with
    | None -> L.concat []
    | Some root ->
      ok_exn (walk ~fetch:(fun h -> Ok (read_chunk t.store h)) root ~pos ~len)

  let splice t ~pos ~remove ~insert =
    let total = length t in
    if pos < 0 || remove < 0 || pos + remove > total then
      invalid_arg (L.name ^ ".splice: range out of bounds");
    match t.root with
    | None -> of_seg t.store insert
    | Some _ ->
      let row = Array.of_list (leaf_row t) in
      let n = Array.length row in
      let starts = Array.make n 0 in
      for i = 1 to n - 1 do
        starts.(i) <- starts.(i - 1) + row.(i - 1).count
      done;
      (* Leaf containing element [p]; for p = total, the last leaf. *)
      let leaf_of p =
        let rec go i = if i + 1 >= n || p < starts.(i + 1) then i else go (i + 1) in
        go 0
      in
      let seg k = leaf t.store row.(k).child in
      let i0 = leaf_of pos in
      let old_end = pos + remove in
      let j = leaf_of (min old_end (total - 1)) in
      (* [j] becomes the first leaf whose content (partly) survives past
         the removed range, or [n] if the removal reaches the end. *)
      let j = if old_end >= starts.(j) + row.(j).count then j + 1 else j in
      let out = ref [] in
      let ch = L.chunker (emit_leaf t.store out) in
      L.feed ch (L.sub (seg i0) 0 (pos - starts.(i0)));
      L.feed ch insert;
      if j < n then begin
        let s = seg j and skip = old_end - starts.(j) in
        L.feed ch (L.sub s skip (L.length s - skip))
      end;
      (* Re-chunk further leaves until a boundary realigns with the old
         layout, then reuse the remaining leaves verbatim. *)
      let rec resync k =
        if k >= n then (L.finish ch; [])
        else if not (L.pending ch) then Array.to_list (Array.sub row k (n - k))
        else begin
          L.feed ch (seg k);
          resync (k + 1)
        end
      in
      let suffix = resync (j + 1) in
      let prefix = Array.to_list (Array.sub row 0 i0) in
      { t with root = build_up t.store (prefix @ List.rev !out @ suffix) }

  (* Equal leaves pruned by id at both ends, then equal elements trimmed
     at both ends of the window between them. *)
  let diff t1 t2 =
    if Option.equal Hash.equal t1.root t2.root then None
    else begin
      let r1 = Array.of_list (leaf_row t1) and r2 = Array.of_list (leaf_row t2) in
      let n1 = Array.length r1 and n2 = Array.length r2 in
      let p, s = common n1 n2 (fun i j -> Hash.equal r1.(i).child r2.(j).child) in
      let window t r n =
        L.concat (List.init (n - s - p) (fun i -> leaf t.store r.(p + i).child))
      in
      let m1 = window t1 r1 n1 and m2 = window t2 r2 n2 in
      let l1 = L.length m1 and l2 = L.length m2 in
      let ep, es = common l1 l2 (L.equal_at m1 m2) in
      let before r = sum_counts (Array.to_list (Array.sub r 0 p)) in
      Some
        { old_pos = before r1 + ep;
          old_len = l1 - ep - es;
          new_pos = before r2 + ep;
          new_len = l2 - ep - es }
    end

  let merge ~base ~ours ~theirs =
    match diff base ours, diff base theirs with
    | None, _ -> Ok theirs
    | _, None -> Ok ours
    | Some a, Some b ->
      let a_end = a.old_pos + a.old_len in
      if a_end <= b.old_pos || b.old_pos + b.old_len <= a.old_pos then begin
        (* Theirs' edit lands after ours' one: shift it by ours' length
           change. *)
        let pos =
          if b.old_pos >= a_end then b.old_pos + a.new_len - a.old_len
          else b.old_pos
        in
        let insert = read theirs ~pos:b.new_pos ~len:b.new_len in
        Ok (splice ours ~pos ~remove:b.old_len ~insert)
      end
      else Error (a, b)

  let prove t ~pos ~len =
    match t.root with
    | None -> Error (Printf.sprintf "cannot prove against an empty %s" L.noun)
    | Some root -> (
      let out = ref [] in
      let fetch h =
        match t.store.Store.get_raw h with
        | None -> Error (Printf.sprintf "missing chunk %s" (Hash.to_hex h))
        | Some raw ->
          out := raw :: !out;
          Ok (read_chunk t.store h)
      in
      match walk ~fetch root ~pos ~len with
      | r -> Result.map (fun _ -> List.rev !out) r
      | exception Postree.Corrupt m -> Error m)

  let verify_proof ~root ~pos ~len proof =
    let rest = ref proof in
    let fetch expected =
      match !rest with
      | [] -> Error "truncated path"
      | raw :: tl ->
        rest := tl;
        if Hash.equal (Hash.of_string raw) expected then Chunk.decode raw
        else Error "chunk does not hash to the id its parent names"
    in
    match walk ~fetch root ~pos ~len with
    | Error e -> Error ("proof: " ^ e)
    | Ok _ when !rest <> [] -> Error "proof: trailing chunks"
    | Ok seg -> Ok seg

  let node_hashes t =
    let rec go h =
      let chunk = read_chunk t.store h in
      if chunk.Chunk.kind <> Chunk.Seq_index then [ h ]
      else h :: List.concat_map (fun ie -> go ie.child) (decode_index_exn chunk)
    in
    Option.fold ~none:[] ~some:go t.root

  (* One walk reads each chunk once as raw bytes (never through the chunk
     cache) and checks each index node's hash; the leaf runs stream
     through [build_root] into [Store.sink], and the tree is valid iff the
     rebuilt root is the stored one. *)
  let validate t =
    let ( let* ) = Result.bind in
    let rec walk ch h =
      let hex = Hash.to_hex h in
      match t.store.Store.get_raw h with
      | None -> Error ("missing chunk " ^ hex)
      | Some raw -> (
        let* chunk = Result.map_error (( ^ ) (hex ^ ": ")) (Chunk.decode raw) in
        match chunk.Chunk.kind with
        | Chunk.Seq_index ->
          let* () =
            if Hash.equal (Hash.of_string raw) h then Ok ()
            else Error ("chunk " ^ hex ^ ": tampered content")
          in
          let* ies = decode_index chunk in
          List.fold_left
            (fun acc ie -> Result.bind acc (fun () -> walk ch ie.child))
            (Ok ()) ies
        | _ ->
          let* seg = leaf_seg chunk in
          Ok (L.feed ch seg))
    in
    match t.root with
    | None -> Ok ()
    | Some root ->
      let walked = ref (Ok ()) in
      let rebuilt = build_root Store.sink (fun ch -> walked := walk ch root) in
      let* () = !walked in
      if Option.equal Hash.equal rebuilt (Some root) then Ok ()
      else
        Error
          (Printf.sprintf
             "%s root %s is not the tree the builder makes over its %s" L.noun
             (Hash.to_hex root) L.unit)

  let pp fmt t =
    match t.root with
    | None -> Format.fprintf fmt "<empty %s>" L.noun
    | Some h ->
      Format.fprintf fmt "<%s root=%a %s=%d chunks=%d>" L.noun Hash.pp h L.unit
        (length t) (chunk_count t)
end
