(* The sequence diffs and merges that [Fb_postree.Seqtree.Make] replaced,
   verbatim, as its oracle: chunk-aligned windows, merged when disjoint.
   Only the tree access is adapted: leaves are read here, from the store. *)

module Codec = Fb_codec.Codec
module Chunk = Fb_chunk.Chunk
module Store = Fb_chunk.Store
module Hash = Fb_hash.Hash
module Plist = Fb_postree.Plist
module Pblob = Fb_postree.Pblob

module Seqtree = struct
  type index_entry = { child : Hash.t; count : int }
  let read_chunk store h = Option.get (Store.get store h)
end

let leaf_items chunk =
  Codec.of_string_exn
    (fun r -> Codec.read_list r Codec.read_bytes) chunk.Chunk.payload

type t = { store : Store.t; root : Hash.t option; nodes : Hash.t list }

(* The leaves of a tree, in order: its pre-order chunks that are not
   index nodes. *)
let leaf_row ~leaf_count t =
  List.filter_map
    (fun h ->
      let c = Seqtree.read_chunk t.store h in
      if c.Chunk.kind = Chunk.Seq_index then None
      else Some { Seqtree.child = h; count = leaf_count c })
    t.nodes

let list_diff l1 l2 =
  let v l =
    { store = Plist.store l; root = Plist.root l; nodes = Plist.node_hashes l }
  in
  let t1 = v l1 and t2 = v l2 in
  let leaf_row = leaf_row ~leaf_count:(fun c -> List.length (leaf_items c)) in
  if Option.equal Hash.equal t1.root t2.root then None
  else begin
    let r1 = Array.of_list (leaf_row t1)
    and r2 = Array.of_list (leaf_row t2) in
    let n1 = Array.length r1 and n2 = Array.length r2 in
    let eq i j = Hash.equal r1.(i).Seqtree.child r2.(j).Seqtree.child in
    let rec pre i = if i < n1 && i < n2 && eq i i then pre (i + 1) else i in
    let p = pre 0 in
    let rec suf k =
      if n1 - 1 - k >= p && n2 - 1 - k >= p && eq (n1 - 1 - k) (n2 - 1 - k)
      then suf (k + 1)
      else k
    in
    let s = suf 0 in
    let sum r lo hi =
      let acc = ref 0 in
      for i = lo to hi - 1 do
        acc := !acc + r.(i).Seqtree.count
      done;
      !acc
    in
    (* Chunk-aligned window, then trim equal elements at both ends. *)
    let mid r lo hi st =
      List.concat_map
        (fun k -> leaf_items (Seqtree.read_chunk st k.Seqtree.child))
        (Array.to_list (Array.sub r lo (hi - lo)))
    in
    let m1 = Array.of_list (mid r1 p (n1 - s) t1.store)
    and m2 = Array.of_list (mid r2 p (n2 - s) t2.store) in
    let l1 = Array.length m1 and l2 = Array.length m2 in
    let rec epre i =
      if i < l1 && i < l2 && String.equal m1.(i) m2.(i) then epre (i + 1)
      else i
    in
    let ep = epre 0 in
    let rec esuf k =
      if l1 - 1 - k >= ep && l2 - 1 - k >= ep
         && String.equal m1.(l1 - 1 - k) m2.(l2 - 1 - k)
      then esuf (k + 1)
      else k
    in
    let es = esuf 0 in
    Some
      { Plist.old_pos = sum r1 0 p + ep;
        old_len = l1 - ep - es;
        new_pos = sum r2 0 p + ep;
        new_len = l2 - ep - es }
  end

let blob_diff b1 b2 =
  let v b =
    { store = Pblob.store b; root = Pblob.root b; nodes = Pblob.node_hashes b }
  in
  let t1 = v b1 and t2 = v b2 in
  let leaf_row = leaf_row ~leaf_count:(fun c -> String.length c.Chunk.payload) in
  match t1.root, t2.root with
  | None, None -> None
  | _ ->
    if Option.equal Hash.equal t1.root t2.root then None
    else begin
      let r1 = Array.of_list (leaf_row t1)
      and r2 = Array.of_list (leaf_row t2) in
      let n1 = Array.length r1 and n2 = Array.length r2 in
      let eq i j = Hash.equal r1.(i).Seqtree.child r2.(j).Seqtree.child in
      let rec pre i = if i < n1 && i < n2 && eq i i then pre (i + 1) else i in
      let p = pre 0 in
      let rec suf k =
        if n1 - 1 - k >= p && n2 - 1 - k >= p && eq (n1 - 1 - k) (n2 - 1 - k)
        then suf (k + 1)
        else k
      in
      let s = suf 0 in
      let sum r lo hi =
        let acc = ref 0 in
        for i = lo to hi - 1 do
          acc := !acc + r.(i).Seqtree.count
        done;
        !acc
      in
      let old_pos = sum r1 0 p and new_pos = sum r2 0 p in
      Some
        { Pblob.old_pos;
          old_len = sum r1 p (n1 - s);
          new_pos;
          new_len = sum r2 p (n2 - s) }
    end

(* Sequences (lists, blobs) merge when the two sides' edits are disjoint
   ranges of the base: apply the higher-positioned splice first so the
   lower one's offsets stay valid. *)
let disjoint_ranges (a_pos, a_len) (b_pos, b_len) =
  a_pos + a_len <= b_pos || b_pos + b_len <= a_pos

let merge_lists ~base ~ours ~theirs =
  match list_diff base ours, list_diff base theirs with
  | None, _ -> Some theirs
  | _, None -> Some ours
  | Some da, Some db ->
    if
      disjoint_ranges
        (da.Plist.old_pos, da.Plist.old_len)
        (db.Plist.old_pos, db.Plist.old_len)
    then begin
      (* Splice theirs' replacement into ours; positions shift by ours'
         length delta when theirs lands after ours' edit. *)
      let delta = da.Plist.new_len - da.Plist.old_len in
      let pos =
        if db.Plist.old_pos >= da.Plist.old_pos + da.Plist.old_len then
          db.Plist.old_pos + delta
        else db.Plist.old_pos
      in
      let replacement =
        List.filteri
          (fun i _ -> i >= db.Plist.new_pos && i < db.Plist.new_pos + db.Plist.new_len)
          (Plist.to_list theirs)
      in
      Some (Plist.splice ours ~pos ~remove:db.Plist.old_len ~insert:replacement)
    end
    else None

let merge_blobs ~base ~ours ~theirs =
  match blob_diff base ours, blob_diff base theirs with
  | None, _ -> Some theirs
  | _, None -> Some ours
  | Some da, Some db ->
    if
      disjoint_ranges
        (da.Pblob.old_pos, da.Pblob.old_len)
        (db.Pblob.old_pos, db.Pblob.old_len)
    then begin
      let delta = da.Pblob.new_len - da.Pblob.old_len in
      let pos =
        if db.Pblob.old_pos >= da.Pblob.old_pos + da.Pblob.old_len then
          db.Pblob.old_pos + delta
        else db.Pblob.old_pos
      in
      let replacement =
        Pblob.read theirs ~pos:db.Pblob.new_pos ~len:db.Pblob.new_len
      in
      Some (Pblob.splice ours ~pos ~remove:db.Pblob.old_len ~insert:replacement)
    end
    else None
