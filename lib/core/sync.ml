module Chunk = Fb_chunk.Chunk
module Hash = Fb_hash.Hash
module Dag = Fb_repr.Dag
module Fnode = Fb_repr.Fnode
module Value = Fb_types.Value

type stats = {
  chunks_moved : int;
  bytes_moved : int;
  chunks_skipped : int;
  rounds : int;
  bloom_fp : int;
}

let empty_stats =
  { chunks_moved = 0; bytes_moved = 0; chunks_skipped = 0; rounds = 0;
    bloom_fp = 0 }

(* Batch shaping for the BATCH frames a sync session streams.  Membership
   probes are cheap (one hex id per token); chunk transfers are bounded
   by payload bytes as well as count so a batch can never approach the
   16 MiB frame ceiling even when every chunk is a full leaf. *)
let have_batch = 256
let get_batch = 64
let put_batch = 128
let wave_window = 3
let put_batch_bytes = 4 * 1024 * 1024

let children = Dag.fnode_children

(* The ingest gate: the bytes must hash to the id they were announced
   under (chunk identity is the SHA-256 of the encoded bytes, so this is
   the whole tamper-evidence check) and must decode as a chunk.  Nothing
   that fails here may reach a store. *)
let verify_encoded id encoded =
  match Chunk.decode encoded with
  | Error e ->
    Errors.corrupt "sync: chunk %s does not decode: %s" (Hash.short id) e
  | Ok chunk ->
    let actual = Chunk.hash chunk in
    if Hash.equal actual id then Ok chunk
    else
      Errors.corrupt
        "sync: chunk announced as %s hashes to %s; refusing tampered bytes"
        (Hash.to_hex id) (Hash.to_hex actual)

(* Child-first (reverse topological) order of the subgraph [missing]
   admits under [roots]: every id appears after all of its missing
   children, so a receiver that insists every child is already present
   when a chunk arrives (the closure invariant) accepts the stream
   as-is.  Iterative DFS postorder — version DAGs and POS-Trees can be
   deep, and the explicit stack keeps the walk off the call stack.
   [children] is consulted only for ids [missing] admits. *)
let plan_order ~children ~missing ~roots =
  let seen = Hash.Tbl.create 64 in
  let order = ref [] in
  let rec go stack =
    match stack with
    | [] -> ()
    | `Enter id :: rest ->
      if Hash.Tbl.mem seen id || not (missing id) then go rest
      else begin
        Hash.Tbl.replace seen id ();
        go
          (List.fold_left
             (fun acc c -> `Enter c :: acc)
             (`Exit id :: rest) (children id))
      end
    | `Exit id :: rest ->
      order := id :: !order;
      go rest
  in
  go (List.map (fun r -> `Enter r) roots);
  List.rev !order

(* The ids a push need not probe because the peer's head vouches for
   them.  The peer keeps its heads closure-complete, so every chunk
   reachable from [remote] is on it; this collects the part of that
   closure a walk from [local] can meet.  The two versions' value trees
   are descended together, level by level: [fresh] are the new version's
   nodes at one height that the old one lacks (the walk will stage
   them), [gone] the old nodes at that height that they replaced.  Old
   nodes are read only when they are [gone] and the [fresh] ones have
   children, so the reads are O(changed) and reach no old leaf.  Where
   one tree is taller (a level added or removed at the top), its top
   levels are expanded to the other's root height first; the leftmost
   paths tell the heights and stop where they meet.  Old chunks are
   re-hashed before their children are trusted; a chunk that fails, or
   is absent, adds nothing.  Every id collected is in [remote]'s
   closure, so a wrong answer can only be one the peer's closure check
   catches. *)
let known_held ~read ~remote ~local =
  let held = Hash.Tbl.create 1024 in
  let hold id = Hash.Tbl.replace held id () in
  let unheld ids = List.filter (fun id -> not (Hash.Tbl.mem held id)) ids in
  let verified id =
    Option.bind (read id) (fun s -> Result.to_option (verify_encoded id s))
  in
  let decoded id =
    Option.bind (read id) (fun s -> Result.to_option (Chunk.decode s))
  in
  let kids chunk_of ids =
    List.concat_map
      (fun id -> Option.fold ~none:[] ~some:children (chunk_of id))
      ids
  in
  let first_kid id =
    match Option.map children (decoded id) with
    | Some (c :: _) -> Some c
    | _ -> None
  in
  (* How many levels the tree under [a] stands above the one under [b]. *)
  let rec gap a b =
    if Hash.equal a b then 0
    else
      match (first_kid a, first_kid b) with
      | Some a', Some b' -> gap a' b'
      | Some a', None -> gap a' b + 1
      | None, Some b' -> gap a b' - 1
      | None, None -> 0
  in
  let rec new_below n ids = if n <= 0 then ids else new_below (n - 1) (kids decoded ids) in
  let rec old_below n ids =
    if n <= 0 then ids
    else begin
      let below = kids verified ids in
      List.iter hold below;
      old_below (n - 1) below
    end
  in
  (* All nodes at one height are leaves or none is: when the first fresh
     node is a leaf, nothing below is read. *)
  let rec descend fresh gone =
    match fresh with
    | first :: _ when first_kid first <> None ->
      let new_kids = kids decoded fresh and old_kids = kids verified gone in
      let in_new = Hash.Tbl.create (List.length new_kids) in
      List.iter (fun id -> Hash.Tbl.replace in_new id ()) new_kids;
      let next_gone =
        List.fold_left
          (fun acc id ->
            let replaced = not (Hash.Tbl.mem in_new id || Hash.Tbl.mem held id) in
            hold id;
            if replaced then id :: acc else acc)
          [] old_kids
      in
      descend
        (Hash.Tbl.fold
           (fun id () acc -> if Hash.Tbl.mem held id then acc else id :: acc)
           in_new [])
        next_gone
    | _ -> ()
  in
  let version chunk_of id =
    Option.bind (chunk_of id) (fun c -> Result.to_option (Fnode.of_chunk c))
  in
  let value_roots v =
    Result.value ~default:[]
      (Value.roots_of_descriptor v.Fnode.value_descriptor)
  in
  (match version verified remote with
   | None -> ()
   | Some r -> (
     hold remote;
     List.iter hold r.Fnode.bases;
     let old_roots = value_roots r in
     List.iter hold old_roots;
     match (old_roots, Option.map value_roots (version decoded local)) with
     | [ o ], Some [ n ] when not (Hash.equal o n) ->
       let d = gap n o in
       let gone = old_below (-d) [ o ] in
       descend (unheld (new_below d [ n ])) gone
     | _ -> ()));
  held

(* The sync-have reply: one byte per probed id, '1' = the peer holds it.
   Positional, so the caller must keep its probe order. *)
let encode_have bits =
  String.concat "" (List.map (fun b -> if b then "1" else "0") bits)

let decode_have s =
  if String.for_all (fun c -> c = '0' || c = '1') s then
    Ok (List.init (String.length s) (fun i -> s.[i] = '1'))
  else Error (Errors.Invalid ("sync: unparsable have reply: " ^ s))

(* Bloom-filter have-exchange: instead of probing the peer's membership
   256 ids at a time, the peer summarises its whole reachable chunk set
   in one sized filter and the sender tests locally.  A negative is
   definitive (the peer certainly lacks the chunk); a positive may be a
   false positive, so positives are still confirmed with exact sync-have
   waves before being skipped — a chunk silently skipped on a false
   positive would leave a hole in the receiver's closure. *)
module Bloom = struct
  type t = {
    bits : Bytes.t;
    m : int;  (* filter size in bits *)
    k : int;  (* hash functions *)
  }

  let bits_per_chunk = 10
  let hashes = 7
  let max_bits = 8 * 1024 * 1024 * 8  (* 8 MiB of filter, ~6.7M chunks *)

  let create ~expected =
    let m =
      max 64 (min max_bits (bits_per_chunk * max 1 expected))
    in
    { bits = Bytes.make ((m + 7) / 8) '\000'; m; k = hashes }

  let m t = t.m
  let k t = t.k

  (* Double hashing over the id's own SHA-256 bytes: h1 from bytes 0-7,
     h2 from bytes 8-15 (big-endian, to 63 bits), index_i = h1 + i*h2
     (mod m).  The id is already a uniform digest, so no further mixing
     is needed.  The loops below allocate nothing. *)
  let word id off = Int64.to_int (String.get_int64_be (Hash.to_raw id) off)

  let index t h1 h2 i =
    let ix = (h1 + (i * h2)) mod t.m in
    if ix < 0 then ix + t.m else ix

  let add t id =
    let h1 = word id 0 and h2 = word id 8 in
    for i = 0 to t.k - 1 do
      let ix = index t h1 h2 i in
      let b = ix lsr 3 in
      let byte = Char.code (Bytes.unsafe_get t.bits b) in
      Bytes.unsafe_set t.bits b (Char.unsafe_chr (byte lor (1 lsl (ix land 7))))
    done

  let mem t id =
    let h1 = word id 0 and h2 = word id 8 in
    let i = ref 0 in
    while
      !i < t.k
      &&
      let ix = index t h1 h2 !i in
      Char.code (Bytes.unsafe_get t.bits (ix lsr 3)) land (1 lsl (ix land 7)) <> 0
    do
      incr i
    done;
    !i = t.k

  (* Set bits per byte value. *)
  let popcount =
    String.init 256 (fun c ->
        let rec bits c = if c = 0 then 0 else (c land 1) + bits (c lsr 1) in
        Char.chr (bits c))

  let fill_ratio t =
    let set = ref 0 in
    for b = 0 to Bytes.length t.bits - 1 do
      set := !set + Char.code popcount.[Char.code (Bytes.unsafe_get t.bits b)]
    done;
    float_of_int !set /. float_of_int t.m

  (* A probe of an absent id is positive with probability fill^k.  At
     design load ([bits_per_chunk] bits per id) the fill is
     1 - e^(-k/bits_per_chunk), about 0.503 for k = 7; past 4x that
     design false-positive rate (fill above ~0.614) the filter is
     overloaded, and callers should fall back to exact waves rather than
     burn round trips confirming noise. *)
  let design_fill k = 1.0 -. exp (-.float_of_int k /. float_of_int bits_per_chunk)

  let saturated t =
    fill_ratio t > (4.0 ** (1.0 /. float_of_int t.k)) *. design_fill t.k

  (* Wire form: "m:k:" ++ raw bit bytes.  The prefix makes the geometry
     explicit so both ends agree without negotiating defaults. *)
  let encode t =
    Printf.sprintf "%d:%d:%s" t.m t.k (Bytes.to_string t.bits)

  let decode s =
    match String.index_opt s ':' with
    | None -> Error (Errors.Invalid "bloom: missing size prefix")
    | Some i -> (
      match String.index_from_opt s (i + 1) ':' with
      | None -> Error (Errors.Invalid "bloom: missing hash-count prefix")
      | Some j -> (
        match
          ( int_of_string_opt (String.sub s 0 i),
            int_of_string_opt (String.sub s (i + 1) (j - i - 1)) )
        with
        | Some m, Some k when m > 0 && m <= max_bits && k > 0 && k <= 32 ->
          let bits = String.sub s (j + 1) (String.length s - j - 1) in
          if String.length bits <> (m + 7) / 8 then
            Error
              (Errors.Invalid
                 (Printf.sprintf "bloom: %d bits need %d bytes, got %d" m
                    ((m + 7) / 8) (String.length bits)))
          else Ok { bits = Bytes.of_string bits; m; k }
        | _ -> Error (Errors.Invalid "bloom: unparsable geometry prefix")))
end
