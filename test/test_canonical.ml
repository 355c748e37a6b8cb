(* One canonical POS-Tree: every key length builds, the builders make one
   tree per content, and [validate] accepts exactly that tree.

   Oracles ("incremental == full"): [update]/[insert]/[remove]/[merge] and
   [splice]/[merge] against a full [build]/[of_list]/[of_string] over the
   result, and [validate] against "the root is the builder's root over the
   tree's entries" on hand-mutated trees. *)

module Pmap = Fb_postree.Pmap
module Plist = Fb_postree.Plist
module Pblob = Fb_postree.Pblob
module Postree = Fb_postree.Postree
module Node_cache = Fb_postree.Node_cache
module Store = Fb_chunk.Store
module Mem_store = Fb_chunk.Mem_store
module Verified_store = Fb_chunk.Verified_store
module Chunk = Fb_chunk.Chunk
module Codec = Fb_codec.Codec
module Hash = Fb_hash.Hash
module Prng = Fb_hash.Prng
module FB = Fb_core.Forkbase
module Errors = Fb_core.Errors
module Value = Fb_types.Value
module Table = Fb_types.Table
module Table_index = Fb_types.Table_index

let check = Alcotest.check
let bool_ = Alcotest.bool
let int_ = Alcotest.int
let same = Option.equal Hash.equal

let ok = function
  | Ok v -> v
  | Error e -> Alcotest.fail (Errors.to_string e)

let random_string rng n = String.init n (fun _ -> Char.chr (Prng.next_int rng 256))

(* Bindings whose keys are 0-300 random bytes: long keys put pattern
   windows inside split keys. *)
let random_bindings rng n =
  List.init n (fun _ ->
      (random_string rng (Prng.next_int rng 301), random_string rng (Prng.next_int rng 21)))

(* [n] keys of [len] bytes, hex of SHA-256 (UUID-like dashes at 36). *)
let hex_keys ~len n =
  List.init n (fun i ->
      let h = Hash.to_hex (Hash.of_string (string_of_int i)) in
      let h = h ^ h ^ h ^ h ^ h in
      if len = 36 then
        String.concat "-"
          [ String.sub h 0 8; String.sub h 8 4; String.sub h 12 4;
            String.sub h 16 4; String.sub h 20 12 ]
      else String.sub h 0 len)

let map_of_keys store keys = Pmap.of_bindings store (List.map (fun k -> (k, "v")) keys)

(* ---------------- hand-made trees ----------------

   A stored tree as nested nodes, so a mutation can rearrange nodes and
   write the result back under a new root.  A [fmt] says how one tree
   type encodes its chunks. *)

type 'a shape = Leaf of 'a list | Node of 'a shape list

type 'a fmt = {
  leaf_kind : Chunk.kind;
  index_kind : Chunk.kind;
  encode_leaf : 'a list -> string;
  decode_leaf : string -> 'a list;
  split : ('a -> string) option;  (* keyed trees name each child's last key *)
}

let pmap_fmt =
  { leaf_kind = Chunk.Leaf_map;
    index_kind = Chunk.Index;
    encode_leaf =
      Codec.to_string (fun w -> Codec.list w (fun w (k, v) -> Codec.bytes w k; Codec.bytes w v));
    decode_leaf =
      Codec.of_string_exn (fun r ->
          Codec.read_list r (fun r ->
              let k = Codec.read_bytes r in
              (k, Codec.read_bytes r)));
    split = Some fst }

let plist_fmt =
  { leaf_kind = Chunk.Leaf_list;
    index_kind = Chunk.Seq_index;
    encode_leaf = Codec.to_string (fun w -> Codec.list w Codec.bytes);
    decode_leaf = Codec.of_string_exn (fun r -> Codec.read_list r Codec.read_bytes);
    split = None }

let pblob_fmt =
  { leaf_kind = Chunk.Leaf_blob;
    index_kind = Chunk.Seq_index;
    encode_leaf = (fun cs -> String.of_seq (List.to_seq cs));
    decode_leaf = (fun s -> List.of_seq (String.to_seq s));
    split = None }

let rec read fmt store h =
  let c = Option.get (Store.get store h) in
  if Chunk.equal_kind c.Chunk.kind fmt.index_kind then
    Node
      (List.map (read fmt store)
         (Codec.of_string_exn
            (fun r ->
              Codec.read_list r (fun r ->
                  if fmt.split <> None then ignore (Codec.read_bytes r);
                  let h = Codec.read_hash r in
                  ignore (Codec.read_varint r);
                  h))
            c.Chunk.payload))
  else Leaf (fmt.decode_leaf c.Chunk.payload)

let last l = List.nth_opt l (List.length l - 1)

(* Write a shape; its id, last element and element count. *)
let rec write fmt store = function
  | Leaf xs ->
    (Store.put store (Chunk.v fmt.leaf_kind (fmt.encode_leaf xs)), last xs, List.length xs)
  | Node ts ->
    let cs = List.map (write fmt store) ts in
    let w = Codec.writer () in
    Codec.varint w (List.length cs);
    List.iter
      (fun (id, l, n) ->
        Option.iter (fun key -> Codec.bytes w (key (Option.get l))) fmt.split;
        Codec.hash w id;
        Codec.varint w n)
      cs;
    ( Store.put store (Chunk.v fmt.index_kind (Codec.contents w)),
      Option.bind (last cs) (fun (_, l, _) -> l),
      List.fold_left (fun a (_, _, n) -> a + n) 0 cs )

let write_root fmt store shape =
  let id, _, _ = write fmt store shape in
  id

(* Replace the [i]-th node in pre-order (the root is 0) by the nodes [f]
   makes of it; several nodes in place of the root get a new root. *)
let replace_nth t i f =
  let k = ref (-1) in
  let rec go t =
    incr k;
    if !k = i then f t
    else match t with Leaf _ -> [ t ] | Node ts -> [ Node (List.concat_map go ts) ]
  in
  match go t with [ t ] -> t | ts -> Node ts

let nodes_where t p =
  let k = ref (-1) and acc = ref [] in
  let rec go t =
    incr k;
    if p !k t then acc := !k :: !acc;
    match t with Leaf _ -> () | Node ts -> List.iter go ts
  in
  go t;
  List.rev !acc

let split_at n l = (List.filteri (fun i _ -> i < n) l, List.filteri (fun i _ -> i >= n) l)

let len = function Leaf xs -> List.length xs | Node ts -> List.length ts

let rec adjacent_pair = function
  | Leaf _ :: Leaf _ :: _ | Node _ :: Node _ :: _ -> true
  | _ :: rest -> adjacent_pair rest
  | [] -> false

(* The structural mutations: each keeps the content and its order. *)
type mutation = Wrap of int | Early_split | Merged_nodes | Swapped_levels

let mutation_name = function
  | Wrap n -> Printf.sprintf "wrap x%d" n
  | Early_split -> "early split"
  | Merged_nodes -> "merged nodes"
  | Swapped_levels -> "swapped levels"

let pick rng = function [] -> None | l -> Some (List.nth l (Prng.next_int rng (List.length l)))

let mutate rng shape = function
  | Wrap n ->
    let rec wrap n t = if n = 0 then t else wrap (n - 1) (Node [ t ]) in
    Some (wrap n shape)
  | Early_split ->
    (* Cut a node of two or more items in two. *)
    Option.map
      (fun i ->
        replace_nth shape i (fun t ->
            let cut = 1 + Prng.next_int rng (len t - 1) in
            match t with
            | Leaf xs -> let a, b = split_at cut xs in [ Leaf a; Leaf b ]
            | Node ts -> let a, b = split_at cut ts in [ Node a; Node b ]))
      (pick rng (nodes_where shape (fun _ t -> len t >= 2)))
  | Merged_nodes ->
    (* Join two adjacent siblings of one kind into one node. *)
    Option.map
      (fun i ->
        replace_nth shape i (function
          | Leaf _ as t -> [ t ]
          | Node ts ->
            let rec join = function
              | Leaf a :: Leaf b :: rest -> Leaf (a @ b) :: rest
              | Node a :: Node b :: rest -> Node (a @ b) :: rest
              | t :: rest -> t :: join rest
              | [] -> []
            in
            [ Node (join ts) ]))
      (pick rng
         (nodes_where shape (fun _ t ->
              match t with Node ts -> adjacent_pair ts | Leaf _ -> false)))
  | Swapped_levels ->
    (* Move a non-root node one level: an index node's children take its
       place, or a leaf sinks under a new index node.  Leaves then sit at
       mixed depths. *)
    Option.map
      (fun i ->
        replace_nth shape i (function Node ts -> ts | Leaf _ as t -> [ Node [ t ] ]))
      (pick rng (nodes_where shape (fun i _ -> i > 0)))

let with_caches_off f =
  Node_cache.set_capacity_all 0;
  Fun.protect f ~finally:(fun () -> Node_cache.set_capacity_all Node_cache.default_capacity)

let copy_store store =
  let s, h = Mem_store.create_with_handle () in
  store.Store.iter (fun _ raw -> ignore (Store.put s (Result.get_ok (Chunk.decode raw))));
  (s, h)

(* A tree type under test: build from content, read back through a store,
   validate a root. *)
type ('a, 'c) subject = {
  name : string;
  fmt : 'a fmt;
  make : Store.t -> 'c -> Hash.t option;
  validate : Store.t -> Hash.t -> (unit, string) result;
  rebuilt : Store.t -> Hash.t -> Hash.t option;
      (* the builder's root over the entries read back from the root *)
  ids : Store.t -> Hash.t -> Hash.t list;
}

let pmap_subject =
  { name = "pmap";
    fmt = pmap_fmt;
    make = (fun store bs -> Pmap.root (Pmap.of_bindings store bs));
    validate = (fun store r -> Pmap.validate (Pmap.of_root store (Some r)));
    rebuilt =
      (fun store r ->
        Pmap.root (Pmap.build (Mem_store.create ()) (Pmap.to_list (Pmap.of_root store (Some r)))));
    ids = (fun store r -> Pmap.node_hashes (Pmap.of_root store (Some r))) }

let plist_subject =
  { name = "plist";
    fmt = plist_fmt;
    make = (fun store items -> Plist.root (Plist.of_list store items));
    validate = (fun store r -> Plist.validate (Plist.of_root store (Some r)));
    rebuilt =
      (fun store r ->
        Plist.root (Plist.of_list (Mem_store.create ()) (Plist.to_list (Plist.of_root store (Some r)))));
    ids = (fun store r -> Plist.node_hashes (Plist.of_root store (Some r))) }

let pblob_subject =
  { name = "pblob";
    fmt = pblob_fmt;
    make = (fun store s -> Pblob.root (Pblob.of_string store s));
    validate = (fun store r -> Pblob.validate (Pblob.of_root store (Some r)));
    rebuilt =
      (fun store r ->
        Pblob.root
          (Pblob.of_string (Mem_store.create ()) (Pblob.to_string (Pblob.of_root store (Some r)))));
    ids = (fun store r -> Pblob.node_hashes (Pblob.of_root store (Some r))) }

(* [validate] is [Ok] exactly when the root equals the builder's root over
   the entries read back.  The read-back goes through a hash-checking view
   with the node caches off, so a tampered or missing chunk fails it. *)
let agrees subject ~what store root =
  let expected =
    let verified, _ = Verified_store.wrap store in
    match subject.rebuilt verified root with
    | r -> same r (Some root)
    | exception _ -> false
  in
  let got = subject.validate store root = Ok () in
  if expected <> got then
    QCheck.Test.fail_reportf "%s, %s: validate %b, oracle %b" subject.name what got
      expected;
  got

let mutation_property subject ~gen =
  QCheck.Test.make ~count:25
    ~name:(subject.name ^ ": validate = (root = build (to_list))")
    QCheck.(make ~print:string_of_int Gen.nat)
    (fun seed ->
      with_caches_off @@ fun () ->
      let rng = Prng.create (Int64.of_int seed) in
      let store = Mem_store.create () in
      match subject.make store (gen rng) with
      | None -> true
      | Some root ->
        let canonical = agrees subject ~what:"as built" store root in
        let shape = read subject.fmt store root in
        let structural =
          List.for_all
            (fun m ->
              match mutate rng shape m with
              | None -> true
              | Some shape' ->
                let root' = write_root subject.fmt store shape' in
                (* A mutated shape is another tree for the same content. *)
                Hash.equal root' root
                || not (agrees subject ~what:(mutation_name m) store root'))
            [ Wrap 1; Wrap 2; Early_split; Merged_nodes; Swapped_levels ]
        in
        let ids = subject.ids store root in
        let victim = List.nth ids (Prng.next_int rng (List.length ids)) in
        let flipped =
          let s, h = copy_store store in
          let raw = Option.get (store.Store.get_raw victim) in
          let i = Prng.next_int rng (String.length raw) in
          let b = Char.chr (1 + Prng.next_int rng 255) in
          ignore
            (Mem_store.tamper h victim ~f:(fun s ->
                 String.mapi (fun j c -> if j = i then Char.chr (Char.code c lxor Char.code b) else c) s));
          not (agrees subject ~what:"flipped byte" s root)
        in
        let missing =
          let s, _ = copy_store store in
          ignore (Store.delete s victim);
          not (agrees subject ~what:"missing chunk" s root)
        in
        canonical && structural && flipped && missing)

let mutation_cases =
  [ mutation_property pmap_subject ~gen:(fun rng -> random_bindings rng (1 + Prng.next_int rng 400));
    mutation_property plist_subject ~gen:(fun rng ->
        List.init (1 + Prng.next_int rng 1500) (fun _ -> random_string rng (Prng.next_int rng 41)));
    mutation_property pblob_subject ~gen:(fun rng ->
        random_string rng (1 + Prng.next_int rng 40_000)) ]

(* ---------------- incremental == full ---------------- *)

type edit = Put of string * string | Del of string

let random_edits rng keys n =
  List.init n (fun _ ->
      let key =
        if keys <> [] && Prng.next_int rng 2 = 0 then List.nth keys (Prng.next_int rng (List.length keys))
        else random_string rng (Prng.next_int rng 301)
      in
      if Prng.next_int rng 4 = 0 then Del key else Put (key, random_string rng (Prng.next_int rng 21)))

let apply_model bs edits =
  let tbl = Hashtbl.create 64 in
  List.iter (fun (k, v) -> Hashtbl.replace tbl k v) bs;
  List.iter (function Put (k, v) -> Hashtbl.replace tbl k v | Del k -> Hashtbl.remove tbl k) edits;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []

let to_pmap_edit = function
  | Put (k, v) -> Pmap.Put (Pmap.binding k v)
  | Del k -> Pmap.Remove k

let pmap_rebuild_property =
  QCheck.Test.make ~count:40 ~name:"pmap: insert/remove/update/merge = build (keys 0-300 B)"
    QCheck.(make ~print:string_of_int Gen.nat)
    (fun seed ->
      let rng = Prng.create (Int64.of_int seed) in
      let store = Mem_store.create () in
      let bs = random_bindings rng (Prng.next_int rng 300) in
      let base = Pmap.of_bindings store bs in
      let keys = List.map fst bs in
      let e1 = random_edits rng keys (Prng.next_int rng 40) in
      let e2 = random_edits rng keys (Prng.next_int rng 40) in
      let full entries = Pmap.root (Pmap.of_bindings store entries) in
      let updated = Pmap.update base (List.map to_pmap_edit e1) in
      let one_by_one =
        List.fold_left
          (fun t -> function Put (k, v) -> Pmap.put t k v | Del k -> Pmap.remove t k)
          base e2
      in
      let theirs = Pmap.update base (List.map to_pmap_edit e2) in
      let merged =
        Result.get_ok
          (Pmap.merge ~on_conflict:Pmap.resolve_theirs ~base ~ours:updated ~theirs ())
      in
      same (Pmap.root updated) (full (apply_model bs e1))
      && same (Pmap.root one_by_one) (full (apply_model bs e2))
      && same (Pmap.root merged) (full (Pmap.bindings merged))
      && Pmap.validate merged = Ok ())

let seq_rebuild_property =
  QCheck.Test.make ~count:40 ~name:"plist/pblob: splice/merge = of_list/of_string"
    QCheck.(make ~print:string_of_int Gen.nat)
    (fun seed ->
      let rng = Prng.create (Int64.of_int seed) in
      let store = Mem_store.create () in
      let splice_args n =
        let pos = Prng.next_int rng (n + 1) in
        (pos, Prng.next_int rng (n - pos + 1))
      in
      let items = List.init (Prng.next_int rng 1200) (fun _ -> random_string rng (Prng.next_int rng 41)) in
      let l = Plist.of_list store items in
      let lsplice t =
        let pos, remove = splice_args (Plist.length t) in
        Plist.splice t ~pos ~remove ~insert:(List.init (Prng.next_int rng 30) (fun i -> string_of_int i))
      in
      let lo = lsplice l and lt = lsplice l in
      let list_ok t = same (Plist.root t) (Plist.root (Plist.of_list store (Plist.to_list t))) in
      let s = random_string rng (Prng.next_int rng 30_000) in
      let b = Pblob.of_string store s in
      let bsplice t =
        let pos, remove = splice_args (Pblob.length t) in
        Pblob.splice t ~pos ~remove ~insert:(random_string rng (Prng.next_int rng 3000))
      in
      let bo = bsplice b and bt = bsplice b in
      let blob_ok t = same (Pblob.root t) (Pblob.root (Pblob.of_string store (Pblob.to_string t))) in
      list_ok lo && list_ok lt && blob_ok bo && blob_ok bt
      && (match Plist.merge ~base:l ~ours:lo ~theirs:lt with Ok m -> list_ok m | Error _ -> true)
      && match Pblob.merge ~base:b ~ours:bo ~theirs:bt with Ok m -> blob_ok m | Error _ -> true)

(* ---------------- every key length builds ---------------- *)

let test_long_keys_build () =
  let store = Mem_store.create () in
  let short = map_of_keys store (List.init 100_000 (Printf.sprintf "k%06d")) in
  let long = map_of_keys store (hex_keys ~len:64 100_000) in
  check int_ "64-byte keys" 100_000 (Pmap.cardinal long);
  check bool_ "at most one level taller than 7-byte keys" true
    (Pmap.height long <= Pmap.height short + 1);
  check bool_ "validate" true (Pmap.validate long = Ok ());
  let uuid = map_of_keys store (hex_keys ~len:36 20_000) in
  check int_ "36-byte keys" 20_000 (Pmap.cardinal uuid);
  check bool_ "validate uuid keys" true (Pmap.validate uuid = Ok ());
  List.iter
    (fun n ->
      let t = map_of_keys store (hex_keys ~len:n 2_000) in
      check int_ (Printf.sprintf "%d-byte keys" n) 2_000 (Pmap.cardinal t))
    [ 31; 32; 33; 47; 100; 200; 280 ]

(* ---------------- key limit ---------------- *)

let unbuildable f =
  match f () with
  | _ -> false
  | exception Postree.Unbuildable _ -> true

let test_key_limit () =
  let store = Mem_store.create () in
  let at = String.make Postree.max_key_bytes 'k' in
  let over = String.make (Postree.max_key_bytes + 1) 'k' in
  let base = Pmap.of_bindings store (List.init 50 (fun i -> (Printf.sprintf "r%03d" i, "v"))) in
  let t = Pmap.put base at "v" in
  check bool_ "key at the limit builds" true (Pmap.find_value t at = Some "v");
  check bool_ "and validates" true (Pmap.validate t = Ok ());
  check bool_ "build refuses limit + 1" true
    (unbuildable (fun () -> Pmap.of_bindings store [ ("a", "v"); (over, "v") ]));
  check bool_ "insert refuses limit + 1" true (unbuildable (fun () -> Pmap.put base over "v"));
  (* Through the API: a CSV row key over the limit is Invalid. *)
  let fb = FB.create (Mem_store.create ()) in
  (match FB.import_csv fb ~key:"t" ("id,x\n" ^ over ^ ",1\n") with
   | Error (Errors.Invalid _) -> ()
   | Ok _ -> Alcotest.fail "import_csv accepted an over-limit key"
   | Error e -> Alcotest.fail (Errors.to_string e));
  ignore (ok (FB.import_csv fb ~key:"t" ("id,x\n" ^ at ^ ",1\n")));
  (* A table-index key (column value + row key) over the limit too. *)
  let table =
    Result.get_ok (Table.of_csv store ("id,x\nr1," ^ String.make Postree.max_key_bytes 'x' ^ "\n"))
  in
  check bool_ "table index refuses" true (Result.is_error (Table_index.build table ~column:"x"))

(* Leaves holding 40 KiB keys, as a pushed tree could: each index entry
   fills a node alone, so no index level over them shrinks. *)
let huge_leaves = List.map (fun c -> Leaf [ (String.make 40_000 c, "v") ]) [ 'a'; 'b'; 'c' ]

let test_non_shrinking_row () =
  let store = Mem_store.create () in
  let root = write_root pmap_fmt store (Node (huge_leaves @ [ Leaf [ ("z", "v") ] ])) in
  let t = Pmap.of_root store (Some root) in
  check bool_ "update refuses instead of looping" true
    (unbuildable (fun () -> Pmap.put t "zz" "v"));
  check bool_ "validate refuses" true (Result.is_error (Pmap.validate t));
  (* The same row reached by a server-side merge is Invalid at the API. *)
  let fb = FB.create store in
  let version tail = Value.Map (Pmap.of_root store (Some (write_root pmap_fmt store (Node (huge_leaves @ [ Leaf tail ]))))) in
  ignore (ok (FB.put fb ~key:"m" (version [ ("z", "v") ])));
  ignore (ok (FB.fork fb ~key:"m" ~new_branch:"b"));
  ignore (ok (FB.put fb ~key:"m" (version [ ("z", "v"); ("za", "v") ])));
  ignore (ok (FB.put fb ~branch:"b" ~key:"m" (version [ ("z", "v"); ("zb", "v") ])));
  match FB.merge fb ~key:"m" ~into:"master" ~from_branch:"b" with
  | Error (Errors.Invalid _) -> ()
  | Ok _ -> Alcotest.fail "merge built a tree over 40 KiB split keys"
  | Error e -> Alcotest.fail (Errors.to_string e)

(* ---------------- verify refuses non-canonical roots ---------------- *)

let test_verify_refuses_wrapped_roots () =
  let store = Mem_store.create () in
  let fb = FB.create store in
  let m = Pmap.of_bindings store (List.init 5_000 (fun i -> (Printf.sprintf "key-%05d" i, string_of_int i))) in
  let wrap fmt n root =
    let rec go n t = if n = 0 then t else go (n - 1) (Node [ t ]) in
    write_root fmt store (go n (read fmt store root))
  in
  let m_root = Option.get (Pmap.root m) in
  let l = Plist.of_list store (List.init 3_000 (Printf.sprintf "item-%d")) in
  let l_root = Option.get (Plist.root l) in
  let verdict value = Result.is_ok (FB.verify fb (ok (FB.put fb ~key:"v" value))) in
  check bool_ "canonical map verifies" true (verdict (Value.Map m));
  check bool_ "canonical list verifies" true (verdict (Value.List l));
  List.iter
    (fun n ->
      let wrapped = Pmap.of_root store (Some (wrap pmap_fmt n m_root)) in
      check bool_ (Printf.sprintf "same bindings under %d wraps" n) true
        (Pmap.bindings wrapped = Pmap.bindings m);
      check bool_ (Printf.sprintf "map wrapped %d times refused" n) false (verdict (Value.Map wrapped)))
    [ 1; 2 ];
  let wrapped = Plist.of_root store (Some (wrap plist_fmt 1 l_root)) in
  check bool_ "same items under a wrap" true (Plist.to_list wrapped = Plist.to_list l);
  check bool_ "list wrapped in a seq-index node refused" false (verdict (Value.List wrapped))

let suite =
  [ Alcotest.test_case "every key length builds" `Slow test_long_keys_build;
    Alcotest.test_case "key limit" `Quick test_key_limit;
    Alcotest.test_case "non-shrinking row refused" `Quick test_non_shrinking_row;
    Alcotest.test_case "verify refuses wrapped roots" `Quick test_verify_refuses_wrapped_roots ]
  @ List.map QCheck_alcotest.to_alcotest
      ([ pmap_rebuild_property; seq_rebuild_property ] @ mutation_cases)
