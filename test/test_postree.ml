(* POS-Tree (keyed): construction, lookup, incremental update, SIRI
   properties, diff, three-way merge, validation and corruption
   detection. *)

module Pmap = Fb_postree.Pmap
module Pset = Fb_postree.Pset
module Store = Fb_chunk.Store
module Mem_store = Fb_chunk.Mem_store
module Hash = Fb_hash.Hash
module Prng = Fb_hash.Prng

let check = Alcotest.check
let bool_ = Alcotest.bool
let int_ = Alcotest.int

let mk_bindings ?(seed = 1L) n =
  let rng = Prng.create seed in
  List.init n (fun i ->
      ( Printf.sprintf "key-%06d" i,
        Printf.sprintf "value-%d-%Ld" i (Prng.next_int64 rng) ))

let shuffle ?(seed = 2L) l =
  let rng = Prng.create seed in
  let arr = Array.of_list l in
  for i = Array.length arr - 1 downto 1 do
    let j = Prng.next_int rng (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done;
  Array.to_list arr

let same_root a b = Option.equal Hash.equal (Pmap.root a) (Pmap.root b)

(* ---------------- basics ---------------- *)

let test_empty () =
  let store = Mem_store.create () in
  let t = Pmap.empty store in
  check bool_ "is_empty" true (Pmap.is_empty t);
  check int_ "cardinal" 0 (Pmap.cardinal t);
  check int_ "height" 0 (Pmap.height t);
  check bool_ "find" true (Pmap.find t "x" = None);
  check bool_ "min" true (Pmap.min_entry t = None);
  check bool_ "max" true (Pmap.max_entry t = None);
  check bool_ "to_list" true (Pmap.to_list t = []);
  check bool_ "validate" true (Pmap.validate t = Ok ());
  check bool_ "diff empty empty" true (Pmap.diff t t = [])

let test_build_and_find () =
  let store = Mem_store.create () in
  let bs = mk_bindings 5000 in
  let t = Pmap.of_bindings store bs in
  check int_ "cardinal" 5000 (Pmap.cardinal t);
  check bool_ "height > 1" true (Pmap.height t >= 2);
  List.iteri
    (fun i (k, v) ->
      if i mod 97 = 0 then
        check bool_ ("find " ^ k) true (Pmap.find_value t k = Some v))
    bs;
  check bool_ "find absent" true (Pmap.find_value t "zzz" = None);
  check bool_ "find below range" true (Pmap.find_value t "aaa" = None);
  check bool_ "mem" true (Pmap.mem t "key-000000");
  check bool_ "bindings sorted" true (Pmap.bindings t = bs);
  (match Pmap.min_entry t, Pmap.max_entry t with
   | Some lo, Some hi ->
     check bool_ "min" true (String.equal lo.Pmap.key "key-000000");
     check bool_ "max" true (String.equal hi.Pmap.key "key-004999")
   | _ -> Alcotest.fail "min/max missing")

let test_single_entry () =
  let store = Mem_store.create () in
  let t = Pmap.of_bindings store [ ("only", "one") ] in
  check int_ "cardinal" 1 (Pmap.cardinal t);
  check int_ "height" 1 (Pmap.height t);
  check bool_ "find" true (Pmap.find_value t "only" = Some "one");
  check bool_ "validate" true (Pmap.validate t = Ok ())

let test_build_dedups_keys () =
  let store = Mem_store.create () in
  let t = Pmap.of_bindings store [ ("a", "1"); ("b", "2"); ("a", "3") ] in
  check int_ "cardinal" 2 (Pmap.cardinal t);
  (* Last binding wins. *)
  check bool_ "last wins" true (Pmap.find_value t "a" = Some "3")

let test_of_root () =
  let store = Mem_store.create () in
  let t = Pmap.of_bindings store (mk_bindings 500) in
  let t' = Pmap.of_root store (Pmap.root t) in
  check bool_ "same content" true (Pmap.bindings t' = Pmap.bindings t)

(* ---------------- updates ---------------- *)

let test_update_insert_remove () =
  let store = Mem_store.create () in
  let bs = mk_bindings 2000 in
  let t = Pmap.of_bindings store bs in
  let t = Pmap.put t "key-000500x" "inserted" in
  check int_ "after insert" 2001 (Pmap.cardinal t);
  check bool_ "inserted" true (Pmap.find_value t "key-000500x" = Some "inserted");
  let t = Pmap.remove t "key-000500x" in
  check int_ "after remove" 2000 (Pmap.cardinal t);
  check bool_ "removed" true (Pmap.find_value t "key-000500x" = None);
  (* Removing an absent key is a no-op that preserves the root. *)
  let t2 = Pmap.remove t "not-there" in
  check bool_ "no-op remove" true (same_root t t2)

let test_update_equals_rebuild () =
  let store = Mem_store.create () in
  let bs = mk_bindings 3000 in
  let t = Pmap.of_bindings store bs in
  (* A mixed batch: overwrite, fresh insert at front, middle, back, and
     deletions. *)
  let edits =
    [ Pmap.Put (Pmap.binding "key-000100" "overwritten");
      Pmap.Put (Pmap.binding "aaa-front" "front");
      Pmap.Put (Pmap.binding "key-001500m" "middle");
      Pmap.Put (Pmap.binding "zzz-back" "back");
      Pmap.Remove "key-002000";
      Pmap.Remove "key-000001" ]
  in
  let t' = Pmap.update t edits in
  let rebuilt =
    Pmap.of_bindings store
      ((("aaa-front", "front") :: ("key-001500m", "middle")
        :: ("zzz-back", "back")
        :: List.filter_map
             (fun (k, v) ->
               if k = "key-002000" || k = "key-000001" then None
               else if k = "key-000100" then Some (k, "overwritten")
               else Some (k, v))
             bs))
  in
  check bool_ "update = rebuild (bit identical)" true (same_root t' rebuilt);
  check bool_ "validate" true (Pmap.validate t' = Ok ())

let test_update_empty_edits () =
  let store = Mem_store.create () in
  let t = Pmap.of_bindings store (mk_bindings 100) in
  check bool_ "no edits no change" true (same_root t (Pmap.update t []))

let test_update_to_empty () =
  let store = Mem_store.create () in
  let bs = mk_bindings 300 in
  let t = Pmap.of_bindings store bs in
  let t' = Pmap.update t (List.map (fun (k, _) -> Pmap.Remove k) bs) in
  check bool_ "emptied" true (Pmap.is_empty t');
  check int_ "cardinal 0" 0 (Pmap.cardinal t')

let test_update_from_empty () =
  let store = Mem_store.create () in
  let t = Pmap.empty store in
  let t' =
    Pmap.update t
      [ Pmap.Put (Pmap.binding "b" "2"); Pmap.Put (Pmap.binding "a" "1");
        Pmap.Remove "c" ]
  in
  check bool_ "built" true (Pmap.bindings t' = [ ("a", "1"); ("b", "2") ])

let test_update_localized_writes () =
  (* SIRI Property 2 (recursively identical): a point insert creates only
     O(height) fresh chunks; everything else is dedup-shared. *)
  let store = Mem_store.create () in
  let t = Pmap.of_bindings store (mk_bindings 20_000) in
  let before = (Store.stats store).Store.physical_chunks in
  let t' = Pmap.put t "key-010000" "CHANGED" in
  let created = (Store.stats store).Store.physical_chunks - before in
  check bool_
    (Printf.sprintf "new chunks %d <= 4 + 3*height" created)
    true
    (created <= 4 + (3 * Pmap.height t'));
  check bool_ "validate" true (Pmap.validate t' = Ok ())

let test_to_seq_lazy () =
  let store = Mem_store.create () in
  let bs = mk_bindings 20_000 in
  let t = Pmap.of_bindings store bs in
  (* Full traversal agrees with to_list. *)
  check bool_ "full" true (List.of_seq (Pmap.to_seq t) = Pmap.to_list t);
  (* Early termination reads only a prefix of the chunks. *)
  let gets0 = (Store.stats store).Store.gets in
  let first10 = List.of_seq (Seq.take 10 (Pmap.to_seq t)) in
  let gets = (Store.stats store).Store.gets - gets0 in
  check int_ "ten entries" 10 (List.length first10);
  check bool_ (Printf.sprintf "few reads %d" gets) true (gets <= 8);
  check bool_ "empty seq" true
    (List.of_seq (Pmap.to_seq (Pmap.empty store)) = [])

let test_build_sorted_seq () =
  let store = Mem_store.create () in
  let bs = mk_bindings 5000 in
  let streamed =
    Pmap.build_sorted_seq store
      (Seq.map (fun (k, v) -> Pmap.binding k v) (List.to_seq bs))
  in
  check bool_ "streamed = bulk" true
    (same_root streamed (Pmap.of_bindings store bs));
  Alcotest.check_raises "unsorted rejected"
    (Invalid_argument "build_sorted_seq: keys not strictly increasing")
    (fun () ->
      ignore
        (Pmap.build_sorted_seq store
           (List.to_seq [ Pmap.binding "b" "1"; Pmap.binding "a" "2" ])));
  check bool_ "empty stream" true
    (Pmap.is_empty (Pmap.build_sorted_seq store Seq.empty))

(* ---------------- range queries ---------------- *)

let test_range_queries () =
  let store = Mem_store.create () in
  let bs = mk_bindings 5000 in
  let t = Pmap.of_bindings store bs in
  let slice lo hi =
    List.filter (fun (k, _) -> k >= lo && k <= hi) bs
    |> List.map (fun (k, v) -> Pmap.binding k v)
  in
  let got = Pmap.to_list_range ~lo:"key-001000" ~hi:"key-001999" t in
  check bool_ "middle slice" true (got = slice "key-001000" "key-001999");
  check int_ "slice size" 1000 (List.length got);
  (* Unbounded sides. *)
  check int_ "from lo" 2000
    (List.length (Pmap.to_list_range ~lo:"key-003000" t));
  check int_ "to hi" 10 (List.length (Pmap.to_list_range ~hi:"key-000009" t));
  check int_ "whole" 5000 (List.length (Pmap.to_list_range t));
  (* Bounds between keys and outside the key space. *)
  check int_ "between keys" 1
    (List.length (Pmap.to_list_range ~lo:"key-000001a" ~hi:"key-000002z" t));
  check int_ "beyond" 0 (List.length (Pmap.to_list_range ~lo:"zzz" t));
  check int_ "inverted" 0
    (List.length (Pmap.to_list_range ~lo:"key-002000" ~hi:"key-001000" t));
  (* Empty tree. *)
  check int_ "empty tree" 0
    (List.length (Pmap.to_list_range ~lo:"a" (Pmap.empty store)))

let test_count_range_matches_list () =
  let store = Mem_store.create () in
  let t = Pmap.of_bindings store (mk_bindings 5000) in
  List.iter
    (fun (lo, hi) ->
      let by_list =
        List.length (Pmap.to_list_range ?lo ?hi t)
      in
      check int_ "count = list length" by_list (Pmap.count_range ?lo ?hi t))
    [ (Some "key-001000", Some "key-001999");
      (Some "key-000000", Some "key-004999");
      (None, Some "key-002500");
      (Some "key-004990", None);
      (None, None);
      (Some "nope", None) ]

let test_nth () =
  let store = Mem_store.create () in
  let bs = mk_bindings 3000 in
  let t = Pmap.of_bindings store bs in
  List.iter
    (fun i ->
      check bool_ (Printf.sprintf "nth %d" i) true
        (Pmap.nth t i
         = Some (let k, v = List.nth bs i in Pmap.binding k v)))
    [ 0; 1; 499; 1500; 2999 ];
  check bool_ "out of range" true (Pmap.nth t 3000 = None);
  check bool_ "negative" true (Pmap.nth t (-1) = None);
  check bool_ "empty" true (Pmap.nth (Pmap.empty store) 0 = None)

let test_count_range_reads_few_chunks () =
  (* A wide interior range must be counted from index statistics. *)
  let store = Mem_store.create () in
  let t = Pmap.of_bindings store (mk_bindings 50_000) in
  let total = List.length (Pmap.node_hashes t) in
  let gets0 = (Store.stats store).Store.gets in
  let n = Pmap.count_range ~lo:"key-005000" ~hi:"key-045000" t in
  let gets = (Store.stats store).Store.gets - gets0 in
  check int_ "count" 40_001 n;
  check bool_ (Printf.sprintf "gets %d << chunks %d" gets total) true
    (gets * 20 < total)

(* ---------------- SIRI properties ---------------- *)

let test_structural_invariance_orders () =
  let store = Mem_store.create () in
  let bs = mk_bindings 2000 in
  let bulk = Pmap.of_bindings store bs in
  let incremental =
    List.fold_left
      (fun t (k, v) -> Pmap.put t k v)
      (Pmap.empty store)
      (shuffle bs)
  in
  check bool_ "bulk = shuffled incremental" true (same_root bulk incremental);
  (* Batched in two halves, reversed. *)
  let half = List.filteri (fun i _ -> i < 1000) bs
  and rest = List.filteri (fun i _ -> i >= 1000) bs in
  let batched =
    Pmap.update
      (Pmap.of_bindings store rest)
      (List.map (fun (k, v) -> Pmap.Put (Pmap.binding k v)) half)
  in
  check bool_ "batched halves" true (same_root bulk batched)

let test_history_independence () =
  (* Insert then delete extra records: the detour leaves no trace. *)
  let store = Mem_store.create () in
  let bs = mk_bindings 1000 in
  let direct = Pmap.of_bindings store bs in
  let detour =
    let t = Pmap.of_bindings store bs in
    let t = Pmap.put t "key-000500a" "temp1" in
    let t = Pmap.put t "key-000999z" "temp2" in
    let t = Pmap.remove t "key-000500a" in
    Pmap.remove t "key-000999z"
  in
  check bool_ "detour erased" true (same_root direct detour)

let test_universal_reuse () =
  (* SIRI Property 3: a larger instance reuses pages of a smaller one when
     content overlaps (same store, count dedup hits). *)
  let store = Mem_store.create () in
  let small = Pmap.of_bindings store (mk_bindings 5000) in
  let small_pages =
    List.fold_left
      (fun s h -> Hash.Set.add h s)
      Hash.Set.empty (Pmap.node_hashes small)
  in
  (* Superset: same 5000 plus 5000 more appended after. *)
  let more =
    mk_bindings 5000
    @ List.init 5000 (fun i -> (Printf.sprintf "tail-%06d" i, "t"))
  in
  let large = Pmap.of_bindings store more in
  let large_pages =
    List.fold_left
      (fun s h -> Hash.Set.add h s)
      Hash.Set.empty (Pmap.node_hashes large)
  in
  let shared = Hash.Set.cardinal (Hash.Set.inter small_pages large_pages) in
  (* The small instance's leaves are almost all reused; only the boundary
     region and index levels can differ. *)
  check bool_
    (Printf.sprintf "shared %d of %d" shared (Hash.Set.cardinal small_pages))
    true
    (float_of_int shared
     >= 0.8 *. float_of_int (Hash.Set.cardinal small_pages))

(* ---------------- diff ---------------- *)

let naive_diff bs1 bs2 =
  (* Reference diff on sorted association lists. *)
  let m1 = List.to_seq bs1 |> Hashtbl.of_seq in
  let m2 = List.to_seq bs2 |> Hashtbl.of_seq in
  let changes = ref [] in
  List.iter
    (fun (k, v1) ->
      match Hashtbl.find_opt m2 k with
      | None -> changes := `Removed (k, v1) :: !changes
      | Some v2 -> if v1 <> v2 then changes := `Modified (k, v1, v2) :: !changes)
    bs1;
  List.iter
    (fun (k, v2) ->
      if not (Hashtbl.mem m1 k) then changes := `Added (k, v2) :: !changes)
    bs2;
  List.sort compare !changes

let to_naive (c : Pmap.change) =
  match c with
  | Pmap.Added b -> `Added (b.Pmap.key, b.Pmap.value)
  | Pmap.Removed b -> `Removed (b.Pmap.key, b.Pmap.value)
  | Pmap.Modified (b1, b2) -> `Modified (b1.Pmap.key, b1.Pmap.value, b2.Pmap.value)

let test_diff_correctness () =
  let store = Mem_store.create () in
  let bs = mk_bindings 4000 in
  let bs' =
    List.filter_map
      (fun (k, v) ->
        if k = "key-000777" then None
        else if k = "key-002222" then Some (k, "changed")
        else Some (k, v))
      bs
    @ [ ("key-009999x", "fresh") ]
  in
  let t1 = Pmap.of_bindings store bs in
  let t2 = Pmap.of_bindings store bs' in
  let got = List.sort compare (List.map to_naive (Pmap.diff t1 t2)) in
  check bool_ "diff matches reference" true (got = naive_diff bs bs');
  check int_ "diff size" 3 (List.length got);
  (* Symmetry: reversing swaps added/removed. *)
  let rev = Pmap.diff t2 t1 in
  check int_ "reverse size" 3 (List.length rev);
  check bool_ "self diff" true (Pmap.diff t1 t1 = [])

let test_diff_prunes_shared_subtrees () =
  (* O(D log N): diffing two large trees differing in one entry must touch
     far fewer chunks than a full scan.  Count store gets. *)
  let store = Mem_store.create () in
  let bs = mk_bindings 50_000 in
  let t1 = Pmap.of_bindings store bs in
  let t2 = Pmap.put t1 "key-025000" "poked" in
  let before = (Store.stats store).Store.gets in
  let d = Pmap.diff t1 t2 in
  let gets = (Store.stats store).Store.gets - before in
  check int_ "one change" 1 (List.length d);
  let total_chunks = List.length (Pmap.node_hashes t1) in
  check bool_
    (Printf.sprintf "gets %d << chunks %d" gets total_chunks)
    true
    (gets * 10 < total_chunks)

let test_diff_disjoint_trees () =
  let store = Mem_store.create () in
  let t1 = Pmap.of_bindings store [ ("a", "1"); ("b", "2") ] in
  let t2 = Pmap.of_bindings store [ ("c", "3") ] in
  check int_ "all differ" 3 (List.length (Pmap.diff t1 t2));
  check int_ "vs empty" 2
    (List.length (Pmap.diff t1 (Pmap.empty store)))

(* ---------------- merge ---------------- *)

let test_merge_disjoint () =
  let store = Mem_store.create () in
  let base = Pmap.of_bindings store (mk_bindings 2000) in
  let ours = Pmap.put base "key-000100" "ours-change" in
  let theirs = Pmap.put base "key-001900" "theirs-change" in
  match Pmap.merge ~base ~ours ~theirs () with
  | Error _ -> Alcotest.fail "unexpected conflict"
  | Ok merged ->
    check bool_ "ours kept" true
      (Pmap.find_value merged "key-000100" = Some "ours-change");
    check bool_ "theirs applied" true
      (Pmap.find_value merged "key-001900" = Some "theirs-change");
    check int_ "cardinal" 2000 (Pmap.cardinal merged);
    (* Merge must equal the rebuild with both edits. *)
    let expected =
      Pmap.update base
        [ Pmap.Put (Pmap.binding "key-000100" "ours-change");
          Pmap.Put (Pmap.binding "key-001900" "theirs-change") ]
    in
    check bool_ "merge canonical" true (same_root merged expected)

let test_merge_identical_edits () =
  let store = Mem_store.create () in
  let base = Pmap.of_bindings store (mk_bindings 100) in
  let ours = Pmap.put base "k" "same" in
  let theirs = Pmap.put base "k" "same" in
  match Pmap.merge ~base ~ours ~theirs () with
  | Error _ -> Alcotest.fail "identical edits are not a conflict"
  | Ok merged ->
    check bool_ "value" true (Pmap.find_value merged "k" = Some "same")

let test_merge_conflict () =
  let store = Mem_store.create () in
  let base = Pmap.of_bindings store (mk_bindings 100) in
  let ours = Pmap.put base "key-000050" "ours" in
  let theirs = Pmap.put base "key-000050" "theirs" in
  (match Pmap.merge ~base ~ours ~theirs () with
   | Ok _ -> Alcotest.fail "expected conflict"
   | Error [ c ] ->
     check bool_ "conflict key" true (String.equal c.Pmap.key "key-000050");
     check bool_ "base present" true (c.Pmap.base <> None)
   | Error _ -> Alcotest.fail "expected exactly one conflict");
  (* Resolvers. *)
  (match Pmap.merge ~on_conflict:Pmap.resolve_ours ~base ~ours ~theirs () with
   | Ok m -> check bool_ "ours wins" true (Pmap.find_value m "key-000050" = Some "ours")
   | Error _ -> Alcotest.fail "resolver failed");
  match Pmap.merge ~on_conflict:Pmap.resolve_theirs ~base ~ours ~theirs () with
  | Ok m ->
    check bool_ "theirs wins" true
      (Pmap.find_value m "key-000050" = Some "theirs")
  | Error _ -> Alcotest.fail "resolver failed"

let test_merge_remove_vs_modify () =
  let store = Mem_store.create () in
  let base = Pmap.of_bindings store [ ("a", "1"); ("b", "2") ] in
  let ours = Pmap.remove base "a" in
  let theirs = Pmap.put base "a" "3" in
  match Pmap.merge ~base ~ours ~theirs () with
  | Ok _ -> Alcotest.fail "remove vs modify must conflict"
  | Error [ c ] -> check bool_ "key a" true (String.equal c.Pmap.key "a")
  | Error _ -> Alcotest.fail "one conflict expected"

let test_merge_page_reuse () =
  (* Fig. 3: one key edited per side, far apart.  The merge passes every
     untouched leaf through by reference, so its store traffic is bounded
     by the tree's height, not its size: it reads the sides' new paths (the
     shared index nodes are in the decoded-node cache since the sides were
     built) and writes the merged tree's new nodes. *)
  Fb_postree.Node_cache.set_capacity_all 1024;
  Fun.protect ~finally:(fun () ->
      Fb_postree.Node_cache.set_capacity_all
        Fb_postree.Node_cache.default_capacity)
  @@ fun () ->
  let store = Mem_store.create () in
  let base = Pmap.of_bindings store (mk_bindings 20_000) in
  let ours = Pmap.put base "key-000100" "A" in
  let theirs = Pmap.put base "key-019000" "B" in
  let height = Pmap.height base in
  let s0 = Store.stats store in
  let merged =
    match Pmap.merge ~base ~ours ~theirs () with
    | Ok m -> m
    | Error _ -> Alcotest.fail "conflict"
  in
  let s1 = Store.stats store in
  let gets = s1.Store.gets - s0.Store.gets
  and puts = s1.Store.puts - s0.Store.puts
  and fresh = s1.Store.physical_chunks - s0.Store.physical_chunks in
  check bool_
    (Printf.sprintf "fresh %d <= 4 + 3 * height %d" fresh height)
    true (fresh <= 4 + (3 * height));
  check bool_
    (Printf.sprintf "gets %d <= 4 * height %d" gets height)
    true (gets <= 4 * height);
  check bool_
    (Printf.sprintf "puts %d <= 8 * height %d" puts height)
    true (puts <= 8 * height);
  check bool_ "canonical" true
    (same_root merged
       (Pmap.update base
          [ Pmap.Put (Pmap.binding "key-000100" "A");
            Pmap.Put (Pmap.binding "key-019000" "B") ]))

let test_merge_conflict_writes_nothing () =
  let store = Mem_store.create () in
  let base = Pmap.of_bindings store (mk_bindings 5000) in
  let ours =
    Pmap.update base
      [ Pmap.Put (Pmap.binding "key-000010" "ours");
        Pmap.Put (Pmap.binding "key-002500" "ours") ]
  in
  let theirs =
    Pmap.update base
      [ Pmap.Put (Pmap.binding "key-002500" "theirs");
        Pmap.Put (Pmap.binding "key-004990" "theirs") ]
  in
  let s0 = Store.stats store in
  (match Pmap.merge ~base ~ours ~theirs () with
   | Ok _ -> Alcotest.fail "expected a conflict"
   | Error cs -> check int_ "one conflict" 1 (List.length cs));
  let s1 = Store.stats store in
  check int_ "no puts" s0.Store.puts s1.Store.puts;
  check int_ "no new chunks" s0.Store.physical_chunks s1.Store.physical_chunks

(* ---------------- merge against the reference algorithm ----------------

   Multi-level trees (2k-20k entries, plus empty and single-leaf bases),
   each side making clustered and scattered puts and removes, appends,
   tail deletes and last-leaf edits, with ops shared by both sides to force
   agreements and conflicts.  The merged root must be the canonical tree of
   the model's record set, and result, conflicts and resolver calls must
   equal the diff + diff + update algorithm's ({!Merge_ref}). *)

module Ref = Merge_ref.Make (struct
  include Pmap

  type entry = binding
  type key = string
end)

(* Base keys sit on even slots, inserts on odd ones, appends past 2n. *)
let slot_key i = Printf.sprintf "k%07d" i

type merge_op =
  | Cluster_put of int * int    (* first slot, length *)
  | Scatter_put of int list
  | Cluster_remove of int * int
  | Scatter_remove of int list
  | Append of int
  | Drop_tail of int
  | Edit_tail of int
  | Keep_first of int           (* 0 empties the side *)
  | Edit_head of int            (* puts the first base keys *)

type merge_case = {
  n : int;
  ours_ops : merge_op list;
  theirs_ops : merge_op list;
  shared : merge_op list;       (* applied by both sides *)
  agree : bool;                 (* shared puts write equal values *)
  resolver : int;               (* 0 none, 1 ours, 2 theirs *)
}

(* Key and value shapes: [long_keys] are 41 bytes, long enough for a
   pattern hit to lie inside a split key; with [big_values] every 23rd slot
   holds a 6-14 KiB value no pattern fires in, so leaves end at the node
   size cap. *)
type shape = { long_keys : bool; big_values : bool; second_store : bool }

let plain = { long_keys = false; big_values = false; second_store = false }

let shaped_key sh i =
  if sh.long_keys then
    Printf.sprintf "k%07d-%s" i (String.sub (Hash.to_hex (Hash.of_string (string_of_int i))) 0 32)
  else slot_key i

let shaped_value sh tag i small =
  if sh.big_values && i mod 23 = 0 then tag ^ String.make (6144 + (i * 37 mod 8192)) 'x'
  else small

let edits_of_op ?(shape = plain) n tag op =
  let put i =
    Pmap.Put
      (Pmap.binding (shaped_key shape i) (shaped_value shape tag i (Printf.sprintf "%s%d" tag i)))
  in
  let rm i = Pmap.Remove (shaped_key shape i) in
  let range lo len = List.init (max 0 len) (fun j -> lo + j) in
  let tail len = range (2 * max 0 (n - len)) (2 * min n len) in
  match op with
  | Cluster_put (s, l) -> List.map put (range s l)
  | Scatter_put l -> List.map put l
  | Cluster_remove (s, l) -> List.map rm (range s l)
  | Scatter_remove l -> List.map rm l
  | Append l -> List.map put (range (2 * n) l)
  | Drop_tail l -> List.map rm (tail l)
  | Edit_tail l -> List.filter_map (fun i -> if i mod 2 = 0 then Some (put i) else None) (tail l)
  | Keep_first m -> List.map rm (range (2 * m) (2 * (n - m)))
  | Edit_head l -> List.map (fun j -> put (2 * j)) (range 0 (min n l))

let pp_merge_op = function
  | Cluster_put (s, l) -> Printf.sprintf "cluster_put(%d,%d)" s l
  | Scatter_put l -> Printf.sprintf "scatter_put(%d)" (List.length l)
  | Cluster_remove (s, l) -> Printf.sprintf "cluster_remove(%d,%d)" s l
  | Scatter_remove l -> Printf.sprintf "scatter_remove(%d)" (List.length l)
  | Append l -> Printf.sprintf "append(%d)" l
  | Drop_tail l -> Printf.sprintf "drop_tail(%d)" l
  | Edit_tail l -> Printf.sprintf "edit_tail(%d)" l
  | Keep_first m -> Printf.sprintf "keep_first(%d)" m
  | Edit_head l -> Printf.sprintf "edit_head(%d)" l

let pp_merge_case c =
  let ops l = String.concat ";" (List.map pp_merge_op l) in
  Printf.sprintf "n=%d ours=[%s] theirs=[%s] shared=[%s] agree=%b resolver=%d"
    c.n (ops c.ours_ops) (ops c.theirs_ops) (ops c.shared) c.agree c.resolver

let gen_merge_case =
  let open QCheck.Gen in
  frequency [ (1, return 0); (1, int_range 1 12); (8, int_range 2000 20000) ]
  >>= fun n ->
  let slots = max 1 (2 * n) in
  let slot = int_bound (slots - 1) in
  let op =
    frequency
      [ (4, map2 (fun s l -> Cluster_put (s, l)) slot (int_range 1 200));
        (3, map (fun l -> Scatter_put l) (list_size (int_range 1 40) slot));
        (2, map2 (fun s l -> Cluster_remove (s, l)) slot (int_range 1 200));
        (2, map (fun l -> Scatter_remove l) (list_size (int_range 1 40) slot));
        (2, map (fun l -> Append l) (int_range 1 300));
        (1, map (fun l -> Drop_tail l) (int_range 1 300));
        (2, map (fun l -> Edit_tail l) (int_range 1 40));
        (1, map (fun m -> Keep_first m) (int_range 0 10)) ]
  in
  let ops = list_size (int_range 0 3) op in
  map3
    (fun (ours_ops, theirs_ops) (shared, agree) resolver ->
      { n; ours_ops; theirs_ops; shared; agree; resolver })
    (pair ops ops)
    (pair (list_size (int_range 0 2) op) bool)
    (int_bound 2)

(* The three-way rule per key, over plain bindings. *)
let model_merge resolver base ours theirs =
  let tbl l =
    let t = Hashtbl.create 1024 in
    List.iter (fun (k, v) -> Hashtbl.replace t k v) l;
    t
  in
  let b = tbl base and o = tbl ours and t = tbl theirs in
  let keys =
    List.sort_uniq compare (List.map fst base @ List.map fst ours @ List.map fst theirs)
  in
  List.filter_map
    (fun k ->
      let bv = Hashtbl.find_opt b k
      and ov = Hashtbl.find_opt o k
      and tv = Hashtbl.find_opt t k in
      let v =
        if ov = bv then tv
        else if tv = bv || ov = tv then ov
        else match resolver with 1 -> ov | 2 -> tv | _ -> None
      in
      Option.map (fun v -> (k, v)) v)
    keys

let merge_case_base ?(shape = plain) store c =
  Pmap.of_bindings store
    (List.init c.n (fun i -> (shaped_key shape (2 * i), shaped_value shape "b" (2 * i) "b")))

let merge_case_edits ?shape c tag own =
  let shared_tag = if c.agree then "s" else tag in
  List.concat_map (edits_of_op ?shape c.n tag) own
  @ List.concat_map (edits_of_op ?shape c.n shared_tag) c.shared

let merge_case_side ?shape c base tag own = Pmap.update base (merge_case_edits ?shape c tag own)

let merge_case_sides store c =
  let base = merge_case_base store c in
  (base, merge_case_side c base "o" c.ours_ops,
   merge_case_side c base "t" c.theirs_ops)

(* A base's records after [edits], last edit of a key winning. *)
let model_bindings base edits =
  let t = Hashtbl.create 4096 in
  List.iter (fun (k, v) -> Hashtbl.replace t k v) base;
  List.iter
    (function
      | Pmap.Put b -> Hashtbl.replace t b.Pmap.key b.Pmap.value
      | Pmap.Remove k -> Hashtbl.remove t k)
    edits;
  List.sort compare (List.of_seq (Hashtbl.to_seq t))

(* Each side's [update] must give [build]'s root over its records, and
   the merge (theirs read from a second store with [second_store]) the
   reference's result, conflicts and resolver calls, and [build]'s root
   over the model's merged records, in ours' store. *)
let check_merge_case ?(shape = plain) ?(replace = false) c =
  let store = Mem_store.create () in
  let fail fmt = Printf.ksprintf (fun s -> QCheck.Test.fail_report s) fmt in
  let base = merge_case_base ~shape store c in
  let ours = merge_case_side ~shape c base "o" c.ours_ops
  and theirs = merge_case_side ~shape c base "t" c.theirs_ops in
  let records tag own = model_bindings (Pmap.bindings base) (merge_case_edits ~shape c tag own) in
  let built tag own = Pmap.of_bindings store (records tag own) in
  if not (same_root ours (built "o" c.ours_ops)) then fail "update (ours) is not build's tree";
  if not (same_root theirs (built "t" c.theirs_ops)) then
    fail "update (theirs) is not build's tree";
  let theirs_merged =
    if shape.second_store then
      merge_case_side ~shape c (merge_case_base ~shape (Mem_store.create ()) c) "t"
        c.theirs_ops
    else theirs
  in
  (* [replace t es] = [build es] for every tree and record set, the empty
     set and a set whose keys no tree holds (in reverse, so it is sorted)
     included. *)
  if replace then
    List.iter
      (fun (set, bs) ->
        let want = Pmap.of_bindings store bs in
        let es = List.map (fun (k, v) -> Pmap.binding k v) bs in
        List.iter
          (fun (tree, t) ->
            if not (same_root (Pmap.replace t es) want) then
              fail "replace %s by the %s records is not build's tree" tree set)
          [ ("empty", Pmap.empty store); ("base", base); ("ours", ours);
            ("theirs", theirs_merged) ])
      [ ("no", []); ("base", Pmap.bindings base); ("ours", records "o" c.ours_ops);
        ("theirs", records "t" c.theirs_ops);
        ("disjoint", List.rev_map (fun (k, v) -> (k ^ "~", v)) (Pmap.bindings base)) ];
  let resolver =
    match c.resolver with
    | 1 -> Pmap.resolve_ours
    | 2 -> Pmap.resolve_theirs
    | _ -> fun _ -> None
  in
  let recording () =
    let calls = ref [] in
    ((fun conflict ->
       calls := conflict :: !calls;
       resolver conflict),
     calls)
  in
  let on_new, calls_new = recording () in
  let on_ref, calls_ref = recording () in
  let got = Pmap.merge ~on_conflict:on_new ~base ~ours ~theirs:theirs_merged () in
  let want = Ref.merge ~equal:( = ) ~on_conflict:on_ref ~base ~ours ~theirs () in
  if !calls_new <> !calls_ref then fail "resolver calls differ";
  match got, want with
  | Ok m, Ok r ->
    let model =
      Pmap.of_bindings store
        (model_merge c.resolver (Pmap.bindings base) (Pmap.bindings ours)
           (Pmap.bindings theirs))
    in
    if not (same_root m r) then fail "merged root differs from the reference";
    if not (same_root m model) then fail "merged root is not the model's tree";
    if Pmap.store m != store then fail "merged tree outside ours' store";
    (match Pmap.validate m with
     | Ok () -> true
     | Error e -> fail "validate: %s" e)
  | Error cs, Error rs -> cs = rs || fail "conflict lists differ"
  | Ok _, Error _ -> fail "reference conflicts, merge does not"
  | Error _, Ok _ -> fail "merge conflicts, reference does not"

let merge_oracle_property =
  QCheck.Test.make ~name:"pos-tree: merge = reference on multi-level trees"
    ~count:30
    (QCheck.make ~print:pp_merge_case gen_merge_case)
    check_merge_case

let test_merge_theirs_in_second_store () =
  (* [theirs] lives in a store that holds nothing else: the leaves the
     merge takes from it are copied, so the result is complete in
     [ours.store]. *)
  let c =
    { n = 8000;
      ours_ops = [ Cluster_put (100, 50); Append 40 ];
      theirs_ops =
        [ Scatter_put [ 3000; 7001; 9000; 12002 ]; Cluster_remove (14000, 300) ];
      shared = [];
      agree = false;
      resolver = 0 }
  in
  let want =
    let base, ours, theirs = merge_case_sides (Mem_store.create ()) c in
    match Ref.merge ~equal:( = ) ~base ~ours ~theirs () with
    | Ok r -> r
    | Error _ -> Alcotest.fail "reference conflicts"
  in
  let store = Mem_store.create () in
  let base = merge_case_base store c in
  let ours = merge_case_side c base "o" c.ours_ops in
  let theirs =
    merge_case_side c (merge_case_base (Mem_store.create ()) c) "t"
      c.theirs_ops
  in
  match Pmap.merge ~base ~ours ~theirs () with
  | Error _ -> Alcotest.fail "unexpected conflict"
  | Ok m ->
    check bool_ "same root as the reference" true (same_root m want);
    check bool_ "result in ours' store" true (Pmap.store m == store);
    check bool_ "validate" true (Pmap.validate m = Ok ())

(* ---------------- the row assembler against build ----------------

   [update], [replace] and [merge] write through the assembler, which
   passes whole subtrees of their inputs through; [build] feeds it every
   entry.  Over multi-level trees of every shape (41-byte keys, leaves
   ended by the node size cap, sides of different heights, appends and
   edits at the first key, removes that empty leaves, theirs in a second
   store), each side's [update] must give [build]'s root over its
   records, [replace] of each tree by each side's records [build]'s root
   over them, and [merge] the root of [build] over the model's merged
   records and the reference's conflicts. *)

type shaped_case = { shape : shape; case : merge_case }

let gen_shaped_case =
  let open QCheck.Gen in
  triple bool (frequency [ (2, return false); (1, return true) ]) bool
  >>= fun (long_keys, big_values, second_store) ->
  (if big_values then int_range 300 2500 else int_range 1500 12000) >>= fun n ->
  let slot = int_bound ((2 * n) - 1) in
  let op =
    frequency
      [ (3, map2 (fun s l -> Cluster_put (s, l)) slot (int_range 1 200));
        (3, map (fun l -> Scatter_put l) (list_size (int_range 1 40) slot));
        (2, map2 (fun s l -> Cluster_remove (s, l)) slot (int_range 100 400));
        (1, map (fun l -> Scatter_remove l) (list_size (int_range 1 40) slot));
        (2, map (fun l -> Append l) (int_range 1 (2 * n)));
        (1, map (fun l -> Drop_tail l) (int_range 1 300));
        (2, map (fun l -> Edit_tail l) (int_range 1 40));
        (2, map (fun l -> Edit_head l) (int_range 1 40));
        (1, map (fun m -> Keep_first m) (int_range 0 10)) ]
  in
  let ops = list_size (int_range 1 3) op in
  map3
    (fun (ours_ops, theirs_ops) (shared, agree) resolver ->
      { shape = { long_keys; big_values; second_store };
        case = { n; ours_ops; theirs_ops; shared; agree; resolver } })
    (pair ops ops)
    (pair (list_size (int_range 0 2) op) bool)
    (int_bound 2)

let pp_shaped_case { shape; case } =
  Printf.sprintf "long_keys=%b big_values=%b second_store=%b %s" shape.long_keys
    shape.big_values shape.second_store (pp_merge_case case)

let assembler_property =
  QCheck.Test.make ~name:"pos-tree: update and merge = build (every shape)" ~count:25
    (QCheck.make ~print:pp_shaped_case gen_shaped_case)
    (fun { shape; case } -> check_merge_case ~shape ~replace:true case)

(* The subtrees of [t] one level above the leaves, left to right: in
   [node_hashes]' depth-first order, an index node followed by a leaf. *)
let level1_subtrees store t =
  let leaf h =
    Fb_chunk.Chunk.equal_kind (Option.get (Store.get store h)).Fb_chunk.Chunk.kind
      Fb_chunk.Chunk.Leaf_map
  in
  let rec go = function
    | a :: (b :: _ as rest) when (not (leaf a)) && leaf b -> Pmap.of_root store (Some a) :: go rest
    | _ :: rest -> go rest
    | [] -> []
  in
  go (Pmap.node_hashes t)

let leaf_keys store h = List.map fst (Pmap.bindings (Pmap.of_root store (Some h)))

let last l = List.nth l (List.length l - 1)

(* Updates around level-1 nodes, each against [build]:
   - an edit inside the last leaf of a level-1 node keeps that leaf's end
     but changes its id, so the level-1 node loses the pattern it ended
     on: the next level-1 node must be expanded, not passed while the
     level-1 chunker holds entries;
   - removing all but the last leaf of the first level-1 node leaves a row
     of one leaf, held back from the level-1 chunker: the next level-1 node
     must not pass beside it;
   - removing all but a level-1 node of one leaf passes that node alone:
     the root is its leaf. *)
let test_update_around_level1_nodes () =
  let store = Mem_store.create () in
  (* Keep the records [keep] names, by an update and by a build. *)
  let kept_is_built base keep =
    let bs = Pmap.bindings base in
    same_root
      (Pmap.update base
         (List.filter_map (fun (k, _) -> if keep k then None else Some (Pmap.Remove k)) bs))
      (Pmap.of_bindings store (List.filter (fun (k, _) -> keep k) bs))
  in
  let set keys =
    let t = Hashtbl.create 64 in
    List.iter (fun k -> Hashtbl.replace t k ()) keys;
    Hashtbl.mem t
  in
  let base = Pmap.of_bindings store (mk_bindings 100_000) in
  let nodes = level1_subtrees store base in
  check bool_ "several level-1 nodes" true (List.length nodes > 8);
  let first = List.hd nodes in
  let first_max = (Option.get (Pmap.max_entry first)).Pmap.key in
  let in_last_leaf = set (leaf_keys store (last (Pmap.leaf_hashes first))) in
  check bool_ "one leaf, then whole level-1 nodes" true
    (kept_is_built base (fun k -> k > first_max || in_last_leaf k));
  let base22 = Pmap.of_bindings store (mk_bindings ~seed:22L 50_000) in
  (match
     List.find_opt
       (fun n -> List.length (Pmap.leaf_hashes n) = 1)
       (level1_subtrees store base22)
   with
   | None -> Alcotest.fail "no level-1 node of one leaf"
   | Some node ->
     check bool_ "a level-1 node of one leaf alone" true
       (kept_is_built base22 (set (List.map fst (Pmap.bindings node)))));
  List.iteri
    (fun i node ->
      if i < 4 then begin
        let keys = leaf_keys store (last (Pmap.leaf_hashes node)) in
        let k = List.nth keys (List.length keys / 2) in
        let t = Pmap.put base k "edited" in
        let want =
          Pmap.of_bindings store
            (List.map (fun (k', v) -> (k', if k' = k then "edited" else v)) (Pmap.bindings base))
        in
        check bool_ (Printf.sprintf "node %d: update = build" i) true (same_root t want)
      end)
    nodes

(* Theirs ends at [k], a leaf end of base's, after editing the key before
   it, so its last leaf (its right spine) ends at [k] without the pattern
   base's leaf ended on.  Ours appends past base's end, so the merge goes
   on past [k]: theirs' last leaf must be re-chunked, not passed. *)
let test_merge_past_a_truncated_side () =
  let store = Mem_store.create () in
  let base = Pmap.of_bindings store (mk_bindings 30_000) in
  let leaves = Pmap.leaf_hashes base in
  let appended = List.init 50 (fun i -> Pmap.Put (Pmap.binding (Printf.sprintf "zz-%03d" i) "new")) in
  let ours = Pmap.update base appended in
  List.iter
    (fun j ->
      let keys = leaf_keys store (List.nth leaves j) in
      let k = last keys and before = List.nth keys (List.length keys - 2) in
      let theirs =
        Pmap.update base
          (Pmap.Put (Pmap.binding before "edited")
           :: List.filter_map
                (fun (k', _) -> if k' > k then Some (Pmap.Remove k') else None)
                (Pmap.bindings base))
      in
      match Pmap.merge ~base ~ours ~theirs () with
      | Error _ -> Alcotest.fail "conflict"
      | Ok m ->
        let want =
          Pmap.of_bindings store
            (List.filter_map
               (fun (k', v) ->
                 if k' > k then None else Some (k', if k' = before then "edited" else v))
               (Pmap.bindings base)
             @ List.init 50 (fun i -> (Printf.sprintf "zz-%03d" i, "new")))
        in
        check bool_ (Printf.sprintf "truncated at leaf %d: merge = build" j) true (same_root m want))
    [ 40; 80; 120; 160; 200 ]

(* A merge's store traffic follows the changed paths, not the leaf row: k
   edits per side on a 50k-record map and on a 200k-record one cost the
   same reads and puts, up to the extra level.  The decoded-node cache is
   off, so every node the merge visits is a read. *)
let test_merge_follows_changes () =
  let traffic n =
    let store = Mem_store.create () in
    let key f = Printf.sprintf "key-%07d" (int_of_float (f *. float_of_int n)) in
    let base = Pmap.of_bindings store (List.init n (fun i -> (Printf.sprintf "key-%07d" i, "v"))) in
    let side tag fs = Pmap.update base (List.map (fun f -> Pmap.Put (Pmap.binding (key f) tag)) fs) in
    let ours = side "ours" [ 0.1; 0.3; 0.5; 0.7; 0.9 ]
    and theirs = side "theirs" [ 0.2; 0.4; 0.6; 0.8; 0.95 ] in
    Fb_postree.Node_cache.set_capacity_all 0;
    Fun.protect ~finally:(fun () ->
        Fb_postree.Node_cache.set_capacity_all Fb_postree.Node_cache.default_capacity)
    @@ fun () ->
    let s0 = Store.stats store in
    (match Pmap.merge ~base ~ours ~theirs () with
     | Ok _ -> ()
     | Error _ -> Alcotest.fail "conflict");
    let s1 = Store.stats store in
    (Pmap.height base, s1.Store.gets - s0.Store.gets, s1.Store.puts - s0.Store.puts)
  in
  let h50, gets50, puts50 = traffic 50_000 and h200, gets200, puts200 = traffic 200_000 in
  check bool_ "one level apart" true (h200 = h50 + 1);
  (* Slack: one read per changed path (2k of them) and one put per edit
     (k) for the extra level. *)
  check bool_ (Printf.sprintf "reads %d ~ %d" gets50 gets200) true (abs (gets200 - gets50) <= 10);
  check bool_ (Printf.sprintf "puts %d ~ %d" puts50 puts200) true (abs (puts200 - puts50) <= 5)

(* [replace] by records that differ from the tree's in a few values
   writes what [update] with those edits writes, the paths to the edited
   leaves; by the tree's own records (shuffled) it writes nothing. *)
let test_replace_writes_what_changed () =
  let store = Mem_store.create () in
  let bs = mk_bindings 50_000 in
  let base = Pmap.of_bindings store bs in
  let puts f =
    let s0 = (Store.stats store).Store.puts in
    let t = f () in
    (t, (Store.stats store).Store.puts - s0)
  in
  let edit i v = if i mod 10_000 = 7 then v ^ "!" else v in
  let by_update, update_puts =
    puts (fun () ->
        Pmap.update base
          (List.concat
             (List.mapi
                (fun i (k, v) -> if edit i v = v then [] else [ Pmap.Put (Pmap.binding k (edit i v)) ])
                bs)))
  in
  let by_replace, replace_puts =
    puts (fun () -> Pmap.replace base (List.mapi (fun i (k, v) -> Pmap.binding k (edit i v)) bs))
  in
  check bool_ "replace = update" true (same_root by_replace by_update);
  check int_ "the same puts as update" update_puts replace_puts;
  check bool_ (Printf.sprintf "%d puts for 5 edits" replace_puts) true (replace_puts <= 5 * Pmap.height base);
  let same, same_puts =
    puts (fun () -> Pmap.replace base (List.map (fun (k, v) -> Pmap.binding k v) (shuffle bs)))
  in
  check bool_ "own records: same root" true (same_root same base);
  check int_ "own records: no puts" 0 same_puts

(* ---------------- validation / corruption ---------------- *)

let test_validate_detects_bitflip () =
  let store, handle = Mem_store.create_with_handle () in
  let t = Pmap.of_bindings store (mk_bindings 2000) in
  check bool_ "clean validates" true (Pmap.validate t = Ok ());
  (* Flip one byte in one reachable chunk. *)
  let victim = List.nth (Pmap.node_hashes t) 3 in
  ignore
    (Mem_store.tamper handle victim ~f:(fun s ->
         let b = Bytes.of_string s in
         let i = Bytes.length b / 2 in
         Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 1));
         Bytes.to_string b));
  check bool_ "bitflip detected" true (Result.is_error (Pmap.validate t))

let test_validate_detects_missing_chunk () =
  let store = Mem_store.create () in
  let t = Pmap.of_bindings store (mk_bindings 2000) in
  let victim = List.nth (Pmap.node_hashes t) 1 in
  ignore (store.Store.delete victim);
  check bool_ "missing detected" true (Result.is_error (Pmap.validate t))

let test_corrupt_exception_on_navigation () =
  let store = Mem_store.create () in
  let t = Pmap.of_bindings store (mk_bindings 2000) in
  (match Pmap.root t with
   | None -> Alcotest.fail "root"
   | Some root ->
     ignore (store.Store.delete root);
     (try
        ignore (Pmap.find t "key-000001");
        Alcotest.fail "expected Corrupt"
      with Fb_postree.Postree.Corrupt _ -> ()))

let test_node_stats () =
  let store = Mem_store.create () in
  let t = Pmap.of_bindings store (mk_bindings 10_000) in
  let ns = Pmap.node_stats t in
  check int_ "levels = height" (Pmap.height t) ns.Pmap.levels;
  check int_ "leaf entries" 10_000 ns.Pmap.leaf_entries;
  check bool_ "root level single" true (List.hd ns.Pmap.nodes_per_level = 1);
  let leaves = List.nth ns.Pmap.nodes_per_level (ns.Pmap.levels - 1) in
  check int_ "leaf sizes count" leaves (List.length ns.Pmap.leaf_node_sizes);
  (* Mean leaf size should be in the ballpark of 2^q = 2048 bytes. *)
  let mean =
    float_of_int (List.fold_left ( + ) 0 ns.Pmap.leaf_node_sizes)
    /. float_of_int leaves
  in
  check bool_ (Printf.sprintf "mean leaf %.0fB" mean) true
    (mean > 500.0 && mean < 8000.0)

(* ---------------- decoded-node cache ---------------- *)

module Node_cache = Fb_postree.Node_cache
module Gc = Fb_chunk.Gc
module Chunk = Fb_chunk.Chunk

let test_node_cache_serves_repeat_reads () =
  let store = Mem_store.create () in
  let t = Pmap.of_bindings store (mk_bindings 5000) in
  let probe () =
    for i = 0 to 99 do
      ignore (Pmap.find t (Printf.sprintf "key-%06d" (i * 41)))
    done
  in
  probe ();
  (* Warm: every node on the probed paths is now cached, so re-probing must
     not read the store at all (the liveness check uses [mem], which is not
     a [get]). *)
  let gets_before = (Store.stats store).Store.gets in
  probe ();
  check int_ "warm finds bypass the store" gets_before
    (Store.stats store).Store.gets

let test_node_cache_invalidated_by_gc () =
  let store = Mem_store.create () in
  let t = Pmap.of_bindings store (mk_bindings 3000) in
  ignore (Pmap.find t "key-000001");
  (* A no-roots sweep deletes every chunk through the notifying
     [Store.delete]; the warm cache must not keep serving their decodes. *)
  ignore (Gc.sweep store ~children:(fun _ -> []) ~roots:[]);
  (try
     ignore (Pmap.find t "key-000001");
     Alcotest.fail "expected Corrupt after GC"
   with Fb_postree.Postree.Corrupt _ -> ())

let test_node_cache_unit () =
  let store = Mem_store.create () in
  let cache : string Node_cache.t = Node_cache.create ~name:"test" in
  let c = Chunk.v Chunk.Leaf_blob "cached-bytes" in
  let id = Store.put store c in
  Node_cache.add cache id "decoded";
  check bool_ "hit" true (Node_cache.find_live cache store id = Some "decoded");
  (* A notifying delete invalidates eagerly. *)
  ignore (Store.delete store id);
  check bool_ "miss after delete" true
    (Node_cache.find_live cache store id = None);
  (* An entry for a chunk the store does not hold is never served: the
     per-hit liveness probe catches deletions that bypassed the hook. *)
  Node_cache.add cache id "ghost";
  check bool_ "liveness probe blocks stale entry" true
    (Node_cache.find_live cache store id = None);
  let s = Node_cache.stats cache in
  check bool_ "stats counted" true
    (s.Node_cache.hits = 1 && s.Node_cache.misses >= 2);
  (* Capacity 0 disables caching entirely. *)
  let off : string Node_cache.t = Node_cache.create ~name:"test-off" in
  Node_cache.set_capacity off 0;
  let id2 = Store.put store c in
  Node_cache.add off id2 "x";
  check bool_ "disabled cache stores nothing" true
    (Node_cache.find_live off store id2 = None)

(* Admission on second miss once full.  [chunk_ids store n] puts [n]
   distinct chunks and returns their ids, so [find_live] has something to
   probe. *)
let chunk_ids store n =
  Array.init n (fun i ->
      Store.put store (Chunk.v Chunk.Leaf_blob (Printf.sprintf "node-%d" i)))

let cache_of ~cap =
  let c : string Node_cache.t = Node_cache.create ~name:"test-admit" in
  Node_cache.set_capacity c cap;
  c

let test_node_cache_admits_below_capacity () =
  (* Until the cache is full every add is admitted: plain LRU. *)
  let store = Mem_store.create () in
  let ids = chunk_ids store 8 in
  let c = cache_of ~cap:8 in
  Array.iteri (fun i id -> Node_cache.add c id (string_of_int i)) ids;
  Array.iteri
    (fun i id ->
      check bool_ "admitted" true
        (Node_cache.find_live c store id = Some (string_of_int i)))
    ids;
  let s = Node_cache.stats c in
  check int_ "size" 8 s.Node_cache.size;
  check int_ "nothing rejected" 0 s.Node_cache.rejected;
  check int_ "nothing evicted" 0 s.Node_cache.evictions

let test_node_cache_scan_resistant () =
  (* A full cache meets a one-pass scan of many more distinct ids than it
     holds: nothing resident is evicted and every resident still hits. *)
  let store = Mem_store.create () in
  let ids = chunk_ids store 108 in
  let c = cache_of ~cap:8 in
  for i = 0 to 7 do Node_cache.add c ids.(i) "resident" done;
  for i = 8 to 107 do
    check bool_ "scan misses" true (Node_cache.find_live c store ids.(i) = None);
    Node_cache.add c ids.(i) "scan"
  done;
  let s = Node_cache.stats c in
  check int_ "scan rejected" 100 s.Node_cache.rejected;
  check int_ "no eviction" 0 s.Node_cache.evictions;
  for i = 0 to 7 do
    check bool_ "resident hits" true
      (Node_cache.find_live c store ids.(i) = Some "resident")
  done

let test_node_cache_second_miss_admits () =
  let store = Mem_store.create () in
  let cap = 4 in
  let window = Node_cache.ghost_multiple * cap in
  let ids = chunk_ids store (cap + 2 + (2 * window)) in
  let c = cache_of ~cap in
  for i = 0 to cap - 1 do Node_cache.add c ids.(i) "resident" done;
  (* Touch all but resident 0, which becomes the LRU entry. *)
  for i = 1 to cap - 1 do ignore (Node_cache.find_live c store ids.(i)) done;
  let x = ids.(cap) in
  Node_cache.add c x "x";
  check bool_ "first miss rejected" true (Node_cache.find_live c store x = None);
  (* [window - 1] further rejections keep [x] inside the ghost window. *)
  for i = cap + 2 to cap + window do Node_cache.add c ids.(i) "scan" done;
  Node_cache.add c x "x";
  check bool_ "second miss admitted" true
    (Node_cache.find_live c store x = Some "x");
  check bool_ "LRU resident evicted" true
    (Node_cache.find_live c store ids.(0) = None);
  check int_ "one eviction" 1 (Node_cache.stats c).Node_cache.evictions;
  (* An id that [window] fresh rejections pushed out of the window is a
     first miss again. *)
  let y = ids.(cap + 1) in
  Node_cache.add c y "y";
  for i = cap + 2 + window to cap + 1 + (2 * window) do
    Node_cache.add c ids.(i) "fresh"
  done;
  Node_cache.add c y "y";
  check bool_ "aged-out ghost rejected" true
    (Node_cache.find_live c store y = None)

let test_node_cache_reset_empties_ghosts () =
  (* [clear] and [set_capacity 0] then the old capacity give a fresh
     cache: the first add is admitted, and an id rejected before the reset
     is a first miss once the cache is full again. *)
  let store = Mem_store.create () in
  let ids = chunk_ids store 6 in
  let x = ids.(5) in
  List.iter
    (fun reset ->
      let c = cache_of ~cap:4 in
      for i = 0 to 3 do Node_cache.add c ids.(i) "resident" done;
      Node_cache.add c x "x";
      check int_ "rejected before reset" 1 (Node_cache.stats c).Node_cache.rejected;
      reset c;
      check int_ "empty after reset" 0 (Node_cache.stats c).Node_cache.size;
      Node_cache.add c ids.(4) "first";
      check bool_ "first add admitted" true
        (Node_cache.find_live c store ids.(4) = Some "first");
      for i = 0 to 2 do Node_cache.add c ids.(i) "refill" done;
      Node_cache.add c x "x";
      check bool_ "old ghost forgotten" true
        (Node_cache.find_live c store x = None))
    [ Node_cache.clear;
      (fun c -> Node_cache.set_capacity c 0; Node_cache.set_capacity c 4) ]

let test_node_cache_full_invalidation () =
  (* Delete invalidation and the liveness probe work as before on a full
     cache, and the slot they free admits the next add. *)
  let store = Mem_store.create () in
  let ids = chunk_ids store 6 in
  let c = cache_of ~cap:4 in
  for i = 0 to 3 do Node_cache.add c ids.(i) "resident" done;
  ignore (Store.delete store ids.(0));
  check bool_ "deleted entry gone" true
    (Node_cache.find_live c store ids.(0) = None);
  check int_ "size after delete" 3 (Node_cache.stats c).Node_cache.size;
  Node_cache.add c ids.(4) "fills the slot";
  check bool_ "freed slot admits" true
    (Node_cache.find_live c store ids.(4) = Some "fills the slot");
  (* A resident whose chunk another store lacks is never served from it. *)
  let other = Mem_store.create () in
  check bool_ "liveness probe" true
    (Node_cache.find_live c other ids.(1) = None);
  check int_ "stale entry dropped" 3 (Node_cache.stats c).Node_cache.size;
  Node_cache.add c ids.(5) "admitted";
  check int_ "nothing rejected" 0 (Node_cache.stats c).Node_cache.rejected

(* Reference model of the cache: an LRU list (most recent first), a FIFO
   ghost list (oldest first) and the counters. *)
type cache_op =
  | Add of int
  | Find of int
  | Invalidate of int
  | Delete of int
  | Reput of int
  | Clear
  | Set_capacity of int

let show_cache_op = function
  | Add i -> Printf.sprintf "add %d" i
  | Find i -> Printf.sprintf "find %d" i
  | Invalidate i -> Printf.sprintf "invalidate %d" i
  | Delete i -> Printf.sprintf "delete %d" i
  | Reput i -> Printf.sprintf "reput %d" i
  | Clear -> "clear"
  | Set_capacity n -> Printf.sprintf "capacity %d" n

let node_cache_model_property =
  let universe = 12 in
  let op =
    let open QCheck.Gen in
    let id = int_bound (universe - 1) in
    frequency
      [ (6, map (fun i -> Add i) id);
        (6, map (fun i -> Find i) id);
        (1, map (fun i -> Invalidate i) id);
        (1, map (fun i -> Delete i) id);
        (1, map (fun i -> Reput i) id);
        (1, return Clear);
        (1, map (fun n -> Set_capacity n) (int_bound 4)) ]
  in
  let ops =
    QCheck.make
      ~print:(fun (cap, l) ->
        Printf.sprintf "capacity %d: %s" cap
          (String.concat "; " (List.map show_cache_op l)))
      QCheck.Gen.(pair (int_range 1 4) (list_size (int_range 0 120) op))
  in
  QCheck.Test.make ~name:"node cache = reference admission model" ~count:200
    ops
    (fun (cap0, ops) ->
      let store = Mem_store.create () in
      let chunk i = Chunk.v Chunk.Leaf_blob (Printf.sprintf "model-%d" i) in
      let ids = Array.init universe (fun i -> Store.put store (chunk i)) in
      let c = cache_of ~cap:cap0 in
      let cap = ref cap0 and lru = ref [] and ghost = ref [] in
      let present = Array.make universe true in
      let hits = ref 0 and misses = ref 0 and evictions = ref 0
      and invalidations = ref 0 and rejected = ref 0 and version = ref 0 in
      let drop_lru i = lru := List.filter (fun (j, _) -> j <> i) !lru in
      let evict_to n =
        while List.length !lru > n do
          lru := List.filteri (fun k _ -> k < List.length !lru - 1) !lru;
          incr evictions
        done
      in
      let invalidate i =
        if List.mem_assoc i !lru then begin
          drop_lru i;
          incr invalidations
        end
      in
      let step op =
        match op with
        | Add i ->
          incr version;
          let v = Printf.sprintf "%d@%d" i !version in
          Node_cache.add c ids.(i) v;
          if !cap > 0 && not (List.mem_assoc i !lru) then
            if List.length !lru < !cap || List.mem i !ghost then begin
              lru := (i, v) :: !lru;
              evict_to !cap
            end
            else begin
              incr rejected;
              ghost := !ghost @ [ i ];
              if List.length !ghost > Node_cache.ghost_multiple * !cap then
                ghost := List.tl !ghost
            end;
          true
        | Find i ->
          let got = Node_cache.find_live c store ids.(i) in
          let want =
            match List.assoc_opt i !lru with
            | Some v when present.(i) ->
              incr hits;
              drop_lru i;
              lru := (i, v) :: !lru;
              Some v
            | Some _ ->
              invalidate i;
              incr misses;
              None
            | None ->
              incr misses;
              None
          in
          got = want
        | Invalidate i ->
          Node_cache.invalidate c ids.(i);
          invalidate i;
          true
        | Delete i ->
          if Store.delete store ids.(i) then invalidate i;
          present.(i) <- false;
          true
        | Reput i ->
          ignore (Store.put store (chunk i));
          present.(i) <- true;
          true
        | Clear ->
          Node_cache.clear c;
          lru := [];
          ghost := [];
          true
        | Set_capacity n ->
          Node_cache.set_capacity c n;
          cap := n;
          ghost := [];
          evict_to n;
          true
      in
      List.for_all
        (fun op ->
          step op
          &&
          let s = Node_cache.stats c in
          s.Node_cache.hits = !hits
          && s.Node_cache.misses = !misses
          && s.Node_cache.evictions = !evictions
          && s.Node_cache.invalidations = !invalidations
          && s.Node_cache.rejected = !rejected
          && s.Node_cache.size = List.length !lru)
        ops)

let test_node_cache_diff_keeps_warm_path () =
  (* Tree level: with 64 entries, a diff reading far more than 64 fresh
     nodes leaves a warm key's path resident, so a following [find] of
     that key reads nothing from the store. *)
  Node_cache.set_capacity_all 0;
  Node_cache.set_capacity_all 64;
  Fun.protect ~finally:(fun () ->
      Node_cache.set_capacity_all Node_cache.default_capacity)
  @@ fun () ->
  let store = Mem_store.create () in
  let gets () = (Store.stats store).Store.gets in
  let bs = mk_bindings 20_000 in
  let t1 = Pmap.of_bindings store bs in
  let t2 =
    Pmap.of_bindings store
      (List.mapi (fun i (k, v) -> (k, if i mod 97 = 0 then v ^ "!" else v)) bs)
  in
  (* Fill the cache from an unrelated tree so the rule is engaged. *)
  let filler = Pmap.of_bindings store (mk_bindings ~seed:7L 20_000) in
  let g0 = gets () in
  ignore (Pmap.to_list filler);
  check bool_ "filler reads more than the capacity" true (gets () - g0 > 64);
  for _ = 1 to 3 do ignore (Pmap.find t1 "key-010000") done;
  let g0 = gets () in
  ignore (Pmap.find t1 "key-010000");
  check int_ "warm find reads nothing" 0 (gets () - g0);
  let g0 = gets () in
  check int_ "diff size" ((20_000 + 96) / 97) (List.length (Pmap.diff t1 t2));
  check bool_ "diff reads more than 64 fresh nodes" true (gets () - g0 > 64);
  let g0 = gets () in
  ignore (Pmap.find t1 "key-010000");
  check int_ "warm find still reads nothing" 0 (gets () - g0)

let test_diff_across_stores () =
  (* Each side is read through its own store: a diff of trees in two
     stores equals the same diff inside one, at equal and at different
     heights, with the node cache on and off. *)
  let bs = mk_bindings 5000 in
  let edited =
    List.filter_map
      (fun (k, v) ->
        if k = "key-001000" then None
        else if k = "key-004000" then Some (k, "changed")
        else Some (k, v))
      bs
    @ [ ("key-009999x", "fresh") ]
  in
  let cases =
    [ ("equal heights", bs, edited);
      ("different heights", bs, List.filteri (fun i _ -> i mod 40 = 0) edited);
      ("different heights, reversed", mk_bindings 60, edited) ]
  in
  List.iter
    (fun cap ->
      Node_cache.set_capacity_all cap;
      Fun.protect ~finally:(fun () ->
          Node_cache.set_capacity_all Node_cache.default_capacity)
      @@ fun () ->
      List.iter
        (fun (name, b1, b2) ->
          let one = Mem_store.create () in
          let want = Pmap.diff (Pmap.of_bindings one b1) (Pmap.of_bindings one b2) in
          let t1 = Pmap.of_bindings (Mem_store.create ()) b1
          and t2 = Pmap.of_bindings (Mem_store.create ()) b2 in
          if name = "equal heights" then
            check int_ "same height" (Pmap.height t1) (Pmap.height t2)
          else
            check bool_ "heights differ" true (Pmap.height t1 <> Pmap.height t2);
          check bool_
            (Printf.sprintf "%s, cache %d" name cap)
            true
            (Pmap.diff t1 t2 = want && Pmap.diff t2 t1 = Pmap.diff
               (Pmap.of_bindings one b2) (Pmap.of_bindings one b1)))
        cases)
    [ Node_cache.default_capacity; 0 ]

(* ---------------- diff: encoded leaves ---------------- *)

module Codec = Fb_codec.Codec
module Obs = Fb_obs.Obs
module SM = Map.Make (String)

let clear_node_caches () =
  Node_cache.set_capacity_all 0;
  Node_cache.set_capacity_all Node_cache.default_capacity

let leaves_encoded = Obs.counter "fb.postree.diff_leaves_encoded"
let entries_decoded = Obs.counter "fb.postree.diff_entries_decoded"

(* Pairs of multi-leaf binding lists, the second the first after a batch
   of edits.  Keys and values reach 300 bytes (two-byte length varints),
   a key often comes with keys it is a prefix of, values may be empty,
   and runs of inserts and removals shift leaf boundaries. *)
type diff_edit =
  | Put_key of string * string
  | Set_nth of int * string
  | Remove_nth of int
  | Remove_run of int * int
  | Insert_run of int * int * string

let gen_diff_case =
  let open QCheck.Gen in
  let bytes lo hi = string_size ~gen:char (int_range lo hi) in
  let key = frequency [ (4, bytes 1 12); (1, bytes 128 300) ] in
  let value =
    frequency [ (1, return ""); (3, bytes 1 24); (1, bytes 128 300) ]
  in
  let family =
    let* k = key and* exts = list_size (int_bound 2) (bytes 1 140) in
    return (k :: List.map (( ^ ) k) exts)
  in
  let* keys = list_size (int_range 20 250) family in
  let* base =
    flatten_l
      (List.map (fun k -> map (fun v -> (k, v)) value) (List.concat keys))
  in
  let edit =
    frequency
      [ (3, map2 (fun k v -> Put_key (k, v)) key value);
        (3, map2 (fun i v -> Set_nth (i, v)) nat value);
        (2, map (fun i -> Remove_nth i) nat);
        (1, map2 (fun i n -> Remove_run (i, n)) nat (int_range 2 60));
        (1, map3 (fun i n v -> Insert_run (i, n, v)) nat (int_range 2 60) value)
      ]
  in
  let* edits = list_size (int_range 1 12) edit in
  return (base, edits)

let print_diff_case (base, edits) =
  let edit = function
    | Put_key (k, v) -> Printf.sprintf "put %S %S" k v
    | Set_nth (i, v) -> Printf.sprintf "set #%d %S" i v
    | Remove_nth i -> Printf.sprintf "remove #%d" i
    | Remove_run (i, n) -> Printf.sprintf "remove #%d..+%d" i n
    | Insert_run (i, n, v) -> Printf.sprintf "insert %d after #%d = %S" n i v
  in
  Printf.sprintf "%d bindings; %s" (List.length base)
    (String.concat "; " (List.map edit edits))

(* The case's two binding lists, sorted and key-unique (last wins). *)
let diff_case_bindings (base, edits) =
  let m0 = List.fold_left (fun m (k, v) -> SM.add k v m) SM.empty base in
  let step m ed =
    let ks = Array.of_list (List.map fst (SM.bindings m)) in
    let nth i = ks.(i mod Array.length ks) in
    let run i n f =
      let j = i mod Array.length ks in
      List.fold_left f m (List.init (min n (Array.length ks - j)) (( + ) j))
    in
    match ed with
    | Put_key (k, v) -> SM.add k v m
    | _ when ks = [||] -> m
    | Set_nth (i, v) -> SM.add (nth i) v m
    | Remove_nth i -> SM.remove (nth i) m
    | Remove_run (i, n) -> run i n (fun m j -> SM.remove ks.(j) m)
    | Insert_run (i, n, v) ->
      (* Keys sorting right after the i-th: one contiguous run. *)
      let k = nth i in
      List.fold_left
        (fun m t -> SM.add (Printf.sprintf "%s\x00%03d" k t) (v ^ string_of_int t) m)
        m (List.init n Fun.id)
  in
  (SM.bindings m0, SM.bindings (List.fold_left step m0 edits))

let arb_diff_case = QCheck.make ~print:print_diff_case gen_diff_case

let set_to_naive (c : Pset.change) =
  match c with
  | Pset.Added e -> `Added (e, "")
  | Pset.Removed e -> `Removed (e, "")
  | Pset.Modified (e1, _) -> `Modified (e1, "", "")

(* [run] three times: with no node cached, with both trees wholly cached,
   and with only the first tree cached, so the leaf pairs are compared
   encoded, decoded from the cache, and half from it.  The second run
   must compare nothing encoded. *)
let under_cache_states ~warm1 ~warm2 run =
  clear_node_caches ();
  let cold = run () in
  warm1 ();
  warm2 ();
  let encoded = Obs.counter_value leaves_encoded in
  let warm = run () in
  let warm_encoded = Obs.counter_value leaves_encoded - encoded in
  clear_node_caches ();
  warm1 ();
  let half = run () in
  ([ cold; warm; half ], warm_encoded)

let diff_oracle_property =
  QCheck.Test.make ~count:40
    ~name:"pos-tree: map and set diff = reference under every cache state"
    arb_diff_case
    (fun case ->
      let bs1, bs2 = diff_case_bindings case in
      let store = Mem_store.create () in
      let m1 = Pmap.of_bindings store bs1 and m2 = Pmap.of_bindings store bs2 in
      let s1 = Pset.of_elements store (List.map fst bs1)
      and s2 = Pset.of_elements store (List.map fst bs2) in
      let unit_values = List.map (fun (k, _) -> (k, "")) in
      let sorted_keys keys =
        let rec go = function
          | a :: (b :: _ as rest) -> String.compare a b < 0 && go rest
          | _ -> true
        in
        go keys
      in
      let map_diff () =
        let cs = Pmap.diff m1 m2 in
        if not (sorted_keys (List.map Pmap.change_key cs)) then
          QCheck.Test.fail_report "map diff out of key order";
        List.sort compare (List.map to_naive cs)
      and set_diff () =
        let cs = Pset.diff s1 s2 in
        if not (sorted_keys (List.map Pset.change_key cs)) then
          QCheck.Test.fail_report "set diff out of key order";
        List.sort compare (List.map set_to_naive cs)
      in
      let warm_map t () = Pmap.iter ignore t
      and warm_set t () = Pset.iter ignore t in
      let check what want (runs, warm_encoded) =
        List.iteri
          (fun i got ->
            if got <> want then
              QCheck.Test.fail_reportf "%s diff %s differs from the reference"
                what (List.nth [ "cold"; "warm"; "half-warm" ] i))
          runs;
        if warm_encoded <> 0 && Node_cache.default_capacity > 0 then
          QCheck.Test.fail_reportf "%s: %d leaf pairs compared encoded with \
                                    every leaf cached" what warm_encoded
      in
      check "map" (naive_diff bs1 bs2)
        (under_cache_states ~warm1:(warm_map m1) ~warm2:(warm_map m2) map_diff);
      check "set"
        (naive_diff (unit_values bs1) (unit_values bs2))
        (under_cache_states ~warm1:(warm_set s1) ~warm2:(warm_set s2) set_diff);
      true)

(* The leaf row of a tree as (split key, id, count, bindings). *)
let leaf_row store t =
  List.map
    (fun id ->
      match Store.get store id with
      | None -> Alcotest.fail "missing leaf"
      | Some c ->
        let bs =
          Codec.of_string_exn
            (fun r ->
              Codec.read_list r (fun r ->
                  let k = Codec.read_bytes r in
                  (k, Codec.read_bytes r)))
            c.Chunk.payload
        in
        (fst (List.nth bs (List.length bs - 1)), id, List.length bs, bs))
    (Pmap.leaf_hashes t)

(* An index node over (split key, id, count) entries, encoded as the
   builder encodes one. *)
let index_over store row =
  let w = Codec.writer () in
  Codec.varint w (List.length row);
  List.iter
    (fun (split, id, count) ->
      Codec.bytes w split;
      Codec.hash w id;
      Codec.varint w count)
    row;
  Store.put store (Chunk.v Chunk.Index (Codec.contents w))

(* A map leaf's payload; [count] and the first key's length encoding can
   be overridden to make it non-canonical. *)
let leaf_payload ?count ?(first_key_len = Codec.varint) bs =
  let w = Codec.writer () in
  Codec.varint w (Option.value count ~default:(List.length bs));
  List.iteri
    (fun i (k, v) ->
      (if i = 0 then first_key_len else Codec.varint) w (String.length k);
      Codec.raw w k;
      Codec.bytes w v)
    bs;
  Codec.contents w

let refused what f =
  match f () with
  | cs -> Alcotest.failf "%s: diff returned %d changes" what (List.length cs)
  | exception Fb_postree.Postree.Corrupt _ -> ()

(* Leaves that hash to their own ids but that no builder writes: diff
   refuses each, as decoding does, whether it compares the pair encoded
   (nothing cached) or decoded (the good side cached). *)
let test_diff_refuses_noncanonical_leaves () =
  let store = Mem_store.create () in
  let row = leaf_row store (Pmap.of_bindings store (mk_bindings 3000)) in
  check bool_ "several leaves" true (List.length row >= 4);
  let k = List.length row / 2 in
  let split, good, count, bs = List.nth row k in
  let root_with leaf =
    Pmap.of_root store
      (Some
         (index_over store
            (List.mapi
               (fun i (split, id, count, _) ->
                 (split, (if i = k then leaf else id), count))
               row)))
  in
  let t1 = root_with good in
  let put payload = Store.put store (Chunk.v Chunk.Leaf_map payload) in
  let warm_good () =
    clear_node_caches ();
    ignore (Pmap.find t1 (fst (List.hd bs)))
  in
  (* Control: a canonical edit of the same leaf diffs to one change. *)
  let edited =
    put (leaf_payload (List.mapi (fun i (k, v) -> (k, if i = 1 then "!" else v)) bs))
  in
  List.iter
    (fun prepare ->
      prepare ();
      check int_ "canonical leaf diffs" 1
        (List.length (Pmap.diff t1 (root_with edited))))
    [ clear_node_caches; warm_good ];
  let non_minimal w n =
    Codec.u8 w (n lor 0x80);
    Codec.u8 w 0
  in
  List.iter
    (fun (what, bad) ->
      let t2 = root_with bad in
      List.iter
        (fun (how, prepare) ->
          prepare ();
          refused (what ^ ", " ^ how) (fun () -> Pmap.diff t1 t2);
          prepare ();
          refused (what ^ ", " ^ how ^ ", reversed") (fun () -> Pmap.diff t2 t1))
        [ ("nothing cached", clear_node_caches); ("good leaf cached", warm_good) ])
    [ ("non-minimal length varint", put (leaf_payload ~first_key_len:non_minimal bs));
      ("trailing byte", put (leaf_payload bs ^ "\x00"));
      ( "count beyond the payload",
        put (leaf_payload ~count:(String.length (leaf_payload bs)) bs) );
      ("index chunk where a leaf belongs", index_over store [ (split, good, count) ]);
      ( "set leaf where a map leaf belongs",
        Store.put store (Chunk.v Chunk.Leaf_set (leaf_payload bs)) ) ]

(* A leaf whose stored bytes were flipped is refused by the verifying
   store on its first read: the diff raises, it returns no changes. *)
let test_diff_refuses_flipped_leaf () =
  let inner, handle = Mem_store.create_with_handle () in
  let store, violations = Fb_chunk.Verified_store.wrap ~once:true inner in
  let t1 = Pmap.of_bindings store (mk_bindings 3000) in
  let t2 = Pmap.put t1 "key-001500" "changed" in
  let old = Pmap.leaf_hashes t1 in
  let fresh =
    List.filter (fun h -> not (List.exists (Hash.equal h) old)) (Pmap.leaf_hashes t2)
  in
  check bool_ "a fresh leaf" true (fresh <> []);
  List.iter
    (fun victim ->
      ignore
        (Mem_store.tamper handle victim ~f:(fun s ->
             let b = Bytes.of_string s in
             let i = Bytes.length b / 2 in
             Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 1));
             Bytes.to_string b)))
    fresh;
  clear_node_caches ();
  refused "flipped leaf, nothing cached" (fun () -> Pmap.diff t1 t2);
  check bool_ "the read was refused" true
    (violations.Fb_chunk.Verified_store.rejected_reads > 0);
  clear_node_caches ();
  ignore (Pmap.find t1 "key-001500");
  refused "flipped leaf, the other side cached" (fun () -> Pmap.diff t1 t2)

(* The counters show the saving: a cold diff compares its leaves encoded
   and decodes only the changed entries; a warm one decodes nothing. *)
let test_diff_counters () =
  let was = Obs.is_enabled () in
  Obs.set_enabled true;
  Fun.protect ~finally:(fun () -> Obs.set_enabled was) @@ fun () ->
  let store = Mem_store.create () in
  let t1 = Pmap.of_bindings store (mk_bindings 5000) in
  let t2 =
    Pmap.update t1
      [ Pmap.Put (Pmap.binding "key-002500" "changed");
        Pmap.Put (Pmap.binding "key-002500x" "added") ]
  in
  let run () =
    let e0 = Obs.counter_value leaves_encoded
    and d0 = Obs.counter_value entries_decoded in
    let n = List.length (Pmap.diff t1 t2) in
    (n, Obs.counter_value leaves_encoded - e0, Obs.counter_value entries_decoded - d0)
  in
  clear_node_caches ();
  let n, encoded, decoded = run () in
  check int_ "two changes" 2 n;
  check bool_ "cold: leaves compared encoded" true (encoded >= 1);
  check int_ "cold: the modified pair and the added entry decoded" 3 decoded;
  if Node_cache.default_capacity > 0 then begin
    Pmap.iter ignore t1;
    Pmap.iter ignore t2;
    let _, encoded, decoded = run () in
    check int_ "warm: nothing compared encoded" 0 encoded;
    check int_ "warm: nothing decoded" 0 decoded
  end

(* A cold diff fetches each differing node once: the leftmost leaf that
   the height probe reads is the one the leaf comparison scans. *)
let test_diff_cold_reads_each_node_once () =
  let store = Mem_store.create () in
  let gets () = (Store.stats store).Store.gets in
  List.iter
    (fun n ->
      let t1 = Pmap.of_bindings store (mk_bindings n) in
      let t2 = Pmap.put t1 "key-000000" "changed" in
      let height = Pmap.height t1 in
      check int_ "same height" height (Pmap.height t2);
      clear_node_caches ();
      let g0 = gets () in
      check int_ "one change" 1 (List.length (Pmap.diff t1 t2));
      check int_
        (Printf.sprintf "%d bindings: the two leftmost paths, once each" n)
        (2 * height) (gets () - g0))
    [ 3; 5000 ]

(* ---------------- golden hashes ---------------- *)

let test_golden_hashes () =
  (* Pinned identities captured from the seed implementation.  Any change
     to chunk encoding, SHA-256, the Γ table, or boundary placement breaks
     this test — which is the point: the performance work must be
     bit-compatible with already-stored data. *)
  let store = Mem_store.create () in
  let hex h = Hash.to_hex h in
  let root_hex = function Some h -> hex h | None -> "NONE" in
  check Alcotest.string "chunk blob id"
    "8fe6b4673dfd2b69a3fba1776e8689fbe408ae30f6b6bde4cf4e534adc385adc"
    (hex (Chunk.hash (Chunk.v Chunk.Leaf_blob "hello world")));
  check Alcotest.string "chunk map id"
    "a18fc488d723f16bf20a1c490f7e0f63a40b879ccdff563b30677cb0dbdfd47b"
    (hex (Chunk.hash (Chunk.v Chunk.Leaf_map "payload-map")));
  check Alcotest.string "chunk index id"
    "cfbe3b848f1206ee1c73da2f0faf3b0c3bab2d6d992b81b5411f68c0df46efed"
    (hex (Chunk.hash (Chunk.v Chunk.Index "payload-index")));
  let t = Pmap.of_bindings store (mk_bindings 2000) in
  check Alcotest.string "pmap root"
    "5e07c43fa4674e63908ef8514ef1192a0020374cdf70a47513c5655d6042d09c"
    (root_hex (Pmap.root t));
  let s = Pset.of_elements store (List.map fst (mk_bindings 1500)) in
  check Alcotest.string "pset root"
    "d34eab318c3f2fa729f56c235cc6dd37f8a4630344323414434661e31bc84b72"
    (root_hex (Pset.root s));
  let rng = Prng.create 7L in
  let blob = String.init 300_000 (fun _ -> Char.chr (Prng.next_int rng 256)) in
  let b = Fb_postree.Pblob.of_string store blob in
  check Alcotest.string "pblob root"
    "041ac133f3493d2291554846e6b0b47b2ed3ea4524188c2f04cc720ca92e5451"
    (root_hex (Fb_postree.Pblob.root b));
  let l = Fb_postree.Plist.of_list store (List.map snd (mk_bindings ~seed:3L 1200)) in
  check Alcotest.string "plist root"
    "2f10abfaef889420ab2ad705dec1346579aeaca68cbe775ab2468a71ec8876af"
    (root_hex (Fb_postree.Plist.root l));
  (* Long keys pin the index levels' muted window: a pattern hit lying
     wholly inside a split key does not cut.  36 bytes is a UUID, 64 a hex
     SHA-256. *)
  let hex_key i = Hash.to_hex (Hash.of_string (string_of_int i)) in
  let uuid i =
    let h = hex_key i in
    String.concat "-"
      [ String.sub h 0 8; String.sub h 8 4; String.sub h 12 4;
        String.sub h 16 4; String.sub h 20 12 ]
  in
  let keyed n key = Pmap.of_bindings store (List.init n (fun i -> (key i, string_of_int i))) in
  check Alcotest.string "pmap root, 36-byte keys"
    "100c008a900173b39e5d183b9bcdd5afe6d1698db988d5d0a1d7c346076a2280"
    (root_hex (Pmap.root (keyed 20_000 uuid)));
  check Alcotest.string "pmap root, 64-byte keys"
    "59d0fe0ff54be8be44d06b428b3a342ac760f2494ceec82850121a807ddc75cb"
    (root_hex (Pmap.root (keyed 5_000 hex_key)))

(* ---------------- Pset ---------------- *)

let test_pset_proofs () =
  (* Proofs come with the functor: sets prove membership/absence too. *)
  let store = Mem_store.create () in
  let s = Pset.of_elements store (List.init 3000 (Printf.sprintf "el-%05d")) in
  let root = Option.get (Pset.root s) in
  (match Pset.prove s "el-01500" with
   | Error e -> Alcotest.fail e
   | Ok proof -> (
     match Pset.verify_proof ~root "el-01500" proof with
     | Ok (Some e) -> check bool_ "member" true (String.equal e "el-01500")
     | _ -> Alcotest.fail "membership not proven"));
  match Pset.prove s "not-there" with
  | Error e -> Alcotest.fail e
  | Ok proof -> (
    match Pset.verify_proof ~root "not-there" proof with
    | Ok None -> ()
    | _ -> Alcotest.fail "absence not proven")

let test_pset_basics () =
  let store = Mem_store.create () in
  let elems = List.init 1000 (Printf.sprintf "element-%04d") in
  let s = Pset.of_elements store (shuffle elems) in
  check int_ "cardinal" 1000 (Pset.cardinal s);
  check bool_ "mem" true (Pset.mem s "element-0500");
  check bool_ "not mem" false (Pset.mem s "nope");
  check bool_ "sorted elements" true (Pset.elements s = elems);
  let s2 = Pset.add s "element-9999" in
  check int_ "added" 1001 (Pset.cardinal s2);
  let d = Pset.diff s s2 in
  check int_ "diff" 1 (List.length d);
  check bool_ "invariance" true
    (Option.equal Hash.equal (Pset.root (Pset.of_elements store elems))
       (Pset.root s))

(* ---------------- qcheck properties ---------------- *)

let apply_diff_reproduces (bs1, bs2) =
  let store = Mem_store.create () in
  let t1 = Pmap.of_bindings store bs1 in
  let t2 = Pmap.of_bindings store bs2 in
  let edits = List.map Pmap.edit_of_change (Pmap.diff t1 t2) in
  Option.equal Hash.equal (Pmap.root (Pmap.update t1 edits)) (Pmap.root t2)

let diff_antisymmetric (bs1, bs2) =
  let store = Mem_store.create () in
  let t1 = Pmap.of_bindings store bs1 in
  let t2 = Pmap.of_bindings store bs2 in
  let flip = function
    | Pmap.Added e -> Pmap.Removed e
    | Pmap.Removed e -> Pmap.Added e
    | Pmap.Modified (a, b) -> Pmap.Modified (b, a)
  in
  Pmap.diff t2 t1 = List.map flip (Pmap.diff t1 t2)

let qcheck_cases =
  let open QCheck in
  let kv_list =
    list_of_size (Gen.int_range 0 150)
      (pair (string_gen_of_size (Gen.int_range 1 12) Gen.printable)
         (string_gen_of_size (Gen.int_range 0 20) Gen.printable))
  in
  [ Test.make ~name:"pos-tree: build = to_list modulo sort/dedup" ~count:60
      kv_list
      (fun bs ->
        let store = Mem_store.create () in
        let t = Pmap.of_bindings store bs in
        let expected =
          (* last-wins dedup on sorted keys *)
          let tbl = Hashtbl.create 16 in
          List.iter (fun (k, v) -> Hashtbl.replace tbl k v) bs;
          Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
          |> List.sort compare
        in
        Pmap.bindings t = expected);
    Test.make ~name:"pos-tree: insertion order invariance" ~count:40 kv_list
      (fun bs ->
        let store = Mem_store.create () in
        let t1 = Pmap.of_bindings store bs in
        let t2 =
          List.fold_left
            (fun t (k, v) -> Pmap.put t k v)
            (Pmap.empty store) (List.rev bs)
        in
        (* Reverse-order incremental insert; duplicates make last-wins differ,
           so skip those inputs. *)
        let keys = List.map fst bs in
        List.length (List.sort_uniq compare keys) <> List.length keys
        || Option.equal Hash.equal (Pmap.root t1) (Pmap.root t2));
    Test.make ~name:"pos-tree: update = rebuild" ~count:40
      (pair kv_list kv_list)
      (fun (bs, edits) ->
        let store = Mem_store.create () in
        let t = Pmap.of_bindings store bs in
        let updated =
          Pmap.update t
            (List.map (fun (k, v) -> Pmap.Put (Pmap.binding k v)) edits)
        in
        let tbl = Hashtbl.create 16 in
        List.iter (fun (k, v) -> Hashtbl.replace tbl k v) bs;
        List.iter (fun (k, v) -> Hashtbl.replace tbl k v) edits;
        let merged = Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [] in
        Option.equal Hash.equal (Pmap.root updated)
          (Pmap.root (Pmap.of_bindings store merged)));
    Test.make ~name:"pos-tree: update with removes = rebuild" ~count:40
      (triple kv_list kv_list (list_of_size (Gen.int_range 0 30)
         (string_gen_of_size (Gen.int_range 1 12) Gen.printable)))
      (fun (bs, puts, removes) ->
        let store = Mem_store.create () in
        let t = Pmap.of_bindings store bs in
        (* Interleave puts and removes; last edit per key wins. *)
        let edits =
          List.map (fun (k, v) -> Pmap.Put (Pmap.binding k v)) puts
          @ List.map (fun k -> Pmap.Remove k) removes
        in
        let updated = Pmap.update t edits in
        let tbl = Hashtbl.create 16 in
        List.iter (fun (k, v) -> Hashtbl.replace tbl k v) bs;
        List.iter (fun (k, v) -> Hashtbl.replace tbl k v) puts;
        List.iter (Hashtbl.remove tbl) removes;
        let expected = Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [] in
        Option.equal Hash.equal (Pmap.root updated)
          (Pmap.root (Pmap.of_bindings store expected))
        && Pmap.validate updated = Ok ());
    Test.make ~name:"pos-tree: apply diff reproduces target" ~count:40
      (pair kv_list kv_list) apply_diff_reproduces;
    Test.make ~name:"pos-tree: apply diff reproduces target (multi-leaf edits)"
      ~count:25 arb_diff_case
      (fun case -> apply_diff_reproduces (diff_case_bindings case));
    Test.make ~name:"pos-tree: validate accepts every build" ~count:40
      kv_list
      (fun bs ->
        let store = Mem_store.create () in
        Pmap.validate (Pmap.of_bindings store bs) = Ok ());
    Test.make ~name:"pos-tree: merge = reference model (theirs-wins)"
      ~count:40
      (triple kv_list kv_list kv_list)
      (fun (base_bs, ours_edits, theirs_edits) ->
        let store = Mem_store.create () in
        let to_tbl bs =
          let tbl = Hashtbl.create 16 in
          List.iter (fun (k, v) -> Hashtbl.replace tbl k v) bs;
          tbl
        in
        let base = Pmap.of_bindings store base_bs in
        let puts edits =
          List.map (fun (k, v) -> Pmap.Put (Pmap.binding k v)) edits
        in
        let ours = Pmap.update base (puts ours_edits) in
        let theirs = Pmap.update base (puts theirs_edits) in
        match
          Pmap.merge ~on_conflict:Pmap.resolve_theirs ~base ~ours ~theirs ()
        with
        | Error _ -> false
        | Ok merged ->
          (* Model: ours' content, overridden by every key theirs actually
             changed relative to base (an edit restating the base value is
             not a change, so ours keeps those keys). *)
          let base_tbl = to_tbl base_bs in
          let expected = to_tbl base_bs in
          List.iter (fun (k, v) -> Hashtbl.replace expected k v) ours_edits;
          Hashtbl.iter
            (fun k v ->
              if Hashtbl.find_opt base_tbl k <> Some v then
                Hashtbl.replace expected k v)
            (to_tbl theirs_edits);
          Pmap.bindings merged
          = List.sort compare
              (Hashtbl.fold (fun k v acc -> (k, v) :: acc) expected []));
    Test.make ~name:"pos-tree: diff is antisymmetric" ~count:40
      (pair kv_list kv_list) diff_antisymmetric;
    Test.make ~name:"pos-tree: diff is antisymmetric (multi-leaf edits)"
      ~count:25 arb_diff_case
      (fun case -> diff_antisymmetric (diff_case_bindings case))
  ]

let suite =
  List.map QCheck_alcotest.to_alcotest
    (qcheck_cases
     @ [ merge_oracle_property; assembler_property; node_cache_model_property;
         diff_oracle_property ])
  @ [ Alcotest.test_case "empty tree" `Quick test_empty;
      Alcotest.test_case "build and find" `Quick test_build_and_find;
      Alcotest.test_case "single entry" `Quick test_single_entry;
      Alcotest.test_case "build dedups keys" `Quick test_build_dedups_keys;
      Alcotest.test_case "of_root" `Quick test_of_root;
      Alcotest.test_case "update insert/remove" `Quick
        test_update_insert_remove;
      Alcotest.test_case "update = rebuild" `Quick test_update_equals_rebuild;
      Alcotest.test_case "update empty edits" `Quick test_update_empty_edits;
      Alcotest.test_case "update to empty" `Quick test_update_to_empty;
      Alcotest.test_case "update from empty" `Quick test_update_from_empty;
      Alcotest.test_case "replace writes what changed" `Quick test_replace_writes_what_changed;
      Alcotest.test_case "merge follows the changed paths" `Quick
        test_merge_follows_changes;
      Alcotest.test_case "update = build around level-1 nodes" `Quick
        test_update_around_level1_nodes;
      Alcotest.test_case "merge past a truncated side's last leaf" `Quick
        test_merge_past_a_truncated_side;
      Alcotest.test_case "update localized writes" `Slow
        test_update_localized_writes;
      Alcotest.test_case "to_seq lazy" `Quick test_to_seq_lazy;
      Alcotest.test_case "build_sorted_seq" `Quick test_build_sorted_seq;
      Alcotest.test_case "range queries" `Quick test_range_queries;
      Alcotest.test_case "count_range = list length" `Quick
        test_count_range_matches_list;
      Alcotest.test_case "nth" `Quick test_nth;
      Alcotest.test_case "count_range prunes" `Slow
        test_count_range_reads_few_chunks;
      Alcotest.test_case "structural invariance (orders)" `Quick
        test_structural_invariance_orders;
      Alcotest.test_case "history independence" `Quick
        test_history_independence;
      Alcotest.test_case "universal reuse" `Slow test_universal_reuse;
      Alcotest.test_case "diff correctness" `Quick test_diff_correctness;
      Alcotest.test_case "diff prunes shared subtrees" `Slow
        test_diff_prunes_shared_subtrees;
      Alcotest.test_case "diff disjoint trees" `Quick test_diff_disjoint_trees;
      Alcotest.test_case "merge disjoint" `Quick test_merge_disjoint;
      Alcotest.test_case "merge identical edits" `Quick
        test_merge_identical_edits;
      Alcotest.test_case "merge conflict" `Quick test_merge_conflict;
      Alcotest.test_case "merge remove vs modify" `Quick
        test_merge_remove_vs_modify;
      Alcotest.test_case "merge page reuse" `Slow test_merge_page_reuse;
      Alcotest.test_case "merge conflict writes nothing" `Quick
        test_merge_conflict_writes_nothing;
      Alcotest.test_case "merge theirs in second store" `Quick
        test_merge_theirs_in_second_store;
      Alcotest.test_case "validate detects bitflip" `Quick
        test_validate_detects_bitflip;
      Alcotest.test_case "validate detects missing chunk" `Quick
        test_validate_detects_missing_chunk;
      Alcotest.test_case "corrupt raises on navigation" `Quick
        test_corrupt_exception_on_navigation;
      Alcotest.test_case "node stats" `Quick test_node_stats;
      Alcotest.test_case "node cache serves repeat reads" `Quick
        test_node_cache_serves_repeat_reads;
      Alcotest.test_case "node cache invalidated by gc" `Quick
        test_node_cache_invalidated_by_gc;
      Alcotest.test_case "node cache unit semantics" `Quick
        test_node_cache_unit;
      Alcotest.test_case "node cache admits below capacity" `Quick
        test_node_cache_admits_below_capacity;
      Alcotest.test_case "node cache scan resistant" `Quick
        test_node_cache_scan_resistant;
      Alcotest.test_case "node cache second miss admits" `Quick
        test_node_cache_second_miss_admits;
      Alcotest.test_case "node cache reset empties ghosts" `Quick
        test_node_cache_reset_empties_ghosts;
      Alcotest.test_case "node cache invalidation when full" `Quick
        test_node_cache_full_invalidation;
      Alcotest.test_case "node cache diff keeps warm path" `Quick
        test_node_cache_diff_keeps_warm_path;
      Alcotest.test_case "diff across stores" `Quick test_diff_across_stores;
      Alcotest.test_case "diff refuses non-canonical leaves" `Quick
        test_diff_refuses_noncanonical_leaves;
      Alcotest.test_case "diff refuses a flipped leaf" `Quick
        test_diff_refuses_flipped_leaf;
      Alcotest.test_case "diff counters" `Quick test_diff_counters;
      Alcotest.test_case "diff: cold reads each node once" `Quick
        test_diff_cold_reads_each_node_once;
      Alcotest.test_case "golden hashes stable" `Quick test_golden_hashes;
      Alcotest.test_case "pset basics" `Quick test_pset_basics;
      Alcotest.test_case "pset proofs" `Quick test_pset_proofs ]
