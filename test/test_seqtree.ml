(* Sequence POS-Trees: content-defined blob chunking and positional
   lists. *)

module Pblob = Fb_postree.Pblob
module Plist = Fb_postree.Plist
module Store = Fb_chunk.Store
module Mem_store = Fb_chunk.Mem_store
module Hash = Fb_hash.Hash
module Prng = Fb_hash.Prng

let check = Alcotest.check
let bool_ = Alcotest.bool
let int_ = Alcotest.int
let string_ = Alcotest.string

let random_text ?(seed = 5L) n =
  let rng = Prng.create seed in
  String.init n (fun _ -> Char.chr (32 + Prng.next_int rng 95))

let blob_roots_equal a b = Option.equal Hash.equal (Pblob.root a) (Pblob.root b)
let list_roots_equal a b = Option.equal Hash.equal (Plist.root a) (Plist.root b)

(* ---------------- Pblob ---------------- *)

let test_blob_empty () =
  let store = Mem_store.create () in
  let b = Pblob.of_string store "" in
  check bool_ "empty" true (Pblob.is_empty b);
  check int_ "length" 0 (Pblob.length b);
  check string_ "to_string" "" (Pblob.to_string b);
  check bool_ "validate" true (Pblob.validate b = Ok ());
  check bool_ "self diff" true (Pblob.diff b b = None)

let test_blob_roundtrip () =
  let store = Mem_store.create () in
  List.iter
    (fun n ->
      let s = random_text ~seed:(Int64.of_int n) n in
      let b = Pblob.of_string store s in
      check int_ ("length " ^ string_of_int n) n (Pblob.length b);
      check bool_ ("roundtrip " ^ string_of_int n) true
        (String.equal (Pblob.to_string b) s);
      check bool_ "validate" true (Pblob.validate b = Ok ()))
    [ 1; 100; 5000; 100_000 ]

let test_blob_read () =
  let store = Mem_store.create () in
  let s = random_text 50_000 in
  let b = Pblob.of_string store s in
  check string_ "middle" (String.sub s 20_000 100) (Pblob.read b ~pos:20_000 ~len:100);
  check string_ "start" (String.sub s 0 10) (Pblob.read b ~pos:0 ~len:10);
  check string_ "end" (String.sub s 49_990 10) (Pblob.read b ~pos:49_990 ~len:10);
  check string_ "empty read" "" (Pblob.read b ~pos:123 ~len:0);
  Alcotest.check_raises "oob" (Invalid_argument "Pblob.read: range out of bounds")
    (fun () -> ignore (Pblob.read b ~pos:49_999 ~len:2))

let test_blob_determinism () =
  let store = Mem_store.create () in
  let s = random_text 30_000 in
  let b1 = Pblob.of_string store s in
  let b2 = Pblob.of_string store s in
  check bool_ "same root" true (blob_roots_equal b1 b2);
  (* The second build stored zero new physical chunks. *)
  let before = (Store.stats store).Store.physical_chunks in
  let _ = Pblob.of_string store s in
  check int_ "all dedup" before (Store.stats store).Store.physical_chunks

let test_blob_splice_equals_rebuild () =
  let store = Mem_store.create () in
  let s = random_text 80_000 in
  let cases =
    [ (0, 0, "front-insert");         (* prepend *)
      (40_000, 5, "middle-replace");  (* replace *)
      (80_000, 0, "tail-append");     (* append *)
      (10_000, 3000, "");             (* pure delete *)
      (0, 80_000, "total rewrite") ]  (* replace everything *)
  in
  List.iter
    (fun (pos, remove, insert) ->
      let b = Pblob.of_string store s in
      let expected =
        String.sub s 0 pos ^ insert
        ^ String.sub s (pos + remove) (String.length s - pos - remove)
      in
      let spliced = Pblob.splice b ~pos ~remove ~insert in
      check bool_
        (Printf.sprintf "splice(%d,%d) bit-identical" pos remove)
        true
        (blob_roots_equal spliced (Pblob.of_string store expected));
      check bool_ "content" true
        (String.equal (Pblob.to_string spliced) expected);
      check bool_ "validate" true (Pblob.validate spliced = Ok ()))
    cases

let test_blob_splice_oob () =
  let store = Mem_store.create () in
  let b = Pblob.of_string store "0123456789" in
  Alcotest.check_raises "oob"
    (Invalid_argument "Pblob.splice: range out of bounds") (fun () ->
      ignore (Pblob.splice b ~pos:8 ~remove:5 ~insert:""))

let test_blob_splice_locality () =
  (* A one-word edit in a large blob creates only a handful of chunks. *)
  let store = Mem_store.create () in
  let s = random_text 500_000 in
  let b = Pblob.of_string store s in
  let before = (Store.stats store).Store.physical_chunks in
  let b' = Pblob.splice b ~pos:250_000 ~remove:4 ~insert:"WORD" in
  let created = (Store.stats store).Store.physical_chunks - before in
  check bool_ (Printf.sprintf "created %d <= 8" created) true (created <= 8);
  check bool_ "content intact" true
    (String.length (Pblob.to_string b') = 500_000)

let test_blob_append () =
  let store = Mem_store.create () in
  let b = Pblob.of_string store "hello " in
  let b = Pblob.append b "world" in
  check string_ "appended" "hello world" (Pblob.to_string b)

let test_blob_diff () =
  let store = Mem_store.create () in
  let s = random_text 200_000 in
  let b1 = Pblob.of_string store s in
  let b2 = Pblob.splice b1 ~pos:100_000 ~remove:10 ~insert:"0123456789AB" in
  (match Pblob.diff b1 b2 with
   | None -> Alcotest.fail "expected a diff"
   | Some d ->
     (* Chunk-aligned window containing the edit; it must be local. *)
     check bool_ "old window contains edit" true
       (d.Pblob.old_pos <= 100_000 && d.Pblob.old_pos + d.Pblob.old_len >= 100_010);
     check bool_ "length delta" true
       (d.Pblob.new_len - d.Pblob.old_len = 2);
     check bool_ "window local" true (d.Pblob.old_len < 200_000 / 4));
  check bool_ "equal blobs" true (Pblob.diff b1 b1 = None)

let test_blob_chunk_sizes () =
  let store = Mem_store.create () in
  let b = Pblob.of_string store (random_text 400_000) in
  let sizes = Pblob.leaf_sizes b in
  let mean =
    float_of_int (List.fold_left ( + ) 0 sizes) /. float_of_int (List.length sizes)
  in
  (* Expected ~4096 (q = 12). *)
  check bool_ (Printf.sprintf "mean chunk %.0f" mean) true
    (mean > 1000.0 && mean < 16000.0)

let test_blob_tamper_detection () =
  let store, handle = Mem_store.create_with_handle () in
  let b = Pblob.of_string store (random_text 50_000) in
  let victim = List.nth (Pblob.node_hashes b) 2 in
  ignore
    (Mem_store.tamper handle victim ~f:(fun s ->
         let bs = Bytes.of_string s in
         Bytes.set bs (Bytes.length bs - 1) 'X';
         Bytes.to_string bs));
  check bool_ "tamper detected" true (Result.is_error (Pblob.validate b))

(* ---------------- Plist ---------------- *)

let mk_items n = List.init n (fun i -> Printf.sprintf "item-%05d:%d" i (i * i mod 911))

let test_list_empty () =
  let store = Mem_store.create () in
  let l = Plist.of_list store [] in
  check bool_ "empty" true (Plist.is_empty l);
  check int_ "length" 0 (Plist.length l);
  check bool_ "get" true (Plist.get l 0 = None);
  check bool_ "validate" true (Plist.validate l = Ok ())

let test_list_roundtrip () =
  let store = Mem_store.create () in
  let items = mk_items 10_000 in
  let l = Plist.of_list store items in
  check int_ "length" 10_000 (Plist.length l);
  check bool_ "to_list" true (Plist.to_list l = items);
  check bool_ "get 0" true (Plist.get l 0 = Some (List.hd items));
  check bool_ "get mid" true (Plist.get l 5000 = Some (List.nth items 5000));
  check bool_ "get last" true (Plist.get l 9999 = Some (List.nth items 9999));
  check bool_ "get oob" true (Plist.get l 10_000 = None);
  check bool_ "get negative" true (Plist.get l (-1) = None);
  check bool_ "validate" true (Plist.validate l = Ok ())

let test_list_empty_elements () =
  (* Zero-length elements are legal. *)
  let store = Mem_store.create () in
  let items = [ ""; "a"; ""; ""; "b" ] in
  let l = Plist.of_list store items in
  check bool_ "roundtrip" true (Plist.to_list l = items);
  check bool_ "get empty" true (Plist.get l 2 = Some "")

let test_list_splice_equals_rebuild () =
  let store = Mem_store.create () in
  let items = mk_items 5000 in
  let l = Plist.of_list store items in
  let cases =
    [ (0, 0, [ "front" ]);
      (2500, 1, [ "replaced" ]);
      (5000, 0, [ "appended"; "twice" ]);
      (1000, 500, []);
      (0, 5000, [ "everything"; "replaced" ]) ]
  in
  List.iter
    (fun (pos, remove, insert) ->
      let expected =
        List.filteri (fun i _ -> i < pos) items
        @ insert
        @ List.filteri (fun i _ -> i >= pos + remove) items
      in
      let spliced = Plist.splice l ~pos ~remove ~insert in
      check bool_
        (Printf.sprintf "splice(%d,%d) bit-identical" pos remove)
        true
        (list_roots_equal spliced (Plist.of_list store expected));
      check bool_ "validate" true (Plist.validate spliced = Ok ()))
    cases

let test_list_set_push () =
  let store = Mem_store.create () in
  let l = Plist.of_list store [ "a"; "b"; "c" ] in
  let l2 = Plist.set l 1 "B" in
  check bool_ "set" true (Plist.to_list l2 = [ "a"; "B"; "c" ]);
  let l3 = Plist.push_back l2 "d" in
  check bool_ "push" true (Plist.to_list l3 = [ "a"; "B"; "c"; "d" ]);
  Alcotest.check_raises "set oob" (Invalid_argument "Plist.set: out of bounds")
    (fun () -> ignore (Plist.set l 3 "x"))

let test_list_diff () =
  let store = Mem_store.create () in
  let items = mk_items 8000 in
  let l1 = Plist.of_list store items in
  let l2 = Plist.set l1 4000 "REPLACED" in
  (match Plist.diff l1 l2 with
   | None -> Alcotest.fail "expected diff"
   | Some d ->
     check int_ "old_pos" 4000 d.Plist.old_pos;
     check int_ "old_len" 1 d.Plist.old_len;
     check int_ "new_len" 1 d.Plist.new_len);
  check bool_ "self" true (Plist.diff l1 l1 = None);
  (* Insertion shifts. *)
  let l3 = Plist.splice l1 ~pos:100 ~remove:0 ~insert:[ "x"; "y" ] in
  match Plist.diff l1 l3 with
  | None -> Alcotest.fail "expected diff"
  | Some d ->
    check int_ "insert old_len" 0 d.Plist.old_len;
    check int_ "insert new_len" 2 d.Plist.new_len;
    check int_ "insert pos" 100 d.Plist.old_pos

let test_list_order_sensitivity () =
  (* Unlike maps, lists are positional: different orders are different
     lists with different roots. *)
  let store = Mem_store.create () in
  let l1 = Plist.of_list store [ "a"; "b" ] in
  let l2 = Plist.of_list store [ "b"; "a" ] in
  check bool_ "order matters" false (list_roots_equal l1 l2)

let qcheck_cases =
  let open QCheck in
  [ Test.make ~name:"blob: of_string/to_string roundtrip" ~count:50
      (string_gen_of_size (Gen.int_range 0 5000) Gen.char)
      (fun s ->
        let store = Mem_store.create () in
        String.equal (Pblob.to_string (Pblob.of_string store s)) s);
    Test.make ~name:"blob: splice = rebuild" ~count:50
      (quad
         (string_gen_of_size (Gen.int_range 0 3000) Gen.char)
         (int_bound 3000) (int_bound 500)
         (string_gen_of_size (Gen.int_range 0 200) Gen.char))
      (fun (s, pos, remove, insert) ->
        let store = Mem_store.create () in
        let pos = min pos (String.length s) in
        let remove = min remove (String.length s - pos) in
        let b = Pblob.of_string store s in
        let expected =
          String.sub s 0 pos ^ insert
          ^ String.sub s (pos + remove) (String.length s - pos - remove)
        in
        Option.equal Hash.equal
          (Pblob.root (Pblob.splice b ~pos ~remove ~insert))
          (Pblob.root (Pblob.of_string store expected)));
    Test.make ~name:"list: splice = rebuild" ~count:50
      (quad
         (list_of_size (Gen.int_range 0 200) (string_gen_of_size (Gen.int_range 0 12) Gen.printable))
         (int_bound 200) (int_bound 50)
         (list_of_size (Gen.int_range 0 20) (string_gen_of_size (Gen.int_range 0 12) Gen.printable)))
      (fun (items, pos, remove, insert) ->
        let store = Mem_store.create () in
        let n = List.length items in
        let pos = min pos n in
        let remove = min remove (n - pos) in
        let l = Plist.of_list store items in
        let expected =
          List.filteri (fun i _ -> i < pos) items
          @ insert
          @ List.filteri (fun i _ -> i >= pos + remove) items
        in
        Option.equal Hash.equal
          (Plist.root (Plist.splice l ~pos ~remove ~insert))
          (Plist.root (Plist.of_list store expected)))
  ]

(* ---------------- oracle properties ----------------

   Random edit scripts over both instances, against the model (strings
   and OCaml lists) and against the replaced diff and merge
   ([Seqtree_ref]).  Contents come from a seeded generator in four size
   classes: empty, a leaf or two, one index level, several index levels.
   Blob bytes come from a two-letter, a 26-letter or the full byte
   alphabet (small alphabets make trimming ambiguous); list items mix
   ["="], newlines and empty strings into generated ones. *)

module Ref = Seqtree_ref

type edit = { at : int; remove : int; insert : int * int (* length, seed *) }

(* Model application: [at] is reduced into the current sequence. *)
let apply_edit ~sub ~len ~concat ~make s e =
  let n = len s in
  let pos = e.at mod (n + 1) in
  let remove = min e.remove (n - pos) in
  (pos, remove, make e.insert,
   concat [ sub s 0 pos; make e.insert; sub s (pos + remove) (n - pos - remove) ])

let gen_edit ~max_remove =
  QCheck.Gen.(
    map3
      (fun at remove insert -> { at; remove; insert })
      (int_bound 1_000_000) (int_bound max_remove)
      (pair (int_bound 24) (int_bound 1_000_000)))

let gen_case ~classes =
  QCheck.Gen.(
    let* size = oneof (List.map (fun (lo, hi) -> int_range lo hi) classes) in
    let* alpha = oneofl [ 2; 26; 256 ] and* seed = int_bound 1_000_000 in
    let script = list_size (int_range 1 3) (gen_edit ~max_remove:40) in
    let* ours = script and* theirs = script in
    return (size, alpha, seed, ours, theirs))

let print_case (size, alpha, seed, ours, theirs) =
  let pe e =
    Printf.sprintf "(%d,-%d,+%d#%d)" e.at e.remove (fst e.insert) (snd e.insert)
  in
  Printf.sprintf "size=%d alpha=%d seed=%d ours=%s theirs=%s" size alpha seed
    (String.concat "" (List.map pe ours))
    (String.concat "" (List.map pe theirs))

let text ~alpha (n, seed) =
  let rng = Prng.create (Int64.of_int seed) in
  let byte () =
    if alpha = 256 then Prng.next_int rng 256 else 97 + Prng.next_int rng alpha
  in
  String.init n (fun _ -> Char.chr (byte ()))

let items (n, seed) =
  let rng = Prng.create (Int64.of_int seed) in
  List.init n (fun _ ->
      match Prng.next_int rng 8 with
      | 0 -> ""
      | 1 -> "="
      | 2 -> "\n"
      | 3 -> "k=v\nw"
      | _ -> Printf.sprintf "item-%d" (Prng.next_int rng 1000))

(* Byte-exact reference diff: the replaced diff's chunk window with equal
   bytes trimmed from both ends. *)
let trim_blob_diff s1 s2 (r : Pblob.range_diff) =
  let m1 = String.sub s1 r.old_pos r.old_len
  and m2 = String.sub s2 r.new_pos r.new_len in
  let l1 = r.old_len and l2 = r.new_len in
  let rec pre i = if i < l1 && i < l2 && m1.[i] = m2.[i] then pre (i + 1) else i in
  let p = pre 0 in
  let rec suf k =
    if l1 - 1 - k >= p && l2 - 1 - k >= p && m1.[l1 - 1 - k] = m2.[l2 - 1 - k]
    then suf (k + 1)
    else k
  in
  let k = suf 0 in
  { Pblob.old_pos = r.old_pos + p; old_len = l1 - p - k;
    new_pos = r.new_pos + p; new_len = l2 - p - k }

(* Model merge over strings: both sides' byte-exact replacements applied
   to base, ours first where they touch; [None] if they overlap. *)
let model_blob_merge base ours theirs a b =
  match (a : Pblob.range_diff option), (b : Pblob.range_diff option) with
  | None, _ -> Some theirs
  | _, None -> Some ours
  | Some a, Some b ->
    let rep s (d : Pblob.range_diff) = String.sub s d.new_pos d.new_len in
    let ( first, frep ), ( second, srep ) =
      if a.old_pos + a.old_len <= b.old_pos then
        ((a, rep ours a), (b, rep theirs b))
      else ((b, rep theirs b), (a, rep ours a))
    in
    if first.old_pos + first.old_len > second.old_pos then None
    else
      let fend = first.old_pos + first.old_len
      and send = second.old_pos + second.old_len in
      Some
        (String.concat ""
           [ String.sub base 0 first.old_pos; frep;
             String.sub base fend (second.old_pos - fend); srep;
             String.sub base send (String.length base - send) ])

let blob_classes = [ (0, 0); (1, 3000); (10_000, 60_000); (300_000, 400_000) ]
let list_classes = [ (0, 0); (1, 40); (300, 3000); (18_000, 24_000) ]

let blob_of_script store ~alpha s script =
  List.fold_left
    (fun (b, s) e ->
      let pos, remove, insert, s' =
        apply_edit ~sub:String.sub ~len:String.length ~concat:(String.concat "")
          ~make:(text ~alpha) s e
      in
      (Pblob.splice b ~pos ~remove ~insert, s'))
    (Pblob.of_string store s, s) script

let list_sub l pos len = List.filteri (fun i _ -> i >= pos && i < pos + len) l

let list_of_script store l script =
  List.fold_left
    (fun (t, l) e ->
      let pos, remove, insert, l' =
        apply_edit ~sub:list_sub ~len:List.length ~concat:List.concat
          ~make:items l e
      in
      (Plist.splice t ~pos ~remove ~insert, l'))
    (Plist.of_list store l, l) script

let flip_one proof k =
  let victim = k mod List.length proof in
  List.mapi
    (fun i raw ->
      if i <> victim then raw
      else
        let b = Bytes.of_string raw in
        let at = k mod Bytes.length b in
        Bytes.set b at (Char.chr (Char.code (Bytes.get b at) lxor 1));
        Bytes.to_string b)
    proof

let oracle_cases =
  let open QCheck in
  let blob_case = make ~print:print_case (gen_case ~classes:blob_classes) in
  let list_case = make ~print:print_case (gen_case ~classes:list_classes) in
  [ Test.make ~count:40 blob_case
      ~name:"blob: spliced scripts = rebuild, diff = trimmed reference"
      (fun (size, alpha, seed, ours, _) ->
        let store = Mem_store.create () in
        let base = text ~alpha (size, seed) in
        let b = Pblob.of_string store base in
        let o, os = blob_of_script store ~alpha base ours in
        blob_roots_equal o (Pblob.of_string store os)
        && Pblob.validate o = Ok ()
        && Pblob.diff b o
           = Option.map (trim_blob_diff base os) (Ref.blob_diff b o));
    Test.make ~count:40 list_case
      ~name:"list: spliced scripts = rebuild, diff = reference"
      (fun (size, _, seed, ours, _) ->
        let store = Mem_store.create () in
        let base = items (size, seed) in
        let l = Plist.of_list store base in
        let o, ol = list_of_script store base ours in
        list_roots_equal o (Plist.of_list store ol)
        && Plist.validate o = Ok ()
        && Plist.diff l o = Ref.list_diff l o);
    Test.make ~count:40 blob_case
      ~name:"blob: merge = model, = reference where it merges"
      (fun (size, alpha, seed, ours, theirs) ->
        let store = Mem_store.create () in
        let base = text ~alpha (size, seed) in
        let b = Pblob.of_string store base in
        let o, os = blob_of_script store ~alpha base ours in
        let t, ts = blob_of_script store ~alpha base theirs in
        let da = Pblob.diff b o and db = Pblob.diff b t in
        let model = model_blob_merge base os ts da db in
        let got = Pblob.merge ~base:b ~ours:o ~theirs:t in
        (* Two pure insertions at one offset: the replaced merge ordered
           them by its chunk windows, the rule puts ours first. *)
        let tie =
          match da, db with
          | Some a, Some b ->
            a.old_len = 0 && b.old_len = 0 && a.old_pos = b.old_pos
          | _ -> false
        in
        (match got, model with
         | Ok m, Some s -> blob_roots_equal m (Pblob.of_string store s)
         | Error _, None -> true
         | _ -> false)
        && (match Ref.merge_blobs ~base:b ~ours:o ~theirs:t, got with
            | Some r, Ok m -> tie || blob_roots_equal r m
            | Some _, Error _ -> false
            | None, _ -> true));
    Test.make ~name:"list: merge = reference" ~count:40 list_case
      (fun (size, _, seed, ours, theirs) ->
        let store = Mem_store.create () in
        let l = Plist.of_list store (items (size, seed)) in
        let o, _ = list_of_script store (Plist.to_list l) ours in
        let t, _ = list_of_script store (Plist.to_list l) theirs in
        match
          ( Plist.merge ~base:l ~ours:o ~theirs:t,
            Ref.merge_lists ~base:l ~ours:o ~theirs:t )
        with
        | Ok m, Some r -> list_roots_equal m r
        | Error _, None -> true
        | _ -> false);
    Test.make ~name:"proofs verify, one flipped byte is refused" ~count:40
      (pair blob_case (int_bound 1_000_000)) (fun ((size, alpha, seed, _, _), k) ->
        let store = Mem_store.create () in
        let s = text ~alpha (size, seed) in
        let b = Pblob.of_string store s in
        let l = Plist.of_list store (items (size / 50, seed)) in
        let n = String.length s in
        let pos = k mod (n + 1) in
        let len = min (n - pos) (k mod 9000) in
        let blob_ok =
          match Pblob.root b with
          | None -> Result.is_error (Pblob.prove b ~pos ~len)
          | Some root ->
            let proof = Result.get_ok (Pblob.prove b ~pos ~len) in
            Pblob.verify_proof ~root ~pos ~len proof = Ok (String.sub s pos len)
            && Result.is_error
                 (Pblob.verify_proof ~root ~pos ~len (flip_one proof k))
        in
        let list_ok =
          match Plist.root l with
          | None -> Result.is_error (Plist.prove l 0)
          | Some root ->
            let i = k mod (Plist.length l + 2) in
            let proof = Result.get_ok (Plist.prove l i) in
            Plist.verify_proof ~root i proof = Ok (Plist.get l i)
            && Result.is_error (Plist.verify_proof ~root i (flip_one proof k))
        in
        blob_ok && list_ok) ]

(* Two edits in one chunk that touch no common byte: the replaced merge's
   chunk-aligned windows overlap and conflict; the byte-exact rule
   merges. *)
let test_blob_merge_within_chunk () =
  let store = Mem_store.create () in
  let s = random_text 20_000 in
  let b = Pblob.of_string store s in
  let o = Pblob.splice b ~pos:100 ~remove:4 ~insert:"OURS" in
  let t = Pblob.splice b ~pos:120 ~remove:6 ~insert:"THEIRS" in
  check bool_ "same leaf" true (List.hd (Pblob.leaf_sizes b) > 130);
  check bool_ "reference conflicts" true
    (Ref.merge_blobs ~base:b ~ours:o ~theirs:t = None);
  let expected =
    String.sub s 0 100 ^ "OURS" ^ String.sub s 104 16 ^ "THEIRS"
    ^ String.sub s 126 (20_000 - 126)
  in
  match Pblob.merge ~base:b ~ours:o ~theirs:t with
  | Ok m ->
    check bool_ "merged bytes" true (String.equal (Pblob.to_string m) expected);
    check bool_ "canonical" true
      (blob_roots_equal m (Pblob.of_string store expected))
  | Error _ -> Alcotest.fail "byte-disjoint edits must merge"

(* A three-way merge of a 200k-element list with a one-element edit per
   side reads a few leaves, not every leaf of theirs.  The node cache is
   off so every read reaches the counting store. *)
let test_list_merge_reads_few_leaves () =
  let module FB = Fb_core.Forkbase in
  let module Value = Fb_types.Value in
  let leaf_reads = ref 0 in
  let inner = Mem_store.create () in
  let store =
    { inner with
      Store.get =
        (fun h ->
          let c = inner.Store.get h in
          (match c with
           | Some { Fb_chunk.Chunk.kind = Leaf_list; _ } -> incr leaf_reads
           | _ -> ());
          c) }
  in
  let ok = function
    | Ok v -> v
    | Error e -> Alcotest.fail (Fb_core.Errors.to_string e)
  in
  let fb = FB.create store in
  let l = Plist.of_list store (List.init 200_000 (Printf.sprintf "element-%06d")) in
  ignore (ok (FB.put fb ~key:"l" (Value.List l)));
  ignore (ok (FB.fork fb ~key:"l" ~new_branch:"dev"));
  ignore (ok (FB.put fb ~key:"l" (Value.List (Plist.set l 1_000 "OURS"))));
  let theirs = Plist.set l 150_000 "THEIRS" in
  ignore (ok (FB.put fb ~branch:"dev" ~key:"l" (Value.List theirs)));
  Fb_postree.Node_cache.set_capacity_all 0;
  Fun.protect
    ~finally:(fun () ->
      Fb_postree.Node_cache.set_capacity_all Fb_postree.Node_cache.default_capacity)
    (fun () ->
      leaf_reads := 0;
      ignore (ok (FB.merge fb ~key:"l" ~into:"master" ~from_branch:"dev"));
      let reads = !leaf_reads and leaves = Plist.chunk_count l in
      check bool_
        (Printf.sprintf "%d leaf reads < 5%% of %d leaves" reads leaves)
        true
        (reads * 20 < leaves));
  match Value.to_list (ok (FB.get fb ~key:"l")) with
  | Some m ->
    check bool_ "both edits" true
      (Plist.get m 1_000 = Some "OURS" && Plist.get m 150_000 = Some "THEIRS")
  | None -> Alcotest.fail "merged value is not a list"

let suite =
  List.map QCheck_alcotest.to_alcotest (qcheck_cases @ oracle_cases)
  @ [ Alcotest.test_case "blob: byte-disjoint edits in one chunk merge" `Quick
        test_blob_merge_within_chunk;
      Alcotest.test_case "list merge reads a few leaves" `Quick
        test_list_merge_reads_few_leaves;
      Alcotest.test_case "blob empty" `Quick test_blob_empty;
      Alcotest.test_case "blob roundtrip" `Quick test_blob_roundtrip;
      Alcotest.test_case "blob read" `Quick test_blob_read;
      Alcotest.test_case "blob determinism" `Quick test_blob_determinism;
      Alcotest.test_case "blob splice = rebuild" `Quick
        test_blob_splice_equals_rebuild;
      Alcotest.test_case "blob splice oob" `Quick test_blob_splice_oob;
      Alcotest.test_case "blob splice locality" `Slow
        test_blob_splice_locality;
      Alcotest.test_case "blob append" `Quick test_blob_append;
      Alcotest.test_case "blob diff" `Quick test_blob_diff;
      Alcotest.test_case "blob chunk sizes" `Quick test_blob_chunk_sizes;
      Alcotest.test_case "blob tamper detection" `Quick
        test_blob_tamper_detection;
      Alcotest.test_case "list empty" `Quick test_list_empty;
      Alcotest.test_case "list roundtrip" `Quick test_list_roundtrip;
      Alcotest.test_case "list empty elements" `Quick
        test_list_empty_elements;
      Alcotest.test_case "list splice = rebuild" `Quick
        test_list_splice_equals_rebuild;
      Alcotest.test_case "list set/push" `Quick test_list_set_push;
      Alcotest.test_case "list diff" `Quick test_list_diff;
      Alcotest.test_case "list order sensitivity" `Quick
        test_list_order_sensitivity ]
