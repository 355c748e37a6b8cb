(* Hash substrate: SHA-256 against FIPS/NIST vectors, CRC-32 against its
   check value and the reference loop, Base32 against the
   RFC 4648 vectors, hex, SplitMix64 reference outputs, rolling-hash
   invariants. *)

open Fb_hash

let check = Alcotest.check
let string_ = Alcotest.string
let bool_ = Alcotest.bool
let int_ = Alcotest.int

(* ------------------------- SHA-256 ------------------------- *)

let sha_hex s = Hex.encode (Sha256.digest s)

let test_sha_empty () =
  check string_ "empty"
    "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
    (sha_hex "")

let test_sha_abc () =
  check string_ "abc"
    "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
    (sha_hex "abc")

let test_sha_448bits () =
  check string_ "two-block NIST vector"
    "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
    (sha_hex "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")

let test_sha_896bits () =
  check string_ "four-block NIST vector"
    "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1"
    (sha_hex
       "abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmno\
        ijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu")

let test_sha_million_a () =
  check string_ "one million 'a'"
    "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
    (sha_hex (String.make 1_000_000 'a'))

let test_sha_block_boundaries () =
  (* Lengths straddling the 55/56/64-byte padding edges. *)
  List.iter
    (fun n ->
      let s = String.make n 'x' in
      (* Incremental one byte at a time must equal the one-shot digest. *)
      let ctx = Sha256.init () in
      String.iter (Sha256.update_char ctx) s;
      check string_
        (Printf.sprintf "len %d incremental" n)
        (Hex.encode (Sha256.digest s))
        (Hex.encode (Sha256.finalize ctx)))
    [ 0; 1; 54; 55; 56; 57; 63; 64; 65; 119; 127; 128; 1000 ]

let test_sha_update_sub () =
  let s = "the quick brown fox jumps over the lazy dog" in
  let ctx = Sha256.init () in
  Sha256.update_sub ctx s ~pos:0 ~len:10;
  Sha256.update_sub ctx s ~pos:10 ~len:(String.length s - 10);
  check string_ "split update" (sha_hex s) (Hex.encode (Sha256.finalize ctx));
  Alcotest.check_raises "bad range" (Invalid_argument "Sha256.update_sub")
    (fun () -> Sha256.update_sub (Sha256.init ()) "abc" ~pos:2 ~len:5)

let test_sha_digest_strings () =
  check string_ "digest_strings"
    (sha_hex "foobarbaz")
    (Hex.encode (Sha256.digest_strings [ "foo"; "bar"; "baz" ]))

let test_sha_differential () =
  (* The optimized kernel against the Int32 reference oracle: random
     contents, lengths straddling block and padding edges, random
     streaming segmentation, and the bytes/finalize_into entry points. *)
  let rng = Prng.create 0xd1ffL in
  let lengths =
    [ 0; 1; 31; 55; 56; 57; 63; 64; 65; 127; 128; 129; 191; 192; 1000;
      4096; 10_000 ]
    @ List.init 40 (fun _ -> Prng.next_int rng 3000)
  in
  List.iter
    (fun n ->
      let s = String.init n (fun _ -> Char.chr (Prng.next_int rng 256)) in
      let expect = Hex.encode (Sha256_ref.digest s) in
      check string_ (Printf.sprintf "one-shot len %d" n) expect (sha_hex s);
      (* Stream through update_bytes in random-size pieces. *)
      let ctx = Sha256.init () in
      let b = Bytes.of_string s in
      let pos = ref 0 in
      while !pos < n do
        let len = min (1 + Prng.next_int rng 200) (n - !pos) in
        Sha256.update_bytes ctx b ~pos:!pos ~len;
        pos := !pos + len
      done;
      let out = Bytes.make 40 '\xaa' in
      Sha256.finalize_into ctx out ~pos:4;
      check string_
        (Printf.sprintf "streamed len %d" n)
        expect
        (Hex.encode (Bytes.sub_string out 4 32));
      (* finalize_into must not touch bytes outside [pos, pos+32). *)
      check bool_ "no write before pos" true
        (Bytes.get out 3 = '\xaa' && Bytes.get out 36 = '\xaa'))
    lengths;
  Alcotest.check_raises "update_bytes bad range"
    (Invalid_argument "Sha256.update_bytes") (fun () ->
      Sha256.update_bytes (Sha256.init ()) (Bytes.create 3) ~pos:2 ~len:5);
  Alcotest.check_raises "finalize_into bad range"
    (Invalid_argument "Sha256.finalize_into") (fun () ->
      Sha256.finalize_into (Sha256.init ()) (Bytes.create 16) ~pos:0)

(* Both block kernels: the OCaml one everywhere, the SHA-NI one where this
   CPU has it.  [Sha256.init] picks the native kernel when available. *)
let kernels =
  Sha256.init_ocaml :: (if Sha256.native then [ Sha256.init ] else [])

let nist_vectors =
  [ ("", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
    ("abc", "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
    ( "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
      "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1" );
    ( "abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmno\
       ijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu",
      "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1" );
    ( String.make 1_000_000 'a',
      "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0" ) ]

let kernel_vectors init () =
  List.iter
    (fun (msg, expect) ->
      let ctx = init () in
      Sha256.update ctx msg;
      check string_
        (Printf.sprintf "%d-byte vector" (String.length msg))
        expect
        (Hex.encode (Sha256.finalize ctx)))
    nist_vectors

let test_sha_ocaml_kernel_vectors = kernel_vectors Sha256.init_ocaml

let () =
  if not Sha256.native then
    prerr_endline
      "test_hash: this CPU has no SHA-NI; the native SHA-256 kernel is \
       skipped, the OCaml kernel is still tested"

let test_sha_native_kernel_vectors () =
  if not Sha256.native then Alcotest.skip ();
  kernel_vectors Sha256.init ()

(* One way of feeding a segment [s.[pos .. pos+len)] to a context. *)
type feed = Whole | Sub | Bytes_at of int | Chars

let feed ctx s pos len = function
  | Whole -> Sha256.update ctx (String.sub s pos len)
  | Sub -> Sha256.update_sub ctx s ~pos ~len
  | Bytes_at off ->
    (* The segment at an arbitrary offset in a larger buffer. *)
    let b = Bytes.make (off + len + 3) '\x55' in
    Bytes.blit_string s pos b off len;
    Sha256.update_bytes ctx b ~pos:off ~len
  | Chars -> String.iter (Sha256.update_char ctx) (String.sub s pos len)

(* A 0-5,000 byte string and a feeding plan: sorted cut points (biased
   towards block boundaries) and a feed per segment. *)
let mix_arb =
  let open QCheck.Gen in
  let gen =
    int_range 0 5000 >>= fun n ->
    string_size ~gen:char (return n) >>= fun s ->
    let cut =
      oneof
        [ int_range 0 n;
          map (fun k -> min n (64 * k)) (int_range 0 ((n / 64) + 1)) ]
    in
    list_size (int_range 0 12) cut >>= fun cuts ->
    let segs = List.sort_uniq compare ((0 :: cuts) @ [ n ]) in
    let feed_gen =
      frequency
        [ (3, return Whole); (3, return Sub);
          (3, map (fun o -> Bytes_at o) (int_range 0 70)); (1, return Chars) ]
    in
    list_repeat (List.length segs) feed_gen >|= fun feeds -> (s, segs, feeds)
  in
  let print (s, segs, _) =
    Printf.sprintf "len %d, cuts [%s]" (String.length s)
      (String.concat "; " (List.map string_of_int segs))
  in
  QCheck.make ~print gen

let kernels_agree (s, segs, feeds) =
  let expect = Sha256_ref.digest s in
  List.for_all
    (fun init ->
      let ctx = init () in
      let rec go segs feeds =
        match (segs, feeds) with
        | a :: (b :: _ as rest), f :: feeds ->
          feed ctx s a (b - a) f;
          go rest feeds
        | _ -> ()
      in
      go segs feeds;
      String.equal (Sha256.finalize ctx) expect)
    kernels

(* ------------------------- Hex ------------------------- *)

let test_hex_roundtrip () =
  let s = String.init 256 Char.chr in
  check string_ "roundtrip" s (Hex.decode_exn (Hex.encode s));
  check string_ "known" "00ff10" (Hex.encode "\x00\xff\x10")

let test_hex_errors () =
  check bool_ "odd length" true (Result.is_error (Hex.decode "abc"));
  check bool_ "bad char" true (Result.is_error (Hex.decode "zz"));
  check bool_ "uppercase ok" true (Hex.decode "AB" = Ok "\xab")

(* ------------------------- Base32 ------------------------- *)

(* RFC 4648 §10 test vectors. *)
let rfc4648_vectors =
  [ ("", "");
    ("f", "MY======");
    ("fo", "MZXQ====");
    ("foo", "MZXW6===");
    ("foob", "MZXW6YQ=");
    ("fooba", "MZXW6YTB");
    ("foobar", "MZXW6YTBOI======") ]

let test_base32_rfc () =
  List.iter
    (fun (plain, encoded) ->
      check string_ ("encode " ^ plain) encoded (Base32.encode plain);
      check string_ ("decode " ^ encoded) plain (Base32.decode_exn encoded))
    rfc4648_vectors

let test_base32_no_pad_and_lowercase () =
  check string_ "no padding accepted" "foobar" (Base32.decode_exn "MZXW6YTBOI");
  check string_ "lowercase accepted" "foobar" (Base32.decode_exn "mzxw6ytboi");
  check string_ "encode unpadded" "MZXW6YTBOI" (Base32.encode ~pad:false "foobar")

let test_base32_errors () =
  check bool_ "bad char" true (Result.is_error (Base32.decode "M1======"));
  check bool_ "truncated" true (Result.is_error (Base32.decode "M"));
  check bool_ "non-canonical bits" true (Result.is_error (Base32.decode "MZ"))

(* ------------------------- Prng ------------------------- *)

let test_prng_deterministic () =
  let a = Prng.create 123L and b = Prng.create 123L in
  for _ = 1 to 100 do
    check bool_ "same stream" true (Prng.next_int64 a = Prng.next_int64 b)
  done

let test_prng_reference () =
  (* SplitMix64 reference output for seed 1234567, cross-computed from the
     public-domain reference algorithm. *)
  let rng = Prng.create 1234567L in
  check string_ "first" "599ed017fb08fc85"
    (Printf.sprintf "%Lx" (Prng.next_int64 rng))

let test_prng_bounds () =
  let rng = Prng.create 5L in
  for _ = 1 to 1000 do
    let v = Prng.next_int rng 17 in
    check bool_ "in range" true (v >= 0 && v < 17);
    let f = Prng.next_float rng in
    check bool_ "float range" true (f >= 0.0 && f < 1.0)
  done;
  Alcotest.check_raises "bad bound"
    (Invalid_argument "Prng.next_int: bound must be positive") (fun () ->
      ignore (Prng.next_int rng 0))

let test_prng_split () =
  let a = Prng.create 99L in
  let b = Prng.split a in
  check bool_ "split independent" true (Prng.next_int64 a <> Prng.next_int64 b)

(* ------------------------- Rolling ------------------------- *)

let test_rolling_window_dependence () =
  (* The state after feeding a long prefix must equal the state after
     feeding only the last [window] bytes: boundaries depend on local
     content only. *)
  let params = Rolling.default_node_params in
  let rng = Prng.create 31L in
  let s = String.init 4096 (fun _ -> Char.chr (Prng.next_int rng 256)) in
  let suffix = String.sub s (4096 - params.window) params.window in
  let t1 = Rolling.create params in
  let h1 = Rolling.feed_string t1 s in
  ignore h1;
  let t2 = Rolling.create params in
  ignore (Rolling.feed_string t2 suffix);
  (* Compare by extending both with the same probe bytes and checking hit
     agreement for many probes. *)
  let probes = String.init 512 (fun _ -> Char.chr (Prng.next_int rng 256)) in
  String.iter
    (fun c ->
      check bool_ "same hit decisions" (Rolling.feed t2 c) (Rolling.feed t1 c))
    probes

let test_rolling_hit_rate () =
  let params = Rolling.default_node_params in
  let rng = Prng.create 77L in
  let n = 1_000_000 in
  let s = String.init n (fun _ -> Char.chr (Prng.next_int rng 256)) in
  let hits = List.length (Rolling.hits_in params s) in
  let expected = n / (1 lsl params.q) in
  check bool_
    (Printf.sprintf "hit rate %d ~ %d" hits expected)
    true
    (hits > expected / 2 && hits < expected * 2)

let test_rolling_reset () =
  let params = Rolling.default_node_params in
  let t = Rolling.create params in
  ignore (Rolling.feed_string t "some bytes to pollute the state");
  Rolling.reset t;
  let t' = Rolling.create params in
  let probe = String.init 256 (fun i -> Char.chr ((i * 37) land 0xff)) in
  String.iter
    (fun c -> check bool_ "reset = fresh" (Rolling.feed t' c) (Rolling.feed t c))
    probe

let test_rolling_validation () =
  Alcotest.check_raises "window >= 1"
    (Invalid_argument "Rolling.create: window must be >= 1") (fun () ->
      ignore (Rolling.create { Rolling.window = 0; q = 10 }));
  Alcotest.check_raises "q range"
    (Invalid_argument "Rolling.create: q must be in [1, 30]") (fun () ->
      ignore (Rolling.create { Rolling.window = 8; q = 31 }))

(* ------------------------- Hash module ------------------------- *)

let test_hash_module () =
  let h = Hash.of_string "hello" in
  check int_ "size" 32 (String.length (Hash.to_raw h));
  check bool_ "hex roundtrip" true (Hash.of_hex (Hash.to_hex h) = Ok h);
  check bool_ "base32 roundtrip" true (Hash.of_base32 (Hash.to_base32 h) = Ok h);
  check bool_ "of_strings" true
    (Hash.equal (Hash.of_strings [ "he"; "llo" ]) h);
  check bool_ "of_raw" true (Hash.of_raw (Hash.to_raw h) = Ok h);
  check bool_ "of_raw bad" true (Result.is_error (Hash.of_raw "short"));
  check int_ "short len" 12 (String.length (Hash.short h));
  check bool_ "compare consistent" true
    (Hash.compare h (Hash.of_string "hello") = 0)

let test_hash_tbl () =
  let tbl = Hash.Tbl.create 16 in
  let hs = List.init 100 (fun i -> Hash.of_string (string_of_int i)) in
  List.iteri (fun i h -> Hash.Tbl.replace tbl h i) hs;
  List.iteri
    (fun i h -> check bool_ "tbl find" true (Hash.Tbl.find_opt tbl h = Some i))
    hs

(* ------------------------- CRC-32 ------------------------- *)

let test_crc_known () =
  check int_ "empty" 0 (Crc32.string "");
  check int_ "check value" 0xCBF43926 (Crc32.string "123456789");
  let zeros = String.make (1 lsl 20) '\000' in
  check int_ "1 MiB of zeros = reference" (Crc32_ref.string zeros)
    (Crc32.string zeros);
  check int_ "1 MiB of zeros" 0xA738EA1C (Crc32.string zeros)

(* Every out-of-range [pos]/[len] is refused before the C kernel runs. *)
let test_crc_bounds () =
  let s = "0123456789abcdef" in
  let b = Bytes.of_string s in
  let n = String.length s in
  let raises name f =
    match f () with
    | _ -> Alcotest.failf "%s: no Invalid_argument" name
    | exception Invalid_argument _ -> ()
  in
  List.iter
    (fun (pos, len) ->
      let name = Printf.sprintf "pos %d len %d" pos len in
      raises ("string " ^ name) (fun () -> Crc32.update_sub 0 s ~pos ~len);
      raises ("bytes " ^ name) (fun () -> Crc32.update_bytes_sub 0 b ~pos ~len))
    [ (-1, 1); (0, -1); (0, n + 1); (n, 1); (n + 1, 0); (1, n);
      (max_int, 1); (1, max_int); (max_int, max_int); (min_int, 0) ];
  (* The edges that are in range still work. *)
  check int_ "empty at end" 0 (Crc32.update_sub 0 s ~pos:n ~len:0);
  check int_ "whole" (Crc32.string s) (Crc32.update_bytes_sub 0 b ~pos:0 ~len:n)

(* A 0-4 KiB buffer, a range inside it (any start, so unaligned words),
   and a split point inside the range. *)
let crc_arb =
  let open QCheck.Gen in
  let gen =
    int_range 0 4096 >>= fun n ->
    string_size ~gen:char (return n) >>= fun s ->
    int_range 0 n >>= fun pos ->
    int_range 0 (n - pos) >>= fun len ->
    int_range 0 len >|= fun cut -> (s, pos, len, cut)
  in
  let print (s, pos, len, cut) =
    Printf.sprintf "buffer %d, pos %d, len %d, cut %d" (String.length s) pos
      len cut
  in
  QCheck.make ~print gen

let crc_cases =
  let open QCheck in
  [ Test.make ~name:"crc32 = reference oracle" ~count:500 crc_arb
      (fun (s, pos, len, _) ->
        let b = Bytes.of_string s in
        let expect = Crc32_ref.update_sub 0 s ~pos ~len in
        Crc32.update_sub 0 s ~pos ~len = expect
        && Crc32.update_bytes_sub 0 b ~pos ~len = expect
        && Crc32.update_sub 0x12345678 s ~pos ~len
           = Crc32_ref.update_sub 0x12345678 s ~pos ~len);
    Test.make ~name:"crc32 chained = one-shot" ~count:300 crc_arb
      (fun (s, pos, len, cut) ->
        let first = Crc32.update_sub Crc32.empty s ~pos ~len:cut in
        Crc32.update_sub first s ~pos:(pos + cut) ~len:(len - cut)
        = Crc32.string (String.sub s pos len)) ]

(* ------------------------- properties ------------------------- *)

let qcheck_cases =
  let open QCheck in
  [ Test.make ~name:"hex roundtrip" ~count:200 (string_gen Gen.char)
      (fun s -> Hex.decode (Hex.encode s) = Ok s);
    Test.make ~name:"base32 roundtrip (padded)" ~count:200
      (string_gen Gen.char)
      (fun s -> Base32.decode (Base32.encode s) = Ok s);
    Test.make ~name:"base32 roundtrip (unpadded)" ~count:200
      (string_gen Gen.char)
      (fun s -> Base32.decode (Base32.encode ~pad:false s) = Ok s);
    Test.make ~name:"sha256 incremental = one-shot" ~count:100
      (pair (string_gen Gen.char) (string_gen Gen.char))
      (fun (a, b) ->
        let ctx = Sha256.init () in
        Sha256.update ctx a;
        Sha256.update ctx b;
        String.equal (Sha256.finalize ctx) (Sha256.digest (a ^ b)));
    Test.make ~name:"sha256 = reference oracle" ~count:200
      (string_gen Gen.char)
      (fun s -> String.equal (Sha256.digest s) (Sha256_ref.digest s));
    Test.make ~name:"sha256 kernels = reference under update mixes"
      ~count:300 mix_arb kernels_agree;
    Test.make ~name:"rolling: feed_string = per-byte feed" ~count:200
      (pair (list (string_gen Gen.char)) (int_range 0 1_000_000))
      (fun (segments, seed) ->
        (* Same byte stream, arbitrary segmentation: the fused fast path
           must report the same per-segment hits and leave the roller in
           the same state as feeding every byte through [feed].  Small
           window/q so patterns actually fire on short inputs. *)
        ignore seed;
        let params = { Rolling.window = 5; q = 4 } in
        let fast = Rolling.create params in
        let slow = Rolling.create params in
        List.for_all
          (fun seg ->
            let hf = Rolling.feed_string fast seg in
            let hs = ref false in
            String.iter (fun c -> if Rolling.feed slow c then hs := true) seg;
            hf = !hs && Rolling.fingerprint fast = Rolling.fingerprint slow)
          segments);
    Test.make ~name:"rolling: feed_sub = feed_string of the sub-string"
      ~count:200
      (triple (string_gen Gen.char) small_nat small_nat)
      (fun (s, a, b) ->
        let params = { Rolling.window = 5; q = 4 } in
        let off = min a (String.length s) in
        let len = min b (String.length s - off) in
        let t1 = Rolling.create params and t2 = Rolling.create params in
        Rolling.feed_sub t1 s off len
        = Rolling.feed_string t2 (String.sub s off len)
        && Rolling.fingerprint t1 = Rolling.fingerprint t2);
    Test.make ~name:"rolling: hits depend only on trailing window"
      ~count:100
      (pair (string_gen Gen.char) small_string)
      (fun (prefix, tail) ->
        let params = { Rolling.window = 8; q = 6 } in
        (* Hits inside [tail] beyond the window must agree no matter the
           prefix, once at least window bytes of tail have been seen. *)
        let hits_with p =
          let t = Rolling.create params in
          ignore (Rolling.feed_string t p);
          let acc = ref [] in
          String.iteri (fun i c -> if Rolling.feed t c then acc := i :: !acc) tail;
          List.filter (fun i -> i >= params.window) !acc
        in
        hits_with prefix = hits_with "")
  ]

let suite =
  List.map (fun t -> QCheck_alcotest.to_alcotest t) (qcheck_cases @ crc_cases)
  @ [ Alcotest.test_case "sha256 empty" `Quick test_sha_empty;
      Alcotest.test_case "sha256 abc" `Quick test_sha_abc;
      Alcotest.test_case "sha256 448-bit vector" `Quick test_sha_448bits;
      Alcotest.test_case "sha256 896-bit vector" `Quick test_sha_896bits;
      Alcotest.test_case "sha256 million a" `Slow test_sha_million_a;
      Alcotest.test_case "sha256 OCaml kernel NIST vectors" `Quick
        test_sha_ocaml_kernel_vectors;
      Alcotest.test_case "sha256 native kernel NIST vectors" `Quick
        test_sha_native_kernel_vectors;
      Alcotest.test_case "sha256 block boundaries" `Quick
        test_sha_block_boundaries;
      Alcotest.test_case "sha256 update_sub" `Quick test_sha_update_sub;
      Alcotest.test_case "sha256 digest_strings" `Quick
        test_sha_digest_strings;
      Alcotest.test_case "sha256 differential vs reference" `Quick
        test_sha_differential;
      Alcotest.test_case "crc32 known answers" `Quick test_crc_known;
      Alcotest.test_case "crc32 out-of-range pos/len" `Quick test_crc_bounds;
      Alcotest.test_case "hex roundtrip" `Quick test_hex_roundtrip;
      Alcotest.test_case "hex errors" `Quick test_hex_errors;
      Alcotest.test_case "base32 rfc vectors" `Quick test_base32_rfc;
      Alcotest.test_case "base32 relaxed decode" `Quick
        test_base32_no_pad_and_lowercase;
      Alcotest.test_case "base32 errors" `Quick test_base32_errors;
      Alcotest.test_case "prng deterministic" `Quick test_prng_deterministic;
      Alcotest.test_case "prng reference" `Quick test_prng_reference;
      Alcotest.test_case "prng bounds" `Quick test_prng_bounds;
      Alcotest.test_case "prng split" `Quick test_prng_split;
      Alcotest.test_case "rolling window dependence" `Quick
        test_rolling_window_dependence;
      Alcotest.test_case "rolling hit rate" `Slow test_rolling_hit_rate;
      Alcotest.test_case "rolling reset" `Quick test_rolling_reset;
      Alcotest.test_case "rolling validation" `Quick test_rolling_validation;
      Alcotest.test_case "hash module" `Quick test_hash_module;
      Alcotest.test_case "hash table" `Quick test_hash_tbl ]
