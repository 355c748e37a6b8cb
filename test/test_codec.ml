(* Binary codec: roundtrips, canonical-form enforcement, truncation and
   garbage rejection. *)

open Fb_codec

let check = Alcotest.check
let bool_ = Alcotest.bool
let int_ = Alcotest.int
let string_ = Alcotest.string

let roundtrip enc dec v = Codec.of_string dec (Codec.to_string enc v)

let test_varint_values () =
  List.iter
    (fun v ->
      check bool_ (string_of_int v) true
        (roundtrip Codec.varint Codec.read_varint v = Ok v))
    [ 0; 1; 127; 128; 255; 256; 16383; 16384; 1 lsl 20; 1 lsl 40; max_int ]

let test_varint_encoding_bytes () =
  check string_ "0" "\x00" (Codec.to_string Codec.varint 0);
  check string_ "127" "\x7f" (Codec.to_string Codec.varint 127);
  check string_ "128" "\x80\x01" (Codec.to_string Codec.varint 128);
  check string_ "300" "\xac\x02" (Codec.to_string Codec.varint 300)

let test_varint_negative () =
  Alcotest.check_raises "negative" (Invalid_argument "Codec.varint: negative")
    (fun () -> ignore (Codec.to_string Codec.varint (-1)))

let test_varint_non_minimal () =
  (* 0x80 0x00 is a non-minimal zero. *)
  check bool_ "non-minimal rejected" true
    (Result.is_error (Codec.of_string Codec.read_varint "\x80\x00"))

let test_varint_truncated () =
  check bool_ "truncated" true
    (Result.is_error (Codec.of_string Codec.read_varint "\x80"))

(* The refusals, word for word: truncation, a non-minimal encoding, more
   than nine bytes, and nine bytes past [max_int]. *)
let test_varint_refusals () =
  List.iter
    (fun (name, input, expect) ->
      check (Alcotest.result Alcotest.int string_) name (Error expect)
        (Codec.of_string Codec.read_varint input))
    [ ("truncated", "\x80", "truncated input: need 1 bytes at offset 1, have 0");
      ("non-minimal", "\x80\x00", "non-minimal varint");
      ("ten bytes", String.make 9 '\xff' ^ "\x01", "varint overflow");
      ("past max_int", String.make 8 '\xff' ^ "\x7f", "varint overflow") ]

let test_zigzag () =
  List.iter
    (fun v ->
      check bool_ (string_of_int v) true
        (roundtrip Codec.zigzag Codec.read_zigzag v = Ok v))
    [ 0; -1; 1; -64; 64; min_int / 2; max_int / 2; -1000000; 1000000 ]

let test_fixed_width () =
  List.iter
    (fun v ->
      check bool_ (Int64.to_string v) true
        (roundtrip Codec.i64 Codec.read_i64 v = Ok v))
    [ 0L; 1L; -1L; Int64.max_int; Int64.min_int; 0x0123456789abcdefL ];
  List.iter
    (fun v ->
      check bool_ (string_of_float v) true
        (roundtrip Codec.f64 Codec.read_f64 v = Ok v))
    [ 0.0; -0.0; 1.5; -3.25; infinity; neg_infinity; 1e300; Float.min_float ];
  (* NaN round-trips bit-exactly. *)
  (match roundtrip Codec.f64 Codec.read_f64 nan with
   | Ok v -> check bool_ "nan" true (Float.is_nan v)
   | Error _ -> Alcotest.fail "nan roundtrip")

let test_bool () =
  check bool_ "true" true (roundtrip Codec.bool Codec.read_bool true = Ok true);
  check bool_ "false" true
    (roundtrip Codec.bool Codec.read_bool false = Ok false);
  check bool_ "bad byte" true
    (Result.is_error (Codec.of_string Codec.read_bool "\x02"))

let test_bytes () =
  List.iter
    (fun s ->
      check bool_ "bytes" true
        (roundtrip Codec.bytes Codec.read_bytes s = Ok s))
    [ ""; "a"; String.make 1000 'x'; "\x00\xff" ]

let test_list () =
  let enc w l = Codec.list w Codec.bytes l in
  let dec r = Codec.read_list r Codec.read_bytes in
  List.iter
    (fun l -> check bool_ "list" true (roundtrip enc dec l = Ok l))
    [ []; [ "a" ]; [ "x"; ""; "yy" ]; List.init 100 string_of_int ];
  (* A huge claimed count must not allocate. *)
  check bool_ "hostile count" true
    (Result.is_error (Codec.of_string dec "\xff\xff\xff\xff\x07"))

let test_trailing_garbage () =
  check bool_ "trailing" true
    (Result.is_error (Codec.of_string Codec.read_u8 "\x01\x02"))

let test_hash_codec () =
  let h = Fb_hash.Hash.of_string "x" in
  check bool_ "hash roundtrip" true
    (roundtrip Codec.hash Codec.read_hash h = Ok h)

let test_reader_positions () =
  let r = Codec.reader "\x01\x02\x03" in
  check int_ "pos0" 0 (Codec.pos r);
  ignore (Codec.read_u8 r);
  check int_ "pos1" 1 (Codec.pos r);
  check int_ "remaining" 2 (Codec.remaining r);
  ignore (Codec.read_raw r 2);
  Codec.expect_end r

(* An encoder touching every writer primitive. *)
let enc_fields w (n, z, s, i, xs) =
  Codec.varint w n;
  Codec.zigzag w z;
  Codec.bytes w s;
  Codec.i64 w i;
  Codec.f64 w (Int64.to_float i);
  Codec.bool w (n land 1 = 0);
  Codec.u8 w (n land 0xff);
  Codec.raw w s;
  Codec.list w Codec.bytes xs

let fields_gen =
  QCheck.Gen.(
    map
      (fun ((n, z), (s, i, xs)) -> (n, z, s, i, xs))
      (pair
         (pair (int_bound max_int) int)
         (triple (string_size (0 -- 300)) ui64
            (list_size (0 -- 5) (string_size (0 -- 40))))))

let test_exact_writer_misuse () =
  let raises name f =
    check bool_ name true
      (match f () with _ -> false | exception Invalid_argument _ -> true)
  in
  raises "write past the end" (fun () ->
      let w = Codec.exact 1 in
      Codec.u8 w 1;
      Codec.u8 w 2);
  raises "blit past the end" (fun () -> Codec.raw (Codec.exact 2) "abc");
  raises "contents before full" (fun () -> Codec.contents (Codec.exact 1));
  raises "contents of a counter" (fun () -> Codec.contents (Codec.counter ()))

let qcheck_cases =
  let open QCheck in
  [ Test.make ~name:"varint roundtrip" ~count:500 (int_bound max_int)
      (fun v -> roundtrip Codec.varint Codec.read_varint v = Ok v);
    Test.make ~name:"zigzag roundtrip" ~count:500 int (fun v ->
        roundtrip Codec.zigzag Codec.read_zigzag v = Ok v);
    Test.make ~name:"bytes roundtrip" ~count:500 (string_gen Gen.char)
      (fun s -> roundtrip Codec.bytes Codec.read_bytes s = Ok s);
    Test.make ~name:"counter and exact writers agree with the growable one"
      ~count:300 (make fields_gen) (fun v ->
        let grown =
          let w = Codec.writer ~initial_size:1 () in
          enc_fields w v;
          Codec.contents w
        in
        let count = Codec.counter () in
        enc_fields count v;
        let w = Codec.exact (Codec.length count) in
        enc_fields w v;
        Codec.length count = String.length grown
        && String.equal (Codec.contents w) grown
        && String.equal (Codec.to_string enc_fields v) grown);
    Test.make ~name:"decoder never raises on garbage" ~count:500
      (string_gen Gen.char)
      (fun s ->
        (* Any input either decodes or errors; no exceptions escape. *)
        match
          Codec.of_string
            (fun r ->
              let _ = Codec.read_varint r in
              let _ = Codec.read_bytes r in
              Codec.read_list r Codec.read_bytes)
            s
        with
        | Ok _ | Error _ -> true)
  ]

let suite =
  List.map QCheck_alcotest.to_alcotest qcheck_cases
  @ [ Alcotest.test_case "varint values" `Quick test_varint_values;
      Alcotest.test_case "varint encoding" `Quick test_varint_encoding_bytes;
      Alcotest.test_case "varint negative" `Quick test_varint_negative;
      Alcotest.test_case "varint non-minimal" `Quick test_varint_non_minimal;
      Alcotest.test_case "varint truncated" `Quick test_varint_truncated;
      Alcotest.test_case "varint refusals" `Quick test_varint_refusals;
      Alcotest.test_case "zigzag" `Quick test_zigzag;
      Alcotest.test_case "fixed width" `Quick test_fixed_width;
      Alcotest.test_case "bool" `Quick test_bool;
      Alcotest.test_case "bytes" `Quick test_bytes;
      Alcotest.test_case "list" `Quick test_list;
      Alcotest.test_case "trailing garbage" `Quick test_trailing_garbage;
      Alcotest.test_case "hash" `Quick test_hash_codec;
      Alcotest.test_case "reader positions" `Quick test_reader_positions;
      Alcotest.test_case "exact writer misuse" `Quick test_exact_writer_misuse ]
