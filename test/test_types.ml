(* Value model: primitives, CSV, schema, table, value descriptors. *)

module Primitive = Fb_types.Primitive
module Csv = Fb_types.Csv
module Schema = Fb_types.Schema
module Table = Fb_types.Table
module Value = Fb_types.Value
module Mem_store = Fb_chunk.Mem_store

let check = Alcotest.check
let bool_ = Alcotest.bool
let int_ = Alcotest.int
let string_ = Alcotest.string

(* ---------------- primitives ---------------- *)

let prim_roundtrip p =
  Fb_codec.Codec.of_string Primitive.decode
    (Fb_codec.Codec.to_string Primitive.encode p)
  = Ok p

let test_primitive_roundtrip () =
  List.iter
    (fun p -> check bool_ "roundtrip" true (prim_roundtrip p))
    [ Primitive.Null; Primitive.Bool true; Primitive.Bool false;
      Primitive.Int 0L; Primitive.Int Int64.min_int;
      Primitive.Int Int64.max_int; Primitive.Float 3.25;
      Primitive.Float (-0.0); Primitive.String ""; Primitive.String "héllo" ]

let test_primitive_parse () =
  check bool_ "null" true (Primitive.parse "" = Primitive.Null);
  check bool_ "true" true (Primitive.parse "true" = Primitive.Bool true);
  check bool_ "false" true (Primitive.parse "false" = Primitive.Bool false);
  check bool_ "int" true (Primitive.parse "42" = Primitive.Int 42L);
  check bool_ "negative int" true (Primitive.parse "-7" = Primitive.Int (-7L));
  check bool_ "float" true (Primitive.parse "2.5" = Primitive.Float 2.5);
  check bool_ "exp float" true (Primitive.parse "1e3" = Primitive.Float 1000.0);
  check bool_ "string" true (Primitive.parse "hello" = Primitive.String "hello");
  check bool_ "nan stays string" true
    (Primitive.parse "nan" = Primitive.String "nan");
  check bool_ "leading zero int ok" true (Primitive.parse "007" = Primitive.Int 7L)

let test_primitive_to_string_parse () =
  (* to_string then parse is the identity for cleanly-rendered values. *)
  List.iter
    (fun p ->
      check bool_ "print/parse" true (Primitive.parse (Primitive.to_string p) = p))
    [ Primitive.Null; Primitive.Bool true; Primitive.Int 123L;
      Primitive.Float 0.125; Primitive.String "word" ]

let test_primitive_compare () =
  check bool_ "int order" true
    (Primitive.compare (Primitive.Int 1L) (Primitive.Int 2L) < 0);
  check bool_ "cross-type stable" true
    (Primitive.compare Primitive.Null (Primitive.String "x") < 0);
  check bool_ "equal" true
    (Primitive.equal (Primitive.Float 1.5) (Primitive.Float 1.5))

(* ---------------- CSV ---------------- *)

let test_csv_simple () =
  check bool_ "basic" true
    (Csv.parse "a,b\n1,2\n" = Ok [ [ "a"; "b" ]; [ "1"; "2" ] ]);
  check bool_ "no trailing newline" true
    (Csv.parse "a,b\n1,2" = Ok [ [ "a"; "b" ]; [ "1"; "2" ] ]);
  check bool_ "crlf" true
    (Csv.parse "a,b\r\n1,2\r\n" = Ok [ [ "a"; "b" ]; [ "1"; "2" ] ]);
  check bool_ "empty cells" true (Csv.parse ",\n" = Ok [ [ ""; "" ] ]);
  check bool_ "empty doc" true (Csv.parse "" = Ok [])

let test_csv_quoting () =
  check bool_ "quoted comma" true
    (Csv.parse "\"a,b\",c\n" = Ok [ [ "a,b"; "c" ] ]);
  check bool_ "escaped quote" true
    (Csv.parse "\"say \"\"hi\"\"\"\n" = Ok [ [ "say \"hi\"" ] ]);
  check bool_ "embedded newline" true
    (Csv.parse "\"line1\nline2\",x\n" = Ok [ [ "line1\nline2"; "x" ] ]);
  check bool_ "unterminated" true (Result.is_error (Csv.parse "\"oops"));
  check bool_ "stray quote" true (Result.is_error (Csv.parse "ab\"c\n"));
  check bool_ "garbage after quote" true (Result.is_error (Csv.parse "\"a\"b\n"))

let test_csv_render_roundtrip () =
  let rows =
    [ [ "id"; "name"; "notes" ];
      [ "1"; "has,comma"; "has \"quotes\"" ];
      [ "2"; "multi\nline"; "" ] ]
  in
  check bool_ "roundtrip" true (Csv.parse (Csv.render rows) = Ok rows);
  check string_ "render row" "a,\"b,c\"\n" (Csv.render [ [ "a"; "b,c" ] ])

(* ---------------- schema ---------------- *)

let col name ty = { Schema.name; ty }

let test_schema_validation () =
  check bool_ "ok" true (Result.is_ok (Schema.v [ col "id" Schema.T_int ]));
  check bool_ "empty" true (Result.is_error (Schema.v []));
  check bool_ "dup names" true
    (Result.is_error (Schema.v [ col "x" Schema.T_int; col "x" Schema.T_int ]));
  check bool_ "bad key idx" true
    (Result.is_error (Schema.v ~key_column:5 [ col "id" Schema.T_int ]))

let test_schema_roundtrip () =
  let s =
    Schema.v_exn ~key_column:1
      [ col "a" Schema.T_string; col "b" Schema.T_int; col "c" Schema.T_float;
        col "d" Schema.T_bool; col "e" Schema.T_any ]
  in
  let decoded =
    Fb_codec.Codec.of_string Schema.decode
      (Fb_codec.Codec.to_string Schema.encode s)
  in
  (match decoded with
   | Ok s' -> check bool_ "equal" true (Schema.equal s s')
   | Error e -> Alcotest.fail e);
  check string_ "key name" "b" (Schema.key_name s);
  check bool_ "column_index" true (Schema.column_index s "c" = Some 2);
  check bool_ "column_index missing" true (Schema.column_index s "zz" = None)

let test_schema_check_row () =
  let s = Schema.v_exn [ col "id" Schema.T_int; col "name" Schema.T_string ] in
  check bool_ "good row" true
    (Schema.check_row s [ Primitive.Int 1L; Primitive.String "x" ] = Ok ());
  check bool_ "null non-key ok" true
    (Schema.check_row s [ Primitive.Int 1L; Primitive.Null ] = Ok ());
  check bool_ "null key rejected" true
    (Result.is_error (Schema.check_row s [ Primitive.Null; Primitive.String "x" ]));
  check bool_ "wrong arity" true
    (Result.is_error (Schema.check_row s [ Primitive.Int 1L ]));
  check bool_ "wrong type" true
    (Result.is_error
       (Schema.check_row s [ Primitive.String "1"; Primitive.String "x" ]));
  (* Ints are acceptable in float columns. *)
  let sf = Schema.v_exn [ col "v" Schema.T_float ] in
  check bool_ "int in float col" true
    (Schema.check_row sf [ Primitive.Int 2L ] = Ok ())

let test_schema_infer () =
  let rows =
    [ [ Primitive.Int 1L; Primitive.String "a"; Primitive.Float 0.5 ];
      [ Primitive.Int 2L; Primitive.Null; Primitive.Int 3L ] ]
  in
  let joined = Array.make 3 None in
  List.iter (List.iteri (Schema.join_cell joined)) rows;
  let s = Result.get_ok (Schema.of_types ~header:[ "id"; "s"; "mix" ] joined) in
  let tys = List.map (fun c -> c.Schema.ty) (s.Schema.columns :> Schema.column list) in
  check bool_ "types" true (tys = [ Schema.T_int; Schema.T_string; Schema.T_float ]);
  Schema.join_cell joined 1 (Primitive.Bool true);
  check bool_ "mixed is any" true (joined.(1) = Some Schema.T_any);
  check bool_ "duplicate names" true
    (Schema.of_types ~header:[ "a"; "a" ] [| None; None |] = Error "schema: duplicate column names")

(* ---------------- table ---------------- *)

let sample_schema () =
  Schema.v_exn
    [ col "id" Schema.T_int; col "name" Schema.T_string; col "qty" Schema.T_int ]

let row id name qty =
  [ Primitive.Int (Int64.of_int id); Primitive.String name;
    Primitive.Int (Int64.of_int qty) ]

let test_table_crud () =
  let store = Mem_store.create () in
  let t = Table.create store (sample_schema ()) in
  check int_ "empty" 0 (Table.cardinal t);
  let t = Table.insert_exn t (row 1 "apple" 10) in
  let t = Table.insert_exn t (row 2 "banana" 20) in
  check int_ "two rows" 2 (Table.cardinal t);
  check bool_ "find" true (Table.find t "1" = Some (row 1 "apple" 10));
  check bool_ "mem" true (Table.mem t "2");
  (* Upsert. *)
  let t = Table.insert_exn t (row 1 "apple" 99) in
  check int_ "still two" 2 (Table.cardinal t);
  check bool_ "updated" true (Table.find t "1" = Some (row 1 "apple" 99));
  let t = Table.delete t "1" in
  check int_ "one left" 1 (Table.cardinal t);
  check bool_ "gone" true (Table.find t "1" = None);
  check bool_ "bad row rejected" true
    (Result.is_error (Table.insert t [ Primitive.Int 1L ]))

let test_table_select_project () =
  let store = Mem_store.create () in
  let t = Table.create store (sample_schema ()) in
  let t =
    List.fold_left Table.insert_exn t
      [ row 1 "apple" 10; row 2 "banana" 20; row 3 "cherry" 30 ]
  in
  let big =
    Table.select t (fun r ->
        match List.nth r 2 with Primitive.Int q -> q > 15L | _ -> false)
  in
  check int_ "select" 2 (List.length big);
  (match Table.project t [ "name" ] with
   | Ok cells ->
     check bool_ "project" true
       (cells
        = [ [ Primitive.String "apple" ]; [ Primitive.String "banana" ];
            [ Primitive.String "cherry" ] ])
   | Error e -> Alcotest.fail e);
  check bool_ "project missing col" true (Result.is_error (Table.project t [ "zz" ]))

let test_table_diff () =
  let store = Mem_store.create () in
  let t = Table.create store (sample_schema ()) in
  let t1 =
    List.fold_left Table.insert_exn t
      [ row 1 "apple" 10; row 2 "banana" 20; row 3 "cherry" 30 ]
  in
  let t2 = Table.insert_exn (Table.delete t1 "3") (row 2 "banana" 25) in
  let t2 = Table.insert_exn t2 (row 4 "durian" 5) in
  match Table.diff t1 t2 with
  | Error e -> Alcotest.fail e
  | Ok changes ->
    check int_ "changes" 3 (List.length changes);
    let modified =
      List.find_map
        (function Table.Row_modified (k, cs) -> Some (k, cs) | _ -> None)
        changes
    in
    (match modified with
     | Some ("2", [ c ]) ->
       check string_ "column" "qty" c.Table.column;
       check bool_ "before" true (c.Table.before = Primitive.Int 20L);
       check bool_ "after" true (c.Table.after = Primitive.Int 25L)
     | _ -> Alcotest.fail "expected row 2 with one cell change")

let test_table_diff_schema_mismatch () =
  let store = Mem_store.create () in
  let t1 = Table.create store (sample_schema ()) in
  let t2 =
    Table.create store (Schema.v_exn [ col "other" Schema.T_string ])
  in
  check bool_ "schemas differ" true (Result.is_error (Table.diff t1 t2))

let test_table_stat () =
  let store = Mem_store.create () in
  let t = Table.create store (sample_schema ()) in
  let t =
    List.fold_left Table.insert_exn t
      [ row 1 "apple" 10; row 2 "banana" 20;
        [ Primitive.Int 3L; Primitive.Null; Primitive.Int 10L ] ]
  in
  let stats = Table.stat t in
  check int_ "columns" 3 (List.length stats);
  let qty = List.nth stats 2 in
  check int_ "values" 3 qty.Table.values;
  check int_ "distinct" 2 qty.Table.distinct;
  check bool_ "min" true (qty.Table.min = Some (Primitive.Int 10L));
  check bool_ "max" true (qty.Table.max = Some (Primitive.Int 20L));
  let name = List.nth stats 1 in
  check int_ "nulls" 1 name.Table.nulls

let test_table_migrate () =
  let store = Mem_store.create () in
  let t = Table.create store (sample_schema ()) in
  let t =
    List.fold_left Table.insert_exn t [ row 1 "apple" 10; row 2 "banana" 20 ]
  in
  match
    Table.migrate t
      [ Table.Add_column ({ Schema.name = "origin"; ty = Schema.T_string },
                          Primitive.String "unknown");
        Table.Rename_column ("qty", "stock");
        Table.Drop_column ("name") ]
  with
  | Error e -> Alcotest.fail e
  | Ok t' ->
    check bool_ "columns" true
      (Schema.column_names (Table.schema t') = [ "id"; "stock"; "origin" ]);
    check int_ "rows kept" 2 (Table.cardinal t');
    check bool_ "row contents" true
      (Table.find t' "1"
       = Some [ Primitive.Int 1L; Primitive.Int 10L; Primitive.String "unknown" ]);
    (* Errors. *)
    check bool_ "drop key" true
      (Result.is_error (Table.migrate t [ Table.Drop_column "id" ]));
    check bool_ "drop unknown" true
      (Result.is_error (Table.migrate t [ Table.Drop_column "zz" ]));
    check bool_ "add duplicate" true
      (Result.is_error
         (Table.migrate t
            [ Table.Add_column ({ Schema.name = "id"; ty = Schema.T_int },
                                Primitive.Int 0L) ]));
    check bool_ "bad default type" true
      (Result.is_error
         (Table.migrate t
            [ Table.Add_column ({ Schema.name = "n"; ty = Schema.T_int },
                                Primitive.String "not an int") ]));
    check bool_ "rename collision" true
      (Result.is_error
         (Table.migrate t [ Table.Rename_column ("name", "qty") ]));
    (* Renaming the key column keeps it the key. *)
    (match Table.migrate t [ Table.Rename_column ("id", "pk") ] with
     | Ok t'' ->
       check bool_ "key renamed" true
         (Schema.key_name (Table.schema t'') = "pk");
       check bool_ "rows intact" true (Table.find t'' "2" <> None)
     | Error e -> Alcotest.fail e)

let test_table_csv_roundtrip () =
  let store = Mem_store.create () in
  let csv = "id,name,qty\n1,apple,10\n2,banana,20\n3,cherry,30\n" in
  match Table.of_csv store csv with
  | Error e -> Alcotest.fail e
  | Ok t ->
    check int_ "rows" 3 (Table.cardinal t);
    check string_ "roundtrip" csv (Table.to_csv t);
    (* Import of the export is stable. *)
    (match Table.of_csv store (Table.to_csv t) with
     | Ok t' ->
       check bool_ "stable root" true
         (Option.equal Fb_hash.Hash.equal (Table.rows_root t) (Table.rows_root t'))
     | Error e -> Alcotest.fail e)

let test_table_csv_errors () =
  let store = Mem_store.create () in
  check bool_ "empty" true (Result.is_error (Table.of_csv store ""));
  check bool_ "ragged row" true
    (Result.is_error (Table.of_csv store "a,b\n1\n"));
  check bool_ "bad csv" true (Result.is_error (Table.of_csv store "\"x\n"))

(* ---------------- value descriptors ---------------- *)

let test_value_descriptor_roundtrip () =
  let store = Mem_store.create () in
  let values =
    [ Value.string "hello"; Value.int 42; Value.bool true; Value.float 2.5;
      Value.Primitive Primitive.Null;
      Value.blob_of_string store (String.make 10_000 'b');
      Value.map_of_bindings store [ ("k1", "v1"); ("k2", "v2") ];
      Value.set_of_elements store [ "a"; "b" ];
      Value.list_of_strings store [ "x"; "y"; "z" ] ]
  in
  List.iter
    (fun v ->
      match Value.of_descriptor store (Value.descriptor v) with
      | Ok v' -> check bool_ (Value.type_name v) true (Value.equal v v')
      | Error e -> Alcotest.fail e)
    values

let test_value_table_descriptor () =
  let store = Mem_store.create () in
  match Table.of_csv store "id,v\n1,a\n2,b\n" with
  | Error e -> Alcotest.fail e
  | Ok t -> (
    let v = Value.Table t in
    match Value.of_descriptor store (Value.descriptor v) with
    | Ok (Value.Table t') ->
      check bool_ "schema kept" true
        (Schema.equal (Table.schema t) (Table.schema t'));
      check bool_ "rows kept" true (Table.to_rows t' = Table.to_rows t)
    | Ok _ -> Alcotest.fail "wrong kind"
    | Error e -> Alcotest.fail e)

let test_value_equality_is_content () =
  let store = Mem_store.create () in
  let m1 = Value.map_of_bindings store [ ("a", "1"); ("b", "2") ] in
  let m2 = Value.map_of_bindings store [ ("b", "2"); ("a", "1") ] in
  check bool_ "order-insensitive" true (Value.equal m1 m2);
  let m3 = Value.map_of_bindings store [ ("a", "1") ] in
  check bool_ "different content" false (Value.equal m1 m3)

let test_value_roots () =
  let store = Mem_store.create () in
  check bool_ "primitive no roots" true (Value.roots (Value.int 5) = []);
  let m = Value.map_of_bindings store [ ("a", "1") ] in
  check int_ "map one root" 1 (List.length (Value.roots m));
  check bool_ "descriptor roots agree" true
    (Value.roots_of_descriptor (Value.descriptor m) = Ok (Value.roots m));
  check bool_ "bad descriptor" true
    (Result.is_error (Value.roots_of_descriptor "\xff\xffgarbage"))

let qcheck_cases =
  let open QCheck in
  let cell = Gen.oneof [
    Gen.return Primitive.Null;
    Gen.map (fun b -> Primitive.Bool b) Gen.bool;
    Gen.map (fun i -> Primitive.Int (Int64.of_int i)) Gen.int;
    Gen.map (fun s -> Primitive.String s) (Gen.string_size ~gen:Gen.printable (Gen.int_range 0 10));
  ] in
  [ Test.make ~name:"primitive codec roundtrip" ~count:300 (make cell)
      prim_roundtrip;
    Test.make ~name:"csv render/parse roundtrip" ~count:100
      (list_of_size (Gen.int_range 1 10)
         (list_of_size (Gen.int_range 1 6)
            (string_gen_of_size (Gen.int_range 0 12) Gen.char)))
      (fun rows ->
        (* Rows of equal nonzero arity roundtrip exactly. *)
        Csv.parse (Csv.render rows) = Ok rows)
  ]

let suite =
  List.map QCheck_alcotest.to_alcotest qcheck_cases
  @ [ Alcotest.test_case "primitive roundtrip" `Quick test_primitive_roundtrip;
      Alcotest.test_case "primitive parse" `Quick test_primitive_parse;
      Alcotest.test_case "primitive print/parse" `Quick
        test_primitive_to_string_parse;
      Alcotest.test_case "primitive compare" `Quick test_primitive_compare;
      Alcotest.test_case "csv simple" `Quick test_csv_simple;
      Alcotest.test_case "csv quoting" `Quick test_csv_quoting;
      Alcotest.test_case "csv render roundtrip" `Quick
        test_csv_render_roundtrip;
      Alcotest.test_case "schema validation" `Quick test_schema_validation;
      Alcotest.test_case "schema roundtrip" `Quick test_schema_roundtrip;
      Alcotest.test_case "schema check_row" `Quick test_schema_check_row;
      Alcotest.test_case "schema infer" `Quick test_schema_infer;
      Alcotest.test_case "table crud" `Quick test_table_crud;
      Alcotest.test_case "table select/project" `Quick
        test_table_select_project;
      Alcotest.test_case "table diff" `Quick test_table_diff;
      Alcotest.test_case "table diff schema mismatch" `Quick
        test_table_diff_schema_mismatch;
      Alcotest.test_case "table stat" `Quick test_table_stat;
      Alcotest.test_case "table migrate" `Quick test_table_migrate;
      Alcotest.test_case "table csv roundtrip" `Quick test_table_csv_roundtrip;
      Alcotest.test_case "table csv errors" `Quick test_table_csv_errors;
      Alcotest.test_case "value descriptor roundtrip" `Quick
        test_value_descriptor_roundtrip;
      Alcotest.test_case "value table descriptor" `Quick
        test_value_table_descriptor;
      Alcotest.test_case "value content equality" `Quick
        test_value_equality_is_content;
      Alcotest.test_case "value roots" `Quick test_value_roots ]
