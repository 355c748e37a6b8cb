(* The one-pass CSV table import and export against the two-pass reference
   (Csv_ref): same rows, same roots, same errors in the same order, the
   same text apart from float spellings, and an export that re-imports to
   the table it came from. *)

module Primitive = Fb_types.Primitive
module Csv = Fb_types.Csv
module Schema = Fb_types.Schema
module Table = Fb_types.Table
module Value = Fb_types.Value
module Mem_store = Fb_chunk.Mem_store
module Pmap = Fb_postree.Pmap

let check = Alcotest.check
let bool_ = Alcotest.bool
let string_ = Alcotest.string

(* A table's identity: its schema and rows root, as a version stores them. *)
let root t = Value.descriptor (Value.Table t)

(* The reference refuses duplicate header names by raising. *)
let ref_of_csv store ?key_column doc =
  try Csv_ref.of_csv store ?key_column doc with Invalid_argument e -> Error e

(* What [to_csv] must print: the reference rendering, with each float
   spelled so that it parses back to itself. *)
let float_spelling f =
  if f = Float.infinity then "1e999"
  else if f = Float.neg_infinity then "-1e999"
  else
    let s = Primitive.to_string (Primitive.Float f) in
    if String.exists (fun c -> c = '.' || c = 'e' || c = 'n') s then s else s ^ ".0"

let expected_csv t =
  let spell = function Primitive.Float f -> float_spelling f | p -> Primitive.to_string p in
  Csv_ref.Csv.render
    (Schema.column_names (Table.schema t) :: List.map (List.map spell) (Table.to_rows t))

let has_float t =
  List.exists (List.exists (function Primitive.Float _ -> true | _ -> false)) (Table.to_rows t)

let show = function Ok t -> "Ok " ^ Table.to_csv t | Error e -> "Error " ^ e

(* ---------------- random documents ---------------- *)

(* Cell texts that the typing, the keys or the quoting can get wrong. *)
let cell_texts =
  [| ""; "a"; "b"; "x y"; "007"; "7"; "+5"; "-7"; "0x1F"; "1_000"; ".5"; "5.";
     "1e5"; "100000.0"; "2.0"; "2"; "-0.0"; "0"; "3.25"; "e"; "E5"; "nan"; "inf";
     "1e999"; "-1e999"; "true"; "TRUE"; "false"; "0u5"; "-"; "+"; "9223372036854775808";
     "a,b"; "say \"hi\""; "line\nbreak"; "cr\rx"; "crlf\r\nx"; " pad "; "tango"; "echo" |]

let header_names = [| "id"; "x"; "y"; "z"; "id" |]

(* A cell as the document spells it: plain, quoted (when it must be, and
   sometimes when it need not be), or raw when it should have been
   quoted, which splits it or is a syntax error. *)
let gen_cell text =
  let open QCheck.Gen in
  let quote = "\"" ^ String.concat "\"\"" (String.split_on_char '"' text) ^ "\"" in
  let needs = String.exists (fun c -> c = ',' || c = '"' || c = '\n' || c = '\r') text in
  frequency
    [ (6, return (if needs then quote else text)); (2, return quote); (1, return text) ]

let gen_doc =
  let open QCheck.Gen in
  let* width = int_range 1 4 in
  let* header =
    list_repeat width (frequency [ (8, map (Printf.sprintf "c%d") (int_range 0 99)); (1, oneofa header_names) ])
  in
  let* nrows = frequency [ (1, return 0); (15, int_range 1 8) ] in
  let gen_row =
    let* cells = frequency [ (10, return width); (1, int_range 1 (width + 1)) ] in
    (* Few distinct keys, so duplicates (and keys equal after typing,
       like 007 and 7) come up often. *)
    let* key = frequency [ (20, oneofl [ "k1"; "k2"; "k3"; "007"; "7"; "1e5"; "100000.0" ]); (1, return "") ] in
    let* rest = list_repeat (cells - 1) (oneofa cell_texts) in
    let* spelled = flatten_l (List.map gen_cell (key :: rest)) in
    return (String.concat "," spelled)
  in
  let* rows = list_repeat nrows gen_row in
  let* eol = frequency [ (6, return "\n"); (2, return "\r\n"); (1, return "\r") ] in
  let* trailing = bool in
  let doc = String.concat eol (String.concat "," header :: rows) ^ if trailing then eol else "" in
  (* Now and then break the syntax: a stray or unterminated quote. *)
  let* damage = frequency [ (12, return None); (1, map Option.some (int_range 0 (String.length doc))) ] in
  return
    (match damage with
     | None -> doc
     | Some i -> String.sub doc 0 i ^ "\"" ^ String.sub doc i (String.length doc - i))

let arb_doc = QCheck.make ~print:(Printf.sprintf "%S") gen_doc

let same_result store ?key_column doc =
  match Table.of_csv store ?key_column doc, ref_of_csv store ?key_column doc with
  | Ok t, Ok r -> String.equal (root t) (root r)
  | Error e, Error e' -> String.equal e e'
  | a, b -> QCheck.Test.fail_reportf "one-pass %s, reference %s" (show a) (show b)

let prop_parse =
  QCheck.Test.make ~name:"csv: scan-based parse = reference parse" ~count:500 arb_doc (fun doc ->
      Csv.parse doc = Csv_ref.Csv.parse doc)

let prop_import =
  QCheck.Test.make ~name:"csv: one-pass import = reference (root or error)" ~count:500
    QCheck.(pair arb_doc (make Gen.(frequency [ (6, return 0); (1, int_range (-1) 4) ])))
    (fun (doc, key_column) ->
      let store = Mem_store.create () in
      same_result store doc && same_result store ~key_column doc)

let prop_export =
  QCheck.Test.make ~name:"csv: export = reference rendering (floats kept float)" ~count:500 arb_doc
    (fun doc ->
      let store = Mem_store.create () in
      match Table.of_csv store doc with
      | Error _ -> true
      | Ok t ->
        let out = Table.to_csv t in
        String.equal out (expected_csv t)
        && (has_float t || String.equal out (Csv_ref.to_csv t)))

let prop_roundtrip =
  QCheck.Test.make ~name:"csv: export re-imports to the same table" ~count:500 arb_doc (fun doc ->
      let store = Mem_store.create () in
      match Table.of_csv store doc with
      | Error _ -> true
      | Ok t -> (
        match Table.of_csv store (Table.to_csv t) with
        | Error e -> QCheck.Test.fail_reportf "re-import: %s" e
        | Ok t' -> String.equal (root t) (root t')))

(* The rows an import is written against change only the work: for any
   document (duplicate keys and errors included), with a base of the
   document's own rows, another document's, a wider table's or a superset
   of its own, the import gives the rows root, schema and error text of
   an import without one. *)
let wide_doc = "id,a,b,c,d,e,f\nk1,1,2,3,4,5,6\nk3,x,y,z,,,\n7,1.5,,,true,,\n"

let prop_base =
  QCheck.Test.make ~name:"csv: an import's base changes only the work" ~count:300
    (QCheck.pair arb_doc arb_doc) (fun (doc, other) ->
      let store = Mem_store.create () in
      let rows d = Result.to_list (Result.map Table.rows_map (Table.of_csv store d)) in
      let superset r =
        Pmap.update r
          (List.map
             (fun k -> Pmap.Put (Pmap.binding k (Table.encode_row [ Primitive.String k ])))
             [ "k0"; "k20"; "zz" ])
      in
      let own = rows doc in
      let want = Table.of_csv store doc in
      List.for_all
        (fun base ->
          match want, Table.of_csv store ~base doc with
          | Ok t, Ok t' -> String.equal (root t) (root t') || QCheck.Test.fail_report "roots differ"
          | Error e, Error e' -> String.equal e e' || QCheck.Test.fail_reportf "%s, then %s" e e'
          | a, b -> QCheck.Test.fail_reportf "without a base %s, with %s" (show a) (show b))
        (own @ rows other @ rows wide_doc @ List.map superset own))

(* ---------------- fixed cases ---------------- *)

let import store doc =
  match Table.of_csv store doc with Ok t -> t | Error e -> Alcotest.fail e

let test_float_spelling () =
  let store = Mem_store.create () in
  let doc = "id,x\na,2.0\nb,3.5\nc,1e5\nd,-0.0\ne,1e999\nf,1e20\n" in
  let t = import store doc in
  check string_ "floats keep a float spelling"
    "id,x\na,2.0\nb,3.5\nc,100000.0\nd,-0.0\ne,1e999\nf,1e+20\n" (Table.to_csv t);
  check bool_ "export re-imports to the same root" true
    (String.equal (root t) (root (import store (Table.to_csv t))));
  (* Keys keep Primitive.to_string: no stored byte moves. *)
  let keyed = import store "id,x\n2.0,a\n" in
  check bool_ "float key unchanged" true (Table.mem keyed "2");
  check string_ "float key cell" "id,x\n2.0,a\n" (Table.to_csv keyed);
  check string_ "int in a float column" "id,x\na,2\nb,2.5\n"
    (Table.to_csv (import store "id,x\na,2\nb,2.5\n"))

let test_keys () =
  let store = Mem_store.create () in
  let t = import store "id,v\n007,a\n2,b\n7,c\n" in
  check bool_ "007 is key 7, last wins" true
    (Table.find t "7" = Some [ Primitive.Int 7L; Primitive.String "c" ]);
  check bool_ "duplicates collapse" true (Table.cardinal t = 2);
  let t = import store "id,v\nb,1\na,2\nb,3\n" in
  check bool_ "out of order, last wins" true
    (Table.find t "b" = Some [ Primitive.String "b"; Primitive.Int 3L ]);
  check bool_ "same root as sorted input" true
    (String.equal (root t) (root (import store "id,v\na,2\nb,3\n")))

(* A row that a later row with the same key replaces types nothing: the
   column holds what the table holds, so the export re-imports as it is.
   The root is pinned. *)
let test_replaced_rows () =
  let store = Mem_store.create () in
  let t = import store "id,x\na,1\na,b\n" in
  check bool_ "the table of the surviving row" true
    (String.equal (root t) (root (import store "id,x\na,b\n")));
  check string_ "export" "id,x\na,b\n" (Table.to_csv t);
  check string_ "root pinned"
    "e327a15598dc2d9eac483c48e00602890392e69c00489712f4405f580c786134"
    (Fb_hash.Hash.to_hex (Fb_hash.Hash.of_string (root t)));
  let t = import store "id,x\na,b\nb,2\na,1\n" in
  check bool_ "out of order: the table of the surviving rows" true
    (String.equal (root t) (root (import store "id,x\na,1\nb,2\n")))

let test_error_order () =
  let store = Mem_store.create () in
  let err doc = match Table.of_csv store doc with Ok _ -> "ok" | Error e -> e in
  let over = String.make (Fb_postree.Postree.max_key_bytes + 1) 'k' in
  List.iter
    (fun (name, doc, expect) -> check string_ name expect (err doc))
    [ ("syntax before schema", "a,a\n\"x", "csv: unterminated quoted field");
      ("stray quote", "a,b\nx\"y,1\n", "csv: stray quote at offset 5");
      ("empty", "", "csv: empty document");
      ("schema before ragged", "a,a\n1\n", "schema: duplicate column names");
      ("ragged before null key", "id,v\n,1\n2\n3,4,5\n", "csv: row 3 has 1 cells, header has 2");
      ("null key before long key", "id,v\n" ^ over ^ ",1\n,2\n", "key cell is null");
      ("long key", "id,v\n" ^ over ^ ",1\n",
       Printf.sprintf "key of %d bytes exceeds the %d-byte key limit" (String.length over)
         Fb_postree.Postree.max_key_bytes) ];
  check string_ "key column out of range" "schema: key column out of range"
    (match Table.of_csv store ~key_column:2 "a,b\n1,2\n" with Ok _ -> "ok" | Error e -> e);
  check string_ "duplicate names before key column" "schema: duplicate column names"
    (match Table.of_csv store ~key_column:5 "a,a\n1,2\n" with Ok _ -> "ok" | Error e -> e);
  check bool_ "header only" true (Table.cardinal (import store "id,v\n") = 0)

let test_corrupt_row () =
  let store = Mem_store.create () in
  let t = import store "id,v\n1,a\n" in
  let bad value =
    Table.of_rows_root store (Table.schema t)
      (Pmap.root (Pmap.of_bindings store [ ("1", value) ]))
  in
  let good = Table.encode_row [ Primitive.Int 1L; Primitive.String "a" ] in
  List.iter
    (fun (name, value) ->
      match Table.to_csv (bad value) with
      | _ -> Alcotest.failf "%s: rendered" name
      | exception Fb_postree.Postree.Corrupt _ -> ())
    [ ("trailing byte", good ^ "\000"); ("truncated", String.sub good 0 (String.length good - 1));
      ("bad tag", "\001\009"); ("count past the end", "\009\000");
      ("non-minimal length", "\001\004\x80\x00") ];
  check string_ "control" "id,v\n1,a\n" (Table.to_csv (bad good));
  let long = "id,v\n1," ^ String.make 300 'x' ^ "\n" in
  check string_ "two-byte length" long (Table.to_csv (import store long))

let suite =
  List.map QCheck_alcotest.to_alcotest
    [ prop_parse; prop_import; prop_export; prop_roundtrip; prop_base ]
  @ [ Alcotest.test_case "float spelling" `Quick test_float_spelling;
      Alcotest.test_case "keys" `Quick test_keys;
      Alcotest.test_case "replaced rows type nothing" `Quick test_replaced_rows;
      Alcotest.test_case "error order" `Quick test_error_order;
      Alcotest.test_case "corrupt row" `Quick test_corrupt_row ]
