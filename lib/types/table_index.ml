module Codec = Fb_codec.Codec
module Pmap = Fb_postree.Pmap
module Hash = Fb_hash.Hash

type t = {
  column : string;
  idx : Pmap.t;
}

let column t = t.column
let map t = t.idx
let root t = Pmap.root t.idx

(* Index entry key: frame(sortable value) ^ row key, where
   [frame s = escape s ^ "\x00\x01"] and [escape] rewrites embedded NULs as
   \x00\xff (the FoundationDB tuple-layer scheme).  Inside escaped content
   a \x00 is always followed by \xff, so the \x00\x01 terminator cannot
   occur early: frames are prefix-free and order-preserving, and arbitrary
   row-key suffixes (even ones full of \xff or \x00) cannot bleed into a
   neighbouring value's range.  The binding value carries the (primitive,
   row key) pair so scans never parse keys back. *)
let escape s =
  if not (String.contains s '\x00') then s
  else begin
    let b = Buffer.create (String.length s + 4) in
    String.iter
      (fun c ->
        Buffer.add_char b c;
        if c = '\x00' then Buffer.add_char b '\xff')
      s;
    Buffer.contents b
  end

let frame value = escape (Primitive.sortable_key value) ^ "\x00\x01"
let entry_key value row_key = frame value ^ row_key

(* Inclusive bounds covering exactly the entries for [value]: every entry
   extends the frame (whose last byte is \x01), and no other value's frame
   can fall strictly between the frame and its \x02-bumped sibling. *)
let lo_bound value = frame value
let hi_bound value = escape (Primitive.sortable_key value) ^ "\x00\x02"

let entry_value value row_key =
  Codec.to_string
    (fun w () ->
      Primitive.encode w value;
      Codec.bytes w row_key)
    ()

let decode_entry s =
  Codec.of_string_exn
    (fun r ->
      let p = Primitive.decode r in
      let row_key = Codec.read_bytes r in
      (p, row_key))
    s

let cell_of table_schema row column =
  match Schema.column_index table_schema column with
  | None -> Error (Printf.sprintf "no column %S" column)
  | Some i -> Ok (List.nth row i)

(* An index key over [Postree.max_key_bytes] is refused as an error. *)
let built f = try Ok (f ()) with Fb_postree.Postree.Unbuildable e -> Error e

let build table ~column =
  let schema = Table.schema table in
  match Schema.column_index schema column with
  | None -> Error (Printf.sprintf "no column %S" column)
  | Some i ->
    let bindings =
      Table.fold
        (fun acc row ->
          let v = List.nth row i in
          let rk = Table.key_of_row schema row in
          (entry_key v rk, entry_value v rk) :: acc)
        [] table
    in
    built (fun () ->
        { column;
          idx = Pmap.of_bindings (Pmap.store (Table.rows_map table)) bindings })

let of_root store ~column root = { column; idx = Pmap.of_root store root }

let apply_changes t table changes =
  let schema = Table.schema table in
  let ( let* ) = Result.bind in
  let* edits =
    List.fold_left
      (fun acc change ->
        let* acc = acc in
        match (change : Table.row_change) with
        | Table.Row_added row ->
          let* v = cell_of schema row t.column in
          let rk = Table.key_of_row schema row in
          Ok (Pmap.Put (Pmap.binding (entry_key v rk) (entry_value v rk)) :: acc)
        | Table.Row_removed row ->
          let* v = cell_of schema row t.column in
          let rk = Table.key_of_row schema row in
          Ok (Pmap.Remove (entry_key v rk) :: acc)
        | Table.Row_modified (rk, cells) -> (
          match
            List.find_opt
              (fun (c : Table.cell_change) -> String.equal c.Table.column t.column)
              cells
          with
          | None -> Ok acc (* indexed column untouched *)
          | Some c ->
            Ok
              (Pmap.Put
                 (Pmap.binding
                    (entry_key c.Table.after rk)
                    (entry_value c.Table.after rk))
               :: Pmap.Remove (entry_key c.Table.before rk)
               :: acc)))
      (Ok []) changes
  in
  built (fun () -> { t with idx = Pmap.update t.idx edits })

let lookup_keys t value =
  List.map
    (fun (b : Pmap.binding) -> snd (decode_entry b.Pmap.value))
    (Pmap.to_list_range ~lo:(lo_bound value) ~hi:(hi_bound value) t.idx)

let lookup t table value =
  List.filter_map (Table.find table) (lookup_keys t value)

let count t value =
  Pmap.count_range ~lo:(lo_bound value) ~hi:(hi_bound value) t.idx

let range_keys ?lo ?hi t =
  let lo = Option.map lo_bound lo and hi = Option.map hi_bound hi in
  List.map
    (fun (b : Pmap.binding) -> decode_entry b.Pmap.value)
    (Pmap.to_list_range ?lo ?hi t.idx)

let cardinal t = Pmap.cardinal t.idx
let validate t = Pmap.validate t.idx
