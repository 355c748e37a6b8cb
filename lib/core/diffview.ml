module Value = Fb_types.Value
module Primitive = Fb_types.Primitive
module Table = Fb_types.Table
module Pmap = Fb_postree.Pmap
module Pset = Fb_postree.Pset
module Plist = Fb_postree.Plist
module Pblob = Fb_postree.Pblob

type t =
  | Same
  | Type_change of Value.kind * Value.kind
  | Primitive_change of Primitive.t * Primitive.t
  | Blob_change of Pblob.range_diff
  | Map_changes of Pmap.change list
  | Set_changes of Pset.change list
  | List_change of Plist.range_diff
  | Table_changes of Table.row_change list

let compute v1 v2 =
  match (v1 : Value.t), (v2 : Value.t) with
  | Value.Primitive p1, Value.Primitive p2 ->
    Ok (if Primitive.equal p1 p2 then Same else Primitive_change (p1, p2))
  | Value.Blob b1, Value.Blob b2 ->
    Ok (match Pblob.diff b1 b2 with None -> Same | Some d -> Blob_change d)
  | Value.Map m1, Value.Map m2 ->
    Ok (match Pmap.diff m1 m2 with [] -> Same | cs -> Map_changes cs)
  | Value.Set s1, Value.Set s2 ->
    Ok (match Pset.diff s1 s2 with [] -> Same | cs -> Set_changes cs)
  | Value.List l1, Value.List l2 ->
    Ok (match Plist.diff l1 l2 with None -> Same | Some d -> List_change d)
  | Value.Table t1, Value.Table t2 -> (
    match Table.diff t1 t2 with
    | Error e -> Error (Errors.Invalid e)
    | Ok [] -> Ok Same
    | Ok cs -> Ok (Table_changes cs))
  | _ ->
    let k1 = Value.kind v1 and k2 = Value.kind v2 in
    if Value.equal_kind k1 k2 then
      Error
        (Errors.Invalid
           (Printf.sprintf "diff unsupported for %s" (Value.kind_name k1)))
    else Ok (Type_change (k1, k2))

let is_same = function Same -> true | _ -> false

let count_table_changes cs =
  List.fold_left
    (fun (a, r, m, cells) c ->
      match c with
      | Table.Row_added _ -> (a + 1, r, m, cells)
      | Table.Row_removed _ -> (a, r + 1, m, cells)
      | Table.Row_modified (_, cc) -> (a, r, m + 1, cells + List.length cc))
    (0, 0, 0, 0) cs

let summary = function
  | Same -> "no differences"
  | Type_change (k1, k2) ->
    Printf.sprintf "type changed: %s -> %s" (Value.kind_name k1)
      (Value.kind_name k2)
  | Primitive_change (p1, p2) ->
    Printf.sprintf "value changed: %s -> %s" (Primitive.to_string p1)
      (Primitive.to_string p2)
  | Blob_change d ->
    Printf.sprintf "blob changed: %d bytes at %d replaced by %d bytes"
      d.Pblob.old_len d.Pblob.old_pos d.Pblob.new_len
  | Map_changes cs ->
    let a = List.length (List.filter (function Pmap.Added _ -> true | _ -> false) cs)
    and r = List.length (List.filter (function Pmap.Removed _ -> true | _ -> false) cs)
    and m = List.length (List.filter (function Pmap.Modified _ -> true | _ -> false) cs) in
    Printf.sprintf "%d entries added, %d removed, %d modified" a r m
  | Set_changes cs ->
    let a = List.length (List.filter (function Pset.Added _ -> true | _ -> false) cs)
    and r = List.length (List.filter (function Pset.Removed _ -> true | _ -> false) cs) in
    Printf.sprintf "%d elements added, %d removed" a r
  | List_change d ->
    Printf.sprintf "list changed: %d elements at %d replaced by %d"
      d.Plist.old_len d.Plist.old_pos d.Plist.new_len
  | Table_changes cs ->
    let a, r, m, cells = count_table_changes cs in
    Printf.sprintf "%d rows added, %d removed, %d modified (%d cells)" a r m
      cells

let render_row b row =
  Printf.bprintf b "(%s)"
    (String.concat ", " (List.map Primitive.to_string row))

(* [%S] as [Printf] writes it, without a format interpreter. *)
let add_quoted b s =
  Buffer.add_char b '"';
  Buffer.add_string b (String.escaped s);
  Buffer.add_char b '"'

(* Map and set changes (a sync diff renders a thousand of them) are
   written piece by piece; the rest go through [Printf.bprintf]. *)
let render b = function
  | Same -> Buffer.add_string b "no differences\n"
  | Type_change (k1, k2) ->
    Printf.bprintf b "! type: %s -> %s\n" (Value.kind_name k1)
      (Value.kind_name k2)
  | Primitive_change (p1, p2) ->
    Printf.bprintf b "- %s\n+ %s\n" (Primitive.to_string p1)
      (Primitive.to_string p2)
  | Blob_change d ->
    Printf.bprintf b "@ bytes [%d,+%d) -> [%d,+%d)\n" d.Pblob.old_pos
      d.Pblob.old_len d.Pblob.new_pos d.Pblob.new_len
  | Map_changes cs ->
    let binding sign (x : Pmap.binding) =
      Buffer.add_string b sign;
      Buffer.add_string b x.key;
      Buffer.add_string b " = ";
      add_quoted b x.value;
      Buffer.add_char b '\n'
    in
    List.iter
      (fun c ->
        match (c : Pmap.change) with
        | Pmap.Added x -> binding "+ " x
        | Pmap.Removed x -> binding "- " x
        | Pmap.Modified (x1, x2) ->
          Buffer.add_string b "~ ";
          Buffer.add_string b x1.key;
          Buffer.add_string b ": ";
          add_quoted b x1.value;
          Buffer.add_string b " -> ";
          add_quoted b x2.value;
          Buffer.add_char b '\n')
      cs
  | Set_changes cs ->
    List.iter
      (fun c ->
        let sign, e =
          match (c : Pset.change) with
          | Pset.Added e -> ("+ ", e)
          | Pset.Removed e -> ("- ", e)
          | Pset.Modified (e, _) -> ("~ ", e)
        in
        Buffer.add_string b sign;
        Buffer.add_string b e;
        Buffer.add_char b '\n')
      cs
  | List_change d ->
    Printf.bprintf b "@ elements [%d,+%d) -> [%d,+%d)\n" d.Plist.old_pos
      d.Plist.old_len d.Plist.new_pos d.Plist.new_len
  | Table_changes cs ->
    List.iter
      (fun c ->
        match (c : Table.row_change) with
        | Table.Row_added row -> Printf.bprintf b "+ row %a\n" render_row row
        | Table.Row_removed row ->
          Printf.bprintf b "- row %a\n" render_row row
        | Table.Row_modified (key, cells) ->
          Printf.bprintf b "~ row %S:\n" key;
          List.iter
            (fun (cc : Table.cell_change) ->
              Printf.bprintf b "    %s: %s -> %s\n" cc.Table.column
                (Primitive.to_string cc.Table.before)
                (Primitive.to_string cc.Table.after))
            cells)
      cs

let report d =
  let b = Buffer.create 1024 in
  Buffer.add_string b (summary d);
  Buffer.add_char b '\n';
  render b d;
  Buffer.contents b
