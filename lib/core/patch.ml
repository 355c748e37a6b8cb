module Codec = Fb_codec.Codec
module Hash = Fb_hash.Hash
module Value = Fb_types.Value
module Table = Fb_types.Table
module Pmap = Fb_postree.Pmap

let ( let* ) = Result.bind

(* Entry-level edits over the underlying rows map; tables additionally
   remember their schema so the receiving side can rebuild the value. *)
type op = Put_entry of string * string | Remove_entry of string

type shape =
  | Map_shape
  | Table_shape of Fb_types.Schema.t

type t = {
  base : Hash.t;
  target : Hash.t;
  shape : shape;
  ops : op list;
}

let base_uid t = t.base
let target_uid t = t.target

let magic = "FBPATCH1"

let encode t =
  let w = Codec.writer () in
  Codec.raw w magic;
  Codec.hash w t.base;
  Codec.hash w t.target;
  (match t.shape with
   | Map_shape -> Codec.u8 w 0
   | Table_shape schema ->
     Codec.u8 w 1;
     Fb_types.Schema.encode w schema);
  Codec.list w
    (fun w op ->
      match op with
      | Put_entry (k, v) ->
        Codec.u8 w 0;
        Codec.bytes w k;
        Codec.bytes w v
      | Remove_entry k ->
        Codec.u8 w 1;
        Codec.bytes w k)
    t.ops;
  Codec.contents w

let decode s =
  match
    Codec.of_string
      (fun r ->
        let m = Codec.read_raw r (String.length magic) in
        if not (String.equal m magic) then
          raise (Codec.Decode_error "patch: bad magic");
        let base = Codec.read_hash r in
        let target = Codec.read_hash r in
        let shape =
          match Codec.read_u8 r with
          | 0 -> Map_shape
          | 1 -> Table_shape (Fb_types.Schema.decode r)
          | t -> raise (Codec.Decode_error (Printf.sprintf "patch: bad shape %d" t))
        in
        let ops =
          Codec.read_list r (fun r ->
              match Codec.read_u8 r with
              | 0 ->
                let k = Codec.read_bytes r in
                let v = Codec.read_bytes r in
                Put_entry (k, v)
              | 1 -> Remove_entry (Codec.read_bytes r)
              | t ->
                raise (Codec.Decode_error (Printf.sprintf "patch: bad op %d" t)))
        in
        { base; target; shape; ops })
      s
  with
  | Ok p -> Ok p
  | Error e -> Error (Errors.Invalid ("patch: " ^ e))

let rows_and_shape = function
  | Value.Map m -> Ok (m, Map_shape)
  | Value.Table t -> Ok (Table.rows_map t, Table_shape (Table.schema t))
  | v ->
    Error
      (Errors.Type_mismatch
         { expected = "map or table"; got = Value.type_name v })

let diff ?user fb ~key ~from_uid ~to_uid =
  ignore key;
  let* v1 = Forkbase.get_at ?user fb from_uid in
  let* v2 = Forkbase.get_at ?user fb to_uid in
  let* rows1, _ = rows_and_shape v1 in
  let* rows2, shape2 = rows_and_shape v2 in
  let ops =
    List.map
      (fun change ->
        match Pmap.edit_of_change change with
        | Pmap.Put (b : Pmap.binding) -> Put_entry (b.Pmap.key, b.Pmap.value)
        | Pmap.Remove k -> Remove_entry k)
      (Pmap.diff rows1 rows2)
  in
  Ok { base = from_uid; target = to_uid; shape = shape2; ops }

let apply ?user ?(message = "apply patch") ?branch ?(force = false) fb ~key
    patch =
  let* head = Forkbase.head ?user ?branch fb ~key in
  let* () =
    if force || Hash.equal head patch.base then Ok ()
    else
      Errors.invalid
        "patch applies to %s but the branch head is %s (use merge, or force)"
        (Hash.short patch.base) (Hash.short head)
  in
  let* value = Forkbase.get ?user ?branch fb ~key in
  let* rows, _ = rows_and_shape value in
  let edits =
    List.map
      (function
        | Put_entry (k, v) -> Pmap.Put (Pmap.binding k v)
        | Remove_entry k -> Pmap.Remove k)
      patch.ops
  in
  match Pmap.update rows edits with
  | exception Fb_postree.Postree.Unbuildable e -> Error (Errors.Invalid e)
  | rows' ->
    let value' =
      match patch.shape with
      | Map_shape -> Value.Map rows'
      | Table_shape schema ->
        Value.Table
          (Table.of_rows_root (Pmap.store rows') schema (Pmap.root rows'))
    in
    Forkbase.put ?user ~message ?branch fb ~key value'
