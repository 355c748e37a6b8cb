module Json = Fb_types.Json
module Value = Fb_types.Value
module Table = Fb_types.Table
module Primitive = Fb_types.Primitive
module Schema = Fb_types.Schema
module Pmap = Fb_postree.Pmap
module Pset = Fb_postree.Pset
module Plist = Fb_postree.Plist
module Pblob = Fb_postree.Pblob
module Hash = Fb_hash.Hash

let version_json uid =
  Json.Object
    [ ("uid", Json.String (Hash.to_base32 uid));
      ("short", Json.String (Hash.short uid)) ]

let primitive_json = function
  | Primitive.Null -> Json.Null
  | Primitive.Bool b -> Json.Bool b
  | Primitive.Int i -> Json.Number (Int64.to_float i)
  | Primitive.Float f -> Json.Number f
  | Primitive.String s -> Json.String s

let take n l = List.filteri (fun i _ -> i < n) l

let value_json ?(preview_rows = 20) value =
  let typed kind fields = Json.Object (("type", Json.String kind) :: fields) in
  match (value : Value.t) with
  | Value.Primitive p -> typed "primitive" [ ("value", primitive_json p) ]
  | Value.Blob b ->
    let len = Pblob.length b in
    typed "blob"
      [ ("bytes", Json.int len);
        ("chunks", Json.int (Pblob.chunk_count b));
        ( "head",
          Json.String (if len = 0 then "" else Pblob.read b ~pos:0 ~len:(min 64 len)) ) ]
  | Value.Map m ->
    typed "map"
      [ ("entries", Json.int (Pmap.cardinal m));
        ( "preview",
          Json.Object
            (take preview_rows
               (List.map
                  (fun (k, v) -> (k, Json.String v))
                  (Pmap.bindings m))) ) ]
  | Value.Set s ->
    typed "set"
      [ ("elements", Json.int (Pset.cardinal s));
        ( "preview",
          Json.Array
            (take preview_rows
               (List.map (fun e -> Json.String e) (Pset.elements s))) ) ]
  | Value.List l ->
    typed "list"
      [ ("elements", Json.int (Plist.length l));
        ( "preview",
          Json.Array
            (take preview_rows
               (List.map (fun e -> Json.String e) (Plist.to_list l))) ) ]
  | Value.Table t ->
    let schema = Table.schema t in
    typed "table"
      [ ("rows", Json.int (Table.cardinal t));
        ( "columns",
          Json.Array
            (List.map (fun c -> Json.String c) (Schema.column_names schema)) );
        ("key", Json.String (Schema.key_name schema));
        ( "preview",
          Json.Array
            (take preview_rows
               (List.map
                  (fun row -> Json.Array (List.map primitive_json row))
                  (Table.to_rows t))) ) ]

let row_json row = Json.Array (List.map primitive_json row)

let diff_json d =
  let typed kind fields =
    Json.Object
      (("kind", Json.String kind)
       :: ("summary", Json.String (Diffview.summary d))
       :: fields)
  in
  let range kind (r : Fb_postree.Seqtree.range_diff) =
    typed kind
      [ ("old_pos", Json.int r.old_pos); ("old_len", Json.int r.old_len);
        ("new_pos", Json.int r.new_pos); ("new_len", Json.int r.new_len) ]
  in
  match (d : Diffview.t) with
  | Diffview.Same -> typed "same" []
  | Diffview.Type_change (k1, k2) ->
    typed "type-change"
      [ ("from", Json.String (Value.kind_name k1));
        ("to", Json.String (Value.kind_name k2)) ]
  | Diffview.Primitive_change (p1, p2) ->
    typed "primitive"
      [ ("before", primitive_json p1); ("after", primitive_json p2) ]
  | Diffview.Blob_change r -> range "blob" r
  | Diffview.List_change r -> range "list" r
  | Diffview.Map_changes cs ->
    typed "map"
      [ ( "changes",
          Json.Array
            (List.map
               (fun (c : Pmap.change) ->
                 match c with
                 | Pmap.Added b ->
                   Json.Object
                     [ ("op", Json.String "add"); ("key", Json.String b.Pmap.key);
                       ("value", Json.String b.Pmap.value) ]
                 | Pmap.Removed b ->
                   Json.Object
                     [ ("op", Json.String "remove");
                       ("key", Json.String b.Pmap.key) ]
                 | Pmap.Modified (b1, b2) ->
                   Json.Object
                     [ ("op", Json.String "modify");
                       ("key", Json.String b1.Pmap.key);
                       ("before", Json.String b1.Pmap.value);
                       ("after", Json.String b2.Pmap.value) ])
               cs) ) ]
  | Diffview.Set_changes cs ->
    typed "set"
      [ ( "changes",
          Json.Array
            (List.map
               (fun (c : Pset.change) ->
                 match c with
                 | Pset.Added e ->
                   Json.Object [ ("op", Json.String "add"); ("element", Json.String e) ]
                 | Pset.Removed e ->
                   Json.Object
                     [ ("op", Json.String "remove"); ("element", Json.String e) ]
                 | Pset.Modified (e, _) ->
                   Json.Object
                     [ ("op", Json.String "modify"); ("element", Json.String e) ])
               cs) ) ]
  | Diffview.Table_changes cs ->
    typed "table"
      [ ( "changes",
          Json.Array
            (List.map
               (fun (c : Table.row_change) ->
                 match c with
                 | Table.Row_added row ->
                   Json.Object [ ("op", Json.String "add"); ("row", row_json row) ]
                 | Table.Row_removed row ->
                   Json.Object
                     [ ("op", Json.String "remove"); ("row", row_json row) ]
                 | Table.Row_modified (key, cells) ->
                   Json.Object
                     [ ("op", Json.String "modify");
                       ("key", Json.String key);
                       ( "cells",
                         Json.Array
                           (List.map
                              (fun (cc : Table.cell_change) ->
                                Json.Object
                                  [ ("column", Json.String cc.Table.column);
                                    ("before", primitive_json cc.Table.before);
                                    ("after", primitive_json cc.Table.after) ])
                              cells) ) ])
               cs) ) ]

let log_json nodes =
  Json.Array
    (List.map
       (fun (f : Fb_repr.Fnode.t) ->
         Json.Object
           [ ("uid", Json.String (Hash.to_base32 (Fb_repr.Fnode.uid f)));
             ("seq", Json.int f.Fb_repr.Fnode.seq);
             ("author", Json.String f.Fb_repr.Fnode.author);
             ("message", Json.String f.Fb_repr.Fnode.message);
             ( "bases",
               Json.Array
                 (List.map
                    (fun b -> Json.String (Hash.to_base32 b))
                    f.Fb_repr.Fnode.bases) ) ])
       nodes)

let stats_json (s : Forkbase.stats) =
  Json.Object
    [ ("keys", Json.int s.Forkbase.keys);
      ("branches", Json.int s.Forkbase.branches);
      ("versions", Json.int s.Forkbase.versions);
      ( "store",
        Json.Object
          [ ("chunks", Json.int s.Forkbase.store.Fb_chunk.Store.physical_chunks);
            ("physical_bytes", Json.int s.Forkbase.store.Fb_chunk.Store.physical_bytes);
            ("logical_bytes", Json.int s.Forkbase.store.Fb_chunk.Store.logical_bytes);
            ("dedup_hits", Json.int s.Forkbase.store.Fb_chunk.Store.dedup_hits) ] ) ]

let branches_json heads =
  Json.Object
    (List.map (fun (name, uid) -> (name, Json.String (Hash.to_base32 uid))) heads)
