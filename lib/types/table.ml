module Codec = Fb_codec.Codec
module Pmap = Fb_postree.Pmap

type t = { schema : Schema.t; rows : Pmap.t }

type row = Primitive.t list

let create store schema = { schema; rows = Pmap.empty store }
let schema t = t.schema
let rows_map t = t.rows
let rows_root t = Pmap.root t.rows

let of_rows_root store schema root =
  { schema; rows = Pmap.of_root store root }

let cardinal t = Pmap.cardinal t.rows

let key_of_row schema row =
  Primitive.to_string (List.nth row schema.Schema.key_column)

let encode_row row = Codec.to_string (fun w r -> Codec.list w Primitive.encode r) row

let decode_row s =
  Codec.of_string (fun r -> Codec.read_list r Primitive.decode) s

let decode_row_exn s =
  match decode_row s with
  | Ok row -> row
  | Error e -> raise (Fb_postree.Postree.Corrupt ("table row: " ^ e))

(* A row key over [Postree.max_key_bytes] is refused like a bad cell. *)
let built f = try Ok (f ()) with Fb_postree.Postree.Unbuildable e -> Error e

let insert t row =
  match Schema.check_row t.schema row with
  | Error _ as e -> e
  | Ok () ->
    let key = key_of_row t.schema row in
    built (fun () -> { t with rows = Pmap.put t.rows key (encode_row row) })

let insert_many t rows =
  (* Validate everything first, then apply as one batch update. *)
  let rec check = function
    | [] -> Ok ()
    | row :: rest -> (
      match Schema.check_row t.schema row with
      | Error _ as e -> e
      | Ok () -> check rest)
  in
  match check rows with
  | Error _ as e -> e
  | Ok () ->
    let edits =
      List.map
        (fun row ->
          Pmap.Put
            (Pmap.binding (key_of_row t.schema row) (encode_row row)))
        rows
    in
    built (fun () -> { t with rows = Pmap.update t.rows edits })

let insert_exn t row =
  match insert t row with Ok t -> t | Error e -> invalid_arg e

let delete t key = { t with rows = Pmap.remove t.rows key }
let find t key = Option.map decode_row_exn (Pmap.find_value t.rows key)
let mem t key = Pmap.mem t.rows key

let iter f t = Pmap.iter (fun (b : Pmap.binding) -> f (decode_row_exn b.value)) t.rows

let fold f acc t =
  let acc = ref acc in
  iter (fun row -> acc := f !acc row) t;
  !acc

let to_rows t = List.rev (fold (fun acc r -> r :: acc) [] t)
let select t pred = List.rev (fold (fun acc r -> if pred r then r :: acc else acc) [] t)

let project t names =
  let rec indices = function
    | [] -> Ok []
    | n :: rest -> (
      match Schema.column_index t.schema n with
      | None -> Error (Printf.sprintf "no column %S" n)
      | Some i -> Result.map (fun is -> i :: is) (indices rest))
  in
  match indices names with
  | Error _ as e -> e
  | Ok is -> Ok (List.map (fun row -> List.map (List.nth row) is) (to_rows t))

type cell_change = {
  column : string;
  before : Primitive.t;
  after : Primitive.t;
}

type row_change =
  | Row_added of row
  | Row_removed of row
  | Row_modified of string * cell_change list

let cell_changes schema r1 r2 =
  let names = Schema.column_names schema in
  List.filteri (fun _ c -> c <> None)
    (List.map2
       (fun column (before, after) ->
         if Primitive.equal before after then None
         else Some { column; before; after })
       names
       (List.combine r1 r2))
  |> List.filter_map Fun.id

let diff t1 t2 =
  if not (Schema.equal t1.schema t2.schema) then
    Error "table diff: schemas differ"
  else
    Ok
      (List.map
         (fun (change : Pmap.change) ->
           match change with
           | Pmap.Added b -> Row_added (decode_row_exn b.value)
           | Pmap.Removed b -> Row_removed (decode_row_exn b.value)
           | Pmap.Modified (b1, b2) ->
             Row_modified
               ( b1.key,
                 cell_changes t1.schema (decode_row_exn b1.value)
                   (decode_row_exn b2.value) ))
         (Pmap.diff t1.rows t2.rows))

type col_stat = {
  column : string;
  values : int;
  nulls : int;
  distinct : int;
  min : Primitive.t option;
  max : Primitive.t option;
}

module Pset_ = Set.Make (struct
  type t = Primitive.t

  let compare = Primitive.compare
end)

let stat t =
  let names = Schema.column_names t.schema in
  let n = List.length names in
  let values = Array.make n 0
  and nulls = Array.make n 0
  and distinct = Array.make n Pset_.empty
  and mins = Array.make n None
  and maxs = Array.make n None in
  iter
    (fun row ->
      List.iteri
        (fun i p ->
          match p with
          | Primitive.Null -> nulls.(i) <- nulls.(i) + 1
          | _ ->
            values.(i) <- values.(i) + 1;
            distinct.(i) <- Pset_.add p distinct.(i);
            (match mins.(i) with
             | None -> mins.(i) <- Some p
             | Some m -> if Primitive.compare p m < 0 then mins.(i) <- Some p);
            (match maxs.(i) with
             | None -> maxs.(i) <- Some p
             | Some m -> if Primitive.compare p m > 0 then maxs.(i) <- Some p))
        row)
    t;
  List.mapi
    (fun i column ->
      { column;
        values = values.(i);
        nulls = nulls.(i);
        distinct = Pset_.cardinal distinct.(i);
        min = mins.(i);
        max = maxs.(i) })
    names

type migration =
  | Add_column of Schema.column * Primitive.t
  | Drop_column of string
  | Rename_column of string * string

(* Migrations are planned as transformations over (column list, row
   transformer) and applied to every row once. *)
let migrate t migrations =
  let ( let* ) = Result.bind in
  let* columns, key_name, transform =
    List.fold_left
      (fun acc m ->
        let* columns, key_name, transform = acc in
        match m with
        | Add_column (col, default) ->
          if List.exists (fun (c : Schema.column) -> c.Schema.name = col.Schema.name) columns
          then Error (Printf.sprintf "migrate: column %S exists" col.Schema.name)
          else if not (Schema.check_row (Schema.v_exn [ col ]) [ default ] = Ok ())
                  && default <> Primitive.Null
          then
            Error
              (Printf.sprintf "migrate: default for %S has the wrong type"
                 col.Schema.name)
          else
            Ok
              ( columns @ [ col ],
                key_name,
                fun row -> transform row @ [ default ] )
        | Drop_column name ->
          if name = key_name then Error "migrate: cannot drop the key column"
          else (
            match
              List.find_index
                (fun (c : Schema.column) -> c.Schema.name = name)
                columns
            with
            | None -> Error (Printf.sprintf "migrate: no column %S" name)
            | Some i ->
              Ok
                ( List.filteri (fun j _ -> j <> i) columns,
                  key_name,
                  fun row ->
                    List.filteri (fun j _ -> j <> i) (transform row) ))
        | Rename_column (from_name, to_name) ->
          if List.exists (fun (c : Schema.column) -> c.Schema.name = to_name) columns
          then Error (Printf.sprintf "migrate: column %S exists" to_name)
          else if
            not
              (List.exists
                 (fun (c : Schema.column) -> c.Schema.name = from_name)
                 columns)
          then Error (Printf.sprintf "migrate: no column %S" from_name)
          else
            Ok
              ( List.map
                  (fun (c : Schema.column) ->
                    if c.Schema.name = from_name then
                      { c with Schema.name = to_name }
                    else c)
                  columns,
                (if key_name = from_name then to_name else key_name),
                transform ))
      (Ok
         ( (t.schema.Schema.columns :> Schema.column list),
           Schema.key_name t.schema,
           Fun.id ))
      migrations
  in
  let key_column =
    match
      List.find_index
        (fun (c : Schema.column) -> c.Schema.name = key_name)
        columns
    with
    | Some i -> i
    | None -> 0
  in
  let* schema =
    match Schema.v ~key_column columns with
    | Ok s -> Ok s
    | Error e -> Error ("migrate: " ^ e)
  in
  let rows = List.map transform (to_rows t) in
  match insert_many (create (Pmap.store t.rows) schema) rows with
  | Ok t' -> Ok t'
  | Error e -> Error ("migrate: " ^ e)

type aggregate = Count | Sum | Avg | Min | Max

let aggregate_name = function
  | Count -> "count"
  | Sum -> "sum"
  | Avg -> "avg"
  | Min -> "min"
  | Max -> "max"

module Pmap_group = Map.Make (struct
  type t = Primitive.t

  let compare = Primitive.compare
end)

let numeric = function
  | Primitive.Int i -> Some (Int64.to_float i, `Int)
  | Primitive.Float f -> Some (f, `Float)
  | Primitive.Null | Primitive.Bool _ | Primitive.String _ -> None

let group_by t ~by ~targets =
  let schema = t.schema in
  let ( let* ) = Result.bind in
  let* by_idx =
    match Schema.column_index schema by with
    | Some i -> Ok i
    | None -> Error (Printf.sprintf "group_by: no column %S" by)
  in
  let* target_idxs =
    List.fold_left
      (fun acc (name, agg) ->
        let* acc = acc in
        match Schema.column_index schema name with
        | Some i -> Ok ((name, i, agg) :: acc)
        | None -> Error (Printf.sprintf "group_by: no column %S" name))
      (Ok []) targets
  in
  let target_idxs = List.rev target_idxs in
  (* Per group and per target: (count, float sum, any-float flag, min, max).
     Sum legality is checked cell by cell so the error names the column. *)
  let groups = ref Pmap_group.empty in
  let error = ref None in
  iter
    (fun row ->
      if !error = None then begin
        let gkey = List.nth row by_idx in
        let states =
          match Pmap_group.find_opt gkey !groups with
          | Some s -> s
          | None ->
            List.map (fun _ -> (0, 0.0, false, None, None)) target_idxs
        in
        let states' =
          List.map2
            (fun (name, i, agg) (n, sum, anyf, mn, mx) ->
              let cell = List.nth row i in
              match cell with
              | Primitive.Null -> (n, sum, anyf, mn, mx)
              | _ ->
                let sum, anyf =
                  match agg, numeric cell with
                  | (Sum | Avg), Some (f, kind) ->
                    (sum +. f, anyf || kind = `Float)
                  | (Sum | Avg), None ->
                    error :=
                      Some
                        (Printf.sprintf
                           "group_by: %s(%s) over non-numeric cell"
                           (aggregate_name agg) name);
                    (sum, anyf)
                  | (Count | Min | Max), _ -> (sum, anyf)
                in
                let mn =
                  match mn with
                  | None -> Some cell
                  | Some m ->
                    if Primitive.compare cell m < 0 then Some cell else Some m
                in
                let mx =
                  match mx with
                  | None -> Some cell
                  | Some m ->
                    if Primitive.compare cell m > 0 then Some cell else Some m
                in
                (n + 1, sum, anyf, mn, mx))
            target_idxs states
        in
        groups := Pmap_group.add gkey states' !groups
      end)
    t;
  match !error with
  | Some e -> Error e
  | None ->
    Ok
      (List.rev
         (Pmap_group.fold
            (fun gkey states acc ->
              let cells =
                List.map2
                  (fun (_, _, agg) (n, sum, anyf, mn, mx) ->
                    match agg with
                    | Count -> Primitive.Int (Int64.of_int n)
                    | Sum ->
                      if anyf then Primitive.Float sum
                      else Primitive.Int (Int64.of_float sum)
                    | Avg ->
                      if n = 0 then Primitive.Null
                      else Primitive.Float (sum /. float_of_int n)
                    | Min -> Option.value mn ~default:Primitive.Null
                    | Max -> Option.value mx ~default:Primitive.Null)
                  target_idxs states
              in
              (gkey, cells) :: acc)
            !groups []))

(* The schema of [header] with its column types joined over the rows a
   build kept, when it dropped some: a row that a later row with the same
   key replaced types nothing.  [header] and [key_column] were accepted
   already, and types cannot make them fail. *)
let retype ~key_column ~header rows =
  let tys = Array.make (List.length header) None in
  Pmap.iter
    (fun (b : Pmap.binding) ->
      let r = Codec.reader b.value in
      for i = 0 to Codec.read_count r - 1 do
        Schema.join_cell tys i (Primitive.decode r)
      done)
    rows;
  Result.get_ok (Schema.of_types ~key_column ~header tys)

(* One pass: as the scanner hands each cell over, a data cell is typed,
   joined into its column's type and encoded into its row there.  A row's
   encoding opens with the header's width, the count of every row that is
   not ragged; a ragged row only records the error.  Keys that arrive in
   increasing order skip [Pmap.build]'s sort.  The errors keep the order of a validate-first import: CSV
   syntax, the schema, the first ragged row, a null key, then a key over
   the POS-Tree limit (from the build). *)
let of_csv store ?(key_column = 0) content =
  let header = ref [] and lines = ref 0 and width = ref 0 and tys = ref [||] in
  let enc = ref (Codec.writer ()) and cells = ref 0 and key = ref Primitive.Null in
  let ragged = ref None and null_key = ref false in
  let rows = ref [] in
  let cell text =
    if !lines = 0 then header := text :: !header
    else begin
      let p = Primitive.parse text in
      Schema.join_cell !tys !cells p;
      if !cells = key_column then key := p;
      Primitive.encode !enc p;
      incr cells
    end
  in
  let row () =
    incr lines;
    if !lines = 1 then begin
      header := List.rev !header;
      width := List.length !header;
      tys := Array.make !width None
    end
    else if !cells <> !width then begin
      if !ragged = None then
        ragged :=
          Some (Printf.sprintf "csv: row %d has %d cells, header has %d" !lines !cells !width)
    end
    else begin
      match !key with
      | Primitive.Null -> null_key := true
      | p ->
        rows := Pmap.binding (Primitive.to_string p) (Codec.contents !enc) :: !rows
    end;
    key := Primitive.Null;
    cells := 0;
    enc := Codec.writer ~initial_size:(Codec.length !enc + 16) ();
    Codec.varint !enc !width
  in
  match Csv.scan content ~cell ~row with
  | Error _ as e -> e
  | Ok () when !lines = 0 -> Error "csv: empty document"
  | Ok () -> (
    match Schema.of_types ~key_column ~header:!header !tys with
    | Error _ as e -> e
    | Ok schema -> (
      match !ragged with
      | Some e -> Error e
      | None when !null_key -> Error "key cell is null"
      | None ->
        built (fun () ->
            let parsed = List.rev !rows in
            let rows = Pmap.build store parsed in
            if Pmap.cardinal rows = List.length parsed then { schema; rows }
            else { schema = retype ~key_column ~header:!header rows; rows })))

let add_csv_row buf row =
  match
    let r = Codec.reader row in
    let cells = Codec.read_count r in
    let pos = ref (Codec.pos r) in
    for i = 1 to cells do
      if i > 1 then Buffer.add_char buf ',';
      pos := Primitive.add_csv buf row !pos
    done;
    Codec.expect_end (Codec.reader ~pos:!pos row)
  with
  | () -> Buffer.add_char buf '\n'
  | exception Codec.Decode_error e -> raise (Fb_postree.Postree.Corrupt ("table row: " ^ e))

let to_csv t =
  let buf = Buffer.create 65536 in
  List.iteri
    (fun i name ->
      if i > 0 then Buffer.add_char buf ',';
      Csv.add_cell buf name 0 (String.length name))
    (Schema.column_names t.schema);
  Buffer.add_char buf '\n';
  Pmap.iter (fun (b : Pmap.binding) -> add_csv_row buf b.value) t.rows;
  Buffer.contents buf

let pp fmt t =
  Format.fprintf fmt "<table %a rows=%d>" Schema.pp t.schema (cardinal t)
