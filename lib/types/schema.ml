module Codec = Fb_codec.Codec

type col_type = T_string | T_int | T_float | T_bool | T_any

let col_type_name = function
  | T_string -> "string"
  | T_int -> "int"
  | T_float -> "float"
  | T_bool -> "bool"
  | T_any -> "any"

let equal_col_type a b = a = b

let col_type_tag = function
  | T_string -> 0
  | T_int -> 1
  | T_float -> 2
  | T_bool -> 3
  | T_any -> 4

let col_type_of_tag = function
  | 0 -> T_string
  | 1 -> T_int
  | 2 -> T_float
  | 3 -> T_bool
  | 4 -> T_any
  | t -> raise (Codec.Decode_error (Printf.sprintf "bad column type tag %d" t))

type column = { name : string; ty : col_type }

type t = { columns : column list; key_column : int }

let v ?(key_column = 0) columns =
  if columns = [] then Error "schema: no columns"
  else if key_column < 0 || key_column >= List.length columns then
    Error "schema: key column out of range"
  else
    let names = List.map (fun c -> c.name) columns in
    let sorted = List.sort_uniq String.compare names in
    if List.length sorted <> List.length names then
      Error "schema: duplicate column names"
    else Ok { columns; key_column }

let v_exn ?key_column columns =
  match v ?key_column columns with
  | Ok s -> s
  | Error e -> invalid_arg e

let arity t = List.length t.columns
let column_names t = List.map (fun c -> c.name) t.columns
let key_name t = (List.nth t.columns t.key_column).name

let column_index t name =
  let rec go i = function
    | [] -> None
    | c :: _ when String.equal c.name name -> Some i
    | _ :: rest -> go (i + 1) rest
  in
  go 0 t.columns

let equal a b =
  a.key_column = b.key_column
  && List.length a.columns = List.length b.columns
  && List.for_all2
       (fun x y -> String.equal x.name y.name && equal_col_type x.ty y.ty)
       a.columns b.columns

let encode w t =
  Codec.varint w t.key_column;
  Codec.list w
    (fun w c ->
      Codec.bytes w c.name;
      Codec.u8 w (col_type_tag c.ty))
    t.columns

let decode r =
  let key_column = Codec.read_varint r in
  let columns =
    Codec.read_list r (fun r ->
        let name = Codec.read_bytes r in
        let ty = col_type_of_tag (Codec.read_u8 r) in
        { name; ty })
  in
  match v ~key_column columns with
  | Ok t -> t
  | Error e -> raise (Codec.Decode_error e)

let cell_conforms ty (p : Primitive.t) =
  match ty, p with
  | _, Primitive.Null -> true
  | T_any, _ -> true
  | T_string, Primitive.String _ -> true
  | T_int, Primitive.Int _ -> true
  | T_float, Primitive.Float _ -> true
  | T_float, Primitive.Int _ -> true (* ints embed in float columns *)
  | T_bool, Primitive.Bool _ -> true
  | (T_string | T_int | T_float | T_bool), _ -> false

let check_row t row =
  if List.length row <> arity t then
    Error
      (Printf.sprintf "row arity %d, schema expects %d" (List.length row)
         (arity t))
  else begin
    let key_cell = List.nth row t.key_column in
    if key_cell = Primitive.Null then Error "key cell is null"
    else
      let rec go i cols cells =
        match cols, cells with
        | [], [] -> Ok ()
        | c :: cols, p :: cells ->
          if cell_conforms c.ty p then go (i + 1) cols cells
          else
            Error
              (Printf.sprintf "column %S: %s value in %s column" c.name
                 (Primitive.type_name p) (col_type_name c.ty))
        | _ -> assert false
      in
      go 0 t.columns row
  end

let type_of_primitive (p : Primitive.t) =
  match p with
  | Primitive.Null -> None
  | Primitive.Bool _ -> Some T_bool
  | Primitive.Int _ -> Some T_int
  | Primitive.Float _ -> Some T_float
  | Primitive.String _ -> Some T_string

let join a b =
  match a, b with
  | None, x | x, None -> x
  | Some x, Some y when equal_col_type x y -> Some x
  | Some T_int, Some T_float | Some T_float, Some T_int -> Some T_float
  | Some _, Some _ -> Some T_any

let join_cell tys i p = if i < Array.length tys then tys.(i) <- join tys.(i) (type_of_primitive p)

let of_types ?key_column ~header tys =
  let columns =
    List.mapi (fun i name -> { name; ty = Option.value tys.(i) ~default:T_string }) header
  in
  (* Duplicate names are refused before the key column is checked, as
     the import always has. *)
  Result.bind (v columns) (fun _ -> v ?key_column columns)

let pp fmt t =
  Format.fprintf fmt "@[<h>(%a)@]"
    (Format.pp_print_list
       ~pp_sep:(fun fmt () -> Format.pp_print_string fmt ", ")
       (fun fmt (i, c) ->
         Format.fprintf fmt "%s%s:%s" c.name
           (if i = t.key_column then "*" else "")
           (col_type_name c.ty)))
    (List.mapi (fun i c -> (i, c)) t.columns)
