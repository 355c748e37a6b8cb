(* The two-pass CSV table import and export that [Table.of_csv] and
   [Table.to_csv] replaced, kept as the tests' oracle (verbatim, except
   that a row a later row with the same key replaces is dropped before
   typing): a document
   parsed into rows of strings, every cell typed by [Primitive.parse],
   the schema inferred ([Schema.infer]), rows checked and inserted as one
   batch; and the table decoded into rows of primitives, spelled and
   rendered. *)

module Schema = Fb_types.Schema
module Table = Fb_types.Table

module Csv = struct
  let parse s =
    let n = String.length s in
    let rows = ref [] and row = ref [] in
    let cell = Buffer.create 64 in
    let flush_cell () =
      row := Buffer.contents cell :: !row;
      Buffer.clear cell
    in
    let flush_row () =
      flush_cell ();
      rows := List.rev !row :: !rows;
      row := []
    in
    (* States: Start of cell / unquoted / quoted / after closing quote. *)
    let rec start i =
      if i >= n then finish_at_end ~had_cell:false
      else
        match s.[i] with
        | '"' -> quoted (i + 1)
        | ',' -> (flush_cell (); start (i + 1))
        | '\n' -> (flush_row (); start (i + 1))
        | '\r' when i + 1 < n && s.[i + 1] = '\n' -> (flush_row (); start (i + 2))
        | c -> (Buffer.add_char cell c; unquoted (i + 1))
    and unquoted i =
      if i >= n then finish_at_end ~had_cell:true
      else
        match s.[i] with
        | ',' -> (flush_cell (); start (i + 1))
        | '\n' -> (flush_row (); start (i + 1))
        | '\r' when i + 1 < n && s.[i + 1] = '\n' -> (flush_row (); start (i + 2))
        | '"' -> Error (Printf.sprintf "csv: stray quote at offset %d" i)
        | c -> (Buffer.add_char cell c; unquoted (i + 1))
    and quoted i =
      if i >= n then Error "csv: unterminated quoted field"
      else
        match s.[i] with
        | '"' ->
          if i + 1 < n && s.[i + 1] = '"' then (Buffer.add_char cell '"'; quoted (i + 2))
          else after_quote (i + 1)
        | c -> (Buffer.add_char cell c; quoted (i + 1))
    and after_quote i =
      if i >= n then finish_at_end ~had_cell:true
      else
        match s.[i] with
        | ',' -> (flush_cell (); start (i + 1))
        | '\n' -> (flush_row (); start (i + 1))
        | '\r' when i + 1 < n && s.[i + 1] = '\n' -> (flush_row (); start (i + 2))
        | c ->
          Error (Printf.sprintf "csv: unexpected %C after closing quote at %d" c i)
    and finish_at_end ~had_cell =
      (* A pending cell, or a pending row with cells, terminates the last
         row; bare EOF after a newline does not create an empty row. *)
      if had_cell || !row <> [] || Buffer.length cell > 0 then flush_row ();
      Ok (List.rev !rows)
    in
    start 0

  let needs_quoting cell =
    String.exists (fun c -> c = ',' || c = '"' || c = '\n' || c = '\r') cell

  let render_cell buf cell =
    if needs_quoting cell then begin
      Buffer.add_char buf '"';
      String.iter
        (fun c ->
          if c = '"' then Buffer.add_string buf "\"\""
          else Buffer.add_char buf c)
        cell;
      Buffer.add_char buf '"'
    end
    else Buffer.add_string buf cell

  let render rows =
    let buf = Buffer.create 4096 in
    List.iter
      (fun row ->
        List.iteri
          (fun i cell ->
            if i > 0 then Buffer.add_char buf ',';
            render_cell buf cell)
          row;
        Buffer.add_char buf '\n')
      rows;
    Buffer.contents buf
end

module Primitive = struct
  include Fb_types.Primitive

  let looks_like_float s =
    (* Reject nan/inf-as-data and hex floats: CSV cells with those spellings
       stay strings. *)
    String.length s > 0
    && String.exists (fun c -> c = '.' || c = 'e' || c = 'E') s
    && String.for_all
         (fun c ->
           (c >= '0' && c <= '9')
           || c = '.' || c = 'e' || c = 'E' || c = '+' || c = '-')
         s

  let parse s =
    if s = "" then Null
    else if s = "true" then Bool true
    else if s = "false" then Bool false
    else
      match Int64.of_string_opt s with
      | Some i -> Int i
      | None ->
        if looks_like_float s then
          match float_of_string_opt s with
          | Some f -> Float f
          | None -> String s
        else String s
end

let type_of_primitive (p : Primitive.t) =
  match p with
  | Primitive.Null -> None
  | Primitive.Bool _ -> Some Schema.T_bool
  | Primitive.Int _ -> Some Schema.T_int
  | Primitive.Float _ -> Some Schema.T_float
  | Primitive.String _ -> Some Schema.T_string

let join a b =
  match a, b with
  | None, x | x, None -> x
  | Some x, Some y when Schema.equal_col_type x y -> Some x
  | Some Schema.T_int, Some Schema.T_float | Some Schema.T_float, Some Schema.T_int -> Some Schema.T_float
  | Some _, Some _ -> Some Schema.T_any

(* [Schema.infer], which raises on duplicate header names. *)
let infer ~header rows =
  let n = List.length header in
  let tys = Array.make n None in
  List.iter
    (fun row ->
      List.iteri
        (fun i p -> if i < n then tys.(i) <- join tys.(i) (type_of_primitive p))
        row)
    rows;
  let columns =
    List.mapi
      (fun i name ->
        { Schema.name; ty = Option.value tys.(i) ~default:Schema.T_string })
      header
  in
  Schema.v_exn ~key_column:0 columns

let of_csv store ?(key_column = 0) content =
  match Csv.parse content with
  | Error _ as e -> e
  | Ok [] -> Error "csv: empty document"
  | Ok (header :: data) ->
    let parsed = List.map (List.map Primitive.parse) data in
    (* A row that a later row with the same key replaces types nothing. *)
    let width = List.length header in
    let typed =
      if key_column < 0 || key_column >= width
         || List.exists (fun row -> List.length row <> width) parsed
      then parsed
      else
        let key row = Primitive.to_string (List.nth row key_column) in
        let last = Hashtbl.create 64 in
        List.iter (fun row -> Hashtbl.replace last (key row) row) parsed;
        List.filter (fun row -> Hashtbl.find last (key row) == row) parsed
    in
    let schema = infer ~header typed in
    (match Schema.v ~key_column (schema.Schema.columns :> Schema.column list) with
     | Error _ as e -> e
     | Ok schema ->
       let width = Schema.arity schema in
       let rec pad_check i = function
         | [] -> Ok ()
         | row :: rest ->
           if List.length row <> width then
             Error
               (Printf.sprintf "csv: row %d has %d cells, header has %d"
                  (i + 2) (List.length row) width)
           else pad_check (i + 1) rest
       in
       (match pad_check 0 parsed with
        | Error _ as e -> e
        | Ok () -> Table.insert_many (Table.create store schema) typed))

let to_csv t =
  let header = Schema.column_names (Table.schema t) in
  let rows =
    List.map (fun row -> List.map Primitive.to_string row) (Table.to_rows t)
  in
  Csv.render (header :: rows)
