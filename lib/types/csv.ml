(* The one scanner.  A cell reaches [cell] as its text: a copy of its
   range of the document, or, for a quoted cell holding a doubled quote,
   the contents of the scratch buffer it was unescaped into.  [width]
   counts the cells of the current row, so that EOF right after a
   separator ends a row with one more empty cell while bare EOF after a
   line break creates no row. *)
let scan s ~cell ~row =
  let n = String.length s in
  let width = ref 0 in
  let emit text = incr width; cell text in
  let emit_range off len = emit (String.sub s off len) in
  let end_row () = width := 0; row () in
  let lf_follows i = i + 1 < n && String.unsafe_get s (i + 1) = '\n' in
  let unescaped = Buffer.create 64 in
  (* Past a cell: the end, a separator or a line break; anything else can
     only follow a closing quote, since an unquoted cell runs up to one of
     those. *)
  let rec next i =
    if i >= n then (end_row (); Ok ())
    else
      match String.unsafe_get s i with
      | ',' -> start (i + 1)
      | '\n' -> end_row (); start (i + 1)
      | '\r' when lf_follows i -> end_row (); start (i + 2)
      | c -> Error (Printf.sprintf "csv: unexpected %C after closing quote at %d" c i)
  and start i =
    if i >= n then begin
      if !width > 0 then (emit ""; end_row ());
      Ok ()
    end
    else
      match String.unsafe_get s i with
      | '"' -> quoted (i + 1)
      | ',' | '\n' -> emit ""; next i
      | '\r' when lf_follows i -> emit ""; next i
      | _ -> unquoted i (i + 1)
  and unquoted j i =
    if i >= n then (emit_range j (i - j); end_row (); Ok ())
    else
      match String.unsafe_get s i with
      | '"' -> Error (Printf.sprintf "csv: stray quote at offset %d" i)
      | ',' | '\n' -> emit_range j (i - j); next i
      | '\r' when lf_follows i -> emit_range j (i - j); next i
      | _ -> unquoted j (i + 1)
  (* A quoted cell from [j] is copied straight from [s] if it holds no
     doubled quote, and is unescaped into [unescaped] otherwise. *)
  and quoted j =
    match String.index_from_opt s j '"' with
    | None -> Error "csv: unterminated quoted field"
    | Some q when q + 1 < n && String.unsafe_get s (q + 1) = '"' ->
      Buffer.clear unescaped;
      Buffer.add_substring unescaped s j (q + 1 - j);
      escaped (q + 2)
    | Some q -> emit_range j (q - j); next (q + 1)
  and escaped i =
    match String.index_from_opt s i '"' with
    | None -> Error "csv: unterminated quoted field"
    | Some q when q + 1 < n && String.unsafe_get s (q + 1) = '"' ->
      Buffer.add_substring unescaped s i (q + 1 - i);
      escaped (q + 2)
    | Some q ->
      Buffer.add_substring unescaped s i (q - i);
      emit (Buffer.contents unescaped);
      next (q + 1)
  in
  start 0

let parse s =
  let rows = ref [] and cells = ref [] in
  let cell c = cells := c :: !cells in
  let row () = rows := List.rev !cells :: !rows; cells := [] in
  Result.map (fun () -> List.rev !rows) (scan s ~cell ~row)

let parse_exn s =
  match parse s with Ok rows -> rows | Error e -> invalid_arg e

let add_cell buf s off len =
  let special = ref false in
  for i = off to off + len - 1 do
    match String.unsafe_get s i with ',' | '"' | '\n' | '\r' -> special := true | _ -> ()
  done;
  if not !special then Buffer.add_substring buf s off len
  else begin
    Buffer.add_char buf '"';
    for i = off to off + len - 1 do
      let c = String.unsafe_get s i in
      if c = '"' then Buffer.add_string buf "\"\"" else Buffer.add_char buf c
    done;
    Buffer.add_char buf '"'
  end

let render rows =
  let buf = Buffer.create 4096 in
  List.iter
    (fun row ->
      List.iteri
        (fun i cell ->
          if i > 0 then Buffer.add_char buf ',';
          add_cell buf cell 0 (String.length cell))
        row;
      Buffer.add_char buf '\n')
    rows;
  Buffer.contents buf
