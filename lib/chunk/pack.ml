module Hash = Fb_hash.Hash

(* Layout:
     magic "FBPACK1\n" (8 bytes)
     count   (8-byte big-endian)
     index   count * (32-byte id, 8-byte offset, 8-byte length), id-sorted;
             offsets are absolute file positions
     data    concatenated encoded chunks *)

let magic = "FBPACK1\n"
let header_size = String.length magic + 8
let index_entry_size = 32 + 8 + 8

type t = {
  path : string;
  ids : Hash.t array;       (* sorted *)
  offsets : int array;
  lengths : int array;
}

(* Push directory metadata (the rename) to stable storage; best-effort. *)
let fsync_dir dir =
  match Unix.openfile dir [ Unix.O_RDONLY ] 0 with
  | fd ->
    Fun.protect
      ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
      (fun () -> try Unix.fsync fd with Unix.Unix_error _ -> ())
  | exception Unix.Unix_error _ -> ()

let write_file ?(fsync = false) ~path entries =
  let rec check = function
    | [] -> Ok ()
    | (id, encoded) :: rest ->
      if Hash.equal (Hash.of_string encoded) id then check rest
      else
        Error
          (Printf.sprintf "pack: bytes for %s hash elsewhere" (Hash.to_hex id))
  in
  match check entries with
  | Error _ as e -> e
  | Ok () ->
    let entries =
      List.sort_uniq
        (fun (a, _) (b, _) -> Hash.compare a b)
        entries
    in
    let n = List.length entries in
    let index_size = n * index_entry_size in
    let data_start = header_size + index_size in
    let oc = open_out_bin (path ^ ".tmp") in
    (try
       output_string oc magic;
       let b8 = Bytes.create 8 in
       Bytes.set_int64_be b8 0 (Int64.of_int n);
       output_bytes oc b8;
       let off = ref data_start in
       List.iter
         (fun (id, encoded) ->
           output_string oc (Hash.to_raw id);
           Bytes.set_int64_be b8 0 (Int64.of_int !off);
           output_bytes oc b8;
           Bytes.set_int64_be b8 0 (Int64.of_int (String.length encoded));
           output_bytes oc b8;
           off := !off + String.length encoded)
         entries;
       List.iter (fun (_, encoded) -> output_string oc encoded) entries;
       (* The tmp bytes must be stable before the rename publishes them,
          or a crash can promote a torn pack. *)
       if fsync then begin
         flush oc;
         Unix.fsync (Unix.descr_of_out_channel oc)
       end;
       close_out oc;
       Sys.rename (path ^ ".tmp") path;
       if fsync then fsync_dir (Filename.dirname path);
       Ok n
     with e ->
       close_out_noerr oc;
       (try Sys.remove (path ^ ".tmp") with Sys_error _ -> ());
       Error (Printexc.to_string e))

let pack_store store ~path =
  let entries = ref [] in
  store.Store.iter (fun id encoded -> entries := (id, encoded) :: !entries);
  write_file ~path !entries

let open_file ~path =
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        let m = really_input_string ic (String.length magic) in
        if not (String.equal m magic) then failwith "pack: bad magic";
        let n = Int64.to_int (String.get_int64_be (really_input_string ic 8) 0) in
        if n < 0 then failwith "pack: negative count";
        let file_size = in_channel_length ic in
        if header_size + (n * index_entry_size) > file_size then
          failwith "pack: truncated index";
        let ids = Array.make n (Hash.of_string "") in
        let offsets = Array.make n 0 in
        let lengths = Array.make n 0 in
        for i = 0 to n - 1 do
          let raw = really_input_string ic index_entry_size in
          ids.(i) <- Hash.of_raw_exn (String.sub raw 0 32);
          offsets.(i) <- Int64.to_int (String.get_int64_be raw 32);
          lengths.(i) <- Int64.to_int (String.get_int64_be raw 40);
          if i > 0 && Hash.compare ids.(i - 1) ids.(i) >= 0 then
            failwith "pack: index not sorted";
          if offsets.(i) < 0 || lengths.(i) < 0
             || offsets.(i) + lengths.(i) > file_size
          then failwith "pack: entry out of bounds"
        done;
        { path; ids; offsets; lengths })
  with
  | t -> Ok t
  | exception Failure e -> Error e
  | exception Sys_error e -> Error e
  | exception End_of_file -> Error "pack: truncated file"

let count t = Array.length t.ids

let index_of t id =
  let lo = ref 0 and hi = ref (Array.length t.ids - 1) in
  let found = ref (-1) in
  while !found < 0 && !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    let c = Hash.compare id t.ids.(mid) in
    if c = 0 then found := mid
    else if c < 0 then hi := mid - 1
    else lo := mid + 1
  done;
  if !found >= 0 then Some !found else None

let mem t id = index_of t id <> None

let find t id =
  match index_of t id with
  | None -> None
  | Some i -> (
    match
      let ic = open_in_bin t.path in
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          seek_in ic t.offsets.(i);
          really_input_string ic t.lengths.(i))
    with
    | s -> Some s
    | exception (Sys_error _ | End_of_file) -> None)

let frozen name =
  Printf.ksprintf (fun s () -> raise (Failure s)) "pack %s is read-only" name

let reader t =
  let stats =
    ref
      { Store.empty_stats with
        physical_chunks = count t;
        physical_bytes = Array.fold_left ( + ) 0 t.lengths }
  in
  let get_raw id =
    stats := { !stats with gets = !stats.gets + 1 };
    find t id
  in
  { Store.name = "pack:" ^ t.path;
    put = (fun _ -> frozen t.path ());
    ingest = Store.plain_ingest;
    get =
      (fun id ->
        match get_raw id with
        | None -> None
        | Some raw -> (
          match Chunk.decode raw with Ok c -> Some c | Error _ -> None));
    get_raw;
    peek = (fun id -> find t id);
    mem = (fun id -> mem t id);
    stats = (fun () -> !stats);
    iter =
      (fun f ->
        Array.iter
          (fun id ->
            match find t id with Some raw -> f id raw | None -> ())
          t.ids);
    ids = (fun f -> Array.iter f t.ids);
    delete = (fun _ -> frozen t.path ()) }

let with_overlay ~packs overlay =
  let in_pack id = List.exists (fun p -> mem p id) packs in
  let find_pack id = List.find_map (fun p -> find p id) packs in
  let stats = ref Store.empty_stats in
  let put chunk =
    let id = Chunk.hash chunk in
    let size = Chunk.encoded_size chunk in
    let s = !stats in
    if in_pack id then begin
      stats :=
        { s with
          puts = s.puts + 1;
          dedup_hits = s.dedup_hits + 1;
          logical_bytes = s.logical_bytes + size };
      id
    end
    else begin
      stats :=
        { s with
          puts = s.puts + 1;
          logical_bytes = s.logical_bytes + size };
      Store.put overlay chunk
    end
  in
  let get_raw id =
    stats := { !stats with gets = !stats.gets + 1 };
    match overlay.Store.get_raw id with
    | Some raw -> Some raw
    | None -> find_pack id
  in
  let get id =
    match get_raw id with
    | None -> None
    | Some raw -> (
      match Chunk.decode raw with Ok c -> Some c | Error _ -> None)
  in
  let peek id =
    match overlay.Store.peek id with
    | Some raw -> Some raw
    | None -> find_pack id
  in
  let mem id = overlay.Store.mem id || in_pack id in
  (* Overlay first, then each pack; [fresh id] is true only the first
     time [id] turns up. *)
  let union overlay_each pack_each =
    let seen = Hash.Tbl.create 1024 in
    let fresh id =
      (not (Hash.Tbl.mem seen id)) && (Hash.Tbl.replace seen id (); true)
    in
    overlay_each fresh;
    List.iter
      (fun p -> Array.iter (fun id -> if fresh id then pack_each p id) p.ids)
      packs
  in
  let iter f =
    union
      (fun fresh ->
        overlay.Store.iter (fun id raw -> if fresh id then f id raw))
      (fun p id -> match find p id with Some raw -> f id raw | None -> ())
  in
  let ids f =
    union
      (fun fresh -> overlay.Store.ids (fun id -> if fresh id then f id))
      (fun _ id -> f id)
  in
  let combined () =
    let o = Store.stats overlay in
    let pack_chunks = List.fold_left (fun a p -> a + count p) 0 packs in
    let pack_bytes =
      List.fold_left (fun a p -> a + Array.fold_left ( + ) 0 p.lengths) 0 packs
    in
    { !stats with
      physical_chunks = o.Store.physical_chunks + pack_chunks;
      physical_bytes = o.Store.physical_bytes + pack_bytes }
  in
  { Store.name = Printf.sprintf "overlay+%d packs" (List.length packs);
    put;
    ingest = Store.plain_ingest;
    get;
    get_raw;
    peek;
    mem;
    stats = combined;
    iter;
    ids;
    delete = (fun id -> overlay.Store.delete id) }
