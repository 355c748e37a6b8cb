module Hash = Fb_hash.Hash

type member = {
  name : string;
  backend : Store.t;
  mutable down : bool;
}

type repair_stats = {
  mutable fallback_reads : int;
  mutable repaired : int;
  mutable rejected : int;
}

type t = {
  members : member array;
  ring : (string * int) array;   (* (point-hex, member index), sorted *)
  replicas : int;
  stats : repair_stats;
  mutable agg : Store.stats;     (* aggregate put/get accounting *)
}

type health = {
  member : string;
  down : bool;
  chunks : int;
  bytes : int;
}

(* Ring points are hex digests, compared lexicographically — the same key
   space chunk ids live in. *)
let ring_points ~virtual_nodes members =
  let points = ref [] in
  Array.iteri
    (fun idx m ->
      for v = 0 to virtual_nodes - 1 do
        let point =
          Hash.to_hex (Hash.of_string (Printf.sprintf "%s#%d" m.name v))
        in
        points := (point, idx) :: !points
      done)
    members;
  let arr = Array.of_list !points in
  Array.sort compare arr;
  arr

let create ?(replicas = 2) ?(virtual_nodes = 64) ~members () =
  if members = [] then invalid_arg "Sharded_store.create: no members";
  if replicas < 1 then invalid_arg "Sharded_store.create: replicas must be >= 1";
  if virtual_nodes < 1 then
    invalid_arg "Sharded_store.create: virtual_nodes must be >= 1";
  let members =
    Array.of_list
      (List.map (fun (name, backend) -> { name; backend; down = false }) members)
  in
  { members;
    ring = ring_points ~virtual_nodes members;
    replicas = min replicas (Array.length members);
    stats = { fallback_reads = 0; repaired = 0; rejected = 0 };
    agg = Store.empty_stats }

(* First [replicas] distinct members clockwise from the id's ring
   position. *)
let owner_indices t id =
  let key = Hash.to_hex id in
  let n = Array.length t.ring in
  (* Binary search: first ring point >= key (wrapping). *)
  let start =
    let lo = ref 0 and hi = ref n in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if fst t.ring.(mid) < key then lo := mid + 1 else hi := mid
    done;
    !lo mod n
  in
  let seen = Hashtbl.create 4 in
  let out = ref [] in
  let i = ref start in
  while Hashtbl.length seen < t.replicas && Hashtbl.length seen < Array.length t.members do
    let idx = snd t.ring.(!i mod n) in
    if not (Hashtbl.mem seen idx) then begin
      Hashtbl.replace seen idx ();
      out := idx :: !out
    end;
    incr i
  done;
  List.rev !out

let owners t id = List.map (fun i -> t.members.(i).name) (owner_indices t id)

let up_owners t id =
  List.filter (fun i -> not t.members.(i).down) (owner_indices t id)

let set_down t name flag =
  match Array.find_opt (fun m -> String.equal m.name name) t.members with
  | Some m -> m.down <- flag
  | None -> invalid_arg ("Sharded_store.set_down: unknown member " ^ name)

let health t =
  Array.to_list
    (Array.map
       (fun m ->
         let s = Store.stats m.backend in
         { member = m.name;
           down = m.down;
           chunks = s.Store.physical_chunks;
           bytes = s.Store.physical_bytes })
       t.members)

let repair_stats t = t.stats

let store t =
  let put chunk =
    let id = Chunk.hash chunk in
    let size = Chunk.encoded_size chunk in
    let targets = up_owners t id in
    if targets = [] then
      (* Every owner down: the write cannot be durably placed. *)
      raise (Failure "sharded store: all owners down");
    let fresh =
      List.fold_left
        (fun fresh idx ->
          let m = t.members.(idx) in
          let was = Store.mem m.backend id in
          ignore (Store.put m.backend chunk);
          fresh || not was)
        false targets
    in
    let s = t.agg in
    t.agg <-
      { s with
        puts = s.puts + 1;
        logical_bytes = s.logical_bytes + size;
        dedup_hits = (s.dedup_hits + if fresh then 0 else 1);
        physical_chunks = (s.physical_chunks + if fresh then 1 else 0);
        physical_bytes = (s.physical_bytes + if fresh then size else 0) };
    id
  in
  (* Read from owners in preference order; verify, fall back, repair. *)
  let get_raw id =
    t.agg <- { t.agg with gets = t.agg.gets + 1 };
    let owner_list = owner_indices t id in
    let rec try_owners tried = function
      | [] -> None
      | idx :: rest ->
        let m = t.members.(idx) in
        if m.down then try_owners (idx :: tried) rest
        else (
          match m.backend.Store.get_raw id with
          | None -> try_owners (idx :: tried) rest
          | Some raw ->
            if Hash.equal (Hash.of_string raw) id then begin
              if tried <> [] then begin
                t.stats.fallback_reads <- t.stats.fallback_reads + 1;
                (* Read repair: give the failed owners a good copy. *)
                match Chunk.decode raw with
                | Ok chunk ->
                  List.iter
                    (fun j ->
                      let peer = t.members.(j) in
                      if not peer.down then begin
                        ignore (Store.put peer.backend chunk);
                        t.stats.repaired <- t.stats.repaired + 1
                      end)
                    tried
                | Error _ -> ()
              end;
              Some raw
            end
            else begin
              (* Corrupt replica: refuse it, drop it, look elsewhere. *)
              t.stats.rejected <- t.stats.rejected + 1;
              ignore (m.backend.Store.delete id);
              try_owners (idx :: tried) rest
            end)
    in
    try_owners [] owner_list
  in
  let get id =
    match get_raw id with
    | None -> None
    | Some raw -> (
      match Chunk.decode raw with Ok c -> Some c | Error _ -> None)
  in
  let peek id =
    (* Maintenance view: first healthy copy that verifies, no counters and
       no read repair. *)
    List.find_map
      (fun idx ->
        let m = t.members.(idx) in
        if m.down then None
        else
          match m.backend.Store.peek id with
          | Some raw when Hash.equal (Hash.of_string raw) id -> Some raw
          | _ -> None)
      (owner_indices t id)
  in
  let mem id =
    List.exists
      (fun idx ->
        let m = t.members.(idx) in
        (not m.down) && Store.mem m.backend id)
      (owner_indices t id)
  in
  (* Distinct chunks across members; replicas visited once. *)
  let union each =
    let seen = Hash.Tbl.create 1024 in
    let fresh id =
      (not (Hash.Tbl.mem seen id)) && (Hash.Tbl.replace seen id (); true)
    in
    Array.iter
      (fun (m : member) -> if not m.down then each m.backend fresh)
      t.members
  in
  let iter f =
    union (fun s fresh ->
        s.Store.iter (fun id encoded -> if fresh id then f id encoded))
  in
  let ids f =
    union (fun s fresh -> s.Store.ids (fun id -> if fresh id then f id))
  in
  let delete id =
    let deleted = ref false in
    Array.iter
      (fun (m : member) -> if m.backend.Store.delete id then deleted := true)
      t.members;
    if !deleted then begin
      let s = t.agg in
      t.agg <- { s with physical_chunks = max 0 (s.physical_chunks - 1) }
    end;
    !deleted
  in
  { Store.name = Printf.sprintf "sharded(%d/%d)" t.replicas (Array.length t.members);
    put;
    get;
    get_raw;
    peek;
    mem;
    stats = (fun () -> t.agg);
    iter;
    ids;
    delete }

let rebalance t =
  let st = store t in
  let copies = ref 0 in
  st.Store.iter (fun id encoded ->
      match Chunk.decode encoded with
      | Error _ -> ()
      | Ok chunk ->
        List.iter
          (fun idx ->
            let m = t.members.(idx) in
            if (not m.down) && not (Store.mem m.backend id) then begin
              ignore (Store.put m.backend chunk);
              incr copies
            end)
          (owner_indices t id));
  !copies
