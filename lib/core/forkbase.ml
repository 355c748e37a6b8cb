module Store = Fb_chunk.Store
module Hash = Fb_hash.Hash
module Value = Fb_types.Value
module Table = Fb_types.Table
module Fnode = Fb_repr.Fnode
module Branch = Fb_repr.Branch
module Dag = Fb_repr.Dag
module Verify = Fb_repr.Verify
module Pmap = Fb_postree.Pmap
module Pset = Fb_postree.Pset
module Plist = Fb_postree.Plist
module Pblob = Fb_postree.Pblob
module Obs = Fb_obs.Obs

(* Operation-level latency histograms (the numbers the paper's Figs. 4-6
   quote distributions of) + a trace span per request, so one slow call
   decomposes into its chunk loads / tree walks below. *)
let h_put = Obs.histogram "fb.put_seconds"
let h_get = Obs.histogram "fb.get_seconds"
let h_merge = Obs.histogram "fb.merge_seconds"
let h_diff = Obs.histogram "fb.diff_seconds"

let timed h name f = Obs.time h (fun () -> Obs.with_span name f)

type uid = Hash.t

type head_event = {
  key : string;
  branch : string;
  new_head : uid;
  old_head : uid option;
}

type watch = int

type watcher = {
  id : int;
  key_filter : string option;
  branch_filter : string option;
  callback : head_event -> unit;
}

type t = {
  store : Store.t;
  branches : Branch.t;
  tags : Branch.t;   (* immutable name -> uid pointers, per key *)
  acl : Acl.t;
  (* Guards the watcher list, the write-section state and the trusted
     set below; callbacks themselves always run outside it. *)
  watch_lock : Mutex.t;
  mutable watchers : watcher list;
  mutable next_watch : int;
  mutable defer_depth : int; (* open write sections *)
  pending : head_event Queue.t;
  (* Ids [sync_put] stored inside the open write sections: its closure
     check takes them as present without a probe.  Emptied when the
     outermost section ends, by [gc] and [scrub] before they delete, and
     when it reaches [trusted_max]. *)
  trusted : unit Hash.Tbl.t;
}

let trusted_max = 1 lsl 16

let ( let* ) = Result.bind

(* Storage faults travel as exceptions below this layer —
   [Fb_chunk.Store.Transient] from the chunk store (retryable),
   [Postree.Corrupt] from tree traversal over damaged chunks — and so does
   [Postree.Unbuildable], a tree build refusing its input (a key over the
   limit).  Every store-touching entry point converts them into typed
   errors here, so nothing raises across the API boundary. *)
let guard f =
  try f () with
  | Store.Transient msg -> Error (Errors.Transient msg)
  | Fb_postree.Postree.Corrupt msg -> Error (Errors.Corrupt msg)
  | Fb_postree.Postree.Unbuildable msg -> Error (Errors.Invalid msg)

let create ?(acl = Acl.open_instance ()) ?journal store =
  let table t = Branch.create ?journal:(Option.map (fun j -> j t) journal) () in
  { store; branches = table Fb_chunk.Log_store.Branches;
    tags = table Fb_chunk.Log_store.Tags; acl;
    watch_lock = Mutex.create (); watchers = []; next_watch = 0;
    defer_depth = 0; pending = Queue.create (); trusted = Hash.Tbl.create 64 }

let watch ?key ?branch t callback =
  Mutex.protect t.watch_lock (fun () ->
      let id = t.next_watch in
      t.next_watch <- id + 1;
      t.watchers <-
        { id; key_filter = key; branch_filter = branch; callback }
        :: t.watchers;
      id)

let unwatch t id =
  Mutex.protect t.watch_lock (fun () ->
      t.watchers <- List.filter (fun w -> w.id <> id) t.watchers)

let deliver_event t event =
  let watchers = Mutex.protect t.watch_lock (fun () -> t.watchers) in
  List.iter
    (fun w ->
      let matches filter v =
        match filter with None -> true | Some f -> String.equal f v
      in
      if matches w.key_filter event.key && matches w.branch_filter event.branch
      then try w.callback event with _ -> ())
    watchers

(* Every head movement in the engine funnels through here. *)
let move_head t ~key ~branch uid =
  let old_head = Branch.head t.branches ~key ~branch in
  Branch.set_head t.branches ~key ~branch uid;
  let event = { key; branch; new_head = uid; old_head } in
  let deferred =
    Mutex.protect t.watch_lock (fun () ->
        if t.defer_depth > 0 then begin
          Queue.add event t.pending;
          true
        end
        else false)
  in
  if not deferred then deliver_event t event

let with_deferred_watch t f =
  Mutex.protect t.watch_lock (fun () -> t.defer_depth <- t.defer_depth + 1);
  let finish () =
    Mutex.protect t.watch_lock (fun () ->
        t.defer_depth <- t.defer_depth - 1;
        if t.defer_depth = 0 then begin
          let evs = List.of_seq (Queue.to_seq t.pending) in
          Queue.clear t.pending;
          Hash.Tbl.reset t.trusted;
          evs
        end
        else [])
  in
  match f () with
  | v ->
    let evs = finish () in
    (v, fun () -> List.iter (deliver_event t) evs)
  | exception e ->
    (* The protected section failed: deliver what already happened right
       away rather than lose the notifications. *)
    List.iter (deliver_event t) (finish ());
    raise e

let store t = t.store
let acl t = t.acl
let branch_table t = t.branches
let tag_table (t : t) = t.tags

let default_user = "anonymous"

let check t ~user ~key ~branch level = Acl.check t.acl ~user ~key ~branch level

let head_uid t ~key ~branch =
  match Branch.head t.branches ~key ~branch with
  | Some uid -> Ok uid
  | None ->
    if Branch.branches t.branches ~key = [] then Error (Errors.Key_not_found key)
    else Error (Errors.Branch_not_found { key; branch })

let load_fnode t uid =
  match Fnode.load t.store uid with
  | Ok fnode -> Ok fnode
  | Error e -> Error (Errors.Corrupt e)

let value_of_fnode t fnode =
  match Fnode.value t.store fnode with
  | Ok v -> Ok v
  | Error e -> Error (Errors.Corrupt e)

let next_seq t bases =
  let max_base =
    List.fold_left
      (fun acc base ->
        match Fnode.load t.store base with
        | Ok fnode -> max acc fnode.Fnode.seq
        | Error _ -> acc)
      0 bases
  in
  max_base + 1

let commit t ~key ~bases ~author ~message value =
  let fnode =
    Fnode.v ~key ~value_descriptor:(Value.descriptor value) ~bases ~author
      ~message ~seq:(next_seq t bases)
  in
  Fnode.store t.store fnode

(* ---------------- write ---------------- *)

let put ?(user = default_user) ?(message = "put") ?(branch = Branch.default_branch)
    t ~key value =
  timed h_put "forkbase.put" @@ fun () ->
  guard @@ fun () ->
  let* () = check t ~user ~key ~branch Acl.Write in
  let bases =
    match Branch.head t.branches ~key ~branch with
    | Some head -> [ head ]
    | None -> []
  in
  let uid = commit t ~key ~bases ~author:user ~message value in
  move_head t ~key ~branch uid;
  Ok uid

let put_cas ?(user = default_user) ?(message = "put")
    ?(branch = Branch.default_branch) t ~key ~expected_head value =
  guard @@ fun () ->
  let* () = check t ~user ~key ~branch Acl.Write in
  let current = Branch.head t.branches ~key ~branch in
  let matches =
    match current, expected_head with
    | None, None -> true
    | Some c, Some e -> Hash.equal c e
    | _ -> false
  in
  if not matches then
    Error
      (Errors.Merge_conflict
         { key;
           details =
             [ Printf.sprintf "branch %S moved: expected %s, found %s" branch
                 (match expected_head with
                  | Some e -> Hash.short e
                  | None -> "<none>")
                 (match current with
                  | Some c -> Hash.short c
                  | None -> "<none>") ] })
  else begin
    let uid =
      commit t ~key ~bases:(Option.to_list current) ~author:user ~message
        value
    in
    move_head t ~key ~branch uid;
    Ok uid
  end

let put_all ?(user = default_user) ?(message = "put") ?(branch = Branch.default_branch)
    t pairs =
  guard @@ fun () ->
  (* Validate everything up front so the head swap below cannot fail
     half-way: distinct keys, then write permission on each. *)
  let keys = List.map fst pairs in
  if List.length (List.sort_uniq String.compare keys) <> List.length keys
  then Errors.invalid "put_all: duplicate keys in batch"
  else
    let* () =
      List.fold_left
        (fun acc key ->
          let* () = acc in
          check t ~user ~key ~branch Acl.Write)
        (Ok ()) keys
    in
    (* Chunk writes are content-addressed and harmless if orphaned; only
       the final head updates are the commit point. *)
    let committed =
      List.map
        (fun (key, value) ->
          let bases = Option.to_list (Branch.head t.branches ~key ~branch) in
          (key, commit t ~key ~bases ~author:user ~message value))
        pairs
    in
    List.iter (fun (key, uid) -> move_head t ~key ~branch uid) committed;
    Ok committed

(* ---------------- read ---------------- *)

let head ?(user = default_user) ?(branch = Branch.default_branch) t ~key =
  let* () = check t ~user ~key ~branch Acl.Read in
  head_uid t ~key ~branch

let get ?user ?branch t ~key =
  timed h_get "forkbase.get" @@ fun () ->
  guard @@ fun () ->
  let* uid = head ?user ?branch t ~key in
  let* fnode = load_fnode t uid in
  value_of_fnode t fnode

let get_at ?(user = default_user) t uid =
  guard @@ fun () ->
  let* fnode = load_fnode t uid in
  let* () =
    check t ~user ~key:fnode.Fnode.key ~branch:"*" Acl.Read
  in
  value_of_fnode t fnode

let latest ?(user = default_user) t ~key =
  let bs =
    List.filter
      (fun (branch, _) -> Acl.allowed t.acl ~user ~key ~branch Acl.Read)
      (Branch.branches t.branches ~key)
  in
  if bs = [] then Error (Errors.Key_not_found key) else Ok bs

let meta ?(user = default_user) t uid =
  guard @@ fun () ->
  let* fnode = load_fnode t uid in
  let* () = check t ~user ~key:fnode.Fnode.key ~branch:"*" Acl.Read in
  Ok fnode

let get_as_of ?(user = default_user) ?(branch = Branch.default_branch) t ~key
    ~seq =
  guard @@ fun () ->
  let* () = check t ~user ~key ~branch Acl.Read in
  let* uid = head_uid t ~key ~branch in
  let* history =
    match Dag.history t.store uid with
    | Ok h -> Ok h
    | Error e -> Error (Errors.Corrupt e)
  in
  match List.find_opt (fun f -> f.Fnode.seq <= seq) history with
  | None ->
    Errors.invalid "no version of %s/%s at or before logical time %d" key
      branch seq
  | Some fnode -> value_of_fnode t fnode

let list_keys ?(user = default_user) t =
  List.filter
    (fun key ->
      List.exists
        (fun (branch, _) -> Acl.allowed t.acl ~user ~key ~branch Acl.Read)
        (Branch.branches t.branches ~key))
    (Branch.keys t.branches)

let log ?(user = default_user) ?(branch = Branch.default_branch) ?limit t ~key
    =
  guard @@ fun () ->
  let* () = check t ~user ~key ~branch Acl.Read in
  let* uid = head_uid t ~key ~branch in
  match Dag.history ?limit t.store uid with
  | Ok nodes -> Ok nodes
  | Error e -> Error (Errors.Corrupt e)

(* ---------------- branching ---------------- *)

let fork ?(user = default_user) ?(from_branch = Branch.default_branch) t ~key
    ~new_branch =
  guard @@ fun () ->
  let* () = check t ~user ~key ~branch:from_branch Acl.Read in
  let* () = check t ~user ~key ~branch:new_branch Acl.Admin in
  let* uid = head_uid t ~key ~branch:from_branch in
  if Branch.exists t.branches ~key ~branch:new_branch then
    Errors.invalid "branch %S already exists for key %S" new_branch key
  else begin
    move_head t ~key ~branch:new_branch uid;
    Ok uid
  end

let fork_at ?(user = default_user) t ~key ~new_branch uid =
  guard @@ fun () ->
  let* () = check t ~user ~key ~branch:new_branch Acl.Admin in
  let* fnode = load_fnode t uid in
  if not (String.equal fnode.Fnode.key key) then
    Errors.invalid "version %s belongs to key %S, not %S" (Hash.to_hex uid)
      fnode.Fnode.key key
  else if Branch.exists t.branches ~key ~branch:new_branch then
    Errors.invalid "branch %S already exists for key %S" new_branch key
  else begin
    move_head t ~key ~branch:new_branch uid;
    Ok uid
  end

let rename_branch ?(user = default_user) t ~key ~from_branch ~to_branch =
  let* () = check t ~user ~key ~branch:from_branch Acl.Admin in
  let* () = check t ~user ~key ~branch:to_branch Acl.Admin in
  match Branch.rename t.branches ~key ~from_branch ~to_branch with
  | Ok () -> Ok ()
  | Error e -> Error (Errors.Invalid e)

let delete_branch ?(user = default_user) t ~key ~branch =
  let* () = check t ~user ~key ~branch Acl.Admin in
  if Branch.remove t.branches ~key ~branch then Ok ()
  else Error (Errors.Branch_not_found { key; branch })

(* ---------------- tags ---------------- *)

let tag ?(user = default_user) t ~key ~name uid =
  guard @@ fun () ->
  let* () = check t ~user ~key ~branch:"*" Acl.Admin in
  let* fnode = load_fnode t uid in
  if not (String.equal fnode.Fnode.key key) then
    Errors.invalid "version %s belongs to key %S, not %S" (Hash.to_hex uid)
      fnode.Fnode.key key
  else if Branch.exists t.tags ~key ~branch:name then
    Errors.invalid "tag %S already exists for key %S (tags are immutable)"
      name key
  else begin
    Branch.set_head t.tags ~key ~branch:name uid;
    Ok ()
  end

let tags ?(user = default_user) (t : t) ~key =
  if Acl.allowed t.acl ~user ~key ~branch:"*" Acl.Read then
    Branch.branches t.tags ~key
  else []

let tag_lookup ?(user = default_user) t ~key ~name =
  let* () = check t ~user ~key ~branch:"*" Acl.Read in
  match Branch.head t.tags ~key ~branch:name with
  | Some uid -> Ok uid
  | None -> Errors.invalid "no tag %S for key %S" name key

let delete_tag ?(user = default_user) t ~key ~name =
  let* () = check t ~user ~key ~branch:"*" Acl.Admin in
  if Branch.remove t.tags ~key ~branch:name then Ok ()
  else Errors.invalid "no tag %S for key %S" name key

(* ---------------- diff ---------------- *)

let diff_versions ?(user = default_user) t uid1 uid2 =
  guard @@ fun () ->
  let* f1 = load_fnode t uid1 in
  let* f2 = load_fnode t uid2 in
  let* () = check t ~user ~key:f1.Fnode.key ~branch:"*" Acl.Read in
  let* () = check t ~user ~key:f2.Fnode.key ~branch:"*" Acl.Read in
  let* v1 = value_of_fnode t f1 in
  let* v2 = value_of_fnode t f2 in
  Diffview.compute v1 v2

let diff ?(user = default_user) t ~key ~branch1 ~branch2 =
  timed h_diff "forkbase.diff" @@ fun () ->
  guard @@ fun () ->
  let* () = check t ~user ~key ~branch:branch1 Acl.Read in
  let* () = check t ~user ~key ~branch:branch2 Acl.Read in
  let* u1 = head_uid t ~key ~branch:branch1 in
  let* u2 = head_uid t ~key ~branch:branch2 in
  diff_versions ~user t u1 u2

(* ---------------- merge ---------------- *)

type merge_strategy =
  | Fail_on_conflict
  | Prefer_ours
  | Prefer_theirs

let map_resolver strategy =
  match strategy with
  | Fail_on_conflict -> fun _ -> None
  | Prefer_ours -> Pmap.resolve_ours
  | Prefer_theirs -> Pmap.resolve_theirs

let set_resolver strategy =
  match strategy with
  | Fail_on_conflict -> fun _ -> None
  | Prefer_ours -> Pset.resolve_ours
  | Prefer_theirs -> Pset.resolve_theirs

let pp_map_conflict (c : Pmap.conflict) = Printf.sprintf "entry %S" c.Pmap.key
let pp_set_conflict (c : Pset.conflict) = Printf.sprintf "element %S" c.Pset.key

let pp_range side noun (d : Fb_postree.Seqtree.range_diff) =
  Printf.sprintf "%s edits %s range [%d,%d) of base" side noun d.old_pos
    (d.old_pos + d.old_len)

(* Structural three-way value merge.  Equal values and one-sided changes
   are handled uniformly for every type; entry-level merging exists for
   maps, sets and tables (the types with keyed entries); lists and blobs
   merge when the two sides edited disjoint ranges. *)
let merge_values t ~key ~strategy ~base ~ours ~theirs =
  ignore t;
  let conflict details = Error (Errors.Merge_conflict { key; details }) in
  (* An entry-level merge: the conflicts its resolver left, named. *)
  let entries wrap pp = function
    | Ok m -> Ok (wrap m)
    | Error cs -> conflict (List.map pp cs)
  in
  (* Both sides changed what cannot merge: only a strategy picks a winner. *)
  let pick details =
    match strategy with
    | Prefer_ours -> Ok ours
    | Prefer_theirs -> Ok theirs
    | Fail_on_conflict -> conflict details
  in
  let sequence noun wrap = function
    | Ok m -> Ok (wrap m)
    | Error (a, b) -> pick [ pp_range "ours" noun a; pp_range "theirs" noun b ]
  in
  if Value.equal ours theirs then Ok ours
  else if Value.equal base ours then Ok theirs   (* only theirs changed *)
  else if Value.equal base theirs then Ok ours   (* only ours changed *)
  else
    match (base : Value.t), (ours : Value.t), (theirs : Value.t) with
    | Value.Map b, Value.Map o, Value.Map h ->
      entries (fun m -> Value.Map m) pp_map_conflict
        (Pmap.merge ~on_conflict:(map_resolver strategy) ~base:b ~ours:o
           ~theirs:h ())
    | Value.Set b, Value.Set o, Value.Set h ->
      entries (fun s -> Value.Set s) pp_set_conflict
        (Pset.merge ~on_conflict:(set_resolver strategy) ~base:b ~ours:o
           ~theirs:h ())
    | Value.Table b, Value.Table o, Value.Table h ->
      let so = Table.schema o in
      if
        not
          (Fb_types.Schema.equal so (Table.schema h)
          && Fb_types.Schema.equal (Table.schema b) so)
      then conflict [ "table schemas diverged" ]
      else
        entries
          (fun rows ->
            Value.Table (Table.of_rows_root (Pmap.store rows) so (Pmap.root rows)))
          (fun (c : Pmap.conflict) -> Printf.sprintf "row %S" c.Pmap.key)
          (Pmap.merge ~on_conflict:(map_resolver strategy)
             ~base:(Table.rows_map b) ~ours:(Table.rows_map o)
             ~theirs:(Table.rows_map h) ())
    | Value.List b, Value.List o, Value.List h ->
      sequence "list" (fun l -> Value.List l)
        (Plist.merge ~base:b ~ours:o ~theirs:h)
    | Value.Blob b, Value.Blob o, Value.Blob h ->
      sequence "blob" (fun b -> Value.Blob b)
        (Pblob.merge ~base:b ~ours:o ~theirs:h)
    | _ ->
      (* No structural merge for primitives or type-changed values. *)
      pick
        [ Printf.sprintf "both sides changed this %s value"
            (Value.type_name ours) ]

let merge ?(user = default_user) ?message ?(strategy = Fail_on_conflict) t
    ~key ~into ~from_branch =
  timed h_merge "forkbase.merge" @@ fun () ->
  guard @@ fun () ->
  let* () = check t ~user ~key ~branch:into Acl.Write in
  let* () = check t ~user ~key ~branch:from_branch Acl.Read in
  let* ours_uid = head_uid t ~key ~branch:into in
  let* theirs_uid = head_uid t ~key ~branch:from_branch in
  if Hash.equal ours_uid theirs_uid then Ok ours_uid
  else
    let* base_uid =
      match Dag.merge_base t.store ours_uid theirs_uid with
      | Ok b -> Ok b
      | Error e -> Error (Errors.Corrupt e)
    in
    match base_uid with
    | Some b when Hash.equal b theirs_uid ->
      (* [from] is already contained in [into]. *)
      Ok ours_uid
    | Some b when Hash.equal b ours_uid ->
      (* Fast-forward [into] to [from]'s head. *)
      move_head t ~key ~branch:into theirs_uid;
      Ok theirs_uid
    | _ ->
      let* ours_fnode = load_fnode t ours_uid in
      let* theirs_fnode = load_fnode t theirs_uid in
      let* ours = value_of_fnode t ours_fnode in
      let* theirs = value_of_fnode t theirs_fnode in
      let* base =
        match base_uid with
        | None ->
          (* Unrelated histories: merge against an empty value of ours'
             shape so everything counts as added. *)
          (match (ours : Value.t) with
           | Value.Map _ -> Ok (Value.Map (Pmap.empty t.store))
           | Value.Set _ -> Ok (Value.Set (Pset.empty t.store))
           | Value.Table o ->
             Ok (Value.Table (Table.create t.store (Table.schema o)))
           | v -> Ok v)
        | Some b ->
          let* base_fnode = load_fnode t b in
          value_of_fnode t base_fnode
      in
      let* merged = merge_values t ~key ~strategy ~base ~ours ~theirs in
      let message =
        match message with
        | Some m -> m
        | None -> Printf.sprintf "merge %s into %s" from_branch into
      in
      let uid =
        commit t ~key ~bases:[ ours_uid; theirs_uid ] ~author:user ~message
          merged
      in
      move_head t ~key ~branch:into uid;
      Ok uid

(* A store that reads through to [base] and keeps its own writes in a
   throwaway in-memory store, so a preview can run the real merge without
   growing [base]. *)
let scratch_over (base : Store.t) =
  let scratch = Fb_chunk.Mem_store.create ~name:"merge-preview" () in
  let first f id =
    match f scratch id with Some _ as r -> r | None -> f base id
  in
  { base with
    Store.name = base.Store.name ^ "+preview";
    put = scratch.Store.put;
    get = first (fun s -> s.Store.get);
    get_raw = first (fun s -> s.Store.get_raw);
    peek = first (fun s -> s.Store.peek);
    mem = (fun id -> scratch.Store.mem id || base.Store.mem id);
    delete = scratch.Store.delete }

let merge_preview ?(user = default_user) t ~key ~into ~from_branch =
  guard @@ fun () ->
  let* () = check t ~user ~key ~branch:into Acl.Read in
  let* () = check t ~user ~key ~branch:from_branch Acl.Read in
  let* ours_uid = head_uid t ~key ~branch:into in
  let* theirs_uid = head_uid t ~key ~branch:from_branch in
  if Hash.equal ours_uid theirs_uid then Ok `Already_merged
  else
    let* base_uid =
      match Dag.merge_base t.store ours_uid theirs_uid with
      | Ok b -> Ok b
      | Error e -> Error (Errors.Corrupt e)
    in
    match base_uid with
    | Some b when Hash.equal b theirs_uid -> Ok `Already_merged
    | Some b when Hash.equal b ours_uid -> Ok `Fast_forward
    | _ -> (
      let t = { t with store = scratch_over t.store } in
      let* ours_fnode = load_fnode t ours_uid in
      let* theirs_fnode = load_fnode t theirs_uid in
      let* ours = value_of_fnode t ours_fnode in
      let* theirs = value_of_fnode t theirs_fnode in
      let* base =
        match base_uid with
        | None -> (
          match (ours : Value.t) with
          | Value.Map _ -> Ok (Value.Map (Pmap.empty t.store))
          | Value.Set _ -> Ok (Value.Set (Pset.empty t.store))
          | Value.Table o ->
            Ok (Value.Table (Table.create t.store (Table.schema o)))
          | v -> Ok v)
        | Some b ->
          let* base_fnode = load_fnode t b in
          value_of_fnode t base_fnode
      in
      match
        merge_values t ~key ~strategy:Fail_on_conflict ~base ~ours ~theirs
      with
      | Ok _ -> Ok `Clean
      | Error (Errors.Merge_conflict { details; _ }) -> Ok (`Conflicts details)
      | Error e -> Error e)

(* ---------------- dataset conveniences ---------------- *)

let get_table ?user ?branch t ~key =
  guard @@ fun () ->
  let* value = get ?user ?branch t ~key in
  match Value.to_table value with
  | Some table -> Ok table
  | None ->
    Error
      (Errors.Type_mismatch { expected = "table"; got = Value.type_name value })

let select ?user ?branch t ~key pred =
  guard @@ fun () ->
  let* table = get_table ?user ?branch t ~key in
  Ok (Table.select table pred)

let table_stat ?user ?branch t ~key =
  guard @@ fun () ->
  let* table = get_table ?user ?branch t ~key in
  Ok (Table.stat table)

let export_csv ?user ?branch t ~key =
  guard @@ fun () ->
  let* table = get_table ?user ?branch t ~key in
  Ok (Table.to_csv table)

(* Write is checked before the document is scanned, so a refused import
   stores nothing.  The rows of the branch head's table are the base the
   import is written against: only the leaves holding changed rows are
   re-chunked.  The base is a hint read before [put] takes the head, so a
   head that moves in between, or holds no table, changes only the work. *)
let import_csv ?(user = default_user) ?message ?(branch = Branch.default_branch)
    ?key_column t ~key content =
  guard @@ fun () ->
  let* () = check t ~user ~key ~branch Acl.Write in
  let base =
    Option.bind (Branch.head t.branches ~key ~branch) (fun uid ->
        match Result.bind (load_fnode t uid) (value_of_fnode t) with
        | Ok value -> Option.map Table.rows_map (Value.to_table value)
        | Error _ -> None)
  in
  match Table.of_csv t.store ?key_column ?base content with
  | Error e -> Error (Errors.Invalid e)
  | Ok table -> put ~user ?message ~branch t ~key (Value.Table table)

type row_event = {
  version : uid;
  author : string;
  message : string;
  seq : int;
  change : Table.row_change;
}

let row_history ?(user = default_user) ?(branch = Branch.default_branch)
    ?limit t ~key ~row =
  guard @@ fun () ->
  let* () = check t ~user ~key ~branch Acl.Read in
  let* uid = head_uid t ~key ~branch in
  let* history =
    match Dag.history ?limit t.store uid with
    | Ok h -> Ok h
    | Error e -> Error (Errors.Corrupt e)
  in
  (* Walk consecutive (parent, child) pairs newest-first; linear history
     assumed along the first-parent chain, matching [log]'s view. *)
  let table_of fnode =
    let* value = value_of_fnode t fnode in
    match Value.to_table value with
    | Some table -> Ok (Some table)
    | None -> Ok None
  in
  let row_change_of t1 t2 =
    match t1, t2 with
    | None, None -> Ok None
    | _ ->
      let empty_like some =
        Table.create t.store (Table.schema some)
      in
      let t1', t2' =
        match t1, t2 with
        | Some a, Some b -> (a, b)
        | None, Some b -> (empty_like b, b)
        | Some a, None -> (a, empty_like a)
        | None, None -> assert false
      in
      (match Table.diff t1' t2' with
       | Error _ ->
         (* Schema changed between versions: report the row as rewritten if
            present on either side. *)
         Ok
           (match Table.find t2' row with
            | Some r -> Some (Table.Row_added r)
            | None -> (
              match Table.find t1' row with
              | Some r -> Some (Table.Row_removed r)
              | None -> None))
       | Ok changes ->
         Ok
           (List.find_opt
              (fun c ->
                match (c : Table.row_change) with
                | Table.Row_added r | Table.Row_removed r ->
                  String.equal (Table.key_of_row (Table.schema t2') r) row
                | Table.Row_modified (k, _) -> String.equal k row)
              changes))
  in
  let rec walk acc = function
    | [] -> Ok (List.rev acc)
    | child :: rest ->
      let* child_table = table_of child in
      let* parent_table =
        match child.Fnode.bases with
        | [] -> Ok None
        | base :: _ -> (
          match Fnode.load t.store base with
          | Error e -> Error (Errors.Corrupt e)
          | Ok parent -> table_of parent)
      in
      let* change = row_change_of parent_table child_table in
      let acc =
        match change with
        | None -> acc
        | Some change ->
          { version = Fnode.uid child;
            author = child.Fnode.author;
            message = child.Fnode.message;
            seq = child.Fnode.seq;
            change }
          :: acc
      in
      walk acc rest
  in
  walk [] history

(* ---------------- verification ---------------- *)

let verify ?(user = default_user) ?check_history ?check_history_values t uid =
  guard @@ fun () ->
  let* fnode = load_fnode t uid in
  let* () = check t ~user ~key:fnode.Fnode.key ~branch:"*" Acl.Read in
  match Verify.verify ?check_history ?check_history_values t.store uid with
  | Ok report -> Ok report
  | Error e -> Error (Errors.Corrupt e)

let verify_branch ?(user = default_user) t ~key ~branch =
  guard @@ fun () ->
  let* () = check t ~user ~key ~branch Acl.Read in
  let* uid = head_uid t ~key ~branch in
  match Verify.verify t.store uid with
  | Ok report -> Ok report
  | Error e -> Error (Errors.Corrupt e)

(* ---------------- entry proofs ---------------- *)

type entry_proof = {
  fnode_bytes : string;
  path : string list;
}

let encode_entry_proof p =
  Fb_codec.Codec.to_string
    (fun w p ->
      Fb_codec.Codec.bytes w p.fnode_bytes;
      Fb_codec.Codec.list w Fb_codec.Codec.bytes p.path)
    p

let decode_entry_proof s =
  match
    Fb_codec.Codec.of_string
      (fun r ->
        let fnode_bytes = Fb_codec.Codec.read_bytes r in
        let path = Fb_codec.Codec.read_list r Fb_codec.Codec.read_bytes in
        { fnode_bytes; path })
      s
  with
  | Ok p -> Ok p
  | Error e -> Error (Errors.Invalid ("entry proof: " ^ e))

(* The provable value shapes: anything whose entries live in a Pmap. *)
let rows_of_value = function
  | Value.Map m -> Ok m
  | Value.Table t -> Ok (Table.rows_map t)
  | v ->
    Error
      (Errors.Type_mismatch
         { expected = "map or table"; got = Value.type_name v })

let prove_entry ?user ?branch t ~key ~entry_key =
  guard @@ fun () ->
  let* uid = head ?user ?branch t ~key in
  let* fnode = load_fnode t uid in
  let* value = value_of_fnode t fnode in
  let* rows = rows_of_value value in
  let* path =
    if Pmap.is_empty rows then Ok []
    else
      match Pmap.prove rows entry_key with
      | Ok p -> Ok p
      | Error e -> Error (Errors.Corrupt e)
  in
  match t.store.Store.get_raw uid with
  | Some fnode_bytes -> Ok { fnode_bytes; path }
  | None -> Error (Errors.Version_not_found (Hash.to_hex uid))

let verify_entry_proof ~uid ~key ~entry_key proof =
  (* 1. The FNode bytes must hash to the trusted uid and carry the right
     object key. *)
  if not (Hash.equal (Hash.of_string proof.fnode_bytes) uid) then
    Errors.corrupt "proof: fnode bytes do not hash to the uid"
  else
    let* chunk =
      match Fb_chunk.Chunk.decode proof.fnode_bytes with
      | Ok c -> Ok c
      | Error e -> Errors.corrupt "proof: %s" e
    in
    let* fnode =
      match Fnode.of_chunk chunk with
      | Ok f -> Ok f
      | Error e -> Errors.corrupt "proof: %s" e
    in
    if not (String.equal fnode.Fnode.key key) then
      Errors.corrupt "proof: version belongs to key %S" fnode.Fnode.key
    else
      (* 2. Extract the authenticated value root from the descriptor. *)
      let* roots =
        match Value.roots_of_descriptor fnode.Fnode.value_descriptor with
        | Ok r -> Ok r
        | Error e -> Errors.corrupt "proof: %s" e
      in
      match roots, proof.path with
      | [], [] -> Ok None (* empty value: provably absent *)
      | [], _ -> Errors.corrupt "proof: path against an empty value"
      | [ root ], path -> (
        (* 3. Walk the chunk path under the root. *)
        match Pmap.verify_proof ~root entry_key path with
        | Ok entry -> Ok (Option.map (fun (b : Pmap.binding) -> b.value) entry)
        | Error e -> Error (Errors.Corrupt e))
      | _ -> Errors.corrupt "proof: unsupported multi-root value"

(* ---------------- delta sync ---------------- *)

(* Fast-forward a branch head onto [root], whose closure must already be
   in the store — the atomic final step of both bundle import and a
   PUSH/PULL sync session.  Refuses absent roots, cross-key roots, and
   non-fast-forward moves; funnels through [move_head] so local watchers
   and remote SUBSCRIBE sessions observe the jump as one event. *)
let advance_head ?(user = default_user) ?(branch = Branch.default_branch) t
    ~key root =
  guard @@ fun () ->
  let* () = check t ~user ~key ~branch Acl.Write in
  let* () =
    if Store.mem t.store root then Ok ()
    else Error (Errors.Version_not_found (Hash.to_hex root))
  in
  let* fnode = load_fnode t root in
  if not (String.equal fnode.Fnode.key key) then
    Errors.invalid "version belongs to key %S, not %S" fnode.Fnode.key key
  else
    let* () =
      match Branch.head t.branches ~key ~branch with
      | None -> Ok ()
      | Some current ->
        if Hash.equal current root then Ok ()
        else (
          match Dag.is_ancestor t.store ~ancestor:current root with
          | Ok true -> Ok ()
          | Ok false ->
            Errors.invalid
              "version is not a fast-forward of %s/%s; sync to a side branch \
               and merge"
              key branch
          | Error e -> Error (Errors.Corrupt e))
    in
    move_head t ~key ~branch root;
    Ok root

let closure_probed = Obs.counter "fb.sync.closure_probed"
let closure_trusted = Obs.counter "fb.sync.closure_trusted"

let forget_trusted t = Mutex.protect t.watch_lock (fun () -> Hash.Tbl.reset t.trusted)

(* Ingested bytes the tree code would refuse to build: a key over the
   limit. *)
let check_keys id chunk =
  match Fb_postree.Postree.oversized_key chunk with
  | None -> Ok ()
  | Some n ->
    Errors.invalid "chunk %s holds a key of %d bytes, over the %d-byte limit"
      (Hash.short id) n Fb_postree.Postree.max_key_bytes

(* Ingest one chunk from a sync peer.  The bytes must hash to the id they
   were announced under ([Sync.verify_encoded]) and every chunk-level
   child must already be present — senders stream child-first
   ([Sync.plan_order]), so honoring this keeps the store closure-complete
   at every instant and [advance_head] needs no O(history) closure walk.
   A child this write section stored is present without a probe: nothing
   deletes a chunk while it is trusted ([gc] and [scrub] forget the set
   first).  The chunk is stored by [Store.ingest]: its bytes were just
   hashed, which a verifying store may take as the chunk's first check. *)
let sync_put ?(user = default_user) ?(branch = Branch.default_branch) t ~key
    id encoded =
  guard @@ fun () ->
  let* () = check t ~user ~key ~branch Acl.Write in
  let* chunk = Sync.verify_encoded id encoded in
  let* () = check_keys id chunk in
  let children = Dag.fnode_children chunk in
  let untrusted =
    Mutex.protect t.watch_lock (fun () ->
        List.filter (fun c -> not (Hash.Tbl.mem t.trusted c)) children)
  in
  let probed = List.length untrusted in
  Obs.add closure_probed probed;
  Obs.add closure_trusted (List.length children - probed);
  match List.filter (fun c -> not (Store.mem t.store c)) untrusted with
  | [] ->
    let id = Store.ingest t.store chunk in
    Mutex.protect t.watch_lock (fun () ->
        if t.defer_depth > 0 then begin
          if Hash.Tbl.length t.trusted >= trusted_max then Hash.Tbl.reset t.trusted;
          Hash.Tbl.replace t.trusted id ()
        end);
    Ok id
  | absent ->
    Errors.invalid "sync: chunk %s references %d absent children; send \
                    children first"
      (Hash.short id) (List.length absent)

(* Membership probes and raw chunk reads for the sync walk.  Chunk ids
   are not scoped to a key, so these demand the instance-wide read grant
   (key pattern "*"). *)
let sync_have ?(user = default_user) t ids =
  guard @@ fun () ->
  let* () = check t ~user ~key:"*" ~branch:"*" Acl.Read in
  Ok (List.map (Store.mem t.store) ids)

let sync_chunk ?(user = default_user) t id =
  guard @@ fun () ->
  let* () = check t ~user ~key:"*" ~branch:"*" Acl.Read in
  match t.store.Store.get_raw id with
  | Some encoded -> Ok encoded
  | None -> Error (Errors.Version_not_found (Hash.to_hex id))

(* Chunk-level ingest for cluster storage nodes.  Unlike [sync_put] this
   does NOT demand the chunk's children — under consistent-hash routing
   a chunk's children live on other nodes, so a storage member holds an
   arbitrary slice of the graph and logical closure is the router's
   responsibility (the router's branch table only ever advances onto
   roots whose closure the *cluster* holds).  The tamper-evidence gate
   is non-negotiable either way: bytes that do not hash to the id are
   refused.  Content addressing makes this idempotent, so transports may
   retry it freely.  Chunk ids are not key-scoped: instance-wide write
   grant. *)
let chunk_put ?(user = default_user) t id encoded =
  guard @@ fun () ->
  let* () = check t ~user ~key:"*" ~branch:"*" Acl.Write in
  let* chunk = Sync.verify_encoded id encoded in
  let* () = check_keys id chunk in
  Ok (Store.ingest t.store chunk)

(* Physical store shape for cluster health/rebalance accounting. *)
let chunk_stat ?(user = default_user) t =
  guard @@ fun () ->
  let* () = check t ~user ~key:"*" ~branch:"*" Acl.Read in
  Ok (Store.stats t.store)

(* Summarise every chunk held locally as one sized Bloom filter — the
   whole-store have-exchange that replaces per-wave membership probes.
   Callers must treat positives as "probably" and confirm before
   skipping ([Sync.Bloom]); negatives are definitive.  Built from
   [Store.ids], so it costs one pass over the index and reads no chunk
   bytes. *)
let sync_bloom ?(user = default_user) t =
  guard @@ fun () ->
  let* () = check t ~user ~key:"*" ~branch:"*" Acl.Read in
  let expected = (Store.stats t.store).Store.physical_chunks in
  let bloom = Sync.Bloom.create ~expected in
  Store.ids t.store (Sync.Bloom.add bloom);
  Ok bloom

(* ---------------- bundles ---------------- *)

let export_bundle ?(user = default_user) ?(branch = Branch.default_branch) t
    ~key =
  guard @@ fun () ->
  let* () = check t ~user ~key ~branch Acl.Read in
  let* uid = head_uid t ~key ~branch in
  match Fb_repr.Bundle.export t.store ~roots:[ uid ] with
  | Ok bundle -> Ok bundle
  | Error e -> Error (Errors.Corrupt e)

let import_bundle ?(user = default_user) ?(branch = Branch.default_branch) t
    ~key bundle =
  guard @@ fun () ->
  let* () = check t ~user ~key ~branch Acl.Write in
  let* roots =
    match Fb_repr.Bundle.import t.store bundle with
    | Ok (roots, _fresh) -> Ok roots
    | Error e -> Error (Errors.Invalid e)
  in
  let* root =
    match roots with
    | [ r ] -> Ok r
    | _ -> Errors.invalid "bundle carries %d roots, expected 1" (List.length roots)
  in
  advance_head ~user ~branch t ~key root

(* ---------------- stats / maintenance ---------------- *)

type stats = {
  keys : int;
  branches : int;
  versions : int;
  store : Store.stats;
}

let all_heads (t : t) =
  List.concat_map
    (fun key -> List.map snd (Branch.branches t.branches ~key))
    (Branch.keys t.branches)
  @ List.concat_map
      (fun key -> List.map snd (Branch.branches t.tags ~key))
      (Branch.keys t.tags)

let stats (t : t) =
  let keys = Branch.keys t.branches in
  let branches =
    List.fold_left
      (fun acc key -> acc + List.length (Branch.branches t.branches ~key))
      0 keys
  in
  let versions =
    let seen = ref Hash.Set.empty in
    List.iter
      (fun head ->
        match Dag.ancestors t.store head with
        | Ok set -> seen := Hash.Set.union set !seen
        | Error _ -> ())
      (all_heads t);
    Hash.Set.cardinal !seen
  in
  { keys = List.length keys;
    branches;
    versions;
    store = Store.stats t.store }

let version_string = Hash.to_base32

let parse_version s =
  match Hash.of_base32 s with
  | Ok uid -> Ok uid
  | Error _ -> (
    match Hash.of_hex s with
    | Ok uid -> Ok uid
    | Error _ ->
      Errors.invalid "cannot parse version %S (expected Base32 or hex)" s)

let gc (t : t) =
  forget_trusted t;
  Fb_chunk.Gc.sweep t.store ~children:Dag.fnode_children ~roots:(all_heads t)

let scrub ?replica ?quarantine ?(dry_run = false) (t : t) =
  if not dry_run then forget_trusted t;
  Fb_chunk.Scrub.run ~children:Dag.fnode_children ~roots:(all_heads t)
    ?replica ?quarantine ~dry_run t.store
