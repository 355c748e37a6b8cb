module Branch = Fb_repr.Branch
module Provider = Fb_chunk.Store_provider
module Log_store = Fb_chunk.Log_store

let ( let* ) = Result.bind

let branches_file root = Filename.concat root "BRANCHES"
let tags_file root = Filename.concat root "TAGS"
let refs_dir root = Filename.concat root "refs"
let member_file root = Filename.concat root "MEMBER"

type instance = {
  root : string;
  fb : Forkbase.t;
  log : Log_store.t option;
  close : unit -> unit;
}

let close i = i.close ()

(* Roots written before heads moved into the log kept them in BRANCHES
   and TAGS: journal each head like any other move, then remove the
   files (a crash before that repeats an import that changes nothing). *)
let import_table path into =
  if not (Sys.file_exists path) then Ok false
  else
    match Branch.deserialize (In_channel.with_open_bin path In_channel.input_all) with
    | Error e -> Errors.corrupt "%s: %s" path e
    | Ok old ->
      List.iter
        (fun key ->
          List.iter
            (fun (branch, uid) -> Branch.set_head into ~key ~branch uid)
            (Branch.branches old ~key))
        (Branch.keys old);
      Ok true

let in_use r = Errors.invalid "store root %s is already open" r

(* Backend names resolve through the provider registry: an unknown name
   is a typed [Invalid] listing what is registered, and so is a root
   another instance holds; a provider that fails to open its storage is
   [Corrupt].  Heads are journaled to the chunk log when the engine is
   one, else to a refs-only log at [root/refs]; an in-memory store keeps
   none. *)
let open_instance ?acl ?fsync ?(backend = "auto") ?log_config ?(params = [])
    ~root () =
  let* provider =
    match Provider.resolve ~backend ~root with
    | Ok p -> Ok p
    | Error msg -> Error (Errors.Invalid msg)
  in
  let config = Provider.config ?fsync ?log_config ~params ~root () in
  let* pi =
    match provider.Provider.open_ config with
    | Ok i -> Ok i
    | Error msg -> Errors.corrupt "opening %s: %s" root msg
    | exception Log_store.Root_in_use r -> in_use r
    | exception (Sys_error msg | Failure msg) ->
      Errors.corrupt "opening %s: %s" root msg
  in
  let own_log = ref None in
  let close () =
    Option.iter Log_store.close !own_log;
    pi.Provider.close ()
  in
  match
    let log =
      match pi.Provider.log, pi.Provider.kind with
      | (Some _ as log), _ -> log
      | None, "mem" -> None
      | None, kind ->
        (* As durable as the chunks its records name: the file engine
           syncs chunk files only when asked. *)
        let fsync = Option.value fsync ~default:(kind <> "file") in
        let base = Option.value log_config ~default:Log_store.default_config in
        let h =
          Log_store.create ~config:{ base with fsync } ~root:(refs_dir root) ()
        in
        own_log := Some h;
        Some h
    in
    (* Stored bytes are untrusted: verify each chunk the first time it is
       served so media damage (or a lying remote member) is refused — and
       visible to scrub — instead of flowing out of the API as silently
       wrong data.  A chunk that sync ingest hashed and wrote counts as
       checked. *)
    let store, _violations =
      Fb_chunk.Verified_store.wrap ~once:true pi.Provider.store
    in
    let store = Fb_chunk.Metered_store.wrap store in
    let fb =
      Forkbase.create ?acl ?journal:(Option.map Log_store.append_ref log) store
    in
    Option.iter
      (fun h ->
        List.iter
          (fun (table, key, branch, uid) ->
            Branch.load
              (if table = Log_store.Tags then Forkbase.tag_table fb
               else Forkbase.branch_table fb)
              [ (key, branch, uid) ])
          (Log_store.refs h))
      log;
    let* b = import_table (branches_file root) (Forkbase.branch_table fb) in
    let* t = import_table (tags_file root) (Forkbase.tag_table fb) in
    if log <> None then
      List.iter2
        (fun imported path -> if imported then Sys.remove path)
        [ b; t ] [ branches_file root; tags_file root ];
    Ok { root; fb; log; close }
  with
  | Ok _ as r -> r
  | Error _ as e ->
    close ();
    e
  | exception Log_store.Root_in_use r ->
    close ();
    in_use r
  | exception (Sys_error msg | Failure msg) ->
    close ();
    Errors.corrupt "opening %s: %s" root msg

let with_instance ?acl ?fsync ?backend ?log_config ?params ~root f =
  let* i = open_instance ?acl ?fsync ?backend ?log_config ?params ~root () in
  Fun.protect ~finally:i.close (fun () -> f i)

let mark_member ~root =
  Out_channel.with_open_bin (member_file root) (fun oc ->
      output_string oc "cluster member\n")

let gc i =
  if Sys.file_exists (member_file i.root) then
    Errors.invalid
      "%s is a cluster member root: its chunks are named by the router's \
       heads, which this root does not hold, so gc would sweep them all"
      i.root
  else Ok (Forkbase.gc i.fb)
