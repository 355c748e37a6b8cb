type config = {
  root : string;
  fsync : bool option;
  log_config : Log_store.config option;
  params : (string * string) list;
}

let config ?fsync ?log_config ?(params = []) ~root () =
  { root; fsync; log_config; params }

type instance = {
  store : Store.t;
  kind : string;
  close : unit -> unit;
  log : Log_store.t option;
}

type t = {
  name : string;
  doc : string;
  detect : string -> bool;
  open_ : config -> (instance, string) result;
}

(* Registration order is detection priority, so the list is kept in
   insertion order; replacing a name keeps its original position (a
   re-registered provider should not jump the detection queue). *)
let providers : t list ref = ref []
let registry_lock = Mutex.create ()

let register p =
  Mutex.protect registry_lock (fun () ->
      if List.exists (fun q -> String.equal q.name p.name) !providers then
        providers :=
          List.map
            (fun q -> if String.equal q.name p.name then p else q)
            !providers
      else providers := !providers @ [ p ])

let all () = Mutex.protect registry_lock (fun () -> !providers)

let find name =
  List.find_opt (fun p -> String.equal p.name name) (all ())

let names () = List.map (fun p -> p.name) (all ())

let default_name = "log"

let resolve ~backend ~root =
  match backend with
  | "auto" -> (
    match List.find_opt (fun p -> p.detect root) (all ()) with
    | Some p -> Ok p
    | None -> (
      match find default_name with
      | Some p -> Ok p
      | None -> Error "no default store provider registered"))
  | name -> (
    match find name with
    | Some p -> Ok p
    | None ->
      Error
        (Printf.sprintf "unknown backend %S (registered: %s)" name
           (String.concat ", " (names ()))))

let open_ ~backend config =
  match resolve ~backend ~root:config.root with
  | Error _ as e -> e
  | Ok p -> p.open_ config

(* ------------------------- built-in providers ------------------------- *)

let is_dir p = Sys.file_exists p && Sys.is_directory p
let log_dir root = Filename.concat root "log"
let chunks_dir root = Filename.concat root "chunks"

let nop = Fun.const ()

(* Ephemeral: a fresh in-memory store per open.  Useful for throwaway
   serve instances and benches; never auto-detected. *)
let mem_provider =
  { name = "mem";
    doc = "ephemeral in-memory store (nothing survives close)";
    detect = (fun _ -> false);
    open_ =
      (fun _ ->
        Ok
          { store = Mem_store.create ();
            kind = "mem"; close = nop; log = None }) }

let file_provider =
  { name = "file";
    doc = "one content-addressed file per chunk under <root>/chunks";
    detect = (fun root -> is_dir (chunks_dir root));
    open_ =
      (fun c ->
        match File_store.create ?fsync:c.fsync ~root:(chunks_dir c.root) () with
        | store ->
          Ok { store; kind = "file"; close = nop; log = None }
        | exception Sys_error e -> Error e
        | exception Failure e -> Error e) }

let log_provider =
  { name = "log";
    doc = "crash-consistent append-only pack log under <root>/log";
    detect = (fun root -> is_dir (log_dir root));
    open_ =
      (fun c ->
        let config =
          let base = Option.value c.log_config ~default:Log_store.default_config in
          match c.fsync with
          | None -> base
          | Some f -> { base with Log_store.fsync = f }
        in
        match Log_store.create ~config ~root:(log_dir c.root) () with
        | h ->
          Ok
            { store = Log_store.store h;
              kind = "log";
              close = (fun () -> try Log_store.close h with Failure _ -> ());
              log = Some h }
        | exception Sys_error e -> Error e
        | exception Failure e -> Error e) }

(* Detection priority: an existing log layout wins over an existing
   chunk directory, matching the historical [`Auto] resolution. *)
let () =
  register log_provider;
  register file_provider;
  register mem_provider
