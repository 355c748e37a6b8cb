module Errors = Fb_core.Errors
module Store = Fb_chunk.Store
module Cluster_store = Fb_chunk.Cluster_store
module Provider = Fb_chunk.Store_provider

type node = { host : string; port : int }

let render_node n = Printf.sprintf "%s:%d" n.host n.port

let parse_node s =
  match String.rindex_opt s ':' with
  | None -> (
    (* A bare port is a local node — the common single-machine case. *)
    match int_of_string_opt s with
    | Some port when port > 0 && port < 65536 ->
      Ok { host = "127.0.0.1"; port }
    | _ -> Error (Printf.sprintf "bad node %S (want host:port)" s))
  | Some i -> (
    let host = String.sub s 0 i in
    let port = String.sub s (i + 1) (String.length s - i - 1) in
    match int_of_string_opt port with
    | Some port when port > 0 && port < 65536 && host <> "" ->
      Ok { host; port }
    | _ -> Error (Printf.sprintf "bad node %S (want host:port)" s))

let parse_nodes s =
  let parts =
    List.filter
      (fun p -> p <> "")
      (List.map String.trim (String.split_on_char ',' s))
  in
  if parts = [] then Error "empty node list"
  else
    List.fold_left
      (fun acc p ->
        Result.bind acc (fun nodes ->
            Result.map (fun n -> n :: nodes) (parse_node p)))
      (Ok []) parts
    |> Result.map List.rev

(* ----------------------------- CLUSTER file ---------------------------- *)

let cluster_file root = Filename.concat root "CLUSTER"

type topology = {
  nodes : (node * int option) list;
  t_replicas : int option;
  t_virtual_nodes : int option;
}

let read_topology path =
  match
    let ic = open_in path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        let lines = ref [] in
        (try
           while true do
             lines := input_line ic :: !lines
           done
         with End_of_file -> ());
        List.rev !lines)
  with
  | exception Sys_error e -> Error e
  | lines ->
    List.fold_left
      (fun acc line ->
        Result.bind acc (fun topo ->
            let line = String.trim line in
            if line = "" || line.[0] = '#' then Ok topo
            else
              match String.index_opt line '=' with
              | Some i when not (String.contains line ' ') -> (
                let k = String.sub line 0 i in
                let v =
                  String.sub line (i + 1) (String.length line - i - 1)
                in
                match k, int_of_string_opt v with
                | "replicas", Some n -> Ok { topo with t_replicas = Some n }
                | "virtual_nodes", Some n ->
                  Ok { topo with t_virtual_nodes = Some n }
                | _ -> Error (Printf.sprintf "bad CLUSTER line %S" line))
              | _ ->
                (* "host:port [pid=N] …" — first field is the node,
                   trailing fields are tooling metadata. *)
                let fields =
                  List.filter
                    (fun f -> f <> "")
                    (String.split_on_char ' ' line)
                in
                let pid =
                  List.find_map
                    (fun f ->
                      if String.length f > 4 && String.sub f 0 4 = "pid="
                      then
                        int_of_string_opt
                          (String.sub f 4 (String.length f - 4))
                      else None)
                    fields
                in
                (match fields with
                | node :: _ ->
                  Result.map
                    (fun n -> { topo with nodes = topo.nodes @ [ (n, pid) ] })
                    (parse_node node)
                | [] -> Ok topo)))
      (Ok { nodes = []; t_replicas = None; t_virtual_nodes = None })
      lines

let write_topology path topo =
  match
    let oc = open_out path in
    Fun.protect
      ~finally:(fun () -> close_out_noerr oc)
      (fun () ->
        Option.iter
          (fun r -> Printf.fprintf oc "replicas=%d\n" r)
          topo.t_replicas;
        Option.iter
          (fun v -> Printf.fprintf oc "virtual_nodes=%d\n" v)
          topo.t_virtual_nodes;
        List.iter
          (fun (n, pid) ->
            match pid with
            | Some pid ->
              Printf.fprintf oc "%s pid=%d\n" (render_node n) pid
            | None -> Printf.fprintf oc "%s\n" (render_node n))
          topo.nodes)
  with
  | () -> Ok ()
  | exception Sys_error e -> Error e

(* --------------------------- lazy member dial --------------------------- *)

(* One member = one Remote handle, dialed on first use and re-dialed
   after the handle is torn down.  A failed dial is a [Store.Transient]
   (the routing tier fails over and retries later), so a down node never
   wedges the cluster — and a restarted node rejoins the moment a dial
   succeeds.  The Remote handle itself survives server bounces for
   read-classified verbs (and the idempotent chunk-put), so steady-state
   traffic rarely re-enters the dial path. *)
type member = {
  node : node;
  m_user : string option;
  m_timeout_s : float option;
  m_lock : Mutex.t;
  mutable m_remote : (Remote.t * Store.t) option;
}

let member_obtain m =
  Mutex.protect m.m_lock (fun () ->
      match m.m_remote with
      | Some (r, s) when Remote.is_open r -> s
      | cur -> (
        (match cur with Some (r, _) -> Remote.close r | None -> ());
        m.m_remote <- None;
        match
          Remote.connect ~host:m.node.host ~port:m.node.port
            ?user:m.m_user ?timeout_s:m.m_timeout_s ()
        with
        | Ok r ->
          let s = Remote.chunk_store ?user:m.m_user r in
          m.m_remote <- Some (r, s);
          s
        | Error e ->
          raise
            (Store.Transient
               (Printf.sprintf "dial %s: %s" (render_node m.node)
                  (Errors.to_string e)))))

let member_store m =
  { Store.name = "node(" ^ render_node m.node ^ ")";
    put = (fun c -> (member_obtain m).Store.put c);
    ingest = Store.plain_ingest;
    get = (fun id -> (member_obtain m).Store.get id);
    get_raw = (fun id -> (member_obtain m).Store.get_raw id);
    peek = (fun id -> (member_obtain m).Store.peek id);
    mem = (fun id -> (member_obtain m).Store.mem id);
    stats =
      (fun () ->
        match member_obtain m with
        | s -> s.Store.stats ()
        | exception Store.Transient _ -> Store.empty_stats);
    iter = (fun f -> (member_obtain m).Store.iter f);
    ids = (fun f -> (member_obtain m).Store.ids f);
    delete = (fun id -> (member_obtain m).Store.delete id) }

let member_close m =
  Mutex.protect m.m_lock (fun () ->
      (match m.m_remote with Some (r, _) -> Remote.close r | None -> ());
      m.m_remote <- None)

(* ----------------------------- live handle ----------------------------- *)

type t = {
  c : Cluster_store.t;
  members : member list;
}

let connect ?name ?replicas ?virtual_nodes ?user ?timeout_s ~nodes () =
  match nodes with
  | [] -> Error (Errors.Invalid "cluster: empty node list")
  | _ -> (
    let members =
      List.map
        (fun node ->
          { node; m_user = user; m_timeout_s = timeout_s;
            m_lock = Mutex.create (); m_remote = None })
        nodes
    in
    match
      Cluster_store.create ?name ?replicas ?virtual_nodes
        ~members:
          (List.map (fun m -> (render_node m.node, member_store m)) members)
        ()
    with
    | c -> Ok { c; members }
    | exception Invalid_argument e -> Error (Errors.Invalid e))

let store t = Cluster_store.store t.c
let cluster t = t.c
let nodes t = List.map (fun m -> m.node) t.members

(* Any id works as a liveness probe: sync-have answers for ids the node
   has never seen, and unlike the stats poll it raises when the node is
   unreachable. *)
let probe_id = Fb_hash.Hash.of_string "forkbase-cluster-liveness-probe"

let probe t =
  List.map
    (fun m ->
      let up =
        match (member_obtain m).Store.mem probe_id with
        | (_ : bool) -> true
        | exception _ -> false
      in
      Cluster_store.set_down t.c (render_node m.node) (not up);
      (m.node, up))
    t.members

let close t =
  List.iter member_close t.members;
  Cluster_store.close t.c

(* ------------------------ provider registration ------------------------ *)

let param params key = List.assoc_opt key params

let int_param params key =
  Option.bind (param params key) int_of_string_opt

let register_provider () =
  Provider.register
    { Provider.name = "cluster";
      doc =
        "consistent-hash cluster of forkbase serve nodes (params: \
         nodes=host:port,… replicas= virtual_nodes= user=; falls back to \
         <root>/CLUSTER)";
      detect = (fun root -> Sys.file_exists (cluster_file root));
      open_ =
        (fun c ->
          let params = c.Provider.params in
          let from_file =
            let path = cluster_file c.Provider.root in
            if Sys.file_exists path then Result.to_option (read_topology path)
            else None
          in
          let nodes =
            match param params "nodes" with
            | Some s -> Result.map_error Fun.id (parse_nodes s)
            | None -> (
              match from_file with
              | Some topo when topo.nodes <> [] ->
                Ok (List.map fst topo.nodes)
              | _ ->
                Error
                  (Printf.sprintf
                     "cluster backend needs nodes=host:port,… or %s"
                     (cluster_file c.Provider.root)))
          in
          match nodes with
          | Error e -> Error e
          | Ok nodes -> (
            let pick key file_value =
              match int_param params key with
              | Some v -> Some v
              | None -> Option.bind from_file file_value
            in
            let replicas = pick "replicas" (fun t -> t.t_replicas) in
            let virtual_nodes =
              pick "virtual_nodes" (fun t -> t.t_virtual_nodes)
            in
            match
              connect ?replicas ?virtual_nodes ?user:(param params "user")
                ~nodes ()
            with
            | Error e -> Error (Errors.to_string e)
            | Ok t ->
              Ok
                { Provider.store = store t;
                  kind = "cluster";
                  close = (fun () -> close t);
                  log = None })) }
