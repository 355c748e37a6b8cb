(* forkbase — command-line front end (the "Command Line scripting" semantic
   view of Fig. 1).

   State layout under --root (default ./.forkbase):
     log/       crash-consistent append-only pack log (Fb_chunk.Log_store;
                the default engine for fresh roots): chunks and the ref
                records of every branch and tag head move (the
                client-side head record that the tamper-evidence threat
                model assumes users keep)
     chunks/    content-addressed chunk files (Fb_chunk.File_store)
     refs/      the head log of a file-engine or cluster-router root *)

open Cmdliner
module FB = Fb_core.Forkbase
module Value = Fb_types.Value
module Errors = Fb_core.Errors
module Branch = Fb_repr.Branch
module Hash = Fb_hash.Hash

(* Every provider in the registry must be visible before any --backend
   resolves; the cluster provider lives in Fb_net and registers here
   rather than at module init so linking order never decides whether
   "cluster" exists. *)
let () = Fb_net.Cluster.register_provider ()

let with_persistent ?backend ?params root f =
  match Fb_core.Persistent.with_instance ?backend ?params ~root f with
  | Ok msg ->
    print_string msg;
    `Ok ()
  | Error e -> `Error (false, Errors.to_string e)

let with_instance ?backend ?params root f =
  with_persistent ?backend ?params root (fun i -> f i.Fb_core.Persistent.fb)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* ------------------------- common args ------------------------- *)

let root_arg =
  let doc = "Directory holding the ForkBase store." in
  Arg.(value & opt string ".forkbase" & info [ "root" ] ~docv:"DIR" ~doc)

let branch_arg =
  let doc = "Branch to operate on." in
  Arg.(value & opt string Branch.default_branch & info [ "b"; "branch" ] ~docv:"BRANCH" ~doc)

let user_arg =
  let doc = "Acting user (for access control and authorship)." in
  Arg.(value & opt string "anonymous" & info [ "u"; "user" ] ~docv:"USER" ~doc)

let message_arg =
  let doc = "Commit message." in
  Arg.(value & opt string "put" & info [ "m"; "message" ] ~docv:"MSG" ~doc)

let key_pos =
  Arg.(required & pos 0 (some string) None & info [] ~docv:"KEY")

let ( let* ) = Result.bind

(* ------------------------- commands ------------------------- *)

let render_value = function
  | Value.Primitive p -> Fb_types.Primitive.to_string p ^ "\n"
  | Value.Blob b -> Fb_postree.Pblob.to_string b
  | Value.Table t -> Fb_types.Table.to_csv t
  | Value.Map m ->
    String.concat ""
      (List.map
         (fun (k, v) -> Printf.sprintf "%s\t%s\n" k v)
         (Fb_postree.Pmap.bindings m))
  | Value.Set s ->
    String.concat ""
      (List.map (fun e -> e ^ "\n") (Fb_postree.Pset.elements s))
  | Value.List l ->
    String.concat ""
      (List.map (fun e -> e ^ "\n") (Fb_postree.Plist.to_list l))

let put_cmd =
  let value_arg =
    Arg.(value & opt (some string) None
         & info [ "value" ] ~docv:"STRING" ~doc:"Store a string primitive.")
  in
  let csv_arg =
    Arg.(value & opt (some string) None
         & info [ "csv" ] ~docv:"FILE" ~doc:"Import $(docv) as a relational table.")
  in
  let blob_arg =
    Arg.(value & opt (some string) None
         & info [ "blob" ] ~docv:"FILE" ~doc:"Store $(docv)'s bytes as a blob.")
  in
  let run root user message branch key value csv blob =
    with_instance root (fun fb ->
        let* uid =
          match value, csv, blob with
          | Some s, None, None ->
            FB.put ~user ~message ~branch fb ~key (Value.string s)
          | None, Some file, None ->
            FB.import_csv ~user ~message ~branch fb ~key (read_file file)
          | None, None, Some file ->
            FB.put ~user ~message ~branch fb ~key
              (Value.blob_of_string (FB.store fb) (read_file file))
          | _ ->
            Errors.invalid "pass exactly one of --value, --csv, --blob"
        in
        Ok (Printf.sprintf "%s\n" (FB.version_string uid)))
  in
  let info = Cmd.info "put" ~doc:"Append a new version of KEY to a branch." in
  Cmd.v info
    Term.(ret (const run $ root_arg $ user_arg $ message_arg $ branch_arg
               $ key_pos $ value_arg $ csv_arg $ blob_arg))

let get_cmd =
  let version_arg =
    Arg.(value & opt (some string) None
         & info [ "uid" ] ~docv:"UID" ~doc:"Read a specific version instead of a branch head.")
  in
  let run root user branch key version =
    with_instance root (fun fb ->
        let* value =
          match version with
          | None -> FB.get ~user ~branch fb ~key
          | Some v ->
            let* uid = FB.parse_version v in
            FB.get_at ~user fb uid
        in
        Ok (render_value value))
  in
  let info = Cmd.info "get" ~doc:"Print the value of KEY (head or --version)." in
  Cmd.v info
    Term.(ret (const run $ root_arg $ user_arg $ branch_arg $ key_pos
               $ version_arg))

let head_cmd =
  let run root user branch key =
    with_instance root (fun fb ->
        let* uid = FB.head ~user ~branch fb ~key in
        Ok (FB.version_string uid ^ "\n"))
  in
  Cmd.v (Cmd.info "head" ~doc:"Print the head version of KEY on a branch.")
    Term.(ret (const run $ root_arg $ user_arg $ branch_arg $ key_pos))

let latest_cmd =
  let run root user key =
    with_instance root (fun fb ->
        let* heads = FB.latest ~user fb ~key in
        Ok
          (String.concat ""
             (List.map
                (fun (b, uid) ->
                  Printf.sprintf "%-20s %s\n" b (FB.version_string uid))
                heads)))
  in
  Cmd.v (Cmd.info "latest" ~doc:"List every branch head of KEY.")
    Term.(ret (const run $ root_arg $ user_arg $ key_pos))

let list_cmd =
  let run root user =
    with_instance root (fun fb ->
        Ok (String.concat "" (List.map (fun k -> k ^ "\n") (FB.list_keys ~user fb))))
  in
  Cmd.v (Cmd.info "list" ~doc:"List all keys.")
    Term.(ret (const run $ root_arg $ user_arg))

let log_cmd =
  let limit_arg =
    Arg.(value & opt (some int) None
         & info [ "n"; "limit" ] ~docv:"N" ~doc:"Show at most $(docv) versions.")
  in
  let run root user branch key limit =
    with_instance root (fun fb ->
        let* nodes = FB.log ~user ~branch ?limit fb ~key in
        Ok
          (String.concat ""
             (List.map
                (fun (f : Fb_repr.Fnode.t) ->
                  Printf.sprintf "%s  seq=%-4d %-12s %s\n"
                    (FB.version_string (Fb_repr.Fnode.uid f))
                    f.Fb_repr.Fnode.seq f.Fb_repr.Fnode.author
                    f.Fb_repr.Fnode.message)
                nodes)))
  in
  Cmd.v (Cmd.info "log" ~doc:"Show the version history of KEY on a branch.")
    Term.(ret (const run $ root_arg $ user_arg $ branch_arg $ key_pos
               $ limit_arg))

let meta_cmd =
  let version_pos =
    Arg.(required & pos 1 (some string) None & info [] ~docv:"UID")
  in
  let run root user key version =
    with_instance root (fun fb ->
        let* uid = FB.parse_version version in
        let* f = FB.meta ~user fb uid in
        if not (String.equal f.Fb_repr.Fnode.key key) then
          Errors.invalid "version belongs to key %S" f.Fb_repr.Fnode.key
        else
          Ok
            (Printf.sprintf "key: %s\nseq: %d\nauthor: %s\nmessage: %s\nbases:%s\n"
               f.Fb_repr.Fnode.key f.Fb_repr.Fnode.seq f.Fb_repr.Fnode.author
               f.Fb_repr.Fnode.message
               (String.concat ""
                  (List.map
                     (fun b -> "\n  " ^ FB.version_string b)
                     f.Fb_repr.Fnode.bases))))
  in
  Cmd.v (Cmd.info "meta" ~doc:"Show metadata of a version of KEY.")
    Term.(ret (const run $ root_arg $ user_arg $ key_pos $ version_pos))

let branch_cmd =
  let new_branch_pos =
    Arg.(required & pos 1 (some string) None & info [] ~docv:"NEW-BRANCH")
  in
  let from_arg =
    Arg.(value & opt string Branch.default_branch
         & info [ "from" ] ~docv:"BRANCH" ~doc:"Branch to fork from.")
  in
  let at_arg =
    Arg.(value & opt (some string) None
         & info [ "at" ] ~docv:"UID" ~doc:"Fork from a historical version.")
  in
  let run root user key new_branch from_branch at =
    with_instance root (fun fb ->
        let* uid =
          match at with
          | None -> FB.fork ~user ~from_branch fb ~key ~new_branch
          | Some v ->
            let* uid = FB.parse_version v in
            FB.fork_at ~user fb ~key ~new_branch uid
        in
        Ok (Printf.sprintf "%s -> %s\n" new_branch (FB.version_string uid)))
  in
  Cmd.v
    (Cmd.info "branch"
       ~doc:"Create NEW-BRANCH of KEY from a head (or --at a version); O(1), \
             no data copied.")
    Term.(ret (const run $ root_arg $ user_arg $ key_pos $ new_branch_pos
               $ from_arg $ at_arg))

let rename_cmd =
  let from_pos = Arg.(required & pos 1 (some string) None & info [] ~docv:"FROM") in
  let to_pos = Arg.(required & pos 2 (some string) None & info [] ~docv:"TO") in
  let run root user key from_branch to_branch =
    with_instance root (fun fb ->
        let* () = FB.rename_branch ~user fb ~key ~from_branch ~to_branch in
        Ok "")
  in
  Cmd.v (Cmd.info "rename" ~doc:"Rename a branch of KEY.")
    Term.(ret (const run $ root_arg $ user_arg $ key_pos $ from_pos $ to_pos))

let delete_branch_cmd =
  let run root user branch key =
    with_instance root (fun fb ->
        let* () = FB.delete_branch ~user fb ~key ~branch in
        Ok "")
  in
  Cmd.v (Cmd.info "delete-branch" ~doc:"Delete a branch of KEY.")
    Term.(ret (const run $ root_arg $ user_arg $ branch_arg $ key_pos))

let diff_cmd =
  let b1_pos = Arg.(required & pos 1 (some string) None & info [] ~docv:"BRANCH1") in
  let b2_pos = Arg.(required & pos 2 (some string) None & info [] ~docv:"BRANCH2") in
  let run root user key branch1 branch2 =
    with_instance root (fun fb ->
        let* d = FB.diff ~user fb ~key ~branch1 ~branch2 in
        Ok
          (Printf.sprintf "%s\n%s" (Fb_core.Diffview.summary d)
             (Format.asprintf "%a" Fb_core.Diffview.render d)))
  in
  Cmd.v
    (Cmd.info "diff" ~doc:"Differential query between two branches of KEY.")
    Term.(ret (const run $ root_arg $ user_arg $ key_pos $ b1_pos $ b2_pos))

let merge_cmd =
  let from_pos = Arg.(required & pos 1 (some string) None & info [] ~docv:"FROM") in
  let into_arg =
    Arg.(value & opt string Branch.default_branch
         & info [ "into" ] ~docv:"BRANCH" ~doc:"Branch receiving the merge.")
  in
  let strategy_conv =
    Arg.enum
      [ ("fail", FB.Fail_on_conflict); ("ours", FB.Prefer_ours);
        ("theirs", FB.Prefer_theirs) ]
  in
  let strategy_arg =
    Arg.(value & opt strategy_conv FB.Fail_on_conflict
         & info [ "strategy" ] ~docv:"fail|ours|theirs"
             ~doc:"Conflict resolution strategy.")
  in
  let run root user key from_branch into strategy =
    with_instance root (fun fb ->
        let* uid = FB.merge ~user ~strategy fb ~key ~into ~from_branch in
        Ok (FB.version_string uid ^ "\n"))
  in
  Cmd.v
    (Cmd.info "merge" ~doc:"Three-way merge of FROM into --into (default master).")
    Term.(ret (const run $ root_arg $ user_arg $ key_pos $ from_pos $ into_arg
               $ strategy_arg))

let verify_cmd =
  let version_arg =
    Arg.(value & opt (some string) None
         & info [ "uid" ] ~docv:"UID" ~doc:"Verify a specific version.")
  in
  let deep_arg =
    Arg.(value & flag
         & info [ "deep" ] ~doc:"Also re-hash every historical value.")
  in
  let run root user branch key version deep =
    with_instance root (fun fb ->
        let* report =
          match version with
          | Some v ->
            let* uid = FB.parse_version v in
            FB.verify ~user ~check_history_values:deep fb uid
          | None ->
            let* uid = FB.head ~user ~branch fb ~key in
            FB.verify ~user ~check_history_values:deep fb uid
        in
        Ok
          (Printf.sprintf
             "ok: %d versions and %d value chunks re-hashed and matched\n"
             report.Fb_repr.Verify.versions_checked
             report.Fb_repr.Verify.value_chunks))
  in
  Cmd.v
    (Cmd.info "verify"
       ~doc:"Tamper-evidence check: recompute all Merkle hashes of KEY's \
             head (or --version) and compare with the stored identifiers.")
    Term.(ret (const run $ root_arg $ user_arg $ branch_arg $ key_pos
               $ version_arg $ deep_arg))

let export_cmd =
  let run root user branch key =
    with_instance root (fun fb ->
        let* csv = FB.export_csv ~user ~branch fb ~key in
        Ok csv)
  in
  Cmd.v (Cmd.info "export" ~doc:"Export a table-valued KEY as CSV on stdout.")
    Term.(ret (const run $ root_arg $ user_arg $ branch_arg $ key_pos))

let bundle_cmd =
  let out_pos = Arg.(required & pos 1 (some string) None & info [] ~docv:"FILE") in
  let run root user branch key out =
    with_instance root (fun fb ->
        let* bundle = FB.export_bundle ~user ~branch fb ~key in
        let oc = open_out_bin out in
        Fun.protect
          ~finally:(fun () -> close_out_noerr oc)
          (fun () -> output_string oc bundle);
        Ok (Printf.sprintf "%d bytes written to %s\n" (String.length bundle) out))
  in
  Cmd.v
    (Cmd.info "bundle"
       ~doc:"Pack KEY's branch head and its full history into FILE for \
             exchange.")
    Term.(ret (const run $ root_arg $ user_arg $ branch_arg $ key_pos
               $ out_pos))

let unbundle_cmd =
  let in_pos = Arg.(required & pos 1 (some string) None & info [] ~docv:"FILE") in
  let run root user branch key file =
    with_instance root (fun fb ->
        let* uid = FB.import_bundle ~user ~branch fb ~key (read_file file) in
        Ok (FB.version_string uid ^ "\n"))
  in
  Cmd.v
    (Cmd.info "unbundle"
       ~doc:"Verify and import a bundle FILE, fast-forwarding KEY's branch.")
    Term.(ret (const run $ root_arg $ user_arg $ branch_arg $ key_pos
               $ in_pos))

let stat_cmd =
  let run root user =
    with_instance root (fun fb ->
        ignore user;
        let s = FB.stats fb in
        Ok
          (Format.asprintf
             "keys: %d@.branches: %d@.versions: %d@.%a@."
             s.FB.keys s.FB.branches s.FB.versions Fb_chunk.Store.pp_stats
             s.FB.store))
  in
  Cmd.v (Cmd.info "stat" ~doc:"Storage and versioning statistics.")
    Term.(ret (const run $ root_arg $ user_arg))

let history_cmd =
  let row_pos = Arg.(required & pos 1 (some string) None & info [] ~docv:"ROW") in
  let run root user branch key row =
    with_instance root (fun fb ->
        let* events = FB.row_history ~user ~branch fb ~key ~row in
        Ok
          (String.concat ""
             (List.map
                (fun (e : FB.row_event) ->
                  let what =
                    match e.FB.change with
                    | Fb_types.Table.Row_added _ -> "added"
                    | Fb_types.Table.Row_removed _ -> "removed"
                    | Fb_types.Table.Row_modified (_, cells) ->
                      Printf.sprintf "modified (%s)"
                        (String.concat ", "
                           (List.map
                              (fun (c : Fb_types.Table.cell_change) ->
                                c.Fb_types.Table.column)
                              cells))
                  in
                  Printf.sprintf "%s  seq=%-4d %-10s %-28s %s\n"
                    (String.sub (FB.version_string e.FB.version) 0 16)
                    e.FB.seq e.FB.author what e.FB.message)
                events)))
  in
  Cmd.v
    (Cmd.info "history"
       ~doc:"Provenance of one ROW of a table-valued KEY: every version \
             that added, removed or modified it (git blame for data).")
    Term.(ret (const run $ root_arg $ user_arg $ branch_arg $ key_pos
               $ row_pos))

let tag_cmd =
  let name_pos = Arg.(required & pos 1 (some string) None & info [] ~docv:"NAME") in
  let at_arg =
    Arg.(value & opt (some string) None
         & info [ "at" ] ~docv:"UID" ~doc:"Tag a specific version (default: the branch head).")
  in
  let run root user branch key name at =
    with_instance root (fun fb ->
        let* uid =
          match at with
          | Some v -> FB.parse_version v
          | None -> FB.head ~user ~branch fb ~key
        in
        let* () = FB.tag ~user fb ~key ~name uid in
        Ok (Printf.sprintf "%s -> %s\n" name (FB.version_string uid)))
  in
  Cmd.v
    (Cmd.info "tag"
       ~doc:"Attach an immutable NAME to a version of KEY (a release \
             pointer; protects it from gc).")
    Term.(ret (const run $ root_arg $ user_arg $ branch_arg $ key_pos
               $ name_pos $ at_arg))

let tags_cmd =
  let run root user key =
    with_instance root (fun fb ->
        Ok
          (String.concat ""
             (List.map
                (fun (name, uid) ->
                  Printf.sprintf "%-20s %s\n" name (FB.version_string uid))
                (FB.tags ~user fb ~key))))
  in
  Cmd.v (Cmd.info "tags" ~doc:"List the tags of KEY.")
    Term.(ret (const run $ root_arg $ user_arg $ key_pos))

let backend_arg =
  (* A provider name, resolved through the store-provider registry at
     open time — an unknown name reports the registered set, so the doc
     here never goes stale as providers register. *)
  Arg.(value & opt string "auto"
       & info [ "backend" ] ~docv:"NAME"
           ~doc:"Chunk engine, by store-provider name: $(b,log) is the \
                 crash-consistent append-only pack log, $(b,file) is one \
                 file per chunk, $(b,mem) is ephemeral, $(b,cluster) \
                 routes chunks to forkbase serve nodes (see $(b,--nodes) \
                 and $(b,forkbase cluster)), and $(b,auto) (default) keeps \
                 whatever the root already uses — picking $(b,log) for \
                 fresh roots.")

let nodes_arg =
  Arg.(value & opt (some string) None
       & info [ "nodes" ] ~docv:"HOST:PORT,…"
           ~doc:"Cluster members for $(b,--backend cluster) (falls back \
                 to the ROOT/CLUSTER file written by $(b,forkbase cluster \
                 start)).")

let replicas_arg =
  Arg.(value & opt (some int) None
       & info [ "replicas" ] ~docv:"W"
           ~doc:"Copies of each chunk on the cluster hash ring (default 2, \
                 clamped to the node count).")

(* --nodes / --replicas travel to the provider as free-form params; only
   the cluster provider reads them today, and unknown params are ignored
   by design. *)
let provider_params nodes replicas =
  (match nodes with Some n -> [ ("nodes", n) ] | None -> [])
  @ (match replicas with
    | Some w -> [ ("replicas", string_of_int w) ]
    | None -> [])

let fsync_arg =
  Arg.(value & opt bool true
       & info [ "fsync" ] ~docv:"BOOL"
           ~doc:"Force chunk writes and head moves to stable storage \
                 before acknowledging them (default on: a power cut must \
                 not lose acknowledged data).  $(b,--fsync=false) trades \
                 that guarantee for throughput.")

let port_arg =
  let doc = "TCP port (0 picks an ephemeral port)." in
  Arg.(value & opt int 7447 & info [ "p"; "port" ] ~docv:"PORT" ~doc)

let host_arg ~doc =
  Arg.(value & opt string "127.0.0.1" & info [ "host" ] ~docv:"HOST" ~doc)

let serve_cmd =
  let stdio_arg =
    Arg.(value & flag
         & info [ "stdio" ]
             ~doc:"Serve the legacy line protocol on stdin/stdout instead \
                   of TCP (single client; payloads with newlines are \
                   ambiguous — prefer the framed TCP transport).")
  in
  let timeout_arg =
    Arg.(value & opt float 30.0
         & info [ "read-timeout" ] ~docv:"SECONDS"
             ~doc:"Per-frame read deadline; a peer that stalls longer is \
                   disconnected.  0 disables.")
  in
  let max_frame_arg =
    Arg.(value & opt int Fb_net.Frame.default_max_frame
         & info [ "max-frame" ] ~docv:"BYTES"
             ~doc:"Largest accepted request frame.")
  in
  let metrics_port_arg =
    Arg.(value & opt (some int) None
         & info [ "metrics-port" ] ~docv:"PORT"
             ~doc:"Also serve HTTP telemetry on $(docv) (0 picks an \
                   ephemeral port): /metrics (Prometheus), /healthz, \
                   /tracez (recent slow traces), /trace.json (Chrome \
                   trace of the span ring).")
  in
  let slow_ms_arg =
    Arg.(value & opt (some float) None
         & info [ "slow-ms" ] ~docv:"MS"
             ~doc:"Log requests taking $(docv) ms or more (structured \
                   Warn event + span tree kept for /tracez).  Default: \
                   the FB_SLOW_MS environment variable, else disabled.")
  in
  let threaded_arg =
    Arg.(value & flag
         & info [ "threaded" ]
             ~doc:"Serve with the thread-per-connection engine instead \
                   of the event loop (A/B benchmarking and escape hatch; \
                   SUBSCRIBE push is unavailable in this mode).")
  in
  let workers_arg =
    Arg.(value & opt int Fb_net.Server.default_config.workers
         & info [ "workers" ] ~docv:"N"
             ~doc:"Event loop: dispatch worker threads.")
  in
  let max_outbox_arg =
    Arg.(value & opt int Fb_net.Server.default_config.max_outbox
         & info [ "max-outbox" ] ~docv:"BYTES"
             ~doc:"Event loop: per-connection reply backlog before the \
                   server stops reading from that connection \
                   (backpressure on slow consumers).")
  in
  let write_stall_arg =
    Arg.(value & opt float Fb_net.Server.default_config.write_stall_s
         & info [ "write-stall" ] ~docv:"SECONDS"
             ~doc:"Event loop: disconnect a peer whose pending replies \
                   make no write progress for $(docv) seconds; 0 \
                   disables.")
  in
  let run root user port host stdio timeout max_frame
      backend nodes replicas fsync metrics_port slow_ms threaded workers
      max_outbox write_stall =
    (* The log engine runs its background thread under the daemon: aged
       group-commit batches are flushed and garbage-heavy generations
       compacted without any client on the line. *)
    let log_config =
      { Fb_chunk.Log_store.default_config with compactor = true }
    in
    let params = provider_params nodes replicas in
    (* Every head move is journaled before the verb that made it answers,
       so neither mode has anything to save on the way out. *)
    match
      Fb_core.Persistent.open_instance ~fsync ~backend ~log_config ~params
        ~root ()
    with
    | Error e -> `Error (false, Errors.to_string e)
    | Ok inst when stdio ->
      (* Line-oriented request/response loop on stdin/stdout — the
         semantic view a REST gateway would wrap (see Fb_core.Service). *)
      let rec loop () =
        match In_channel.input_line stdin with
        | None -> ()
        | Some "" -> loop ()
        | Some line ->
          print_endline (Fb_core.Service.handle ~user inst.fb line);
          flush stdout;
          loop ()
      in
      loop ();
      Fb_core.Persistent.close inst;
      `Ok ()
    | Ok inst ->
      let config =
        { Fb_net.Server.default_config with
          host; port; default_user = user;
          read_timeout_s = timeout; max_frame;
          metrics_port;
          slow_ms =
            Option.value slow_ms
              ~default:Fb_net.Server.default_config.slow_ms;
          mode = (if threaded then `Threaded else `Event);
          workers; max_outbox; write_stall_s = write_stall }
      in
      (match Fb_net.Server.start ~config inst.fb with
      | Error e ->
        Fb_core.Persistent.close inst;
        `Error (false, e)
      | Ok srv ->
        Printf.printf "forkbase: serving %s on %s:%d%s (SIGINT/SIGTERM to stop)\n%!"
          root host (Fb_net.Server.port srv)
          (match Fb_net.Server.metrics_port srv with
           | Some mp -> Printf.sprintf ", metrics on http://%s:%d" host mp
           | None -> "");
        Fb_net.Server.run srv;
        Fb_core.Persistent.close inst;
        Printf.printf "forkbase: shut down cleanly\n%!";
        `Ok ())
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Serve the ForkBase verbs (PUT/GET/DIFF/MERGE/...) to \
             concurrent TCP clients over the length-prefixed binary \
             framing, or on stdin/stdout with $(b,--stdio).")
    Term.(ret (const run $ root_arg $ user_arg $ port_arg
               $ host_arg ~doc:"Address to bind." $ stdio_arg
               $ timeout_arg $ max_frame_arg
               $ backend_arg $ nodes_arg $ replicas_arg $ fsync_arg
               $ metrics_port_arg $ slow_ms_arg
               $ threaded_arg $ workers_arg $ max_outbox_arg
               $ write_stall_arg))

let client_cmd =
  let request_pos =
    Arg.(value & pos_all string []
         & info [] ~docv:"VERB [ARG...]"
             ~doc:"One request; with no positional arguments, read \
                   request lines from stdin (a REPL against the server).")
  in
  (* Built on the typed Remote handle: errors arrive as Errors.t and are
     rendered to strings only here, at the stdio edge. *)
  let run host port user tokens =
    match Fb_net.Remote.connect ~host ~port ~user () with
    | Error e -> `Error (false, Errors.to_string e)
    | Ok r ->
      Fun.protect
        ~finally:(fun () -> Fb_net.Remote.close r)
        (fun () ->
          match tokens with
          | _ :: _ -> (
            match Fb_net.Remote.raw r tokens with
            | Ok "" -> `Ok ()
            | Ok payload ->
              print_string payload;
              if payload.[String.length payload - 1] <> '\n' then
                print_newline ();
              `Ok ()
            | Error e -> `Error (false, Errors.to_string e))
          | [] ->
            let rec loop () =
              match In_channel.input_line stdin with
              | None -> `Ok ()
              | Some "" -> loop ()
              | Some line ->
                (match Fb_net.Remote.raw_line r line with
                | Ok "" -> print_endline "OK"
                | Ok payload -> print_endline ("OK " ^ payload)
                | Error e -> print_endline ("ERR " ^ Errors.to_string e));
                flush stdout;
                if Fb_net.Remote.is_open r then loop () else `Ok ()
            in
            loop ())
  in
  Cmd.v
    (Cmd.info "client"
       ~doc:"Send requests to a running $(b,forkbase serve): one request \
             from the command line (e.g. $(b,forkbase client get k \
             master)), or a stdin REPL when no request is given.")
    Term.(ret (const run $ host_arg ~doc:"Server address." $ port_arg
               $ user_arg $ request_pos))

let watch_cmd =
  let key_pos =
    Arg.(value & pos 0 string "*"
         & info [] ~docv:"KEY" ~doc:"Key to watch ($(b,*) for all keys).")
  in
  let branch_pos =
    Arg.(value & pos 1 string "*"
         & info [] ~docv:"BRANCH"
             ~doc:"Branch to watch ($(b,*) for all branches).")
  in
  let run host port user key branch =
    match Fb_net.Remote.connect ~host ~port ~user () with
    | Error e -> `Error (false, Errors.to_string e)
    | Ok r ->
      Fun.protect
        ~finally:(fun () -> Fb_net.Remote.close r)
        (fun () ->
          let render (ev : Fb_core.Forkbase.head_event) =
            Printf.printf "%s %s %s%s\n%!" ev.key ev.branch
              (Fb_core.Forkbase.version_string ev.new_head)
              (match ev.old_head with
               | Some old ->
                 " (was " ^ Fb_core.Forkbase.version_string old ^ ")"
               | None -> " (created)")
          in
          let render_event = function
            | Fb_net.Remote.Head_moved ev -> render ev
            | Fb_net.Remote.Gap { resubscribed } ->
              (* Updates may have been missed across the reconnect; tell
                 the consumer on stderr so the stdout stream stays
                 machine-parsable. *)
              Printf.eprintf "forkbase: %s\n%!"
                (if resubscribed then
                   "reconnected; updates may have been missed (resync)"
                 else "reconnected but resubscription failed; retrying")
          in
          match Fb_net.Remote.subscribe_events ~key ~branch r render_event with
          | Error e -> `Error (false, Errors.to_string e)
          | Ok _sid ->
            Printf.eprintf "forkbase: watching key=%s branch=%s on %s:%d \
                            (Ctrl-C to stop)\n%!" key branch host port;
            (* Head events print from the connection's reader thread;
               this thread just waits for the connection (or the user)
               to end. *)
            let stop = ref false in
            let finish _ = stop := true in
            Sys.set_signal Sys.sigint (Sys.Signal_handle finish);
            Sys.set_signal Sys.sigterm (Sys.Signal_handle finish);
            while (not !stop) && Fb_net.Remote.is_open r do
              Thread.delay 0.2
            done;
            if not (Fb_net.Remote.is_open r) && not !stop then
              `Error (false, "connection closed by server")
            else `Ok ())
  in
  Cmd.v
    (Cmd.info "watch"
       ~doc:"Subscribe to branch-head movements on a running $(b,forkbase \
             serve) (event-loop mode) and print one line per update: \
             $(i,KEY BRANCH NEW-VERSION (was OLD-VERSION)).")
    Term.(ret (const run $ host_arg ~doc:"Server address." $ port_arg
               $ user_arg $ key_pos $ branch_pos))

(* push/pull: Merkle-DAG delta sync between the local --root instance
   and a running server.  Only chunks the other side lacks cross the
   wire; every ingested chunk is re-hashed against its announced id. *)

let sync_branch_pos =
  Arg.(value & pos 1 string Branch.default_branch
       & info [] ~docv:"BRANCH" ~doc:"Branch to sync.")

let render_sync_stats verb uid (s : Fb_core.Sync.stats) =
  Printf.sprintf
    "%s %s: %d chunks / %d bytes on wire, %d shared chunks skipped, %d \
     round trips\n"
    verb
    (Fb_core.Forkbase.version_string uid)
    s.Fb_core.Sync.chunks_moved s.Fb_core.Sync.bytes_moved
    s.Fb_core.Sync.chunks_skipped s.Fb_core.Sync.rounds

let sync_cmd name ~doc ~verb sync =
  let run root host port user key branch =
    match Fb_net.Remote.connect ~host ~port ~user () with
    | Error e -> `Error (false, Errors.to_string e)
    | Ok r ->
      Fun.protect
        ~finally:(fun () -> Fb_net.Remote.close r)
        (fun () ->
          with_instance root (fun fb ->
              let* uid, stats = sync ~user ~branch r fb ~key in
              Ok (render_sync_stats verb uid stats)))
  in
  Cmd.v (Cmd.info name ~doc)
    Term.(ret (const run $ root_arg $ host_arg ~doc:"Server address."
               $ port_arg $ user_arg $ key_pos $ sync_branch_pos))

let push_cmd =
  sync_cmd "push"
    ~doc:"Replicate KEY/BRANCH from the local $(b,--root) store to a \
          running $(b,forkbase serve), shipping only the chunks the \
          server lacks (Merkle-DAG delta sync).  The server re-hashes \
          every chunk and fast-forwards the branch head atomically."
    ~verb:"pushed"
    (fun ~user ~branch r fb ~key -> Fb_net.Remote.push ~user ~branch r fb ~key)

let pull_cmd =
  sync_cmd "pull"
    ~doc:"Replicate KEY/BRANCH from a running $(b,forkbase serve) into \
          the local $(b,--root) store (created if absent), fetching only \
          missing chunks and re-hashing each against its announced id \
          before anything is stored."
    ~verb:"pulled"
    (fun ~user ~branch r fb ~key -> Fb_net.Remote.pull ~user ~branch r fb ~key)

let scrub_cmd =
  let dry_run_arg =
    Arg.(value & flag
         & info [ "dry-run" ] ~doc:"Report damage without deleting or repairing.")
  in
  let repair_from_arg =
    Arg.(value & opt (some string) None
         & info [ "repair-from" ] ~docv:"DIR"
             ~doc:"Another ForkBase root to restore damaged chunks from.")
  in
  let run root user backend dry_run repair_from =
    with_persistent ~backend root (fun { Fb_core.Persistent.fb; log; _ } ->
        ignore user;
        (* The replica root is opened through Persistent so any provider
           (log, per-file chunks, …) can donate healthy bytes, and closed
           again once the scrub is done. *)
        let with_replica f =
          match repair_from with
          | None -> f None
          | Some dir ->
            Fb_core.Persistent.with_instance ~root:dir (fun r ->
                f (Some (FB.store r.Fb_core.Persistent.fb)))
        in
        with_replica @@ fun replica ->
        (* Keep the damaged bytes for forensics before they are deleted. *)
        let qdir = Filename.concat root "quarantine" in
        let quarantine id raw =
          if not (Sys.file_exists qdir) then Sys.mkdir qdir 0o755;
          let oc =
            open_out_bin (Filename.concat qdir (Hash.to_hex id))
          in
          Fun.protect
            ~finally:(fun () -> close_out_noerr oc)
            (fun () -> output_string oc raw)
        in
        let report = FB.scrub ?replica ~quarantine ~dry_run fb in
        (* The chunk-level pass cannot see the physical structure of the
           log holding the heads (record seals, checkpoint agreement, torn
           tails, crashed-compaction leftovers, heads naming absent
           chunks): fsck it too. *)
        let log_fsck, log_ok =
          match log with
          | None -> ("", true)
          | Some h ->
            Fb_chunk.Log_store.sync h;
            (match
               Fb_chunk.Log_store.fsck_with ~mem:(Fb_chunk.Store.mem (FB.store fb))
                 ~root:(Fb_chunk.Log_store.root h)
             with
            | Error e -> (Printf.sprintf "log fsck failed: %s\n" e, false)
            | Ok r ->
              ( Format.asprintf "%a@." Fb_chunk.Scrub.pp_fsck_log r,
                Fb_chunk.Scrub.fsck_log_clean r ))
        in
        let ok = Fb_chunk.Scrub.clean report && log_ok in
        Ok
          (Format.asprintf "%a@.%s%s@."
             Fb_chunk.Scrub.pp_report report log_fsck
             (if ok then "store is clean"
              else if dry_run then "damage found (re-run without --dry-run)"
              else "damage remains: restore a replica and re-run")))
  in
  Cmd.v
    (Cmd.info "scrub"
       ~doc:"Verify every stored chunk against its hash; quarantine damaged \
             ones (to ROOT/quarantine/), repair from --repair-from when it \
             holds healthy bytes, and report reachable chunks that cannot \
             be served.")
    Term.(ret (const run $ root_arg $ user_arg $ backend_arg $ dry_run_arg
               $ repair_from_arg))

let gc_cmd =
  let run root user backend =
    with_persistent ~backend root (fun inst ->
        ignore user;
        let* r = Fb_core.Persistent.gc inst in
        (* Under the log engine a sweep only appends tombstones; compaction
           rewrites the surviving records into a fresh generation and is
           what actually returns the bytes to the filesystem. *)
        let compacted =
          match inst.log with
          | None -> ""
          | Some h ->
            let before = Fb_chunk.Log_store.file_bytes h in
            Fb_chunk.Log_store.compact h;
            Printf.sprintf "log compacted: %d -> %d bytes (generation %d)\n"
              before
              (Fb_chunk.Log_store.file_bytes h)
              (Fb_chunk.Log_store.generation h)
        in
        Ok
          (Printf.sprintf "live: %d chunks; swept: %d chunks (%d bytes)\n%s"
             r.Fb_chunk.Gc.live_chunks r.Fb_chunk.Gc.swept_chunks
             r.Fb_chunk.Gc.swept_bytes compacted))
  in
  Cmd.v
    (Cmd.info "gc"
       ~doc:"Delete chunks unreachable from any branch head (and compact \
             the active generation of the log holding the heads).  \
             Refuses on a cluster member's root, whose heads live on \
             the router.")
    Term.(ret (const run $ root_arg $ user_arg $ backend_arg))

let metrics_cmd =
  let json_arg =
    Arg.(value & flag
         & info [ "json" ]
             ~doc:"Emit the registry as JSON (including trace spans) instead \
                   of Prometheus text.")
  in
  let workload_arg =
    Arg.(value & opt int 0
         & info [ "workload" ] ~docv:"N"
             ~doc:"First run a synthetic in-memory workload ($(docv) puts, \
                   $(docv) gets and $(docv)/10 fork+merge cycles) so the \
                   dump carries live latency distributions.  The workload \
                   never touches the on-disk store.")
  in
  let trace_out_arg =
    Arg.(value & opt (some string) None
         & info [ "trace-out" ] ~docv:"FILE"
             ~doc:"Also write the span ring as Chrome trace_event JSON \
                   to $(docv) (open in chrome://tracing or Perfetto).")
  in
  let run root user json n trace_out =
    with_instance root (fun fb ->
        ignore user;
        (* Touching stats registers the persistent store's gauges. *)
        ignore (FB.stats fb);
        let ( let* ) = Result.bind in
        let* () =
          if n <= 0 then Ok ()
          else begin
            let store =
              Fb_chunk.Metered_store.wrap (Fb_chunk.Mem_store.create ())
            in
            let mem = FB.create store in
            let rec puts i =
              if i >= n then Ok ()
              else
                let* _ =
                  FB.put mem ~key:(Printf.sprintf "k%d" (i mod 16))
                    (Value.string (Printf.sprintf "value-%d" i))
                in
                puts (i + 1)
            in
            let* () = puts 0 in
            let rec gets i =
              if i >= n then Ok ()
              else
                let* _ = FB.get mem ~key:(Printf.sprintf "k%d" (i mod 16)) in
                gets (i + 1)
            in
            let* () = gets 0 in
            let rec merges i =
              if i >= n / 10 then Ok ()
              else begin
                let key = "shared" in
                let b = Printf.sprintf "side-%d" i in
                let* _ =
                  FB.put mem ~key
                    (Value.map_of_bindings (FB.store mem)
                       [ ("base", "v"); (Printf.sprintf "m%d" i, "x") ])
                in
                let* _ = FB.fork mem ~key ~new_branch:b in
                let* _ =
                  FB.put mem ~branch:b ~key
                    (Value.map_of_bindings (FB.store mem)
                       [ ("base", "v"); (Printf.sprintf "m%d" i, "x");
                         (Printf.sprintf "side%d" i, "y") ])
                in
                let* _ =
                  FB.merge mem ~key ~into:Branch.default_branch
                    ~from_branch:b
                in
                merges (i + 1)
              end
            in
            merges 0
          end
        in
        (match trace_out with
         | None -> ()
         | Some file ->
           let oc = open_out_bin file in
           Fun.protect
             ~finally:(fun () -> close_out_noerr oc)
             (fun () -> output_string oc (Fb_obs.Obs.dump_chrome_trace ())));
        Ok
          (if json then Fb_obs.Obs.dump_json ~include_spans:true ()
           else Fb_obs.Obs.dump_prometheus ()))
  in
  Cmd.v
    (Cmd.info "metrics"
       ~doc:"Dump the observability registry (counters, gauges, latency \
             histograms) in Prometheus text format, or JSON with --json.  \
             Use --workload N to exercise an in-memory instance first, \
             --trace-out FILE to export the span ring for chrome://tracing.")
    Term.(ret (const run $ root_arg $ user_arg $ json_arg $ workload_arg
               $ trace_out_arg))

(* ------------------------- top ------------------------- *)

(* Live node telemetry: poll METRICS-JSON over the typed Remote, rebuild
   histogram snapshots from the wire buckets, and diff consecutive
   samples into interval rates and quantiles (Obs.snapshot_sub) — the
   lifetime aggregates a node reports are useless for "what is it doing
   right now". *)
module Top = struct
  module Obs = Fb_obs.Obs
  module Json = Fb_types.Json

  type sample = {
    at : float;
    counters : (string * float) list;
    gauges : (string * float) list;
    hists : (string * Obs.snapshot) list;
  }

  let parse_sample body =
    match Json.parse body with
    | Error e -> Error ("bad metrics-json: " ^ e)
    | Ok j ->
      let obj name =
        match Json.member name j with Some (Json.Object o) -> o | _ -> []
      in
      let number = function Json.Number n -> Some n | _ -> None in
      let counters =
        List.filter_map
          (fun (k, v) -> Option.map (fun n -> (k, n)) (number v))
          (obj "counters")
      in
      let gauges =
        List.filter_map
          (fun (k, v) -> Option.map (fun n -> (k, n)) (number v))
          (obj "gauges")
      in
      let hists =
        List.filter_map
          (fun (k, v) ->
            match v with
            | Json.Object fields ->
              let num name =
                match List.assoc_opt name fields with
                | Some (Json.Number n) -> n
                | _ -> 0.0
              in
              let buckets =
                match List.assoc_opt "buckets" fields with
                | Some (Json.Array pairs) ->
                  List.filter_map
                    (function
                      | Json.Array [ Json.Number i; Json.Number c ] ->
                        Some (int_of_float i, int_of_float c)
                      | _ -> None)
                    pairs
                | _ -> []
              in
              Some
                ( k,
                  Obs.snapshot_of_buckets
                    ~count:(int_of_float (num "count"))
                    ~sum:(num "sum") buckets )
            | _ -> None)
          (obj "histograms")
      in
      Ok { at = Unix.gettimeofday (); counters; gauges; hists }

  let fetch r =
    match Fb_net.Remote.call r Fb_core.Service.metrics_json () with
    | Error e -> Error (Errors.to_string e)
    | Ok body -> parse_sample body

  let assoc name l = Option.value (List.assoc_opt name l) ~default:0.0

  let fmt_seconds v =
    if v <= 0.0 then "-"
    else if v >= 1.0 then Printf.sprintf "%.2f s" v
    else if v >= 1e-3 then Printf.sprintf "%.2f ms" (v *. 1e3)
    else Printf.sprintf "%.0f us" (v *. 1e6)

  let fmt_bytes v =
    if v >= 1048576.0 then Printf.sprintf "%.1f MiB" (v /. 1048576.0)
    else if v >= 1024.0 then Printf.sprintf "%.1f KiB" (v /. 1024.0)
    else Printf.sprintf "%.0f B" v

  let starts_with ~prefix s =
    String.length s >= String.length prefix
    && String.sub s 0 (String.length prefix) = prefix

  let ends_with ~suffix s =
    let n = String.length s and m = String.length suffix in
    n >= m && String.sub s (n - m) m = suffix

  (* Stage histograms under fb.net. that are not verbs; each gets its own
     line below the verb table. *)
  let stage_hists =
    [ ("reply encode", "fb.net.reply_encode_seconds");
      ("lock wait", "fb.rwlock.wait_seconds") ]

  (* fb.net.<verb>_seconds -> <verb> *)
  let verb_of_hist name =
    let prefix = "fb.net." and suffix = "_seconds" in
    if List.exists (fun (_, h) -> h = name) stage_hists then None
    else if starts_with ~prefix name && ends_with ~suffix name then
      Some
        (String.sub name (String.length prefix)
           (String.length name - String.length prefix - String.length suffix))
    else None

  let render ~target prev cur =
    let dt = Float.max 1e-9 (cur.at -. prev.at) in
    let cdelta name = Float.max 0.0 (assoc name cur.counters -. assoc name prev.counters) in
    let buf = Buffer.create 2048 in
    let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
    line "forkbase top — %s — interval %.1f s — sha256 %s" target dt
      (match List.assoc_opt "hash.sha256_native" cur.gauges with
       | Some 1.0 -> "native"
       | Some _ -> "ocaml"
       | None -> "unknown");
    line "requests: %6.1f/s   batches: %5.1f/s   errors: %4.1f/s   conns: %.0f"
      (cdelta "fb.net.frames" /. dt)
      (cdelta "fb.net.batches" /. dt)
      ((cdelta "fb.net.errors" +. cdelta "fb.net.request_errors") /. dt)
      (assoc "fb.net.connections_active" cur.gauges);
    line "";
    line "%-14s %10s %10s %10s %10s" "verb" "ops/s" "p50" "p99" "count";
    let rows =
      List.filter_map
        (fun (name, snap) ->
          match verb_of_hist name with
          | None -> None
          | Some verb ->
            let prev_snap =
              Option.value (List.assoc_opt name prev.hists)
                ~default:Obs.empty_snapshot
            in
            let d = Obs.snapshot_sub snap prev_snap in
            let n = Obs.snapshot_total d in
            if n = 0 && Obs.snapshot_total snap = 0 then None
            else Some (verb, n, d, snap))
        cur.hists
    in
    let rows = List.sort (fun (_, a, _, _) (_, b, _, _) -> compare b a) rows in
    List.iter
      (fun (verb, n, d, lifetime) ->
        let q snap p =
          if Obs.snapshot_total snap = 0 then "-"
          else fmt_seconds (Obs.snapshot_quantile snap p)
        in
        if n > 0 then
          line "%-14s %10.1f %10s %10s %10d" verb
            (float_of_int n /. dt)
            (q d 0.5) (q d 0.99) (Obs.snapshot_total lifetime)
        else
          line "%-14s %10s %10s %10s %10d" verb "-" (q lifetime 0.5)
            (q lifetime 0.99)
            (Obs.snapshot_total lifetime))
      rows;
    let section title picks =
      if picks <> [] then begin
        line "";
        line "%s" title;
        List.iter (fun (k, v) -> line "  %-40s %s" k v) picks
      end
    in
    section "caches"
      (List.filter_map
         (fun (k, v) ->
           if ends_with ~suffix:".hit_ratio" k then
             let name = Filename.chop_suffix k ".hit_ratio" in
             let rejected =
               Option.value ~default:0.0
                 (List.assoc_opt (name ^ ".rejected") cur.gauges)
             in
             Some
               (name, Printf.sprintf "%5.1f%% hits  %.0f rejected" (v *. 100.0)
                  rejected)
           else None)
         cur.gauges);
    section "log store"
      (List.filter_map
         (fun (k, v) ->
           if not (starts_with ~prefix:"log." k) then None
           else if ends_with ~suffix:".generation" k
                   || ends_with ~suffix:".live_chunks" k
                   || ends_with ~suffix:".compactions" k then
             Some (k, Printf.sprintf "%.0f" v)
           else if ends_with ~suffix:".file_bytes" k
                   || ends_with ~suffix:".synced_bytes" k
                   || ends_with ~suffix:".garbage_bytes" k then
             Some (k, fmt_bytes v)
           else None)
         cur.gauges);
    (* Stage lines: the interval's quantiles, or the lifetime's when the
       interval saw no sample. *)
    let stages =
      List.filter_map
        (fun (title, name) ->
          match List.assoc_opt name cur.hists with
          | Some snap when Obs.snapshot_total snap > 0 ->
            let prev_snap =
              Option.value (List.assoc_opt name prev.hists)
                ~default:Obs.empty_snapshot
            in
            let d = Obs.snapshot_sub snap prev_snap in
            let use = if Obs.snapshot_total d > 0 then d else snap in
            Some
              (Printf.sprintf "%s: p50 %s  p99 %s  (%.1f/s)" title
                 (fmt_seconds (Obs.snapshot_quantile use 0.5))
                 (fmt_seconds (Obs.snapshot_quantile use 0.99))
                 (float_of_int (Obs.snapshot_total d) /. dt))
          | _ -> None)
        stage_hists
    in
    if stages <> [] then begin
      line "";
      List.iter (fun l -> line "%s" l) stages
    end;
    Buffer.contents buf

  (* --demo: an in-process server over a Mem store plus a background
     workload, so the dashboard (and make check) can run with no
     external node to point at. *)
  let with_demo f =
    let store = Fb_chunk.Metered_store.wrap (Fb_chunk.Mem_store.create ()) in
    let fb = FB.create store in
    let config =
      { Fb_net.Server.default_config with port = 0 }
    in
    match Fb_net.Server.start ~config fb with
    | Error e -> `Error (false, "demo server: " ^ e)
    | Ok srv ->
      let port = Fb_net.Server.port srv in
      let stop_flag = Atomic.make false in
      let worker =
        Thread.create
          (fun () ->
            match Fb_net.Remote.connect ~port ~user:"demo" () with
            | Error _ -> ()
            | Ok r ->
              let i = ref 0 in
              while not (Atomic.get stop_flag) do
                let key = Printf.sprintf "demo-%d" (!i mod 8) in
                ignore (Fb_net.Remote.put r ~key (Printf.sprintf "v%d" !i));
                ignore (Fb_net.Remote.get r ~key);
                incr i;
                Thread.delay 0.002
              done;
              Fb_net.Remote.close r)
          ()
      in
      Fun.protect
        ~finally:(fun () ->
          Atomic.set stop_flag true;
          Thread.join worker;
          Fb_net.Server.stop srv)
        (fun () -> f port)

  let run host port user interval once demo =
    let interval = Float.max 0.1 interval in
    let poll target port =
      match Fb_net.Remote.connect ~host ~port ~user () with
      | Error e -> `Error (false, Errors.to_string e)
      | Ok r ->
        Fun.protect
          ~finally:(fun () -> Fb_net.Remote.close r)
          (fun () ->
            match fetch r with
            | Error e -> `Error (false, e)
            | Ok first ->
              let rec loop prev =
                Thread.delay interval;
                match fetch r with
                | Error e -> `Error (false, e)
                | Ok cur ->
                  if not once then print_string "\027[H\027[2J";
                  print_string (render ~target prev cur);
                  flush stdout;
                  if once then `Ok () else loop cur
              in
              loop first)
    in
    if demo then with_demo (fun p -> poll (Printf.sprintf "demo:%d" p) p)
    else poll (Printf.sprintf "%s:%d" host port) port
end

let top_cmd =
  let interval_arg =
    Arg.(value & opt float 2.0
         & info [ "i"; "interval" ] ~docv:"SECONDS"
             ~doc:"Refresh interval (also the window of the rate/quantile \
                   deltas).")
  in
  let once_arg =
    Arg.(value & flag
         & info [ "once" ]
             ~doc:"Render a single interval and exit (no screen clearing) \
                   — for scripts and smoke tests.")
  in
  let demo_arg =
    Arg.(value & flag
         & info [ "demo" ]
             ~doc:"Start a throwaway in-memory server with a synthetic \
                   workload and watch it — a self-contained demo needing \
                   no running node.")
  in
  Cmd.v
    (Cmd.info "top"
       ~doc:"Live telemetry of a running $(b,forkbase serve): ops/s and \
             interval p50/p99 per verb (from METRICS-JSON histogram \
             snapshots), cache hit ratios, log-store gauges and lock \
             wait, refreshed every --interval seconds.")
    Term.(ret (const Top.run $ host_arg ~doc:"Server address." $ port_arg
               $ user_arg $ interval_arg $ once_arg $ demo_arg))

(* ------------------------- cluster tooling -------------------------
   Spawn/inspect/stop a local set of forkbase serve processes and record
   the topology in ROOT/CLUSTER — the file the "cluster" store provider
   auto-detects, so `forkbase serve --backend cluster --root ROOT` (the
   router) needs no further configuration. *)

module Cluster_cli = struct
  module C = Fb_net.Cluster

  let node_root root i = Filename.concat root (Printf.sprintf "node-%d" i)

  let mkdir_p dir =
    let rec go d =
      if d <> "" && d <> "/" && not (Sys.file_exists d) then begin
        go (Filename.dirname d);
        (try Sys.mkdir d 0o755 with Sys_error _ -> ())
      end
    in
    go dir

  let pid_alive pid =
    match Unix.kill pid 0 with
    | () -> true
    | exception Unix.Unix_error _ -> false

  (* One serve child per node, stdio to ROOT/node-<i>.log so crashes
     leave a trail.  The child is a full daemon: its own root and log
     engine.  The root is marked as a member's, so gc refuses it. *)
  let spawn_node root i (node : C.node) fsync =
    let nroot = node_root root i in
    mkdir_p nroot;
    Fb_core.Persistent.mark_member ~root:nroot;
    let log_fd =
      Unix.openfile
        (nroot ^ ".log")
        [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ]
        0o644
    in
    let null_fd = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
    Fun.protect
      ~finally:(fun () ->
        Unix.close log_fd;
        Unix.close null_fd)
      (fun () ->
        Unix.create_process Sys.executable_name
          [| "forkbase"; "serve"; "--root"; nroot; "--host"; node.C.host;
             "--port"; string_of_int node.C.port; "--fsync"; string_of_bool fsync |]
          null_fd log_fd log_fd)

  let wait_ready ?(timeout_s = 10.0) (node : C.node) =
    let deadline = Unix.gettimeofday () +. timeout_s in
    let rec go () =
      match
        Fb_net.Remote.connect ~host:node.C.host ~port:node.C.port
          ~timeout_s:1.0 ()
      with
      | Ok r ->
        Fb_net.Remote.close r;
        true
      | Error _ ->
        if Unix.gettimeofday () > deadline then false
        else begin
          Thread.delay 0.05;
          go ()
        end
    in
    go ()

  let read_topology root =
    let path = C.cluster_file root in
    if not (Sys.file_exists path) then
      Error (Printf.sprintf "no %s — run forkbase cluster start first" path)
    else C.read_topology path

  let start root count base_port replicas fsync =
    if count < 1 then `Error (false, "cluster start: --count must be >= 1")
    else begin
      mkdir_p root;
      let nodes =
        List.init count (fun i ->
            { C.host = "127.0.0.1"; port = base_port + i })
      in
      let pids =
        List.mapi (fun i node -> spawn_node root i node fsync) nodes
      in
      let topo =
        { C.nodes = List.combine nodes (List.map Option.some pids);
          t_replicas = Some replicas;
          t_virtual_nodes = None }
      in
      match C.write_topology (C.cluster_file root) topo with
      | Error e -> `Error (false, "cluster start: " ^ e)
      | Ok () ->
        let ready = List.map wait_ready nodes in
        List.iteri
          (fun i ((node : C.node), pid) ->
            Printf.printf "node %d: %s pid=%d %s\n" i (C.render_node node)
              pid
              (if List.nth ready i then "up" else "NOT RESPONDING"))
          (List.combine nodes pids);
        if List.for_all Fun.id ready then begin
          Printf.printf
            "cluster of %d nodes up (replicas=%d); route with: forkbase \
             serve --backend cluster --root %s\n"
            count replicas root;
          `Ok ()
        end
        else
          `Error
            ( false,
              "some nodes failed to come up — see ROOT/node-*.log" )
    end

  let status root =
    match read_topology root with
    | Error e -> `Error (false, e)
    | Ok topo ->
      let any_down = ref false in
      List.iteri
        (fun i ((node : C.node), pid) ->
          let reachable, detail =
            match
              Fb_net.Remote.connect ~host:node.C.host ~port:node.C.port
                ~timeout_s:2.0 ()
            with
            | Error e -> (false, Errors.to_string e)
            | Ok r ->
              Fun.protect
                ~finally:(fun () -> Fb_net.Remote.close r)
                (fun () ->
                  match Fb_net.Remote.call r Fb_core.Service.chunk_stat () with
                  | Ok (chunks, bytes) ->
                    (true, Printf.sprintf "chunks=%d bytes=%d" chunks bytes)
                  | Error e -> (true, Errors.to_string e))
          in
          if not reachable then any_down := true;
          Printf.printf "node %d: %s %s%s %s\n" i (C.render_node node)
            (if reachable then "up" else "down")
            (match pid with
             | Some pid ->
               Printf.sprintf " pid=%d%s" pid
                 (if pid_alive pid then "" else " (dead)")
             | None -> "")
            detail)
        topo.C.nodes;
      if !any_down then `Error (false, "some nodes are down") else `Ok ()

  let signal_node ~hard ((node : C.node), pid) =
    match pid with
    | None ->
      Printf.printf "%s: no recorded pid (started externally?)\n"
        (C.render_node node);
      false
    | Some pid ->
      if pid_alive pid then begin
        (try Unix.kill pid (if hard then Sys.sigkill else Sys.sigterm)
         with Unix.Unix_error _ -> ());
        Printf.printf "%s pid=%d: sent %s\n" (C.render_node node) pid
          (if hard then "SIGKILL" else "SIGTERM");
        true
      end
      else begin
        Printf.printf "%s pid=%d: already dead\n" (C.render_node node) pid;
        false
      end

  let stop root hard =
    match read_topology root with
    | Error e -> `Error (false, e)
    | Ok topo ->
      List.iter (fun n -> ignore (signal_node ~hard n)) topo.C.nodes;
      (* Keep the topology (the provider still routes to these
         addresses on restart) but drop the dead pids. *)
      let topo =
        { topo with C.nodes = List.map (fun (n, _) -> (n, None)) topo.C.nodes }
      in
      (match C.write_topology (C.cluster_file root) topo with
      | Ok () -> ()
      | Error e -> Printf.eprintf "warning: %s\n" e);
      `Ok ()

  let kill root index hard =
    match read_topology root with
    | Error e -> `Error (false, e)
    | Ok topo -> (
      match List.nth_opt topo.C.nodes index with
      | None ->
        `Error
          ( false,
            Printf.sprintf "no node %d (cluster has %d)" index
              (List.length topo.C.nodes) )
      | Some n ->
        ignore (signal_node ~hard n);
        `Ok ())
end

let cluster_cmd =
  let count_arg =
    Arg.(value & opt int 3
         & info [ "count" ] ~docv:"N" ~doc:"Nodes to spawn.")
  in
  let base_port_arg =
    Arg.(value & opt int 7461
         & info [ "base-port" ] ~docv:"PORT"
             ~doc:"First node port; node $(i,i) listens on $(docv)+$(i,i).")
  in
  let hard_arg =
    Arg.(value & flag
         & info [ "hard" ]
             ~doc:"SIGKILL instead of SIGTERM (simulates a crash: \
                   recovery exercised on restart).")
  in
  let replicas_default_arg =
    Arg.(value & opt int 2
         & info [ "replicas" ] ~docv:"W"
             ~doc:"Copies of each chunk, recorded in the CLUSTER file.")
  in
  let index_pos =
    Arg.(required & pos 0 (some int) None
         & info [] ~docv:"NODE" ~doc:"Node index (0-based).")
  in
  let start =
    Cmd.v
      (Cmd.info "start"
         ~doc:"Spawn N local $(b,forkbase serve) nodes (roots \
               ROOT/node-$(i,i), logs ROOT/node-$(i,i).log) and record \
               the topology in ROOT/CLUSTER.")
      Term.(ret (const Cluster_cli.start $ root_arg $ count_arg
                 $ base_port_arg $ replicas_default_arg $ fsync_arg))
  in
  let status =
    Cmd.v
      (Cmd.info "status"
         ~doc:"Probe every node in ROOT/CLUSTER and print \
               up/down + physical chunk counts.")
      Term.(ret (const Cluster_cli.status $ root_arg))
  in
  let stop =
    Cmd.v
      (Cmd.info "stop"
         ~doc:"Stop every node recorded in ROOT/CLUSTER (SIGTERM, or \
               SIGKILL with $(b,--hard)); the topology file is kept for \
               restarts.")
      Term.(ret (const Cluster_cli.stop $ root_arg $ hard_arg))
  in
  let kill =
    Cmd.v
      (Cmd.info "kill"
         ~doc:"Kill one node by index — the fault-injection lever for \
               failover drills ($(b,--hard) for SIGKILL).")
      Term.(ret (const Cluster_cli.kill $ root_arg $ index_pos $ hard_arg))
  in
  Cmd.group
    (Cmd.info "cluster"
       ~doc:"Manage a local set of $(b,forkbase serve) storage nodes \
             (spawn, status, stop, kill) behind the $(b,cluster) store \
             provider.")
    [ start; status; stop; kill ]

let main =
  let doc = "Git-like, tamper-evident storage for branchable applications" in
  let info = Cmd.info "forkbase" ~version:"1.0.0" ~doc in
  Cmd.group info
    [ put_cmd; get_cmd; head_cmd; latest_cmd; list_cmd; log_cmd; meta_cmd;
      branch_cmd; rename_cmd; delete_branch_cmd; diff_cmd; merge_cmd;
      verify_cmd; export_cmd; bundle_cmd; unbundle_cmd; history_cmd;
      tag_cmd; tags_cmd;
      serve_cmd; client_cmd; watch_cmd; push_cmd; pull_cmd; stat_cmd; gc_cmd;
      scrub_cmd; cluster_cmd; metrics_cmd; top_cmd ]

let () = exit (Cmd.eval main)
