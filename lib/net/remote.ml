module Errors = Fb_core.Errors
module Forkbase = Fb_core.Forkbase
module Service = Fb_core.Service
module Obs = Fb_obs.Obs

type uid = Forkbase.uid

(* Dial parameters, kept verbatim for the transparent reconnect. *)
type params = {
  host : string option;
  port : int option;
  user : string option;
  max_frame : int option;
  timeout_s : float option;
}

type sub_event =
  | Head_moved of Forkbase.head_event
  | Gap of { resubscribed : bool }

(* Everything needed to resurrect a subscription on a fresh connection:
   the original filters plus the live server-side id (-1 while detached).
   [s_active] gates delivery so an unsubscribed callback can never fire
   again even if a push for the old sid is already in flight. *)
type sub_state = {
  s_user : string option;
  s_key : string option;
  s_branch : string option;
  s_cb : sub_event -> unit;
  mutable s_sid : int;
  mutable s_active : bool;
}

type t = {
  p : params;
  mu : Mutex.t;  (* guards [mux] swap, [user_closed], and the sub table *)
  mutable mux : Mux.t;
  mutable user_closed : bool;
  subs : (int, sub_state) Hashtbl.t;  (* local handle -> state *)
  mutable next_sub : int;
  mutable monitor_running : bool;
}

type subscription = int  (* local handle, stable across reconnects *)

(* The one place transport failures become typed: a dead socket is a
   transient condition (retry against the same or another server), not a
   storage-semantics error. *)
let of_client_error = function
  | Mux.Remote e -> e
  | Mux.Transport msg -> Errors.Transient ("network: " ^ msg)

let lift = function
  | Ok _ as ok -> ok
  | Error e -> Error (of_client_error e)

let connect ?host ?port ?user ?max_frame ?timeout_s () =
  match Mux.connect ?host ?port ?user ?max_frame ?timeout_s () with
  | Ok mux ->
    Ok
      { p = { host; port; user; max_frame; timeout_s };
        mu = Mutex.create (); mux; user_closed = false;
        subs = Hashtbl.create 4; next_sub = 0; monitor_running = false }
  | Error e -> Error (of_client_error e)

let close t =
  let mux =
    Mutex.protect t.mu (fun () ->
        t.user_closed <- true;
        Hashtbl.reset t.subs;
        t.mux)
  in
  Mux.close mux

(* A handle with live subscriptions stays "open" across a server bounce:
   the transport may be down right now, but the monitor thread is
   dialing and will resurrect the subscriptions — exactly the window
   where [forkbase watch]'s liveness loop must keep spinning. *)
let is_open t =
  Mutex.protect t.mu (fun () ->
      (not t.user_closed)
      && (Mux.is_open t.mux || Hashtbl.length t.subs > 0))

(* Bridge a wire event back into the local watch vocabulary: heads are
   parsed to uids, and the callback runs inside a [net.client.event]
   span joined to the writer's trace when the push carried one — the
   same trace id `forkbase top` / /tracez show for the write itself. *)
let wire_cb (st : sub_state) trace (ev : Frame.event) =
  if st.s_active then
    match Forkbase.parse_version ev.new_head with
    | Error _ -> ()  (* unintelligible push; drop rather than crash *)
    | Ok new_head ->
      let old_head =
        Option.bind ev.old_head (fun s ->
            Result.to_option (Forkbase.parse_version s))
      in
      let ctx =
        Option.map
          (fun (tr : Frame.trace) ->
            { Obs.trace_id = tr.trace_id; span_id = tr.parent_span })
          trace
      in
      Obs.with_span ?ctx
        ~attrs:[ ("key", ev.ev_key); ("branch", ev.ev_branch) ]
        "net.client.event"
        (fun () ->
          st.s_cb
            (Head_moved
               { Forkbase.key = ev.ev_key; branch = ev.ev_branch;
                 new_head; old_head }))

(* Re-issue every live subscription on a fresh connection, then tell each
   callback pushes may have been missed while we were dark ([Gap]).  Runs
   outside [t.mu]: [Mux.subscribe] is a blocking round trip. *)
let resubscribe_all t mux =
  let states =
    Mutex.protect t.mu (fun () ->
        Hashtbl.fold
          (fun _ st acc -> if st.s_active then st :: acc else acc)
          t.subs [])
  in
  List.iter
    (fun st ->
      let resubscribed =
        match
          Mux.subscribe ?user:st.s_user ?key:st.s_key ?branch:st.s_branch mux
            (wire_cb st)
        with
        | Ok sid ->
          st.s_sid <- sid;
          true
        | Error _ ->
          st.s_sid <- -1;
          false
      in
      (try st.s_cb (Gap { resubscribed }) with _ -> ()))
    states

(* One transparent reconnect: when the transport died under us (not by
   an explicit [close]), re-dial with the original parameters and retry
   — but only requests whose classification is [Read].  A mutating verb
   may have been applied before the connection tore; replaying it could
   double-apply, so it surfaces as [Transient] for the caller to decide.
   A fresh connection also resurrects live subscriptions (see
   [resubscribe_all]). *)
let reconnect_for t dead =
  let dialed =
    Mutex.protect t.mu (fun () ->
        if t.user_closed then None
        else if t.mux != dead then
          Some (t.mux, false)  (* another caller already did *)
        else begin
          Mux.close dead;
          match
            Mux.connect ?host:t.p.host ?port:t.p.port ?user:t.p.user
              ?max_frame:t.p.max_frame ?timeout_s:t.p.timeout_s ()
          with
          | Ok mux ->
            t.mux <- mux;
            Obs.log_event Obs.Info "remote reconnected";
            Some (mux, true)
          | Error _ -> None
        end)
  in
  match dialed with
  | None -> None
  | Some (mux, fresh) ->
    if fresh then resubscribe_all t mux;
    Some mux

(* Subscriptions are push-only: no pending request notices a dead socket.
   The monitor dials on their behalf so a watch session recovers from a
   server bounce without the caller issuing any request. *)
let monitor t =
  let rec loop () =
    Thread.delay 0.25;
    let closed = Mutex.protect t.mu (fun () -> t.user_closed) in
    if not closed then begin
      let mux = Mutex.protect t.mu (fun () -> t.mux) in
      let live_subs =
        Mutex.protect t.mu (fun () -> Hashtbl.length t.subs > 0)
      in
      if live_subs && not (Mux.is_open mux) then ignore (reconnect_for t mux);
      loop ()
    end
  in
  loop ()

let ensure_monitor t =
  let spawn =
    Mutex.protect t.mu (fun () ->
        if t.monitor_running then false
        else begin
          t.monitor_running <- true;
          true
        end)
  in
  if spawn then ignore (Thread.create monitor t)

let run ~retryable t f =
  let mux = Mutex.protect t.mu (fun () -> t.mux) in
  match f mux with
  | Ok _ as ok -> ok
  | Error (Mux.Remote _) as e -> e
  | Error (Mux.Transport _) as e ->
    if not retryable then e
    else if Mutex.protect t.mu (fun () -> t.user_closed) then e
    else (
      match reconnect_for t mux with
      | None -> e
      | Some mux -> f mux)

let tokens_retryable tokens =
  match tokens with
  (* chunk-put is Write-classified (the server excludes it globally) but
     content-addressed and therefore idempotent: replaying it after a
     torn connection cannot double-apply.  The one mutating verb safe to
     retry across a reconnect. *)
  | verb :: _ when String.lowercase_ascii verb = "chunk-put" -> true
  | _ -> (
    match Service.classify tokens with
    | Service.Read, _ -> true
    | Service.Write, _ -> false)

let raw ?user t tokens =
  lift
    (run ~retryable:(tokens_retryable tokens) t (fun mux ->
         Mux.request ?user mux tokens))

let raw_line ?user t line =
  match Fb_core.Service.tokenize line with
  | Error e -> Error (Errors.Invalid e)
  | Ok tokens -> raw ?user t tokens

let uid_of payload = Forkbase.parse_version payload

let unit_of (_ : string) = Ok ()

let lines_of payload =
  if payload = "" then [] else String.split_on_char '\n' payload

(* "branch uid" per line; the uid rendering never contains a blank, so
   splitting at the last one is unambiguous even for odd branch names. *)
let head_line line =
  match String.rindex_opt line ' ' with
  | None -> Error (Errors.Invalid ("bad head line: " ^ line))
  | Some i ->
    let branch = String.sub line 0 i in
    let v = String.sub line (i + 1) (String.length line - i - 1) in
    Result.map (fun uid -> (branch, uid)) (uid_of v)

let heads_of payload =
  List.fold_left
    (fun acc line ->
      match acc with
      | Error _ as e -> e
      | Ok heads ->
        Result.map (fun h -> h :: heads) (head_line line))
    (Ok []) (lines_of payload)
  |> Result.map List.rev

let op ?user t tokens parse = Result.bind (raw ?user t tokens) parse

(* ------------------------- the Forkbase mirror ------------------------- *)

let default_branch = "master"

let put ?user ?(branch = default_branch) t ~key value =
  op ?user t [ "put"; key; branch; value ] uid_of

let put_csv ?user ?(branch = default_branch) t ~key csv =
  op ?user t [ "put-csv"; key; branch; csv ] uid_of

let get ?user ?(branch = default_branch) t ~key =
  raw ?user t [ "get"; key; branch ]

let get_at ?user t uid =
  raw ?user t [ "get-at"; Forkbase.version_string uid ]

let head ?user ?(branch = default_branch) t ~key =
  op ?user t [ "head"; key; branch ] uid_of

let latest ?user t ~key = op ?user t [ "latest"; key ] heads_of

let list_keys ?user t =
  Result.map lines_of (raw ?user t [ "list" ])

let log ?user ?(branch = default_branch) t ~key =
  Result.map lines_of (raw ?user t [ "log"; key; branch ])

let meta ?user t uid =
  raw ?user t [ "meta"; Forkbase.version_string uid ]

let fork ?user ?(from_branch = default_branch) t ~key ~new_branch =
  op ?user t [ "branch"; key; from_branch; new_branch ] uid_of

let rename_branch ?user t ~key ~from_branch ~to_branch =
  op ?user t [ "rename"; key; from_branch; to_branch ] unit_of

let tag ?user t ~key ~name uid =
  op ?user t [ "tag"; key; name; Forkbase.version_string uid ] unit_of

let merge ?user t ~key ~into ~from_branch =
  op ?user t [ "merge"; key; into; from_branch ] uid_of

let diff ?user t ~key ~branch1 ~branch2 =
  raw ?user t [ "diff"; key; branch1; branch2 ]

let verify ?user ?(branch = default_branch) t ~key =
  raw ?user t [ "verify"; key; branch ]

let prove ?user ?(branch = default_branch) t ~key ~entry_key =
  raw ?user t [ "prove"; key; branch; entry_key ]

let stat ?user t = raw ?user t [ "stat" ]
let metrics ?user t = raw ?user t [ "metrics" ]

(* ------------------------- subscriptions ------------------------- *)

let subscribe_events ?user ?key ?branch t cb =
  let st =
    { s_user = user; s_key = key; s_branch = branch; s_cb = cb;
      s_sid = -1; s_active = true }
  in
  let handle =
    Mutex.protect t.mu (fun () ->
        let h = t.next_sub in
        t.next_sub <- h + 1;
        Hashtbl.replace t.subs h st;
        h)
  in
  ensure_monitor t;
  let mux = Mutex.protect t.mu (fun () -> t.mux) in
  match Mux.subscribe ?user ?key ?branch mux (wire_cb st) with
  | Ok sid ->
    st.s_sid <- sid;
    Ok handle
  | Error e ->
    st.s_active <- false;
    Mutex.protect t.mu (fun () -> Hashtbl.remove t.subs handle);
    Error (of_client_error e)

let subscribe ?user ?key ?branch t cb =
  subscribe_events ?user ?key ?branch t (function
    | Head_moved ev -> cb ev
    | Gap _ -> ())

let unsubscribe ?user t handle =
  let st =
    Mutex.protect t.mu (fun () ->
        match Hashtbl.find_opt t.subs handle with
        | Some st ->
          st.s_active <- false;
          Hashtbl.remove t.subs handle;
          Some st
        | None -> None)
  in
  match st with
  | None -> Ok ()  (* already gone; unsubscribe is idempotent *)
  | Some st when st.s_sid < 0 -> Ok ()  (* detached: nothing server-side *)
  | Some st ->
    let mux = Mutex.protect t.mu (fun () -> t.mux) in
    lift (Mux.unsubscribe ?user mux st.s_sid)

(* ------------------------- batching ------------------------- *)

type op_req =
  | Put of { key : string; branch : string; value : string }
  | Get of { key : string; branch : string }
  | Head of { key : string; branch : string }

type op_reply = Uid of uid | Value of string

let tokens_of_op = function
  | Put { key; branch; value } -> [ "put"; key; branch; value ]
  | Get { key; branch } -> [ "get"; key; branch ]
  | Head { key; branch } -> [ "head"; key; branch ]

let reply_of_op o (reply : Frame.reply) =
  match o, reply with
  | _, Error e -> Error e
  | (Put _ | Head _), Ok payload -> Result.map (fun u -> Uid u) (uid_of payload)
  | Get _, Ok payload -> Ok (Value payload)

let batch_tokens_retryable reqs = List.for_all tokens_retryable reqs

let batch ?user t ops =
  let reqs = List.map tokens_of_op ops in
  match
    run ~retryable:(batch_tokens_retryable reqs) t (fun mux ->
        Mux.batch ?user mux reqs)
  with
  | Error e -> Error (of_client_error e)
  | Ok replies -> Ok (List.map2 reply_of_op ops replies)

let batch_raw ?user t reqs =
  lift
    (run ~retryable:(batch_tokens_retryable reqs) t (fun mux ->
         Mux.batch ?user mux reqs))

(* ------------------------- delta sync ------------------------- *)

module Sync = Fb_core.Sync
module Hash = Fb_hash.Hash
module Store = Fb_chunk.Store

let ( let* ) = Result.bind

(* Absent key/branch on the peer is a normal sync starting point, not an
   error: it means "the peer has none of this history yet". *)
let remote_head ?user ~branch t ~key =
  match head ?user ~branch t ~key with
  | Ok uid -> Ok (Some uid)
  | Error (Errors.Key_not_found _ | Errors.Branch_not_found _) -> Ok None
  | Error _ as e -> e

(* Split a child-first plan into sync-put batches bounded by count and
   cumulative payload bytes. *)
let rec take_put_batch staged acc acc_bytes n = function
  | [] -> (List.rev acc, [])
  | id :: rest as ids ->
    let encoded, _ = Hash.Tbl.find staged id in
    let sz = String.length encoded in
    if
      acc <> []
      && (n >= Sync.put_batch || acc_bytes + sz > Sync.put_batch_bytes)
    then (List.rev acc, ids)
    else
      take_put_batch staged ((id, encoded) :: acc) (acc_bytes + sz) (n + 1)
        rest

(* Take up to [n] entries off a queue. *)
let take_wave n q =
  let rec go acc k =
    if k = 0 || Queue.is_empty q then List.rev acc
    else go (Queue.pop q :: acc) (k - 1)
  in
  go [] n

let push ?user ?(branch = default_branch) t fb ~key =
  let store = Forkbase.store fb in
  let* local = Forkbase.head ?user ~branch fb ~key in
  let* remote = remote_head ?user ~branch t ~key in
  match remote with
  | Some r when Hash.equal r local ->
    Ok (local, { Sync.empty_stats with rounds = 1 })
  | _ ->
    (* Frontier walk: probe remote membership level by level, descending
       only below chunks the peer lacks — a chunk it holds roots a whole
       shared subtree (content addressing), so the walk stops there. *)
    let staged = Hash.Tbl.create 64 in  (* id -> (encoded, children) *)
    let seen = Hash.Tbl.create 64 in
    let skipped = ref 0 and rounds = ref 1 (* head probe *) in
    let bloom_fp = ref 0 in
    let pending = Queue.create () in
    let enqueue id =
      if not (Hash.Tbl.mem seen id) then begin
        Hash.Tbl.replace seen id ();
        Queue.add id pending
      end
    in
    enqueue local;
    (* One sync-bloom round buys local membership answers for the whole
       walk: a Bloom negative is a definitive miss (stage the chunk, no
       probe), a positive is only probable and is confirmed with an
       exact sync-have wave before being skipped — correctness never
       rests on the filter.  A saturated or unparsable filter (or an
       older server without the verb) degrades to exact waves only. *)
    let bloom =
      match raw ?user t [ "sync-bloom" ] with
      | Ok payload -> (
        incr rounds;
        match Sync.Bloom.decode payload with
        | Ok b when not (Sync.Bloom.saturated b) -> Some b
        | Ok _ | Error _ -> None)
      | Error _ -> None
    in
    (* Re-hash our own bytes before offering them: a tampered local
       store must not propagate. *)
    let stage id =
      match Store.peek store id with
      | None ->
        Error
          (Errors.Corrupt ("sync: local store lacks chunk " ^ Hash.to_hex id))
      | Some encoded ->
        let* chunk = Sync.verify_encoded id encoded in
        let kids = Sync.children chunk in
        Hash.Tbl.replace staged id (encoded, kids);
        List.iter enqueue kids;
        Ok ()
    in
    let rec probe () =
      if Queue.is_empty pending then Ok ()
      else begin
        let wave = take_wave Sync.have_batch pending in
        let missing_now, to_confirm =
          match bloom with
          | None -> ([], wave)
          | Some b ->
            List.partition (fun id -> not (Sync.Bloom.mem b id)) wave
        in
        let* () =
          List.fold_left
            (fun acc id ->
              let* () = acc in
              stage id)
            (Ok ()) missing_now
        in
        let* () =
          if to_confirm = [] then Ok ()
          else begin
            let* payload =
              raw ?user t ("sync-have" :: List.map Hash.to_hex to_confirm)
            in
            incr rounds;
            let* bits = Sync.decode_have payload in
            if List.length bits <> List.length to_confirm then
              Errors.invalid "sync-have: %d probes, %d answers"
                (List.length to_confirm) (List.length bits)
            else
              List.fold_left2
                (fun acc id have ->
                  let* () = acc in
                  if have then begin
                    incr skipped;
                    Ok ()
                  end
                  else begin
                    (* Bloom said "probably held"; the exact probe says
                       absent — a false positive the filter failed to
                       save a confirmation for. *)
                    if bloom <> None then incr bloom_fp;
                    stage id
                  end)
                (Ok ()) to_confirm bits
          end
        in
        probe ()
      end
    in
    let* () = probe () in
    let order =
      Sync.plan_order
        ~children:(fun id ->
          match Hash.Tbl.find_opt staged id with
          | Some (_, kids) -> kids
          | None -> [])
        ~missing:(Hash.Tbl.mem staged) ~roots:[ local ]
    in
    let bytes = ref 0 in
    let rec stream ids =
      match ids with
      | [] -> Ok ()
      | _ ->
        let batch, rest = take_put_batch staged [] 0 0 ids in
        let reqs =
          List.map
            (fun (id, encoded) ->
              [ "sync-put"; key; branch; Hash.to_hex id; encoded ])
            batch
        in
        let* replies = batch_raw ?user t reqs in
        incr rounds;
        let* () =
          List.fold_left
            (fun acc reply ->
              let* () = acc in
              Result.map ignore reply)
            (Ok ()) replies
        in
        List.iter
          (fun (_, encoded) -> bytes := !bytes + String.length encoded)
          batch;
        stream rest
    in
    let* () = stream order in
    let* payload =
      raw ?user t [ "sync-advance"; key; branch; Hash.to_hex local ]
    in
    incr rounds;
    let* uid = uid_of payload in
    Ok
      ( uid,
        { Sync.chunks_moved = Hash.Tbl.length staged; bytes_moved = !bytes;
          chunks_skipped = !skipped; rounds = !rounds; bloom_fp = !bloom_fp } )

let pull ?user ?(branch = default_branch) t fb ~key =
  let store = Forkbase.store fb in
  let* remote = head ?user ~branch t ~key in
  let local =
    Result.to_option (Forkbase.head ?user ~branch fb ~key)
  in
  match local with
  | Some l when Hash.equal l remote ->
    Ok (remote, { Sync.empty_stats with rounds = 1 })
  | _ ->
    (* Walk down from the remote head fetching chunks we lack; any chunk
       already held locally cuts the descent (shared subtree).  Every
       received chunk is re-hashed against the id we asked for — the
       whole closure is verified in staging before one byte reaches the
       local store, so an aborted or tampered transfer leaves it
       untouched. *)
    let staged = Hash.Tbl.create 64 in  (* id -> (chunk, children) *)
    let seen = Hash.Tbl.create 64 in
    let skipped = ref 0 and rounds = ref 1 (* head *) and bytes = ref 0 in
    let pending = Queue.create () in
    let enqueue id =
      if not (Hash.Tbl.mem seen id) then begin
        Hash.Tbl.replace seen id ();
        if Store.mem store id then incr skipped else Queue.add id pending
      end
    in
    enqueue remote;
    let rec fetch () =
      if Queue.is_empty pending then Ok ()
      else begin
        let wave = take_wave Sync.get_batch pending in
        let reqs = List.map (fun id -> [ "sync-get"; Hash.to_hex id ]) wave in
        let* replies = batch_raw ?user t reqs in
        incr rounds;
        let* () =
          List.fold_left2
            (fun acc id reply ->
              let* () = acc in
              let* encoded = reply in
              let* chunk = Sync.verify_encoded id encoded in
              let kids = Sync.children chunk in
              Hash.Tbl.replace staged id (chunk, kids);
              bytes := !bytes + String.length encoded;
              List.iter enqueue kids;
              Ok ())
            (Ok ()) wave replies
        in
        fetch ()
      end
    in
    let* () = fetch () in
    (* Child-first store order keeps the local store closure-complete at
       every instant, mirroring what [sync_put] demands of our peers. *)
    let order =
      Sync.plan_order
        ~children:(fun id ->
          match Hash.Tbl.find_opt staged id with
          | Some (_, kids) -> kids
          | None -> [])
        ~missing:(Hash.Tbl.mem staged) ~roots:[ remote ]
    in
    List.iter
      (fun id ->
        match Hash.Tbl.find_opt staged id with
        | Some (chunk, _) -> ignore (Store.put store chunk)
        | None -> ())
      order;
    let* uid = Forkbase.advance_head ?user ~branch fb ~key remote in
    Ok
      ( uid,
        { Sync.chunks_moved = Hash.Tbl.length staged; bytes_moved = !bytes;
          chunks_skipped = !skipped; rounds = !rounds; bloom_fp = 0 } )

(* ---------------------- remote chunk backend ---------------------- *)

module Chunk = Fb_chunk.Chunk

(* A remote node viewed as a plain chunk store: puts ride the
   closure-free chunk-put verb (storage members hold graph slices),
   reads ride sync-get, membership rides sync-have.  Transport failures
   and server-side Transient both surface as [Store.Transient] so
   Cluster_store failover treats a dead node like any
   flaky medium; other typed errors are permanent and raise [Failure].
   Every get re-hashes the served bytes (Verified_store) — a lying node
   cannot slip forged chunks into a cluster.  [iter] and [delete] have
   no wire verbs (a member's physical enumeration and GC belong to the
   member) and raise [Failure] saying so rather than silently no-oping. *)
let chunk_store ?user t =
  let escalate ctx = function
    | Errors.Transient msg -> raise (Store.Transient msg)
    | e ->
      raise
        (Failure
           (Printf.sprintf "remote chunk store: %s: %s" ctx
              (Errors.to_string e)))
  in
  let unsupported op =
    raise
      (Failure
         (Printf.sprintf
            "remote chunk store: %s is not available over the wire" op))
  in
  let traffic = Mutex.create () in
  let local = ref Store.empty_stats in
  let bump f = Mutex.protect traffic (fun () -> local := f !local) in
  let read id =
    match raw ?user t [ "sync-get"; Hash.to_hex id ] with
    | Ok encoded -> Some encoded
    | Error (Errors.Version_not_found _) -> None
    | Error e -> escalate "get" e
  in
  let get_raw id =
    bump (fun s -> { s with Store.gets = s.Store.gets + 1 });
    read id
  in
  let get id =
    match get_raw id with
    | None -> None
    | Some encoded -> (
      match Chunk.decode encoded with Ok c -> Some c | Error _ -> None)
  in
  let put chunk =
    let id = Chunk.hash chunk in
    let encoded = Chunk.encode chunk in
    match raw ?user t [ "chunk-put"; Hash.to_hex id; encoded ] with
    | Ok _ ->
      bump (fun s ->
          { s with
            Store.puts = s.Store.puts + 1;
            logical_bytes = s.Store.logical_bytes + String.length encoded });
      id
    | Error e -> escalate "put" e
  in
  let mem id =
    match raw ?user t [ "sync-have"; Hash.to_hex id ] with
    | Ok bits -> String.length bits > 0 && bits.[0] = '1'
    | Error e -> escalate "mem" e
  in
  let stats () =
    (* Physical shape is the member's truth; this handle only knows its
       own traffic.  An unreachable member reports zero shape rather
       than failing a stats poll. *)
    let chunks, bytes =
      match raw ?user t [ "chunk-stat" ] with
      | Ok payload -> (
        try Scanf.sscanf payload "chunks=%d bytes=%d" (fun a b -> (a, b))
        with Scanf.Scan_failure _ | Failure _ | End_of_file -> (0, 0))
      | Error _ -> (0, 0)
    in
    let s = Mutex.protect traffic (fun () -> !local) in
    { s with Store.physical_chunks = chunks; physical_bytes = bytes }
  in
  let name =
    Printf.sprintf "remote(%s:%d)"
      (Option.value t.p.host ~default:"127.0.0.1")
      (Option.value t.p.port ~default:0)
  in
  let store =
    { Store.name;
      put;
      get;
      get_raw;
      peek = read;
      mem;
      stats;
      iter = (fun _ -> unsupported "iter");
      ids = (fun _ -> unsupported "ids");
      delete = (fun _ -> unsupported "delete") }
  in
  (* Tamper rejection on every read: bytes that do not hash to the id
     never leave the adapter. *)
  let verified, _violations = Fb_chunk.Verified_store.wrap store in
  verified
