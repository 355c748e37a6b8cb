(* The sequential sync walks, as Remote.push and Remote.pull ran them
   before the wave driver: one sync-have or sync-get wave in flight at a
   time.  Kept verbatim (module paths qualified) as the oracle the
   pipelined walks are checked against in test_sync.ml. *)

module Errors = Fb_core.Errors
module Forkbase = Fb_core.Forkbase
module Service = Fb_core.Service
module Sync = Fb_core.Sync
module Hash = Fb_hash.Hash
module Store = Fb_chunk.Store
module Remote = Fb_net.Remote

let default_branch = "master"
let call = Remote.call
let batch_call = Remote.batch_call
let head = Remote.head
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
      match call ?user t Service.sync_bloom () with
      | Ok b ->
        incr rounds;
        if Sync.Bloom.saturated b then None else Some b
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
            let* bits = call ?user t Service.sync_have to_confirm in
            incr rounds;
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
        let* replies =
          batch_call ?user t Service.sync_put
            (List.map (fun (id, encoded) -> (key, branch, id, encoded)) batch)
        in
        incr rounds;
        let* () =
          List.fold_left (fun acc reply -> Result.bind acc (fun () -> reply))
            (Ok ()) replies
        in
        List.iter
          (fun (_, encoded) -> bytes := !bytes + String.length encoded)
          batch;
        stream rest
    in
    let* () = stream order in
    let* uid = call ?user t Service.sync_advance (key, branch, local) in
    incr rounds;
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
        let* replies = batch_call ?user t Service.sync_get wave in
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
