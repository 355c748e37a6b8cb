module Hash = Fb_hash.Hash
module Obs = Fb_obs.Obs

type member_state = {
  m_name : string;
  m_store : Store.t;
  mutable m_up : bool;
  mutable m_puts : int;
  mutable m_failovers : int;
  mutable m_repairs : int;
}

type cluster_stats = {
  failover_reads : int;
  repaired : int;
  rejected : int;
  under_replicated : int;
  unavailable : int;
}

type t = {
  name : string;
  replicas : int;
  virtual_nodes : int;
  max_retries : int;
  backoff_s : float;
  prng : Fb_hash.Prng.t;
  lock : Mutex.t;
  mutable members : member_state array;
  mutable ring : (string * int) array;
  mutable failover_reads : int;
  mutable repaired : int;
  mutable rejected : int;
  mutable under_replicated : int;
  mutable unavailable : int;
  mutable agg : Store.stats;
}

(* ----------------------------- placement ------------------------------ *)

let ring_of ~virtual_nodes names =
  let points = ref [] in
  List.iteri
    (fun idx name ->
      for v = 0 to virtual_nodes - 1 do
        let point =
          Hash.to_hex (Hash.of_string (Printf.sprintf "%s#%d" name v))
        in
        points := (point, idx) :: !points
      done)
    names;
  let arr = Array.of_list !points in
  Array.sort compare arr;
  arr

let owner_ranks ~ring ~replicas id =
  let n = Array.length ring in
  if n = 0 then []
  else begin
    let key = Hash.to_hex id in
    (* Binary search: first ring point >= key (wrapping). *)
    let start =
      let lo = ref 0 and hi = ref n in
      while !lo < !hi do
        let mid = (!lo + !hi) / 2 in
        if fst ring.(mid) < key then lo := mid + 1 else hi := mid
      done;
      !lo mod n
    in
    let distinct =
      let seen = Hashtbl.create 8 in
      Array.iter (fun (_, idx) -> Hashtbl.replace seen idx ()) ring;
      Hashtbl.length seen
    in
    let want = min replicas distinct in
    let seen = Hashtbl.create 8 in
    let out = ref [] in
    let i = ref start in
    while Hashtbl.length seen < want do
      let idx = snd ring.(!i mod n) in
      if not (Hashtbl.mem seen idx) then begin
        Hashtbl.replace seen idx ();
        out := idx :: !out
      end;
      incr i
    done;
    List.rev !out
  end

(* ----------------------------- lifecycle ------------------------------ *)

let rebuild_ring t =
  t.ring <-
    ring_of ~virtual_nodes:t.virtual_nodes
      (Array.to_list (Array.map (fun m -> m.m_name) t.members))

let register_gauges t =
  Array.iteri
    (fun i m ->
      let g field f =
        Obs.gauge
          (Printf.sprintf "cluster.%s.node.%d.%s" t.name i field)
          f
      in
      g "up" (fun () -> if m.m_up then 1. else 0.);
      g "puts" (fun () -> float_of_int m.m_puts);
      g "failovers" (fun () -> float_of_int m.m_failovers);
      g "repairs" (fun () -> float_of_int m.m_repairs))
    t.members

let refresh_gauges t =
  Obs.unregister_gauges_prefix (Printf.sprintf "cluster.%s.node." t.name);
  register_gauges t

let create ?(name = "cluster") ?(replicas = 2) ?(virtual_nodes = 64)
    ?(max_retries = 2) ?(backoff_s = 0.) ~members () =
  if members = [] then invalid_arg "Cluster_store.create: no members";
  if replicas < 1 then
    invalid_arg "Cluster_store.create: replicas must be >= 1";
  if virtual_nodes < 1 then
    invalid_arg "Cluster_store.create: virtual_nodes must be >= 1";
  let seen = Hashtbl.create 8 in
  List.iter
    (fun (n, _) ->
      if Hashtbl.mem seen n then
        invalid_arg ("Cluster_store.create: duplicate member " ^ n);
      Hashtbl.replace seen n ())
    members;
  let members =
    Array.of_list
      (List.map
         (fun (m_name, m_store) ->
           { m_name; m_store; m_up = true;
             m_puts = 0; m_failovers = 0; m_repairs = 0 })
         members)
  in
  let t =
    { name;
      replicas = min replicas (Array.length members);
      virtual_nodes;
      max_retries;
      backoff_s;
      prng = Fb_hash.Prng.create (Int64.of_int (Hashtbl.hash name));
      lock = Mutex.create ();
      members;
      ring = [||];
      failover_reads = 0;
      repaired = 0;
      rejected = 0;
      under_replicated = 0;
      unavailable = 0;
      agg = Store.empty_stats }
  in
  rebuild_ring t;
  register_gauges t;
  t

let members t =
  Mutex.protect t.lock (fun () ->
      Array.to_list (Array.map (fun m -> m.m_name) t.members))

let replicas t = t.replicas

let find_member t name =
  Array.find_opt (fun m -> String.equal m.m_name name) t.members

let set_down t name flag =
  Mutex.protect t.lock (fun () ->
      match find_member t name with
      | Some m -> m.m_up <- not flag
      | None -> invalid_arg ("Cluster_store.set_down: unknown member " ^ name))

let add_member t (name, store) =
  Mutex.protect t.lock (fun () ->
      if find_member t name <> None then
        invalid_arg ("Cluster_store.add_member: duplicate member " ^ name);
      t.members <-
        Array.append t.members
          [| { m_name = name; m_store = store; m_up = true;
               m_puts = 0; m_failovers = 0; m_repairs = 0 } |];
      rebuild_ring t;
      refresh_gauges t)

let remove_member t name =
  Mutex.protect t.lock (fun () ->
      if find_member t name = None then
        invalid_arg ("Cluster_store.remove_member: unknown member " ^ name);
      t.members <-
        Array.of_list
          (List.filter
             (fun m -> not (String.equal m.m_name name))
             (Array.to_list t.members));
      if Array.length t.members = 0 then
        invalid_arg "Cluster_store.remove_member: cannot remove last member";
      rebuild_ring t;
      refresh_gauges t)

(* A consistent snapshot of (members, ring) for one operation: membership
   changes mid-op see either the old or the new ring, never a mix. *)
let snapshot t =
  Mutex.protect t.lock (fun () -> (t.members, t.ring))

let owner_states t id =
  let members, ring = snapshot t in
  List.map
    (fun i -> members.(i))
    (owner_ranks ~ring ~replicas:t.replicas id)

let owners t id = List.map (fun m -> m.m_name) (owner_states t id)

(* -------------------------- fault discipline -------------------------- *)

(* Exponent capped so the shift cannot overflow and one retry cannot
   sleep past [max_backoff_s]; [jitter] (a uniform draw in [0,1)) scales
   the delay into [0.5x, 1.5x) so a fleet of replicas hitting the same
   fault does not retry in lockstep. *)
let max_exponent = 16

let backoff_duration ?(max_backoff_s = 1.0) ~backoff_s ~jitter attempt =
  let e = min (max attempt 0) max_exponent in
  let d = backoff_s *. float_of_int (1 lsl e) *. (0.5 +. jitter) in
  Float.min d max_backoff_s

(* Run [f] against one member, absorbing [Store.Transient] with bounded
   jittered exponential backoff.  Exhausted retries return the last
   Transient as an [Error]; permanent exceptions propagate to the
   caller. *)
let with_retries t f =
  let rec go attempt =
    match f () with
    | v -> Ok v
    | exception Store.Transient msg ->
      if attempt >= t.max_retries then Error msg
      else begin
        if t.backoff_s > 0. then
          Thread.delay
            (backoff_duration ~backoff_s:t.backoff_s
               ~jitter:(Fb_hash.Prng.next_float t.prng)
               attempt);
        go (attempt + 1)
      end
  in
  go 0

(* ------------------------------- store -------------------------------- *)

let bump_agg t ~f = Mutex.protect t.lock (fun () -> t.agg <- f t.agg)

let put_impl t chunk =
  let id = Chunk.hash chunk in
  let size = Chunk.encoded_size chunk in
  let owner_list = owner_states t id in
  let acked, fresh =
    List.fold_left
      (fun (acked, fresh) m ->
        if not m.m_up then (acked, fresh)
        else
          match
            with_retries t (fun () ->
                let was = Store.mem m.m_store id in
                ignore (Store.put m.m_store chunk);
                was)
          with
          | Ok was ->
            m.m_puts <- m.m_puts + 1;
            (acked + 1, fresh || not was)
          | Error _ -> (acked, fresh))
      (0, false) owner_list
  in
  if acked = 0 then begin
    Mutex.protect t.lock (fun () -> t.unavailable <- t.unavailable + 1);
    raise
      (Store.Transient
         (Printf.sprintf "cluster %s: no owner of %s reachable" t.name
            (Hash.to_hex id)))
  end;
  if acked < List.length owner_list then
    Mutex.protect t.lock (fun () ->
        t.under_replicated <- t.under_replicated + 1);
  bump_agg t ~f:(fun s ->
      { s with
        Store.puts = s.Store.puts + 1;
        logical_bytes = s.Store.logical_bytes + size;
        dedup_hits = (s.Store.dedup_hits + if fresh then 0 else 1);
        physical_chunks = (s.Store.physical_chunks + if fresh then 1 else 0);
        physical_bytes = (s.Store.physical_bytes + if fresh then size else 0)
      });
  id

(* Walk owners in preference order.  [repair] controls whether a late
   success re-puts the bytes into the owners that could not serve them
   (get path yes, peek path no); [count] controls the gets counter.

   A member whose bytes fail the hash check loses its copy only inside
   that repair, once healthy bytes are in hand: the damage may be a flip
   on the way out of a healthy copy, and that copy may be the last one.
   The delete comes first because a content-addressed [put] skips a name
   that already exists.  A read that no owner answered at all (every one
   down or out of retries) raises [Store.Transient], as a put does. *)
let read_impl t ~repair ~count id =
  if count then bump_agg t ~f:(fun s -> { s with Store.gets = s.Store.gets + 1 });
  let owner_list = owner_states t id in
  let repair_from raw tried =
    Mutex.protect t.lock (fun () -> t.failover_reads <- t.failover_reads + 1);
    (* Members that refuse (still down, still failing) keep their
       failover tally; the next read retries them. *)
    match Chunk.decode raw with
    | Error _ -> ()
    | Ok chunk ->
      List.iter
        (fun (peer, bad) ->
          if peer.m_up then
            match
              with_retries t (fun () ->
                  if bad then
                    (try ignore (peer.m_store.Store.delete id)
                     with Failure _ -> ());
                  ignore (Store.put peer.m_store chunk))
            with
            | Ok () ->
              peer.m_repairs <- peer.m_repairs + 1;
              Mutex.protect t.lock (fun () -> t.repaired <- t.repaired + 1)
            | Error _ -> ())
        tried
  in
  (* [tried] pairs each owner that could not serve with whether it served
     bad bytes; [answered] is whether any owner was reached at all. *)
  let rec try_owners tried ~answered = function
    | [] ->
      if tried <> [] && count then
        Mutex.protect t.lock (fun () -> t.unavailable <- t.unavailable + 1);
      if answered then None
      else
        raise
          (Store.Transient
             (Printf.sprintf "cluster %s: no owner of %s reachable" t.name
                (Hash.to_hex id)))
    | m :: rest -> (
      let skip ~bad ~reached =
        if count then m.m_failovers <- m.m_failovers + 1;
        try_owners ((m, bad) :: tried) ~answered:(answered || reached) rest
      in
      let reader () =
        if repair then m.m_store.Store.get_raw id else m.m_store.Store.peek id
      in
      if not m.m_up then skip ~bad:false ~reached:false
      else
        match with_retries t reader with
        | Error _ -> skip ~bad:false ~reached:false
        | Ok None -> skip ~bad:false ~reached:true
        | Ok (Some raw) when Hash.equal (Hash.of_string raw) id ->
          if tried <> [] && repair then repair_from raw tried;
          Some raw
        | Ok (Some _) ->
          (* Tamper-evidence at the routing tier: bytes that do not
             re-hash to the id never leave the cluster. *)
          Mutex.protect t.lock (fun () -> t.rejected <- t.rejected + 1);
          skip ~bad:true ~reached:true)
  in
  try_owners [] ~answered:false owner_list

(* [each store fresh] enumerates one up member; [fresh id] is true only
   the first time [id] turns up, so replicas are visited once. *)
let union_impl t each =
  let members, _ = snapshot t in
  let seen = Hash.Tbl.create 1024 in
  let fresh id =
    (not (Hash.Tbl.mem seen id)) && (Hash.Tbl.replace seen id (); true)
  in
  Array.iter
    (fun m ->
      if m.m_up then
        (* Remote members have no wire enumeration and raise [Failure]
           from [iter]/[ids]; a union over what the reachable, enumerable
           members hold is the best a composite can offer. *)
        match
          with_retries t (fun () ->
              try each m.m_store fresh with Failure _ -> ())
        with
        | Ok () -> ()
        | Error _ -> ())
    members

let iter_impl t f =
  union_impl t (fun s fresh ->
      s.Store.iter (fun id encoded -> if fresh id then f id encoded))

let ids_impl t f =
  union_impl t (fun s fresh -> s.Store.ids (fun id -> if fresh id then f id))

let store t =
  let put chunk = put_impl t chunk in
  let get_raw id = read_impl t ~repair:true ~count:true id in
  let get id =
    match get_raw id with
    | None -> None
    | Some raw -> (
      match Chunk.decode raw with Ok c -> Some c | Error _ -> None)
  in
  let peek id = read_impl t ~repair:false ~count:false id in
  let mem id =
    List.exists
      (fun m ->
        m.m_up
        &&
        match with_retries t (fun () -> Store.mem m.m_store id) with
        | Ok b -> b
        | Error _ -> false)
      (owner_states t id)
  in
  let delete id =
    (* GC must reach every replica, including stale copies on former
       owners — address all members, not just current owners. *)
    let members, _ = snapshot t in
    let deleted = ref false in
    Array.iter
      (fun m ->
        if m.m_up then
          (* Members without wire-level delete (remote nodes own their
             GC) raise [Failure]; skip them rather than fail the sweep. *)
          match
            with_retries t (fun () ->
                try m.m_store.Store.delete id with Failure _ -> false)
          with
          | Ok true -> deleted := true
          | Ok false | Error _ -> ())
      members;
    if !deleted then
      bump_agg t ~f:(fun s ->
          { s with
            Store.physical_chunks = max 0 (s.Store.physical_chunks - 1) });
    !deleted
  in
  { Store.name =
      Printf.sprintf "cluster:%s(%d/%d)" t.name t.replicas
        (Array.length t.members);
    put;
    ingest = Store.plain_ingest;
    get;
    get_raw;
    peek;
    mem;
    stats = (fun () -> Mutex.protect t.lock (fun () -> t.agg));
    iter = (fun f -> iter_impl t f);
    ids = (fun f -> ids_impl t f);
    delete }

(* ------------------------------ rebalance ----------------------------- *)

type rebalance_report = {
  scanned : int;
  moved_chunks : int;
  moved_bytes : int;
  unplaceable : int;
}

let rebalance t =
  let scanned = ref 0 in
  let moved_chunks = ref 0 in
  let moved_bytes = ref 0 in
  let unplaceable = ref 0 in
  iter_impl t (fun id encoded ->
      incr scanned;
      match Chunk.decode encoded with
      | Error _ -> incr unplaceable
      | Ok chunk ->
        let placed = ref 0 in
        List.iter
          (fun m ->
            if m.m_up then
              match
                with_retries t (fun () ->
                    if Store.mem m.m_store id then true
                    else begin
                      ignore (Store.put m.m_store chunk);
                      false
                    end)
              with
              | Ok already ->
                incr placed;
                if not already then begin
                  m.m_puts <- m.m_puts + 1;
                  incr moved_chunks;
                  moved_bytes := !moved_bytes + String.length encoded
                end
              | Error _ -> ())
          (owner_states t id);
        if !placed = 0 then incr unplaceable);
  { scanned = !scanned;
    moved_chunks = !moved_chunks;
    moved_bytes = !moved_bytes;
    unplaceable = !unplaceable }

(* ---------------------------- introspection --------------------------- *)

type node_stats = {
  node : string;
  up : bool;
  puts : int;
  failovers : int;
  repairs : int;
  chunks : int;
  bytes : int;
}

let node_stats t =
  let members, _ = snapshot t in
  Array.to_list
    (Array.map
       (fun m ->
         let chunks, bytes =
           match with_retries t (fun () -> Store.stats m.m_store) with
           | Ok s -> (s.Store.physical_chunks, s.Store.physical_bytes)
           | Error _ -> (0, 0)
         in
         { node = m.m_name;
           up = m.m_up;
           puts = m.m_puts;
           failovers = m.m_failovers;
           repairs = m.m_repairs;
           chunks;
           bytes })
       members)

let cluster_stats t =
  Mutex.protect t.lock (fun () ->
      { failover_reads = t.failover_reads;
        repaired = t.repaired;
        rejected = t.rejected;
        under_replicated = t.under_replicated;
        unavailable = t.unavailable })

let close t =
  Obs.unregister_gauges_prefix (Printf.sprintf "cluster.%s.node." t.name)
