module Hash = Fb_hash.Hash
module Store = Fb_chunk.Store
module Obs = Fb_obs.Obs

(* Capacity policy: FB_NODE_CACHE sets the per-cache entry budget for the
   whole process (0 disables caching); benches override it at run time via
   [set_capacity_all]. *)
let default_capacity =
  match Sys.getenv_opt "FB_NODE_CACHE" with
  | Some s -> (match int_of_string_opt s with Some n when n >= 0 -> n | _ -> 1024)
  | None -> 1024

(* Ghost window, in multiples of capacity: how many recently rejected ids a
   full cache remembers when deciding whether a miss is a repeat. *)
let ghost_multiple = 4

type stats = {
  hits : int;
  misses : int;
  evictions : int;
  invalidations : int;
  rejected : int;
  size : int;
}

type 'a node = {
  id : Hash.t;
  value : 'a;
  mutable prev : 'a node option;
  mutable next : 'a node option;
}

(* Read-only verbs of the network service share one cache from many
   threads, and a cache {e read} mutates the recency list — so every
   entry point runs under [lock].  The store liveness probe in
   [find_live] (a [Store.mem], which may touch the disk) deliberately
   happens outside the critical section. *)
type 'a t = {
  name : string;
  lock : Mutex.t;
  mutable capacity : int;
  tbl : 'a node Hash.Tbl.t;
  mutable head : 'a node option;  (* most recent *)
  mutable tail : 'a node option;  (* least recent *)
  (* Ids a full cache refused, oldest first; ids only, never values, so a
     ghost can never serve a stale decode.  [ghost_ids] mirrors the queue
     for membership and holds no duplicates. *)
  ghost : Hash.t Queue.t;
  ghost_ids : unit Hash.Tbl.t;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
  mutable invalidations : int;
  mutable rejected : int;
}

(* Heterogeneous registry (as capacity-setter closures) so benches can turn
   every cache off/on without naming each instantiation. *)
let registry : (int -> unit) list ref = ref []

let unlink t n =
  (match n.prev with
   | Some p -> p.next <- n.next
   | None -> t.head <- n.next);
  (match n.next with
   | Some s -> s.prev <- n.prev
   | None -> t.tail <- n.prev);
  n.prev <- None;
  n.next <- None

let push_front t n =
  n.next <- t.head;
  n.prev <- None;
  (match t.head with Some h -> h.prev <- Some n | None -> ());
  t.head <- Some n;
  if t.tail = None then t.tail <- Some n

let touch t n =
  if t.head != Some n then begin
    unlink t n;
    push_front t n
  end

let drop t id =
  match Hash.Tbl.find_opt t.tbl id with
  | None -> ()
  | Some n ->
    unlink t n;
    Hash.Tbl.remove t.tbl id

let invalidate_locked t id =
  if Hash.Tbl.mem t.tbl id then begin
    drop t id;
    t.invalidations <- t.invalidations + 1
  end

let invalidate t id =
  Mutex.protect t.lock (fun () -> invalidate_locked t id)

let clear_ghost t =
  Queue.clear t.ghost;
  Hash.Tbl.reset t.ghost_ids

let clear t =
  Mutex.protect t.lock (fun () ->
      Hash.Tbl.reset t.tbl;
      t.head <- None;
      t.tail <- None;
      clear_ghost t)

let set_capacity t cap =
  if cap < 0 then invalid_arg "Node_cache.set_capacity";
  Mutex.protect t.lock (fun () ->
      t.capacity <- cap;
      clear_ghost t;
      (* Shrinking (or disabling) evicts from the cold end. *)
      let continue = ref (Hash.Tbl.length t.tbl > cap) in
      while !continue do
        (match t.tail with
         | None ->
           Hash.Tbl.reset t.tbl;
           t.head <- None;
           t.tail <- None
         | Some n ->
           unlink t n;
           Hash.Tbl.remove t.tbl n.id;
           t.evictions <- t.evictions + 1);
        continue := Hash.Tbl.length t.tbl > cap
      done)

let set_capacity_all cap = List.iter (fun f -> f cap) !registry

let stats t =
  Mutex.protect t.lock (fun () ->
      { hits = t.hits;
        misses = t.misses;
        evictions = t.evictions;
        invalidations = t.invalidations;
        rejected = t.rejected;
        size = Hash.Tbl.length t.tbl })

let create ~name =
  let t =
    { name;
      lock = Mutex.create ();
      capacity = default_capacity;
      tbl = Hash.Tbl.create 512;
      head = None;
      tail = None;
      ghost = Queue.create ();
      ghost_ids = Hash.Tbl.create 512;
      hits = 0;
      misses = 0;
      evictions = 0;
      invalidations = 0;
      rejected = 0 }
  in
  registry := (fun cap -> set_capacity t cap) :: !registry;
  (* Deletions anywhere (GC sweep, scrub quarantine) must not leave a
     decodable ghost behind. *)
  Store.on_delete (fun id -> invalidate t id);
  let g suffix f = Obs.gauge ("node_cache." ^ name ^ "." ^ suffix) f in
  g "hits" (fun () -> float_of_int t.hits);
  g "misses" (fun () -> float_of_int t.misses);
  g "rejected" (fun () -> float_of_int t.rejected);
  g "size" (fun () -> float_of_int (Hash.Tbl.length t.tbl));
  g "hit_ratio" (fun () ->
      let total = t.hits + t.misses in
      if total = 0 then 0.0 else float_of_int t.hits /. float_of_int total);
  t

(* Admission: below capacity every id is admitted.  A full cache admits
   an id only on its second miss within the ghost window; on the first it
   remembers the id and drops the value.  A one-pass scan of fresh nodes
   therefore leaves the residents in place instead of cycling itself
   through the cache. *)
let add t id value =
  Mutex.protect t.lock (fun () ->
      if t.capacity > 0 && not (Hash.Tbl.mem t.tbl id) then
        if Hash.Tbl.length t.tbl < t.capacity || Hash.Tbl.mem t.ghost_ids id
        then begin
          let n = { id; value; prev = None; next = None } in
          Hash.Tbl.replace t.tbl id n;
          push_front t n;
          if Hash.Tbl.length t.tbl > t.capacity then
            match t.tail with
            | None -> ()
            | Some n ->
              unlink t n;
              Hash.Tbl.remove t.tbl n.id;
              t.evictions <- t.evictions + 1
        end
        else begin
          t.rejected <- t.rejected + 1;
          Queue.push id t.ghost;
          Hash.Tbl.replace t.ghost_ids id ();
          if Queue.length t.ghost > ghost_multiple * t.capacity then
            Hash.Tbl.remove t.ghost_ids (Queue.pop t.ghost)
        end)

let find_live t store id =
  let hit =
    Mutex.protect t.lock (fun () ->
        match Hash.Tbl.find_opt t.tbl id with
        | Some n -> Some n.value
        | None -> None)
  in
  match hit with
  | Some value when Store.mem store id ->
    (* The liveness probe guarantees we never serve a decode for a chunk
       the store no longer holds — even if its deletion bypassed
       [Store.delete].  It costs whatever the store's [mem] costs: a table
       probe on mem/log, a stat on file.  Under [Verified_store ~once:true]
       an entry decoded through that store was hashed on that read, so the
       probe is the inner index lookup, not a re-read of the chunk. *)
    Mutex.protect t.lock (fun () ->
        t.hits <- t.hits + 1;
        match Hash.Tbl.find_opt t.tbl id with
        | Some n -> touch t n
        | None -> ());
    Some value
  | Some _ ->
    Mutex.protect t.lock (fun () ->
        invalidate_locked t id;
        t.misses <- t.misses + 1);
    None
  | None ->
    Mutex.protect t.lock (fun () -> t.misses <- t.misses + 1);
    None
