type stats = {
  physical_chunks : int;
  physical_bytes : int;
  puts : int;
  dedup_hits : int;
  logical_bytes : int;
  gets : int;
}

let empty_stats =
  { physical_chunks = 0;
    physical_bytes = 0;
    puts = 0;
    dedup_hits = 0;
    logical_bytes = 0;
    gets = 0 }

let dedup_ratio s =
  (* [logical_bytes] counts this session's puts only; a freshly reopened
     durable store has written nothing yet, so the ratio floors at 1. *)
  if s.physical_bytes = 0 || s.logical_bytes < s.physical_bytes then 1.0
  else float_of_int s.logical_bytes /. float_of_int s.physical_bytes

let pp_stats fmt s =
  Format.fprintf fmt
    "@[<v>chunks: %d@ physical: %d B@ logical: %d B@ puts: %d (dedup hits: \
     %d)@ gets: %d@ dedup ratio: %.2fx@]"
    s.physical_chunks s.physical_bytes s.logical_bytes s.puts s.dedup_hits
    s.gets (dedup_ratio s)

exception Transient of string

type t = {
  name : string;
  put : Chunk.t -> Fb_hash.Hash.t;
  ingest : t -> Chunk.t -> Fb_hash.Hash.t;
  get : Fb_hash.Hash.t -> Chunk.t option;
  get_raw : Fb_hash.Hash.t -> string option;
  peek : Fb_hash.Hash.t -> string option;
  mem : Fb_hash.Hash.t -> bool;
  stats : unit -> stats;
  iter : (Fb_hash.Hash.t -> string -> unit) -> unit;
  ids : (Fb_hash.Hash.t -> unit) -> unit;
  delete : Fb_hash.Hash.t -> bool;
}

let put t c = t.put c
let ingest t c = t.ingest t c
let plain_ingest self c = self.put c
let get t h = t.get h
let peek t h = t.peek h

(* Caches keyed by chunk identity (e.g. the POS-Tree decoded-node cache)
   register here so maintenance deletions invalidate them.  The registry is
   global rather than per-store: over-invalidating across store instances
   is harmless, serving a stale decode after a delete is not. *)
let delete_listeners : (Fb_hash.Hash.t -> unit) list ref = ref []
let on_delete f = delete_listeners := f :: !delete_listeners

let delete t id =
  let existed = t.delete id in
  if existed then List.iter (fun f -> f id) !delete_listeners;
  existed

let get_exn t h =
  match t.get h with Some c -> c | None -> raise Not_found

let mem t h = t.mem h
let ids t f = t.ids f
let stats t = t.stats ()
let physical_bytes t = (t.stats ()).physical_bytes

let sink =
  { name = "sink"; put = Chunk.hash; ingest = plain_ingest;
    get = (fun _ -> None); get_raw = (fun _ -> None); peek = (fun _ -> None); mem = (fun _ -> false);
    stats = (fun () -> empty_stats); iter = ignore; ids = ignore;
    delete = (fun _ -> false) }
