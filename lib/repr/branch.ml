module Codec = Fb_codec.Codec
module Hash = Fb_hash.Hash

let default_branch = "master"

(* Heads are the one piece of mutable state in the system, and with the
   network service executing read-only verbs concurrently (Fb_net's
   striped reader-writer locking) the table is read from many threads
   while a writer on a different key mutates it.  Every operation
   therefore runs under a private mutex: the table is individually
   atomic, while multi-operation consistency (e.g. diff reading two
   heads of one key) is the caller's striped lock's job.  The critical
   sections are tiny (hashtable probes), so uncontended cost is a few
   nanoseconds. *)
type journal =
  key:string -> branch:string -> old:Hash.t option -> Hash.t option ->
  unit -> unit

type t = {
  lock : Mutex.t;
  (* key -> branch name -> head uid *)
  tbl : (string, (string, Hash.t) Hashtbl.t) Hashtbl.t;
  journal : journal option;
}

let create ?journal () : t =
  { lock = Mutex.create (); tbl = Hashtbl.create 64; journal }

let head_locked t ~key ~branch =
  match Hashtbl.find_opt t.tbl key with
  | None -> None
  | Some branches -> Hashtbl.find_opt branches branch

let head t ~key ~branch = Mutex.protect t.lock (fun () -> head_locked t ~key ~branch)

let set_head_locked t ~key ~branch uid =
  let branches =
    match Hashtbl.find_opt t.tbl key with
    | Some b -> b
    | None ->
      let b = Hashtbl.create 4 in
      Hashtbl.replace t.tbl key b;
      b
  in
  Hashtbl.replace branches branch uid

(* Every mutation: journaled under the table lock, so the journal's order
   is the table's.  Returns the acknowledgement wait, which the caller
   runs once the lock is released. *)
let move_locked t ~key ~branch next =
  let wait =
    match t.journal with
    | None -> ignore
    | Some j -> j ~key ~branch ~old:(head_locked t ~key ~branch) next
  in
  (match next, Hashtbl.find_opt t.tbl key with
  | Some uid, _ -> set_head_locked t ~key ~branch uid
  | None, None -> ()
  | None, Some b ->
    Hashtbl.remove b branch;
    if Hashtbl.length b = 0 then Hashtbl.remove t.tbl key);
  wait

let set_head t ~key ~branch uid =
  Mutex.protect t.lock (fun () -> move_locked t ~key ~branch (Some uid)) ()

let load t heads =
  Mutex.protect t.lock (fun () ->
      List.iter (fun (key, branch, uid) -> set_head_locked t ~key ~branch uid) heads)

let branches t ~key =
  Mutex.protect t.lock (fun () ->
      match Hashtbl.find_opt t.tbl key with
      | None -> []
      | Some b ->
        List.sort
          (fun (a, _) (b, _) -> String.compare a b)
          (Hashtbl.fold (fun name uid acc -> (name, uid) :: acc) b []))

let keys t =
  Mutex.protect t.lock (fun () ->
      List.sort String.compare
        (Hashtbl.fold (fun k _ acc -> k :: acc) t.tbl []))

let exists t ~key ~branch = head t ~key ~branch <> None

let remove t ~key ~branch =
  let existed, wait =
    Mutex.protect t.lock (fun () ->
        if head_locked t ~key ~branch = None then (false, ignore)
        else (true, move_locked t ~key ~branch None))
  in
  wait ();
  existed

(* Journaled as the new name's creation, then the old name's removal: a
   crash between the two leaves both names, never neither. *)
let rename t ~key ~from_branch ~to_branch =
  Mutex.protect t.lock (fun () ->
      match head_locked t ~key ~branch:from_branch with
      | None -> Error (Printf.sprintf "no branch %S for key %S" from_branch key)
      | Some _ when head_locked t ~key ~branch:to_branch <> None ->
        Error (Printf.sprintf "branch %S already exists for key %S" to_branch key)
      | Some uid ->
        let created = move_locked t ~key ~branch:to_branch (Some uid) in
        let removed = move_locked t ~key ~branch:from_branch None in
        Ok (fun () -> created (); removed ()))
  |> Result.map (fun wait -> wait ())

let deserialize s =
  Codec.of_string
    (fun r ->
      let t = create () in
      let nkeys = Codec.read_varint r in
      for _ = 1 to nkeys do
        let key = Codec.read_bytes r in
        let nbranches = Codec.read_varint r in
        for _ = 1 to nbranches do
          let branch = Codec.read_bytes r in
          let uid = Codec.read_hash r in
          set_head t ~key ~branch uid
        done
      done;
      t)
    s
