module Hash = Fb_hash.Hash

type result = {
  live_chunks : int;
  swept_chunks : int;
  swept_bytes : int;
}

let reachable store ~children ~roots =
  let seen = ref Hash.Set.empty in
  let rec visit id =
    if not (Hash.Set.mem id !seen) then begin
      seen := Hash.Set.add id !seen;
      (* Marking is maintenance, not workload: read through [peek] so a
         sweep does not inflate the [gets] counter the benches report. *)
      match Store.peek store id with
      | None -> ()
      | Some raw -> (
        match Chunk.decode raw with
        | Error _ -> ()
        | Ok chunk -> List.iter visit (children chunk))
    end
  in
  List.iter visit roots;
  !seen

let sweep store ~children ~roots =
  let live = reachable store ~children ~roots in
  let dead = ref [] in
  Store.ids store (fun id ->
      if not (Hash.Set.mem id live) then dead := id :: !dead);
  (* Only dead chunks are read, once each, for the bytes they free. *)
  let swept_bytes = ref 0 and swept_chunks = ref 0 in
  List.iter
    (fun id ->
      match Store.peek store id with
      | None -> ()
      | Some encoded ->
        if Store.delete store id then begin
          incr swept_chunks;
          swept_bytes := !swept_bytes + String.length encoded
        end)
    !dead;
  { live_chunks = Hash.Set.cardinal live;
    swept_chunks = !swept_chunks;
    swept_bytes = !swept_bytes }
