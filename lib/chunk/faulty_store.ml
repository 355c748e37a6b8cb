module Hash = Fb_hash.Hash
module Prng = Fb_hash.Prng

exception Crash

type config = {
  seed : int64;
  transient_read_p : float;
  transient_put_p : float;
  bit_flip_p : float;
  torn_write_p : float;
  torn_append_p : float;
  fail_nth_read : int option;
  crash_on_put : int option;
}

let calm =
  { seed = 1L;
    transient_read_p = 0.0;
    transient_put_p = 0.0;
    bit_flip_p = 0.0;
    torn_write_p = 0.0;
    torn_append_p = 0.0;
    fail_nth_read = None;
    crash_on_put = None }

type counters = {
  mutable reads : int;
  mutable puts : int;
  mutable transient_reads : int;
  mutable transient_puts : int;
  mutable bit_flips : int;
  mutable torn_writes : int;
  mutable torn_appends : int;
  mutable crashes : int;
}

let total_faults c =
  c.transient_reads + c.transient_puts + c.bit_flips + c.torn_writes
  + c.torn_appends + c.crashes

let wrap config (inner : Store.t) =
  let rng = Prng.create config.seed in
  let c =
    { reads = 0; puts = 0; transient_reads = 0; transient_puts = 0;
      bit_flips = 0; torn_writes = 0; torn_appends = 0; crashes = 0 }
  in
  (* Damaged writes never reach [inner]: the torn bytes live here, served
     under the identity the caller was promised — exactly what a crashed
     non-atomic writer leaves on a real medium. *)
  let torn : string Hash.Tbl.t = Hash.Tbl.create 16 in
  let draw p = p > 0.0 && Prng.next_float rng < p in
  let flip_bit s =
    if String.length s = 0 then s
    else begin
      let b = Bytes.of_string s in
      let i = Prng.next_int rng (Bytes.length b) in
      Bytes.set b i
        (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl Prng.next_int rng 8)));
      Bytes.to_string b
    end
  in
  let tear s =
    (* A torn write persists only a prefix (always strictly shorter). *)
    if String.length s <= 1 then ""
    else String.sub s 0 (Prng.next_int rng (String.length s))
  in
  let garble_tail s =
    (* A torn append keeps the full length but the tail sectors never made
       it: from a seeded cut point onward the medium holds stale garbage.
       The byte at the cut is forced to differ, so the damage is certain
       (and deterministic under the seed). *)
    if String.length s = 0 then s
    else begin
      let b = Bytes.of_string s in
      let cut = Prng.next_int rng (Bytes.length b) in
      Bytes.set b cut
        (Char.chr
           (Char.code (Bytes.get b cut) lxor (1 + Prng.next_int rng 255)));
      for i = cut + 1 to Bytes.length b - 1 do
        Bytes.set b i (Char.chr (Prng.next_int rng 256))
      done;
      Bytes.to_string b
    end
  in
  let stored id =
    match Hash.Tbl.find_opt torn id with
    | Some bad -> Some bad
    | None -> inner.Store.peek id
  in
  let get_raw id =
    c.reads <- c.reads + 1;
    let forced =
      match config.fail_nth_read with Some n -> c.reads = n | None -> false
    in
    if forced || draw config.transient_read_p then begin
      c.transient_reads <- c.transient_reads + 1;
      raise (Store.Transient "injected: transient read failure")
    end;
    match inner.Store.get_raw id with
    | exception Not_found -> None
    | primary -> (
      let served =
        match Hash.Tbl.find_opt torn id with
        | Some bad -> Some bad
        | None -> primary
      in
      match served with
      | None -> None
      | Some raw ->
        if draw config.bit_flip_p then begin
          c.bit_flips <- c.bit_flips + 1;
          Some (flip_bit raw)
        end
        else Some raw)
  in
  let get id =
    match get_raw id with
    | None -> None
    | Some raw -> (
      match Chunk.decode raw with Ok chunk -> Some chunk | Error _ -> None)
  in
  let put chunk =
    c.puts <- c.puts + 1;
    if draw config.transient_put_p then begin
      c.transient_puts <- c.transient_puts + 1;
      raise (Store.Transient "injected: transient write failure")
    end;
    let id = Chunk.hash chunk in
    let crash =
      match config.crash_on_put with Some n -> c.puts = n | None -> false
    in
    if crash then begin
      if not (Hash.Tbl.mem torn id || inner.Store.mem id) then begin
        Hash.Tbl.replace torn id (tear (Chunk.encode chunk));
        c.torn_writes <- c.torn_writes + 1
      end;
      c.crashes <- c.crashes + 1;
      raise Crash
    end;
    if Hash.Tbl.mem torn id then
      (* The name exists (with damaged bytes): a content-addressed re-put
         skips the write, exactly like [File_store] would. *)
      id
    else if (not (inner.Store.mem id)) && draw config.torn_write_p then begin
      Hash.Tbl.replace torn id (tear (Chunk.encode chunk));
      c.torn_writes <- c.torn_writes + 1;
      id
    end
    else if (not (inner.Store.mem id)) && draw config.torn_append_p then begin
      Hash.Tbl.replace torn id (garble_tail (Chunk.encode chunk));
      c.torn_appends <- c.torn_appends + 1;
      id
    end
    else inner.Store.put chunk
  in
  let peek id = stored id in
  let mem id = Hash.Tbl.mem torn id || inner.Store.mem id in
  let iter f =
    inner.Store.iter f;
    Hash.Tbl.iter f torn
  in
  let ids f =
    inner.Store.ids f;
    Hash.Tbl.iter (fun id _ -> f id) torn
  in
  let delete id =
    if Hash.Tbl.mem torn id then begin
      Hash.Tbl.remove torn id;
      true
    end
    else inner.Store.delete id
  in
  let stats () =
    let s = inner.Store.stats () in
    let torn_bytes =
      Hash.Tbl.fold (fun _ raw acc -> acc + String.length raw) torn 0
    in
    { s with
      Store.physical_chunks = s.Store.physical_chunks + Hash.Tbl.length torn;
      physical_bytes = s.Store.physical_bytes + torn_bytes }
  in
  ( { Store.name = Printf.sprintf "faulty(%Ld):%s" config.seed inner.Store.name;
      put; ingest = Store.plain_ingest; get; get_raw; peek; mem; stats; iter; ids;
      delete },
    c )
