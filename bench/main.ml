(* Benchmark harness: regenerates every table and figure of the ForkBase
   ICDE'20 demo paper (see DESIGN.md section 2 and EXPERIMENTS.md).

     dune exec bench/main.exe            -- run everything
     dune exec bench/main.exe -- fig4    -- run one experiment
     experiments: table1 fig2 fig3 fig4 fig5 fig6 siri ablation storage
     resilience cluster obs micro hotpath net net-scaling
     net-c10k durability
     (cluster and the last four also have sub-second -quick variants)

   Absolute numbers are machine-dependent; the reproduced artifact is the
   *shape*: who wins, by what factor, and how quantities scale.

   Latency distributions (p50/p99) come from fb_obs histograms rather
   than mean-only timing; the `obs` experiment additionally measures the
   instrumentation's own overhead and emits BENCH_obs.json. *)

module Store = Fb_chunk.Store
module Mem_store = Fb_chunk.Mem_store
module Hash = Fb_hash.Hash
module Prng = Fb_hash.Prng
module Pmap = Fb_postree.Pmap
module Pblob = Fb_postree.Pblob
module Value = Fb_types.Value
module Table = Fb_types.Table
module Csv = Fb_types.Csv
module FB = Fb_core.Forkbase
module Baseline = Fb_baselines.Baseline
module Csvgen = Fb_workload.Csvgen
module Edits = Fb_workload.Edits
module Obs = Fb_obs.Obs

let ok_fb = function
  | Ok v -> v
  | Error e -> failwith (Fb_core.Errors.to_string e)

let time_ms f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, (Unix.gettimeofday () -. t0) *. 1000.0)

let kb bytes = float_of_int bytes /. 1024.0

let line = String.make 78 '-'

let header title =
  Printf.printf "\n%s\n%s\n%s\n" line title line

(* ------------------------------------------------------------------ *)
(* Shared workload: K versions of an evolving tabular dataset.        *)
(* ------------------------------------------------------------------ *)

let dataset_versions ~versions ~rows =
  let base =
    Csvgen.generate_rows
      { Csvgen.rows; string_columns = 3; int_columns = 2; seed = 100L }
  in
  let rec evolve acc current i =
    if i >= versions then List.rev acc
    else begin
      let seed = Int64.of_int (1000 + i) in
      let next =
        Edits.append_rows ~seed ~rows:(rows / 100)
          (Edits.point_edit_cells ~seed ~cells:5
             (Edits.delete_rows ~seed ~rows:2 current))
      in
      evolve (next :: acc) next (i + 1)
    end
  in
  evolve [ base ] base 1

(* Rows as (key, serialized-line) pairs for the baseline interface. *)
let kv_of_rows rows =
  match rows with
  | [] -> []
  | _header :: data ->
    List.sort compare
      (List.map
         (fun row -> (List.hd row, String.concat "," row))
         data)

(* ForkBase driven through the same snapshot-commit interface as the
   baselines, so Table I compares like with like. *)
let forkbase_baseline () =
  let store = Mem_store.create () in
  let versions : Hash.t option list ref = ref [] in
  let heads : Hash.t list ref = ref [] in
  let commit rows =
    let map = Pmap.of_bindings store rows in
    let fnode =
      Fb_repr.Fnode.v ~key:"dataset"
        ~value_descriptor:(Value.descriptor (Value.Map map))
        ~bases:(match !heads with h :: _ -> [ h ] | [] -> [])
        ~author:"bench" ~message:"commit"
        ~seq:(List.length !versions + 1)
    in
    let uid = Fb_repr.Fnode.store store fnode in
    heads := uid :: !heads;
    versions := Pmap.root map :: !versions;
    List.length !versions - 1
  in
  let retrieve v =
    match List.nth_opt (List.rev !versions) v with
    | None -> invalid_arg "forkbase: no such version"
    | Some root -> Pmap.bindings (Pmap.of_root store root)
  in
  ( { Baseline.name = "ForkBase (POS-Tree)";
      caps =
        { data_model = "structured/unstructured, immutable";
          dedup = "page level (POS-Tree)";
          tamper_evidence = true;
          branching = "git-like" };
      commit;
      retrieve;
      storage_bytes = (fun () -> Store.physical_bytes store) },
    store,
    heads )

(* ------------------------------------------------------------------ *)
(* Table I: comparison with related data versioning systems.          *)
(* ------------------------------------------------------------------ *)

let run_table1 () =
  header
    "TABLE I: comparison with related data versioning systems\n\
     (paper: qualitative claims; here: measured on 24 versions x ~2000 rows)";
  let snapshots = List.map kv_of_rows (dataset_versions ~versions:24 ~rows:2000) in
  let logical =
    List.fold_left (fun a rows -> a + Baseline.rows_bytes rows) 0 snapshots
  in
  Printf.printf "logical data volume: %.1f KB over %d versions\n\n"
    (kb logical) (List.length snapshots);
  let fb, fb_store, fb_heads = forkbase_baseline () in
  let systems =
    [ fb;
      Fb_baselines.Gitfile_store.create ();
      Fb_baselines.Delta_store.create ();
      Fb_baselines.Kv_store.create ();
      Fb_baselines.Fixed_chunk_store.create ();
      Fb_baselines.Snapshot_store.create () ]
  in
  Printf.printf "%-26s %-12s %-8s %-9s %-8s %-10s %s\n" "System" "Physical"
    "Ratio" "Retrieve" "Tamper" "Branching" "Dedup granularity";
  List.iter
    (fun (b : Baseline.t) ->
      List.iter (fun rows -> ignore (b.commit rows)) snapshots;
      let physical = b.storage_bytes () in
      (* Retrieval correctness + latency of the oldest version (delta
         chains pay here). *)
      let first = List.hd snapshots in
      let got, retrieve_ms = time_ms (fun () -> b.retrieve 0) in
      assert (got = first);
      Printf.printf "%-26s %8.1f KB  %5.2fx  %6.2fms  %-8s %-10s %s\n" b.name
        (kb physical)
        (float_of_int logical /. float_of_int physical)
        retrieve_ms
        (if b.caps.Baseline.tamper_evidence then "yes" else "none")
        b.caps.Baseline.branching b.caps.Baseline.dedup)
    systems;
  (* ForkBase's tamper evidence is not just a flag: verify the tip. *)
  (match !fb_heads with
   | tip :: _ ->
     let report, ms =
       time_ms (fun () ->
           match Fb_repr.Verify.verify fb_store tip with
           | Ok r -> r
           | Error e -> failwith e)
     in
     Printf.printf
       "\nForkBase verify(tip): %d versions, %d value chunks re-hashed in %.1f ms\n"
       report.Fb_repr.Verify.versions_checked report.Fb_repr.Verify.value_chunks
       ms
   | [] -> ());
  (* Branching cost: a fork copies nothing. *)
  let fb2 = FB.create (Mem_store.create ()) in
  ignore
    (ok_fb
       (FB.put fb2 ~key:"d"
          (Value.map_of_bindings (FB.store fb2) (List.hd snapshots))));
  let before = Store.physical_bytes (FB.store fb2) in
  let _, fork_ms = time_ms (fun () -> ok_fb (FB.fork fb2 ~key:"d" ~new_branch:"b")) in
  Printf.printf
    "ForkBase branch creation: %.3f ms, %d bytes copied (git-like, O(1))\n"
    fork_ms
    (Store.physical_bytes (FB.store fb2) - before)

(* ------------------------------------------------------------------ *)
(* Fig. 2: POS-Tree structure.                                        *)
(* ------------------------------------------------------------------ *)

let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0
  else sorted.(min (n - 1) (int_of_float (float_of_int n *. p)))

let run_fig2 () =
  header
    "FIG. 2: POS-Tree structure (index/data chunks, pattern-terminated nodes)\n\
     validation is a rebuild: one walk over the stored chunks streams the\n\
     leaf entries through the builder, and a tree is valid iff the rebuilt\n\
     root is its root; node ids are SHA-256 of content";
  let runs = 5 in
  Printf.printf "%-10s %-7s %-22s %-24s %s\n" "entries" "height"
    "nodes/level (root..leaf)" "leaf bytes mean/p50/p99"
    (Printf.sprintf "validate ms (median of %d)" runs);
  List.iter
    (fun n ->
      let store = Mem_store.create () in
      let rng = Prng.create 55L in
      let bindings =
        List.init n (fun i ->
            ( Printf.sprintf "key-%08d" i,
              Printf.sprintf "payload-%Ld" (Prng.next_int64 rng) ))
      in
      let t = Pmap.of_bindings store bindings in
      let ns = Pmap.node_stats t in
      let sizes = Array.of_list (List.sort compare ns.Pmap.leaf_node_sizes) in
      let mean =
        float_of_int (Array.fold_left ( + ) 0 sizes)
        /. float_of_int (max 1 (Array.length sizes))
      in
      let times =
        List.init runs (fun _ ->
            match time_ms (fun () -> Pmap.validate t) with
            | Ok (), ms -> ms
            | Error e, _ ->
              failwith (Printf.sprintf "fig2: validate refused a %d-entry build: %s" n e))
      in
      Printf.printf "%-10d %-7d %-22s %6.0f / %d / %d        %.1f\n" n
        ns.Pmap.levels
        (String.concat "," (List.map string_of_int ns.Pmap.nodes_per_level))
        mean
        (percentile sizes 0.5)
        (percentile sizes 0.99)
        (List.nth (List.sort compare times) (runs / 2)))
    [ 1_000; 10_000; 100_000 ];
  Printf.printf
    "\nexpected node payload ~ 2^q = %d bytes (q = %d, window = %d)\n"
    (1 lsl Fb_hash.Rolling.default_node_params.q)
    Fb_hash.Rolling.default_node_params.q
    Fb_hash.Rolling.default_node_params.window

(* ------------------------------------------------------------------ *)
(* Fig. 3: three-way merge reuses disjointly modified sub-trees.      *)
(* ------------------------------------------------------------------ *)

let run_fig3 () =
  header
    "FIG. 3: three-way merge reuses disjointly-modified sub-trees\n\
     'calculated' = merged-tree nodes in none of base/ours/theirs; 'reused' =\n\
     merged-tree nodes shared with base, ours or theirs; 'nodes read' =\n\
     store gets during the merge (decoded-node cache at its default)";
  let n = 100_000 in
  let store = Mem_store.create () in
  let bindings =
    List.init n (fun i -> (Printf.sprintf "key-%08d" i, "baseline-value"))
  in
  let base = Pmap.of_bindings store bindings in
  let total_chunks = List.length (Pmap.node_hashes base) in
  Printf.printf "base: %d entries, %d chunks\n\n" n total_chunks;
  Printf.printf "%-14s %-12s %-12s %-12s %-12s %-14s %s\n" "edits/side"
    "calculated" "reused" "nodes read" "merge ms" "elementwise ms" "speedup";
  List.iter
    (fun k ->
      let rng = Prng.create (Int64.of_int (77 + k)) in
      let pick () = Prng.next_int rng (n / 2) in
      (* Ours edits the first half, theirs the second: disjoint. *)
      let ours =
        Pmap.update base
          (List.init k (fun _ ->
               Pmap.Put
                 (Pmap.binding (Printf.sprintf "key-%08d" (pick ())) "ours")))
      in
      let theirs =
        Pmap.update base
          (List.init k (fun _ ->
               Pmap.Put
                 (Pmap.binding
                    (Printf.sprintf "key-%08d" (n / 2 + pick ()))
                    "theirs")))
      in
      let s0 = Store.stats store in
      let merged, merge_ms =
        time_ms (fun () ->
            match Pmap.merge ~base ~ours ~theirs () with
            | Ok m -> m
            | Error _ -> failwith "unexpected conflict")
      in
      let s1 = Store.stats store in
      let inputs = Hash.Tbl.create 4096 in
      List.iter
        (fun t ->
          List.iter (fun h -> Hash.Tbl.replace inputs h ()) (Pmap.node_hashes t))
        [ base; ours; theirs ];
      let reused, calculated =
        List.partition (Hash.Tbl.mem inputs) (Pmap.node_hashes merged)
      in
      let reused = List.length reused
      and calculated = List.length calculated
      and reads = s1.Store.gets - s0.Store.gets in
      (* Element-wise baseline: materialize both sides and merge entry by
         entry, rebuilding the result from scratch. *)
      let _, naive_ms =
        time_ms (fun () ->
            let o = Pmap.bindings ours and t = Pmap.bindings theirs in
            let b = Pmap.bindings base in
            let tbl = Hashtbl.create (2 * n) in
            List.iter (fun (k, v) -> Hashtbl.replace tbl k v) b;
            List.iter (fun (k, v) -> Hashtbl.replace tbl k v) o;
            List.iter (fun (k, v) -> Hashtbl.replace tbl k v) t;
            ignore
              (Pmap.of_bindings (Mem_store.create ())
                 (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])))
      in
      Printf.printf "%-14d %-12d %-12d %-12d %-12.2f %-14.2f %.0fx\n" k
        calculated reused reads merge_ms naive_ms
        (naive_ms /. merge_ms))
    [ 1; 10; 100; 1000 ]

(* ------------------------------------------------------------------ *)
(* Fig. 4: fine-grained deduplication (the +338.54 KB / +0.04 KB demo) *)
(* ------------------------------------------------------------------ *)

let run_fig4 () =
  header
    "FIG. 4 (demo III-A): loading two CSVs with a single-word difference\n\
     paper: first load +338.54 KB, second load +0.04 KB";
  let csv1 = Csvgen.generate_of_size ~target_bytes:338_540 () in
  let csv2 = Edits.change_one_word csv1 in
  Printf.printf "dataset-1: %.2f KB csv; dataset-2 differs in one word\n\n"
    (kb (String.length csv1));
  Printf.printf "%-30s %-16s %-16s\n" "System" "load 1 (+KB)" "load 2 (+KB)";
  (* ForkBase, dataset as relational table. *)
  let fb = FB.create (Mem_store.create ()) in
  let delta_after f =
    let before = Store.physical_bytes (FB.store fb) in
    f ();
    Store.physical_bytes (FB.store fb) - before
  in
  let d1 =
    delta_after (fun () -> ignore (ok_fb (FB.import_csv fb ~key:"dataset-1" csv1)))
  in
  let d2 =
    delta_after (fun () -> ignore (ok_fb (FB.import_csv fb ~key:"dataset-2" csv2)))
  in
  Printf.printf "%-30s %+13.2f   %+13.2f\n" "ForkBase (table value)" (kb d1) (kb d2);
  (* ForkBase, dataset as raw blob (content-defined chunking only). *)
  let fbb = FB.create (Mem_store.create ()) in
  let delta_after_b f =
    let before = Store.physical_bytes (FB.store fbb) in
    f ();
    Store.physical_bytes (FB.store fbb) - before
  in
  let b1 =
    delta_after_b (fun () ->
        ignore
          (ok_fb
             (FB.put fbb ~key:"dataset-1"
                (Value.blob_of_string (FB.store fbb) csv1))))
  in
  let b2 =
    delta_after_b (fun () ->
        ignore
          (ok_fb
             (FB.put fbb ~key:"dataset-2"
                (Value.blob_of_string (FB.store fbb) csv2))))
  in
  Printf.printf "%-30s %+13.2f   %+13.2f\n" "ForkBase (blob value)" (kb b1) (kb b2);
  (* Baselines load the same two snapshots. *)
  let rows1 = kv_of_rows (Csv.parse_exn csv1)
  and rows2 = kv_of_rows (Csv.parse_exn csv2) in
  List.iter
    (fun (b : Baseline.t) ->
      let before = b.storage_bytes () in
      ignore (b.commit rows1);
      let mid = b.storage_bytes () in
      ignore (b.commit rows2);
      let after = b.storage_bytes () in
      Printf.printf "%-30s %+13.2f   %+13.2f\n" b.name
        (kb (mid - before))
        (kb (after - mid)))
    [ Fb_baselines.Gitfile_store.create ();
      Fb_baselines.Fixed_chunk_store.create ();
      Fb_baselines.Delta_store.create ();
      Fb_baselines.Snapshot_store.create () ]

(* ------------------------------------------------------------------ *)
(* Fig. 5: fast differential query.                                   *)
(* ------------------------------------------------------------------ *)

let run_fig5 () =
  header
    "FIG. 5 (demo III-B): differential query between branches\n\
     POS-Tree diff prunes equal sub-trees: O(D log N) vs element-wise O(N)\n\
     cold: node cache cleared first; warm: the same diff again (median of 5)";
  Printf.printf "%-8s %-6s %-9s %-9s %-15s %-8s %s\n" "N" "D" "cold ms"
    "warm ms" "elementwise ms" "speedup" "chunks read (cold/warm)";
  let module Node_cache = Fb_postree.Node_cache in
  let median l = List.nth (List.sort compare l) (List.length l / 2) in
  List.iter
    (fun n ->
      List.iter
        (fun d ->
          if d <= n then begin
            let store = Mem_store.create () in
            let bindings =
              List.init n (fun i -> (Printf.sprintf "key-%08d" i, "value"))
            in
            let t1 = Pmap.of_bindings store bindings in
            let rng = Prng.create (Int64.of_int (n + d)) in
            let t2 =
              Pmap.update t1
                (List.init d (fun _ ->
                     Pmap.Put
                       (Pmap.binding
                          (Printf.sprintf "key-%08d" (Prng.next_int rng n))
                          "changed")))
            in
            (* One timed diff: its change count, ms and chunks read. *)
            let diff () =
              let gets0 = (Store.stats store).Store.gets in
              let changes, ms = time_ms (fun () -> Pmap.diff t1 t2) in
              (List.length changes, ms, (Store.stats store).Store.gets - gets0)
            in
            let cold () =
              Node_cache.set_capacity_all 0;
              Node_cache.set_capacity_all Node_cache.default_capacity;
              diff ()
            in
            let runs f = List.init 5 (fun _ -> f ()) in
            let colds = runs cold in
            let warms = runs diff in
            let changes, _, cold_gets = List.hd colds in
            let _, _, warm_gets = List.hd warms in
            let ms l = median (List.map (fun (_, ms, _) -> ms) l) in
            let cold_ms = ms colds and warm_ms = ms warms in
            (* Element-wise baseline: compare both full materializations. *)
            let _, naive_ms =
              time_ms (fun () ->
                  let b1 = Pmap.bindings t1 and b2 = Pmap.bindings t2 in
                  let rec walk a b acc =
                    match a, b with
                    | [], [] -> acc
                    | (k, v) :: ra, (k', v') :: rb when k = k' ->
                      walk ra rb (if v = v' then acc else acc + 1)
                    | (k, _) :: ra, ((k', _) :: _ as b) when k < k' ->
                      walk ra b (acc + 1)
                    | a, _ :: rb -> walk a rb (acc + 1)
                    | a, [] -> acc + List.length a
                  in
                  ignore (walk b1 b2 0))
            in
            Printf.printf "%-8d %-6d %-9.3f %-9.3f %-15.2f %6.0fx  %d/%d\n" n
              changes cold_ms warm_ms naive_ms (naive_ms /. cold_ms) cold_gets
              warm_gets
          end)
        [ 1; 10; 100; 1000 ])
    [ 10_000; 100_000 ];
  (* A rendered sample in the spirit of the UI screenshot. *)
  Printf.printf "\nsample rendered differential query (master vs VendorX):\n";
  let fb = FB.create (Mem_store.create ()) in
  ignore
    (ok_fb
       (FB.import_csv fb ~key:"Dataset-1"
          "id,vendor,qty\n1,acme,10\n2,generic,20\n3,acme,30\n"));
  ignore (ok_fb (FB.fork fb ~key:"Dataset-1" ~new_branch:"VendorX"));
  ignore
    (ok_fb
       (FB.import_csv fb ~key:"Dataset-1" ~branch:"VendorX"
          "id,vendor,qty\n1,acme,10\n2,vendorx,20\n3,acme,35\n4,vendorx,5\n"));
  let d = ok_fb (FB.diff fb ~key:"Dataset-1" ~branch1:"master" ~branch2:"VendorX") in
  Printf.printf "summary: %s" (Fb_core.Diffview.report d)

(* ------------------------------------------------------------------ *)
(* Fig. 6: versioning, validation, tamper evidence.                   *)
(* ------------------------------------------------------------------ *)

let run_fig6 () =
  header
    "FIG. 6 (demo III-C): version stamps (RFC 4648 Base32 of Merkle root)\n\
     and validation against a malicious storage provider";
  let store, handle = Mem_store.create_with_handle () in
  let fb = FB.create store in
  (* A chain of Puts, as in the screenshot's version list. *)
  let csv = Csvgen.generate { Csvgen.rows = 500; string_columns = 2; int_columns = 1; seed = 9L } in
  let rec commit_chain i last =
    if i > 5 then last
    else begin
      let doc = if i = 1 then csv else Edits.change_one_word ~seed:(Int64.of_int i) csv in
      let uid = ok_fb (FB.import_csv fb ~key:"dataset" ~message:(Printf.sprintf "Put #%d" i) doc) in
      Printf.printf "  version %d: %s\n" i (FB.version_string uid);
      commit_chain (i + 1) (Some uid)
    end
  in
  let tip = Option.get (commit_chain 1 None) in
  (* Validation latency as a function of value size. *)
  Printf.printf "\nverification latency (recompute Merkle root on the spot):\n";
  Printf.printf "%-14s %-10s %-12s %s\n" "value size" "chunks" "verify ms"
    "versions walked";
  List.iter
    (fun target ->
      let store2 = Mem_store.create () in
      let fb2 = FB.create store2 in
      let doc = Csvgen.generate_of_size ~target_bytes:target () in
      let uid = ok_fb (FB.import_csv fb2 ~key:"d" doc) in
      let report, ms =
        time_ms (fun () -> ok_fb (FB.verify fb2 uid))
      in
      Printf.printf "%10.0f KB %-10d %-12.2f %d\n" (kb target)
        report.Fb_repr.Verify.value_chunks ms
        report.Fb_repr.Verify.versions_checked)
    [ 10_000; 100_000; 1_000_000 ];
  (* Malicious storage: random bit flips must always be detected. *)
  let reachable =
    Fb_chunk.Gc.reachable store ~children:Fb_repr.Dag.fnode_children
      ~roots:[ tip ]
  in
  let chunks = Array.of_list (Hash.Set.elements reachable) in
  let rng = Prng.create 4242L in
  let trials = 100 in
  let detected = ref 0 in
  for _ = 1 to trials do
    let victim = chunks.(Prng.next_int rng (Array.length chunks)) in
    let original = ref "" in
    ignore
      (Mem_store.tamper handle victim ~f:(fun s ->
           original := s;
           let b = Bytes.of_string s in
           let i = Prng.next_int rng (Bytes.length b) in
           Bytes.set b i
             (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl Prng.next_int rng 8)));
           Bytes.to_string b));
    (match FB.verify ~check_history_values:true fb tip with
     | Error _ -> incr detected
     | Ok _ -> ());
    (* Restore for the next trial. *)
    ignore (Mem_store.tamper handle victim ~f:(fun _ -> !original))
  done;
  Printf.printf
    "\nmalicious-storage simulation: %d/%d random single-bit flips detected \
     (paper: tamper-proof in spite of the storage infrastructure)\n"
    !detected trials

(* ------------------------------------------------------------------ *)
(* SIRI: structural invariance / page sharing (paper II-A, Def. 1).   *)
(* ------------------------------------------------------------------ *)

let run_siri () =
  header
    "SIRI properties (paper II-A): page sharing between logically equal\n\
     index instances -- POS-Tree vs an ordinary B+-tree with hashed pages";
  let n = 20_000 in
  let entries = List.init n (fun i -> (Printf.sprintf "key-%07d" i, "v")) in
  let shuffled =
    let rng = Prng.create 123L in
    let arr = Array.of_list entries in
    for i = Array.length arr - 1 downto 1 do
      let j = Prng.next_int rng (i + 1) in
      let tmp = arr.(i) in
      arr.(i) <- arr.(j);
      arr.(j) <- tmp
    done;
    Array.to_list arr
  in
  (* POS-Tree: bulk-sorted vs shuffled incremental. *)
  let store = Mem_store.create () in
  let t1 = Pmap.of_bindings store entries in
  let t2 =
    List.fold_left (fun t (k, v) -> Pmap.put t k v) (Pmap.empty store) shuffled
  in
  let pages t =
    List.fold_left (fun s h -> Hash.Set.add h s) Hash.Set.empty (Pmap.node_hashes t)
  in
  let p1 = pages t1 and p2 = pages t2 in
  let shared = Hash.Set.cardinal (Hash.Set.inter p1 p2) in
  Printf.printf "%-34s pages=%-6d shared=%-6d (%.1f%%)\n"
    "POS-Tree sorted vs shuffled" (Hash.Set.cardinal p1) shared
    (100.0 *. float_of_int shared /. float_of_int (Hash.Set.cardinal p1));
  (* B+-tree strawman. *)
  let b1 = Fb_baselines.Btree_baseline.of_bindings entries in
  let b2 = Fb_baselines.Btree_baseline.of_bindings shuffled in
  let s1 = Fb_baselines.Btree_baseline.page_hashes b1 in
  let s2 = Fb_baselines.Btree_baseline.page_hashes b2 in
  let bshared = Hash.Set.cardinal (Hash.Set.inter s1 s2) in
  Printf.printf "%-34s pages=%-6d shared=%-6d (%.1f%%)\n"
    "B+-tree sorted vs shuffled" (Hash.Set.cardinal s1) bshared
    (100.0 *. float_of_int bshared /. float_of_int (Hash.Set.cardinal s1));
  (* Property 3: page reuse across cardinalities (prefix instances). *)
  Printf.printf "\nProperty 3 (universal reuse): pages of an instance reused by \
                 a superset instance\n";
  Printf.printf "%-12s %-12s %-16s %s\n" "small N" "large N" "small pages"
    "reused by large";
  List.iter
    (fun small_n ->
      let store = Mem_store.create () in
      let small =
        Pmap.of_bindings store (List.filteri (fun i _ -> i < small_n) entries)
      in
      let large = Pmap.of_bindings store entries in
      let sp = pages small and lp = pages large in
      let reused = Hash.Set.cardinal (Hash.Set.inter sp lp) in
      Printf.printf "%-12d %-12d %-16d %d (%.1f%%)\n" small_n n
        (Hash.Set.cardinal sp) reused
        (100.0 *. float_of_int reused /. float_of_int (Hash.Set.cardinal sp)))
    [ 1_000; 5_000; 10_000 ]

(* ------------------------------------------------------------------ *)
(* Ablations: design-choice sweeps called out in DESIGN.md.           *)
(* ------------------------------------------------------------------ *)

(* Content-defined chunking of raw bytes at a given pattern width [q];
   returns the chunk list (the parametrized core of Pblob). *)
let chunk_bytes ~q s =
  let params = { Fb_hash.Rolling.window = 48; q } in
  let max_bytes = 16 * (1 lsl q) in
  let rolling = Fb_hash.Rolling.create params in
  let chunks = ref [] in
  let start = ref 0 in
  let cut stop =
    if stop > !start then chunks := String.sub s !start (stop - !start) :: !chunks;
    start := stop;
    Fb_hash.Rolling.reset rolling
  in
  String.iteri
    (fun i c ->
      let hit = Fb_hash.Rolling.feed rolling c in
      if hit || i + 1 - !start >= max_bytes then cut (i + 1))
    s;
  cut (String.length s);
  List.rev !chunks

let run_ablation () =
  header
    "ABLATION 1: pattern width q (expected chunk size 2^q) vs dedup delta\n\
     the Fig. 4 experiment re-run across chunk sizes: smaller chunks track\n\
     edits more tightly but cost more metadata (hashes, index entries)";
  let csv1 = Csvgen.generate_of_size ~target_bytes:338_540 () in
  let csv2 = Edits.change_one_word csv1 in
  Printf.printf "%-6s %-14s %-10s %-18s %-16s\n" "q" "mean chunk B"
    "chunks" "2nd copy delta KB" "hash overhead KB";
  List.iter
    (fun q ->
      let c1 = chunk_bytes ~q csv1 in
      let c2 = chunk_bytes ~q csv2 in
      let set1 =
        List.fold_left
          (fun s c -> Hash.Set.add (Hash.of_string c) s)
          Hash.Set.empty c1
      in
      let delta =
        List.fold_left
          (fun acc c ->
            if Hash.Set.mem (Hash.of_string c) set1 then acc
            else acc + String.length c)
          0 c2
      in
      let mean =
        float_of_int (String.length csv1) /. float_of_int (List.length c1)
      in
      (* 32-byte identity per chunk is the fixed price of addressing. *)
      let overhead = 32 * (List.length c1 + List.length c2) in
      Printf.printf "%-6d %-14.0f %-10d %-18.2f %-16.2f\n" q mean
        (List.length c1) (kb delta) (kb overhead))
    [ 8; 9; 10; 11; 12; 13; 14 ];
  header
    "ABLATION 2: update batch size — cluster-local rebuild cost\n\
     batched point edits against a 100k-entry POS-Tree map";
  let n = 100_000 in
  let store = Mem_store.create () in
  let tree =
    Pmap.of_bindings store
      (List.init n (fun i -> (Printf.sprintf "key-%08d" i, "value")))
  in
  Printf.printf "%-10s %-12s %-14s %-14s\n" "batch" "ms/batch" "us/edit"
    "fresh chunks";
  List.iter
    (fun k ->
      let rng = Prng.create (Int64.of_int (31 * k)) in
      let edits =
        List.init k (fun _ ->
            Pmap.Put
              (Pmap.binding (Printf.sprintf "key-%08d" (Prng.next_int rng n))
                 "edited"))
      in
      let before = (Store.stats store).Store.physical_chunks in
      let _, ms = time_ms (fun () -> ignore (Pmap.update tree edits)) in
      let fresh = (Store.stats store).Store.physical_chunks - before in
      Printf.printf "%-10d %-12.2f %-14.1f %-14d\n" k ms
        (1000.0 *. ms /. float_of_int k)
        fresh)
    [ 1; 10; 100; 1000; 10_000 ];
  header
    "ABLATION 3: skewed-update throughput (Zipf 0.99 over 100k keys)";
  let rng = Prng.create 2024L in
  let zipf = Fb_workload.Zipf.create rng ~n in
  let updates = 2_000 in
  let t = ref tree in
  let (), put_ms =
    time_ms (fun () ->
        for _ = 1 to updates do
          let key = Printf.sprintf "key-%08d" (Fb_workload.Zipf.next zipf) in
          t := Pmap.put !t key "hot"
        done)
  in
  let reads = 20_000 in
  let (), get_ms =
    time_ms (fun () ->
        for _ = 1 to reads do
          ignore
            (Pmap.find !t
               (Printf.sprintf "key-%08d" (Fb_workload.Zipf.next zipf)))
        done)
  in
  Printf.printf
    "point puts: %.0f ops/s (each creating a tamper-evident version's worth \
     of chunks)\nlookups:    %.0f ops/s\n"
    (1000.0 *. float_of_int updates /. put_ms)
    (1000.0 *. float_of_int reads /. get_ms)

(* ------------------------------------------------------------------ *)
(* Storage-tier ablation: wrapper costs and benefits.                 *)
(* ------------------------------------------------------------------ *)

let run_storage () =
  header
    "STORAGE TIER: durable backend, verified reads, pack files\n\
     (100k-entry map; 2000 random lookups per configuration)";
  let bindings =
    List.init 100_000 (fun i -> (Printf.sprintf "key-%08d" i, "value-payload"))
  in
  let rng = Prng.create 31337L in
  let lookups = 2_000 in
  let bench_tree ?(extra = "") name t =
    let h = Obs.histogram ("bench.storage." ^ name) in
    Obs.reset_histogram h;
    let (), ms =
      time_ms (fun () ->
          for _ = 1 to lookups do
            let key = Printf.sprintf "key-%08d" (Prng.next_int rng 100_000) in
            Obs.time h (fun () -> ignore (Pmap.find t key))
          done)
    in
    Printf.printf "%-34s %8.2f us/lookup  p50 %6.2f  p99 %6.2f%s\n" name
      (1000.0 *. ms /. float_of_int lookups)
      (1e6 *. Obs.quantile h 0.5)
      (1e6 *. Obs.quantile h 0.99)
      extra
  in
  let bench_lookups name store = bench_tree name (Pmap.of_bindings store bindings) in
  bench_lookups "mem" (Mem_store.create ());
  let tmp = Filename.concat (Filename.get_temp_dir_name ()) "fb_bench_store" in
  ignore (Sys.command ("rm -rf " ^ Filename.quote tmp));
  let file_store = Fb_chunk.File_store.create ~root:tmp () in
  bench_lookups "file (directory backend)" file_store;
  let verified, _ = Fb_chunk.Verified_store.wrap (Mem_store.create ()) in
  bench_lookups "mem + verify-on-read (paranoid)" verified;
  (* Pack: freeze the file store and read through the archive. *)
  let pack_path = tmp ^ ".pack" in
  (match Fb_chunk.Pack.pack_store file_store ~path:pack_path with
   | Ok n ->
     let pack = Result.get_ok (Fb_chunk.Pack.open_file ~path:pack_path) in
     let overlay =
       Fb_chunk.Pack.with_overlay ~packs:[ pack ] (Mem_store.create ())
     in
     (* Reuse the frozen chunks: the tree handle re-attaches by root. *)
     let t = Pmap.of_bindings (Mem_store.create ()) bindings in
     let t = Pmap.of_root overlay (Pmap.root t) in
     bench_tree "pack archive + overlay"
       ~extra:(Printf.sprintf "  (%d chunks in one file)" n)
       t
   | Error e -> Printf.printf "pack failed: %s\n" e);
  ignore (Sys.command ("rm -rf " ^ Filename.quote tmp));
  (try Sys.remove pack_path with Sys_error _ -> ())

(* ------------------------------------------------------------------ *)
(* Resilience: clean-path cost of the self-healing read stack.        *)
(* ------------------------------------------------------------------ *)

let run_resilience () =
  header
    "RESILIENCE: clean-path overhead of verified and replicated reads\n\
     (100k-entry map; 2000 random lookups per configuration; no faults \
     injected)";
  let bindings =
    List.init 100_000 (fun i -> (Printf.sprintf "key-%08d" i, "value-payload"))
  in
  let lookups = 2_000 in
  let bench name store =
    let t = Pmap.of_bindings store bindings in
    let h = Obs.histogram ("bench.resilience." ^ name) in
    Obs.reset_histogram h;
    let sweep ~record rng =
      for _ = 1 to lookups do
        let key = Printf.sprintf "key-%08d" (Prng.next_int rng 100_000) in
        if record then Obs.time h (fun () -> ignore (Pmap.find t key))
        else ignore (Pmap.find t key)
      done
    in
    (* Steady state on a working set: an untimed pass over the same key
       sequence first, so one-time costs (first-read verification) are
       paid before the clock starts — all configurations warm alike. *)
    sweep ~record:false (Prng.create 424242L);
    let (), ms = time_ms (fun () -> sweep ~record:true (Prng.create 424242L)) in
    let us = 1000.0 *. ms /. float_of_int lookups in
    Printf.printf "%-42s %8.2f us/lookup  p50 %6.2f  p99 %6.2f\n" name us
      (1e6 *. Obs.quantile h 0.5)
      (1e6 *. Obs.quantile h 0.99);
    us
  in
  let bare = bench "mem (baseline)" (Mem_store.create ()) in
  let paranoid, _ = Fb_chunk.Verified_store.wrap (Mem_store.create ()) in
  let p = bench "mem + verified every read (paranoid)" paranoid in
  (* The replication engine: a two-member cluster at W=2, which hashes
     every read itself and fails over to the other copy on a mismatch. *)
  let cluster =
    Fb_chunk.Cluster_store.create ~replicas:2
      ~members:[ ("a", Mem_store.create ()); ("b", Mem_store.create ()) ]
      ()
  in
  let r =
    bench "cluster of 2 mem members (W=2)"
      (Fb_chunk.Cluster_store.store cluster)
  in
  Fb_chunk.Cluster_store.close cluster;
  let pct x = 100.0 *. (x -. bare) /. bare in
  Printf.printf
    "\nclean-path overhead vs bare: paranoid %+.1f%%; 2-member cluster \
     %+.1f%%\n"
    (pct p) (pct r)

(* ------------------------------------------------------------------ *)
(* Cluster: the real multi-node deployment — chunks routed over TCP   *)
(* to live server nodes through the cluster store, with a node kill,  *)
(* failover latency, read repair after restart, and the rebalance     *)
(* delta vs the ideal ring delta.                                     *)
(* ------------------------------------------------------------------ *)

let run_cluster_net ?(quick = false) () =
  header
    (if quick then
       "cluster-quick: 3 live nodes, W=2 — availability under a node kill"
     else
       "CLUSTER: 3 live forkbase nodes over TCP, W=2 replication\n\
        (node kill -> failover reads; restart -> read repair; ring growth \
        -> rebalance delta)");
  let module Server = Fb_net.Server in
  let module Net_cluster = Fb_net.Cluster in
  let module Cluster = Fb_chunk.Cluster_store in
  let module Chunk = Fb_chunk.Chunk in
  let ok_net = function Ok v -> v | Error e -> failwith e in
  let config = { Server.default_config with port = 0 } in
  let start_node () =
    ok_net (Server.start ~config (FB.create (Mem_store.create ())))
  in
  let servers = Array.init 3 (fun _ -> start_node ()) in
  let ports = Array.map Server.port servers in
  let nodes =
    Array.to_list
      (Array.map (fun port -> { Net_cluster.host = "127.0.0.1"; port }) ports)
  in
  let t = ok_fb (Net_cluster.connect ~replicas:2 ~nodes ()) in
  let store = Net_cluster.store t in
  let n_chunks = if quick then 150 else 1_500 in
  let payload i =
    let prng = Prng.create (Int64.of_int (7_000 + i)) in
    String.init 512 (fun _ -> Char.chr (32 + (Prng.next_int prng 95)))
  in
  let ids = Array.init n_chunks (fun i ->
      Store.put store (Chunk.v Chunk.Leaf_blob (payload i)))
  in
  let fpercentile sorted p =
    let n = Array.length sorted in
    if n = 0 then 0.0
    else sorted.(min (n - 1) (int_of_float (float_of_int n *. p)))
  in
  let read_sweep () =
    let lat = Array.make n_chunks 0.0 in
    let served = ref 0 in
    Array.iteri
      (fun i id ->
        let got, ms = time_ms (fun () -> Store.get store id) in
        lat.(i) <- ms;
        if got <> None then incr served)
      ids;
    Array.sort compare lat;
    (!served, fpercentile lat 0.5, fpercentile lat 0.99)
  in
  let _, healthy_ms = time_ms (fun () -> ignore (read_sweep ())) in
  let healthy_served, healthy_p50, healthy_p99 = read_sweep () in
  Printf.printf
    "healthy: %d/%d reads in %.0f ms  p50 %.2f ms  p99 %.2f ms\n"
    healthy_served n_chunks healthy_ms healthy_p50 healthy_p99;
  (* Kill one node outright: W=2 placement must keep everything
     readable, served by the surviving replica. *)
  Server.stop servers.(1);
  let killed_served, kill_p50, kill_p99 = read_sweep () in
  let availability = float_of_int killed_served /. float_of_int n_chunks in
  let cs = Cluster.cluster_stats (Net_cluster.cluster t) in
  Printf.printf
    "node 1 killed: %d/%d reads served (%.2f%% availability), %d failover \
     reads\n  p50 %.2f ms  p99 %.2f ms (healthy p99 %.2f ms)\n"
    killed_served n_chunks (100.0 *. availability)
    cs.Cluster.failover_reads kill_p50 kill_p99 healthy_p99;
  if availability < 0.99 then
    failwith
      (Printf.sprintf "cluster: availability %.2f%% under a node kill, \
                       below the 99%% bar" (100.0 *. availability));
  (* Restart the node empty on the same port: reads that prefer it now
     miss, fail over, and repair the copy back — replica counts converge
     under the workload alone. *)
  servers.(1) <-
    ok_net
      (Server.start
         ~config:{ config with Server.port = ports.(1) }
         (FB.create (Mem_store.create ())));
  ignore (Net_cluster.probe t);
  let repaired_before = (Cluster.cluster_stats (Net_cluster.cluster t)).Cluster.repaired in
  let (_, _, _), repair_ms = time_ms read_sweep in
  let repaired =
    (Cluster.cluster_stats (Net_cluster.cluster t)).Cluster.repaired
    - repaired_before
  in
  Printf.printf
    "node 1 restarted empty: one read pass repaired %d copies back onto it \
     (%.0f ms)\n"
    repaired repair_ms;
  Net_cluster.close t;
  Array.iter Server.stop servers;
  (* Rebalance delta vs the ideal ring delta, on the routing engine
     alone (mem members — no wire noise): growing 3 -> 4 members must
     move exactly the chunks whose owner set changed, nothing else. *)
  let members =
    List.init 3 (fun i -> (Printf.sprintf "m%d" i, Mem_store.create ()))
  in
  let c = Cluster.create ~replicas:2 ~members () in
  let cstore = Cluster.store c in
  let sizes =
    Array.init n_chunks (fun i ->
        let ch = Chunk.v Chunk.Leaf_blob (payload i) in
        ignore (Store.put cstore ch);
        (Chunk.hash ch, Chunk.encoded_size ch))
  in
  let owners_before =
    Array.map (fun (id, _) -> Cluster.owners c id) sizes
  in
  Cluster.add_member c ("m3", Mem_store.create ());
  let ideal_bytes = ref 0 in
  Array.iteri
    (fun i (id, size) ->
      let now = Cluster.owners c id in
      List.iter
        (fun o -> if not (List.mem o owners_before.(i)) then
            ideal_bytes := !ideal_bytes + size)
        now)
    sizes;
  let report, rebalance_ms = time_ms (fun () -> Cluster.rebalance c) in
  let ratio =
    float_of_int report.Cluster.moved_bytes
    /. float_of_int (max 1 !ideal_bytes)
  in
  Printf.printf
    "ring growth 3->4: rebalance moved %d chunks / %.1f KB in %.0f ms; \
     ideal ring delta %.1f KB (ratio %.2f)\n"
    report.Cluster.moved_chunks
    (kb report.Cluster.moved_bytes)
    rebalance_ms (kb !ideal_bytes) ratio;
  Cluster.close c;
  if report.Cluster.moved_bytes <> !ideal_bytes then
    failwith
      (Printf.sprintf
         "cluster: rebalance moved %d bytes, ring delta is %d — movement \
          must equal the delta exactly"
         report.Cluster.moved_bytes !ideal_bytes);
  if not quick then begin
    let oc = open_out "BENCH_cluster.json" in
    Printf.fprintf oc
      "{\"nodes\":3,\"replicas\":2,\"chunks\":%d,\
       \"healthy\":{\"served\":%d,\"p50_ms\":%.3f,\"p99_ms\":%.3f},\
       \"node_killed\":{\"served\":%d,\"availability\":%.4f,\
       \"failover_reads\":%d,\"p50_ms\":%.3f,\"p99_ms\":%.3f},\
       \"read_repair\":{\"repaired\":%d,\"pass_ms\":%.0f},\
       \"rebalance\":{\"moved_chunks\":%d,\"moved_bytes\":%d,\
       \"ideal_bytes\":%d,\"ratio\":%.4f,\"ms\":%.0f}}\n"
      n_chunks healthy_served healthy_p50 healthy_p99 killed_served
      availability cs.Cluster.failover_reads kill_p50 kill_p99 repaired
      repair_ms report.Cluster.moved_chunks report.Cluster.moved_bytes
      !ideal_bytes ratio rebalance_ms;
    close_out oc;
    Printf.printf "machine-readable results written to BENCH_cluster.json\n"
  end

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks: one Test.make per experiment.           *)
(* ------------------------------------------------------------------ *)

let run_micro () =
  header
    "Bechamel micro-benchmarks (ns/op, OLS estimates over monotonic clock)";
  let open Bechamel in
  let open Toolkit in
  (* Shared prebuilt state. *)
  let store = Mem_store.create () in
  let n = 50_000 in
  let bindings =
    List.init n (fun i -> (Printf.sprintf "key-%08d" i, "value-payload"))
  in
  let tree = Pmap.of_bindings store bindings in
  let tree2 = Pmap.put tree "key-00025000" "changed" in
  let ours = Pmap.put tree "key-00010000" "ours" in
  let theirs = Pmap.put tree "key-00040000" "theirs" in
  let csv = Csvgen.generate_of_size ~target_bytes:100_000 () in
  let counter = ref 0 in
  let tests =
    [ (* Table I / Fig. 4: the cost of committing a one-word-changed
         version (dominant op of the dedup experiments). *)
      Test.make ~name:"put_point_edit_50k"
        (Staged.stage (fun () ->
             incr counter;
             ignore
               (Pmap.put tree
                  (Printf.sprintf "key-%08d" (!counter mod n))
                  "poked")));
      (* Fig. 5: differential query. *)
      Test.make ~name:"diff_1_of_50k"
        (Staged.stage (fun () -> ignore (Pmap.diff tree tree2)));
      (* Fig. 3: three-way merge with disjoint edits. *)
      Test.make ~name:"merge_disjoint_50k"
        (Staged.stage (fun () ->
             match Pmap.merge ~base:tree ~ours ~theirs () with
             | Ok _ -> ()
             | Error _ -> failwith "conflict"));
      (* Fig. 6: tamper-evident lookup path (get + root known). *)
      Test.make ~name:"find_50k"
        (Staged.stage (fun () -> ignore (Pmap.find tree "key-00031337")));
      (* Fig. 4 substrate: content-defined chunking throughput. *)
      Test.make ~name:"blob_chunking_100k"
        (Staged.stage (fun () ->
             ignore (Pblob.of_string (Mem_store.create ()) csv)));
      (* Fig. 6 substrate: SHA-256 throughput on a chunk-sized buffer. *)
      Test.make ~name:"sha256_4k"
        (Staged.stage
           (let buf = String.make 4096 'x' in
            fun () -> ignore (Fb_hash.Sha256.digest buf))) ]
  in
  let grouped = Test.make_grouped ~name:"forkbase" tests in
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:1000 ~quota:(Time.second 0.5) () in
  let ols =
    Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  (* One OLS estimate moves by about 15% from run to run, so each is
     taken [runs] times and shown as a median with its range. *)
  let runs = 5 in
  let estimates = Hashtbl.create 8 in
  for _ = 1 to runs do
    let raw = Benchmark.all cfg instances grouped in
    Hashtbl.iter
      (fun name ols ->
        let ns =
          match Analyze.OLS.estimates ols with
          | Some (e :: _) -> e
          | _ -> nan
        in
        Hashtbl.replace estimates name
          (ns :: Option.value (Hashtbl.find_opt estimates name) ~default:[]))
      (Analyze.all ols Instance.monotonic_clock raw)
  done;
  Printf.printf "%-40s %12s %12s %12s   (%d runs)\n" "benchmark" "median ns"
    "min" "max" runs;
  List.iter
    (fun (name, ns) ->
      let a = Array.of_list (List.sort compare ns) in
      Printf.printf "%-40s %12.0f %12.0f %12.0f\n" name
        a.(Array.length a / 2) a.(0) a.(Array.length a - 1))
    (List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) estimates []))

(* ------------------------------------------------------------------ *)
(* Observability: histogram readout, self-overhead, trace spans.      *)
(* ------------------------------------------------------------------ *)

let run_obs ?(quick = false) () =
  header
    "OBSERVABILITY: fb_obs latency histograms, self-overhead, trace spans";
  (* 1. Instrumentation overhead on the lookup hot path.  Three configs
     over the same 20k-entry tree: bare store, metered store with the
     registry enabled, metered store with the registry disabled.  The
     bare and enabled configs both pay the postree/forkbase span hooks,
     so their delta isolates Metered_store's per-op timing.

     Methodology matters here: a single timed sweep after a 2k-op warmup
     reported the enabled overhead anywhere from 3% to 12% run to run —
     the measurement was dominated by allocator/GC phase, not by the
     instrumentation (see DESIGN.md §7).  Each config now gets a full
     warmup sweep plus best-of-3 measured sweeps, interleaved round-robin
     so slow drift (GC heap growth) hits all three configs equally. *)
  let n = 20_000 in
  let lookups = if quick then 10_000 else 30_000 in
  let rounds = 3 in
  let small = List.init n (fun i -> (Printf.sprintf "key-%06d" i, "v")) in
  let make_bench store =
    let t = Pmap.of_bindings store small in
    let sweep count rng =
      for _ = 1 to count do
        ignore (Pmap.find t (Printf.sprintf "key-%06d" (Prng.next_int rng n)))
      done
    in
    sweep lookups (Prng.create 7L);
    fun () ->
      let (), ms = time_ms (fun () -> sweep lookups (Prng.create 7L)) in
      1000.0 *. ms /. float_of_int lookups
  in
  let bare_bench = make_bench (Mem_store.create ()) in
  let on_bench =
    make_bench (Fb_chunk.Metered_store.wrap ~prefix:"bench.ovh" (Mem_store.create ()))
  in
  let off_store =
    Fb_chunk.Metered_store.wrap ~prefix:"bench.ovh" (Mem_store.create ())
  in
  let off_bench = make_bench off_store in
  let bare = ref infinity and on_us = ref infinity and off_us = ref infinity in
  for _ = 1 to rounds do
    bare := Float.min !bare (bare_bench ());
    on_us := Float.min !on_us (on_bench ());
    Obs.set_enabled false;
    off_us := Float.min !off_us (off_bench ());
    Obs.set_enabled true
  done;
  let bare = !bare and on_us = !on_us and off_us = !off_us in
  let pct x = 100.0 *. (x -. bare) /. bare in
  Printf.printf
    "overhead on %d lookups, best of %d (us/op):\n\
    \  bare store          %8.3f  (tree hooks enabled, store untimed)\n\
    \  metered, enabled    %8.3f  (%+.1f%% = Metered_store's own cost)\n\
    \  metered, disabled   %8.3f  (%+.1f%% = FB_OBS=0 removes ALL hooks,\n\
    \                                incl. the tree hooks bare pays)\n"
    lookups rounds bare on_us (pct on_us) off_us (pct off_us);
  (* 2. Operation-level latency distributions through the public API:
     warmup, then N measured reps feeding the fb.* histograms. *)
  Obs.reset ();
  let store =
    Fb_chunk.Metered_store.wrap ~prefix:"bench.store" (Mem_store.create ())
  in
  let fb = FB.create store in
  let n_ops = if quick then 500 else 2_000 in
  let n_merges = if quick then 50 else 200 in
  let put i =
    ignore
      (ok_fb
         (FB.put fb ~key:(Printf.sprintf "k%d" (i mod 64))
            (Value.string (Printf.sprintf "value-%d" i))))
  in
  let get i =
    ignore (ok_fb (FB.get fb ~key:(Printf.sprintf "k%d" (i mod 64))))
  in
  (* Both sides diverge from the fork point with disjoint map edits, so
     every cycle is a genuine three-way merge, not a fast-forward. *)
  let merge_cycle i =
    let key = "merged" and b = Printf.sprintf "side%d" i in
    let base = [ ("base", "v"); (Printf.sprintf "m%d" i, "x") ] in
    let value kv = Value.map_of_bindings (FB.store fb) kv in
    ignore (ok_fb (FB.put fb ~key (value base)));
    ignore (ok_fb (FB.fork fb ~key ~new_branch:b));
    ignore
      (ok_fb
         (FB.put fb ~key (value ((Printf.sprintf "ours%d" i, "o") :: base))));
    ignore
      (ok_fb
         (FB.put fb ~branch:b ~key
            (value ((Printf.sprintf "theirs%d" i, "t") :: base))));
    ignore (ok_fb (FB.merge fb ~key ~into:"master" ~from_branch:b))
  in
  for i = 0 to 199 do put i done;
  for i = 0 to 199 do get i done;
  merge_cycle 100_000;
  Obs.reset ();
  for i = 0 to n_ops - 1 do put i done;
  for i = 0 to n_ops - 1 do get i done;
  for i = 0 to n_merges - 1 do merge_cycle i done;
  Printf.printf
    "\nlatency distributions (%d puts, %d gets, %d fork+merge cycles):\n"
    n_ops n_ops n_merges;
  let report name h =
    Printf.printf
      "%-26s n=%-6d p50 %8.2f  p90 %8.2f  p99 %8.2f  max %8.2f us\n" name
      (Obs.hist_count h)
      (1e6 *. Obs.quantile h 0.5)
      (1e6 *. Obs.quantile h 0.9)
      (1e6 *. Obs.quantile h 0.99)
      (1e6 *. Obs.hist_max h)
  in
  report "forkbase.put" (Obs.histogram "fb.put_seconds");
  report "forkbase.get" (Obs.histogram "fb.get_seconds");
  report "forkbase.merge" (Obs.histogram "fb.merge_seconds");
  report "store.put (chunk level)" (Obs.histogram "bench.store.put_seconds");
  report "store.get (chunk level)" (Obs.histogram "bench.store.get_seconds");
  (* 3. A sample trace: one put+get+merge cycle in an empty span ring
     shows how a request decomposes into tree and store work. *)
  Obs.set_span_capacity 64;
  merge_cycle 999_999;
  get 0;
  Printf.printf "\nsample trace (one fork+merge cycle, then one get):\n%s"
    (Format.asprintf "%a" Obs.pp_spans ());
  Obs.set_span_capacity 512;
  (* 4. Wire tracing overhead: the same single-client put/get loop
     against an in-process server with the registry (spans + trace
     headers + histograms) enabled vs disabled.  FB_OBS=0 must keep the
     served path within ~5% of its instrumented self — the trace header
     is only ever stamped when a client span exists, so disabling the
     registry removes it from the wire too. *)
  let net_reqs = if quick then 1_000 else 5_000 in
  let net_rps () =
    let fb = FB.create (Mem_store.create ()) in
    let config =
      { Fb_net.Server.default_config with port = 0 }
    in
    match Fb_net.Server.start ~config fb with
    | Error e -> failwith ("obs net bench: " ^ e)
    | Ok srv ->
      Fun.protect
        ~finally:(fun () -> Fb_net.Server.stop srv)
        (fun () ->
          match
            Fb_net.Mux.connect ~port:(Fb_net.Server.port srv) ~user:"bench" ()
          with
          | Error e -> failwith (Fb_net.Client.error_to_string e)
          | Ok c ->
            Fun.protect
              ~finally:(fun () -> Fb_net.Mux.close c)
              (fun () ->
                let req i =
                  let key = Printf.sprintf "k%d" (i mod 32) in
                  ignore (Fb_net.Mux.request c [ "put"; key; "master"; "v" ]);
                  ignore (Fb_net.Mux.request c [ "get"; key; "master" ])
                in
                for i = 0 to (net_reqs / 10) - 1 do req i done;
                let (), ms =
                  time_ms (fun () -> for i = 0 to net_reqs - 1 do req i done)
                in
                2.0 *. float_of_int net_reqs /. (ms /. 1000.0)))
  in
  let net_on = net_rps () in
  Obs.set_enabled false;
  let net_off = net_rps () in
  Obs.set_enabled true;
  let tracing_pct = 100.0 *. (net_off -. net_on) /. net_off in
  Printf.printf
    "\nwire path, 1 client, %d put+get pairs (req/s):\n\
    \  tracing enabled     %10.0f  (spans + trace headers + histograms)\n\
    \  FB_OBS=0            %10.0f  (tracing costs %.1f%% when on; the\n\
    \                                 FB_OBS=0 path must match the\n\
    \                                 untraced build within noise)\n"
    net_reqs net_on net_off tracing_pct;
  (* 5. Machine-readable artifact for tracking runs over time (skipped
     in quick mode: make-check smoke must not clobber the recorded
     numbers of a full run). *)
  if not quick then begin
    let json =
      Printf.sprintf
        "{\"overhead_us\":{\"bare\":%.4f,\"metered_enabled\":%.4f,\
         \"metered_disabled\":%.4f,\"enabled_pct\":%.2f,\"disabled_pct\":%.2f},\n\
         \"net\":{\"requests_per_s_enabled\":%.0f,\"requests_per_s_disabled\":%.0f,\
         \"tracing_pct\":%.2f},\n\
         \"registry\":%s}\n"
        bare on_us off_us (pct on_us) (pct off_us)
        net_on net_off tracing_pct
        (Obs.dump_json ())
    in
    let oc = open_out "BENCH_obs.json" in
    output_string oc json;
    close_out oc;
    Printf.printf "\nmachine-readable registry written to BENCH_obs.json\n"
  end

(* ------------------------------------------------------------------ *)
(* Hot path: SHA-256 and CRC-32 kernels, chunker scan, node cache,  *)
(* CSV table import/export.                                           *)
(* ------------------------------------------------------------------ *)

let run_hotpath ?(quick = false) () =
  header
    (if quick then
       "HOT PATH (quick sanity): kernel equivalence + throughput smoke run"
     else
       "HOT PATH: SHA-256 and CRC-32 kernels, fused chunker scan, \
        decoded-node cache, CSV tables\n\
        (throughputs single-threaded; tree ops on a mem store)");
  let module Sha256 = Fb_hash.Sha256 in
  let module Sha256_ref = Fb_hash.Sha256_ref in
  let module Crc32 = Fb_hash.Crc32 in
  let module Rolling = Fb_hash.Rolling in
  let module Node_cache = Fb_postree.Node_cache in
  let mb = 1024.0 *. 1024.0 in
  (* Throughput of [f] over [reps] passes of [bytes] input bytes. *)
  let mb_s bytes reps f =
    ignore (f ());
    let t0 = Unix.gettimeofday () in
    for _ = 1 to reps do ignore (f ()) done;
    float_of_int (bytes * reps) /. (Unix.gettimeofday () -. t0) /. mb
  in
  let rand_string seed n =
    let rng = Prng.create seed in
    String.init n (fun _ -> Char.chr (Prng.next_int rng 256))
  in
  (* [reps] timed runs of each of [fs] after a warm-up of each, the sides
     taking turns within every repetition, so that a slow phase of the
     host slows all sides alike and their ratios hold: each side's times
     in ms, sorted. *)
  let interleaved reps fs =
    List.iter (fun f -> f ()) fs;
    Gc.full_major ();
    let runs = List.init reps (fun _ -> List.map (fun f -> snd (time_ms f)) fs) in
    List.mapi
      (fun i _ -> Array.of_list (List.sort compare (List.map (fun r -> List.nth r i) runs)))
      fs
  in
  let quantile ts p = ts.(int_of_float (p *. float_of_int (Array.length ts - 1))) in
  (* --- 1. SHA-256: native and OCaml kernels vs the Int32 reference --- *)
  let ocaml_digest s =
    let ctx = Sha256.init_ocaml () in
    Sha256.update ctx s;
    Sha256.finalize ctx
  in
  (* Every available kernel must agree with the oracle on odd-length random
     buffers (partial final blocks, both padding cases). *)
  let rng = Prng.create 0x0ddL in
  for i = 0 to 63 do
    let buf = rand_string (Int64.of_int i) (1 + (2 * Prng.next_int rng 4096)) in
    let expect = Sha256_ref.digest buf in
    if not (String.equal (ocaml_digest buf) expect
            && String.equal (Sha256.digest buf) expect)
    then failwith (Printf.sprintf "sha256 kernels disagree on %d bytes"
                     (String.length buf))
  done;
  let active = if Sha256.native then "native" else "ocaml" in
  Printf.printf "sha256 kernels agree on 64 odd-length buffers; active: %s\n"
    active;
  let sha_sizes = if quick then [ 65536 ] else [ 4096; 65536 ] in
  let sha_mib = if quick then 2 else 32 in
  Printf.printf "%-24s %10s %10s %10s\n" "sha256 (buffer size)" "ref MB/s"
    "ocaml MB/s" "native MB/s";
  let sha_rows =
    List.map
      (fun size ->
        let buf = rand_string 0x5aL size in
        let reps = max 1 (sha_mib * 1024 * 1024 / size) in
        let ref_mb = mb_s size reps (fun () -> Sha256_ref.digest buf) in
        let ocaml_mb = mb_s size reps (fun () -> ocaml_digest buf) in
        let native_mb =
          if Sha256.native then Some (mb_s size reps (fun () -> Sha256.digest buf))
          else None
        in
        Printf.printf "%-24d %10.1f %10.1f %10s\n" size ref_mb ocaml_mb
          (match native_mb with
           | Some m -> Printf.sprintf "%.1f" m
           | None -> "n/a");
        (size, ref_mb, ocaml_mb, native_mb))
      sha_sizes
  in
  (* --- 2. CRC-32 (the pack log's record seal): native vs reference --- *)
  (* Random contents at every start offset mod 8 and lengths around the
     kernel's 8-byte steps. *)
  for i = 0 to 255 do
    let buf = rand_string (Int64.of_int (1000 + i)) (Prng.next_int rng 4200) in
    let pos = Prng.next_int rng (1 + min 16 (String.length buf)) in
    let len = Prng.next_int rng (1 + String.length buf - pos) in
    if Crc32.update_sub Crc32.empty buf ~pos ~len
       <> Crc32_ref.update_sub Crc32_ref.empty buf ~pos ~len
    then failwith (Printf.sprintf "crc32 kernel disagrees: pos %d len %d" pos len)
  done;
  Printf.printf "crc32 native = reference on 256 random ranges\n";
  let crc_sizes = if quick then [ 4096 ] else [ 4096; 1 lsl 20 ] in
  let crc_mib = if quick then 2 else 64 in
  Printf.printf "%-24s %10s %11s %8s\n" "crc32 (buffer size)" "ref MB/s"
    "native MB/s" "speedup";
  let crc_rows =
    List.map
      (fun size ->
        let buf = rand_string 0xc3cL size in
        let reps = max 1 (crc_mib * 1024 * 1024 / size) in
        let ref_mb = mb_s size reps (fun () -> Crc32_ref.string buf) in
        let native_mb = mb_s size reps (fun () -> Crc32.string buf) in
        Printf.printf "%-24d %10.1f %11.1f %7.2fx\n" size ref_mb native_mb
          (native_mb /. ref_mb);
        (size, ref_mb, native_mb))
      crc_sizes
  in
  (* --- 3. chunker: fused feed_string vs per-char feed --- *)
  let scan_bytes = (if quick then 2 else 16) * 1024 * 1024 in
  let scan = rand_string 0xbeefL scan_bytes in
  let params = Rolling.default_blob_params in
  let fast_mb =
    mb_s scan_bytes 1 (fun () ->
        let t = Rolling.create params in
        Rolling.feed_string t scan)
  in
  let slow_mb =
    mb_s scan_bytes 1 (fun () ->
        let t = Rolling.create params in
        let hit = ref false in
        String.iter (fun c -> if Rolling.feed t c then hit := true) scan;
        !hit)
  in
  Printf.printf "\n%-24s %12.1f %12.1f %8.2fx\n" "chunker scan" slow_mb fast_mb
    (fast_mb /. slow_mb);
  let rstats = Rolling.stats () in
  Printf.printf
    "gamma tables: %d built, %d served from memo (%d MB scanned so far)\n"
    rstats.Rolling.gamma_builds rstats.Rolling.gamma_memo_hits
    (rstats.Rolling.bytes_scanned / (1024 * 1024));
  (* --- 4. tree ops with the decoded-node cache off/on --- *)
  let n = if quick then 10_000 else 50_000 in
  let lookups = if quick then 1_000 else 5_000 in
  let tree_reps = if quick then 1 else 5 in
  let store = Mem_store.create () in
  let bindings =
    List.init n (fun i -> (Printf.sprintf "key-%08d" i, "value-payload"))
  in
  let tree = Pmap.of_bindings store bindings in
  let tree2 = Pmap.put tree (Printf.sprintf "key-%08d" (n / 2)) "changed" in
  let ours = Pmap.put tree (Printf.sprintf "key-%08d" (n / 5)) "ours" in
  let theirs = Pmap.put tree (Printf.sprintf "key-%08d" (4 * n / 5)) "theirs" in
  (* Both configurations in turn within each repetition; each starts
     from the same warm pass (lookups, diff and merge untimed). *)
  let configs =
    List.map
      (fun (label, capacity) ->
        let h = Obs.histogram ("bench.hotpath." ^ label) in
        Obs.reset_histogram h;
        (label, capacity, h))
      [ ("node cache off", 0); ("node cache on", Node_cache.default_capacity) ]
  in
  let sweep ?h rng =
    for _ = 1 to lookups do
      let key = Printf.sprintf "key-%08d" (Prng.next_int rng n) in
      match h with
      | Some h -> Obs.time h (fun () -> ignore (Pmap.find tree key))
      | None -> ignore (Pmap.find tree key)
    done
  in
  let diff () =
    let d = Pmap.diff tree tree2 in
    assert (List.length d = 1)
  in
  let merge () =
    match Pmap.merge ~base:tree ~ours ~theirs () with
    | Ok _ -> ()
    | Error _ -> failwith "unexpected conflict"
  in
  let diff_ms = Array.make 2 0.0 and merge_ms = Array.make 2 0.0 in
  for _ = 1 to tree_reps do
    List.iteri
      (fun i (_, capacity, h) ->
        Node_cache.set_capacity_all capacity;
        sweep (Prng.create 808L);
        diff ();
        merge ();
        sweep ~h (Prng.create 808L);
        diff_ms.(i) <- diff_ms.(i) +. snd (time_ms diff);
        merge_ms.(i) <- merge_ms.(i) +. snd (time_ms merge))
      configs
  done;
  Node_cache.set_capacity_all Node_cache.default_capacity;
  Printf.printf "\ntree ops on %d entries (%d lookups):\n" n lookups;
  let tree_row i =
    let label, _, h = List.nth configs i in
    let p50 = 1e6 *. Obs.quantile h 0.5
    and p99 = 1e6 *. Obs.quantile h 0.99
    and diff_ms = diff_ms.(i) /. float_of_int tree_reps
    and merge_ms = merge_ms.(i) /. float_of_int tree_reps in
    Printf.printf
      "%-26s lookup p50 %6.2f us  p99 %6.2f us  diff %6.2f ms  merge %6.2f \
       ms\n"
      label p50 p99 diff_ms merge_ms;
    (p50, p99, diff_ms, merge_ms)
  in
  let off_p50, off_p99, off_diff, off_merge = tree_row 0 in
  let on_p50, on_p99, on_diff, on_merge = tree_row 1 in
  Printf.printf "lookup p50 speedup with cache: %.2fx\n" (off_p50 /. on_p50);
  (* --- 5. CSV tables: one-pass import/export vs the two-pass reference --- *)
  (* The fbperf dataset table (5,000 rows x 6 word columns; seed 3's first).
     The export must be the generated document byte for byte, and must
     re-import to the same table. *)
  let header, data =
    match Csvgen.generate_rows { Csvgen.rows = 5_000; string_columns = 6; int_columns = 0; seed = 48L } with
    | h :: d -> (h, d)
    | [] -> assert false
  in
  let render rows = Csv.render (header :: rows) in
  let doc = render data in
  let csv_store = Mem_store.create () in
  let imported r = match r with Ok t -> t | Error e -> failwith ("csv import: " ^ e) in
  let root t = Value.descriptor (Value.Table t) in
  let table = imported (Table.of_csv csv_store doc) in
  let exported = Table.to_csv table in
  if not (String.equal exported doc) then
    failwith "csv: the export differs from the generated document";
  if not (String.equal (root (imported (Table.of_csv csv_store exported))) (root table)) then
    failwith "csv: the export re-imports to another table";
  if not (String.equal (root (imported (Csv_ref.of_csv csv_store doc))) (root table)) then
    failwith "csv: the reference import gives another table";
  let csv_reps = if quick then 3 else 21 in
  let doc_mb ms = float_of_int (String.length doc) /. mb /. (ms /. 1000.0) in
  Printf.printf "\n%-18s %11s %11s %11s %11s %8s\n" "csv (5,000 x 6)" "ref ms" "ms" "ref MB/s"
    "MB/s" "speedup";
  let csv_rows =
    List.map
      (fun (label, ref_f, new_f) ->
        let ref_ms, new_ms =
          match interleaved csv_reps [ ref_f; new_f ] with
          | [ r; n ] -> (quantile r 0.5, quantile n 0.5)
          | _ -> assert false
        in
        Printf.printf "%-18s %11.2f %11.2f %11.1f %11.1f %7.2fx\n" label ref_ms new_ms
          (doc_mb ref_ms) (doc_mb new_ms) (ref_ms /. new_ms);
        (label, ref_ms, new_ms))
      [ ("import", (fun () -> ignore (Csv_ref.of_csv csv_store doc)),
         fun () -> ignore (Table.of_csv csv_store doc));
        ("export", (fun () -> ignore (Csv_ref.to_csv table)),
         fun () -> ignore (Table.to_csv table)) ]
  in
  Printf.printf
    "(%d bytes, medians of %d; ref = the two-pass code the tests keep as their oracle)\n"
    (String.length doc) csv_reps;
  (* Forkbase.import_csv (import + commit) of the same rows three ways:
     into a fresh key; onto a head holding the table with 8 rows edited
     (fbperf dataset's put-csv); and onto a head sharing no key with it
     (a full replacement).  The last two alternate between two documents,
     so every import differs from its head. *)
  let edited =
    render
      (List.mapi
         (fun i r ->
           if i mod 311 = 7 && i < 2_400 then
             List.mapi (fun j c -> if j = 1 + (i mod 6) then Printf.sprintf "upd-%d" i else c) r
           else r)
         data)
  in
  let disjoint = render (List.map (fun r -> ("x" ^ List.hd r) :: List.tl r) data) in
  let fb = FB.create (Mem_store.create ()) in
  let import key doc = ok_fb (FB.import_csv fb ~key doc) in
  let value key = Value.descriptor (ok_fb (FB.get fb ~key)) in
  List.iter
    (fun (label, doc) ->
      ignore (import ("onto-" ^ label) doc);
      ignore (import ("onto-" ^ label) doc);
      ignore (import ("fresh-" ^ label) doc);
      if not (String.equal (value ("onto-" ^ label)) (value ("fresh-" ^ label))) then
        failwith ("csv: an import onto a head (" ^ label ^ ") gives another table than a fresh one"))
    [ ("edited", edited); ("disjoint", disjoint) ];
  let alternating key other =
    let flip = ref false in
    ignore (import key doc);
    fun () ->
      flip := not !flip;
      import key (if !flip then other else doc)
  in
  let fresh = ref 0 in
  let imports =
    [ ("fresh", fun () -> incr fresh; import (Printf.sprintf "new-%d" !fresh) doc);
      ("onto_head", alternating "h" edited);
      ("replace", alternating "r" disjoint) ]
  in
  let import_rows =
    List.map2
      (fun (label, _) ts ->
        let ms = quantile ts 0.5 in
        Printf.printf "Forkbase.import_csv %-28s %8.2f ms\n" label ms;
        (label, ms))
      imports
      (interleaved csv_reps (List.map (fun (_, f) () -> ignore (f ())) imports))
  in
  let import_ms label = List.assoc label import_rows in
  Printf.printf "onto a head with 8 rows edited: %.2fx the fresh import's speed; full replacement %.2fx its time\n"
    (import_ms "fresh" /. import_ms "onto_head") (import_ms "replace" /. import_ms "fresh");
  (* --- 6. varint decoding allocates nothing --- *)
  let varints = 100_000 in
  let vbuf =
    let w = Fb_codec.Codec.writer () in
    for i = 0 to varints - 1 do Fb_codec.Codec.varint w (((i * 0x1E3779B97F4A7C15) land max_int) lsr (i mod 63)) done;
    Fb_codec.Codec.contents w
  in
  let r = Fb_codec.Codec.reader vbuf in
  let w0 = Gc.minor_words () in
  for _ = 1 to varints do ignore (Fb_codec.Codec.read_varint r) done;
  let words_per_varint = (Gc.minor_words () -. w0) /. float_of_int varints in
  Printf.printf "\nread_varint: %.2f minor words per call (%d calls)\n" words_per_varint varints;
  if words_per_varint >= 0.005 then
    failwith (Printf.sprintf "read_varint allocates %.2f words per call" words_per_varint);
  (* --- 7. edits of a large map: update and a three-way merge --- *)
  (* fbperf sync's shapes: base values are 8 seeded letters; an update is
     1,000 edits, half a contiguous run and half scattered; the merge takes
     such an update (theirs) into a branch that changed every 10,000th
     record (ours). *)
  let records = if quick then 100_000 else 1_000_000 in
  let edit_reps = if quick then 3 else 21 in
  let ekey i = Printf.sprintf "r%07d" i in
  let letters rng n = String.init n (fun _ -> Char.chr (97 + Prng.next_int rng 26)) in
  let edit_store = Mem_store.create () in
  let map0, build_ms =
    time_ms (fun () ->
        Pmap.build_sorted_seq edit_store
          (Seq.init records (fun i ->
               Pmap.binding (ekey i) (letters (Prng.create (Int64.of_int (i + 1))) 8))))
  in
  let rng = Prng.create 7L in
  let reserved i = i mod 10_000 = 5_000 in
  let edits =
    let start = Prng.next_int rng (records - 2_000) in
    let run = List.filter (fun i -> not (reserved i)) (List.init 510 (fun j -> start + j)) in
    let run = List.filteri (fun j _ -> j < 500) run in
    let rec scattered acc n =
      if n = 0 then acc
      else
        let i = Prng.next_int rng records in
        if reserved i || List.mem i acc || List.mem i run then scattered acc n
        else scattered (i :: acc) (n - 1)
    in
    List.map
      (fun i -> Pmap.Put (Pmap.binding (ekey i) ("e-" ^ letters rng 4)))
      (List.sort compare (run @ scattered [] 500))
  in
  let curated =
    List.init (records / 10_000) (fun j ->
        Pmap.Put (Pmap.binding (ekey ((j * 10_000) + 5_000)) ("c-" ^ letters rng 6)))
  in
  let theirs = Pmap.update map0 edits in
  let ours = Pmap.update map0 curated in
  let merge () =
    match Pmap.merge ~base:map0 ~ours ~theirs () with
    | Ok m -> m
    | Error _ -> failwith "edit: unexpected conflict"
  in
  let merged = merge () in
  let changed = Hashtbl.create 2_000 in
  List.iter
    (function Pmap.Put b -> Hashtbl.replace changed b.Pmap.key b.Pmap.value | Pmap.Remove _ -> ())
    (curated @ edits);
  let rebuilt =
    Pmap.of_bindings edit_store
      (List.map
         (fun (k, v) -> (k, Option.value (Hashtbl.find_opt changed k) ~default:v))
         (Pmap.bindings map0))
  in
  if not (Option.equal Hash.equal (Pmap.root merged) (Pmap.root rebuilt)) then
    failwith "edit: the merged root is not build's over the merged records";
  let s0 = Store.stats edit_store in
  ignore (merge ());
  let s1 = Store.stats edit_store in
  let merge_gets = s1.Store.gets - s0.Store.gets and merge_puts = s1.Store.puts - s0.Store.puts in
  let edit_rows =
    List.map2
      (fun label ts -> (label, (quantile ts 0.5, quantile ts 0.25, quantile ts 0.75)))
      [ "update"; "merge" ]
      (interleaved edit_reps
         [ (fun () -> ignore (Pmap.update map0 edits)); (fun () -> ignore (merge ())) ])
  in
  Printf.printf
    "\nedits of a %d-record map (%d leaves, built in %.0f ms), ms over %d warmed runs:\n"
    records (List.length (Pmap.leaf_hashes map0)) build_ms edit_reps;
  List.iter
    (fun (label, (p50, q1, q3)) ->
      Printf.printf "%-24s p50 %7.2f   IQR %6.2f-%-6.2f\n" label p50 q1 q3)
    edit_rows;
  Printf.printf "merge store traffic: %d gets, %d puts; merged root = build's\n" merge_gets
    merge_puts;
  (* --- 8. log reads: a 2.4 KB page-cache read alone, beside a runnable
     OCaml thread, and of a record just appended --- *)
  (* A read that gives up the runtime lock beside a runnable thread waits
     for that thread to hand it back; the log's first read keeps it.
     Each figure is the median over batches of the mean us per read of a
     batch, so a tick of the busy thread that lands in one batch moves no
     median. *)
  let module Log_store = Fb_chunk.Log_store in
  let log_root =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "fb_bench_hotpath_log_%d" (Unix.getpid ()))
  in
  let rm_log () = ignore (Sys.command ("rm -rf " ^ Filename.quote log_root)) in
  rm_log ();
  let log =
    Log_store.create ~config:{ Log_store.default_config with fsync = false } ~root:log_root ()
  in
  let ls = Log_store.store log in
  let record i =
    Fb_chunk.Chunk.v Fb_chunk.Chunk.Leaf_blob (rand_string (Int64.of_int (7_000 + i)) 2_400)
  in
  let held = 256 in
  let held_ids = Array.init held (fun i -> Store.put ls (record i)) in
  Log_store.sync log;
  let batch = 16 and batches = if quick then 15 else 61 in
  let read_us targets =
    let rng = Prng.create 0x10aL in
    let once () =
      let ids = targets rng in
      let t0 = Unix.gettimeofday () in
      List.iter
        (fun id -> if ls.Store.get_raw id = None then failwith "log read: a record is missing")
        ids;
      (Unix.gettimeofday () -. t0) *. 1e6 /. float_of_int batch
    in
    ignore (once ());
    quantile (Array.of_list (List.sort compare (List.init batches (fun _ -> once ())))) 0.5
  in
  let cached rng = List.init batch (fun _ -> held_ids.(Prng.next_int rng held)) in
  let appended = ref held in
  let just_appended _ =
    List.init batch (fun _ ->
        incr appended;
        Store.put ls (record !appended))
  in
  let fallbacks = Obs.counter "fb.log.read_fallbacks" in
  let f0 = Obs.counter_value fallbacks in
  let alone_us = read_us cached in
  let fast_reads = Obs.counter_value fallbacks - f0 < batch * batches in
  let beside_us =
    let stop = Atomic.make false in
    let busy = Thread.create (fun () -> while not (Atomic.get stop) do () done) () in
    Fun.protect
      ~finally:(fun () ->
        Atomic.set stop true;
        Thread.join busy)
      (fun () -> read_us cached)
  in
  let fresh_us = read_us just_appended in
  Log_store.close log;
  rm_log ();
  Printf.printf
    "\nlog read of 2.4 KB from the page cache: alone %.2f us, beside a runnable thread %.2f us \
     (%.1fx), just appended %.2f us\n"
    alone_us beside_us (beside_us /. alone_us) fresh_us;
  if not fast_reads then
    Printf.printf "(no nonblocking read here: every read fell back; the beside-thread gate is off)\n"
  else if beside_us > 20.0 *. alone_us then
    failwith
      (Printf.sprintf "a log read beside a runnable thread costs %.0fx one alone (gate: 20x)"
         (beside_us /. alone_us));
  if not quick then begin
    let json =
      Printf.sprintf
        "{\"sha256_kernel\":\"%s\",\n\
         \"sha256\":[%s],\n\
         \"crc32\":[%s],\n\
         \"chunker\":{\"per_char_mb_s\":%.1f,\"fast_mb_s\":%.1f,\
         \"speedup\":%.2f},\n\
         \"tree\":{\"entries\":%d,\"lookups\":%d,\n\
        \  \"cache_off\":{\"lookup_p50_us\":%.2f,\"lookup_p99_us\":%.2f,\
         \"diff_ms\":%.3f,\"merge_ms\":%.3f},\n\
        \  \"cache_on\":{\"lookup_p50_us\":%.2f,\"lookup_p99_us\":%.2f,\
         \"diff_ms\":%.3f,\"merge_ms\":%.3f},\n\
        \  \"lookup_p50_speedup\":%.2f},\n\
         \"csv\":{\"rows\":5000,\"bytes\":%d,\"reps\":%d,%s,\
         \"forkbase_import_csv_ms\":{%s}},\n\
         \"read_varint_minor_words\":%.2f,\n\
         \"edit\":{\"records\":%d,\"reps\":%d,%s,\
         \"merge_gets\":%d,\"merge_puts\":%d},\n\
         \"log_read_us\":{\"bytes\":2400,\"alone\":%.2f,\"beside_thread\":%.2f,\
         \"just_appended\":%.2f,\"nonblocking\":%b}}\n"
        active
        (String.concat ","
           (List.map
              (fun (size, ref_mb, ocaml_mb, native_mb) ->
                Printf.sprintf
                  "{\"buffer\":%d,\"ref_mb_s\":%.1f,\"ocaml_mb_s\":%.1f,\
                   \"native_mb_s\":%s}"
                  size ref_mb ocaml_mb
                  (match native_mb with
                   | Some m -> Printf.sprintf "%.1f" m
                   | None -> "null"))
              sha_rows))
        (String.concat ","
           (List.map
              (fun (size, ref_mb, native_mb) ->
                Printf.sprintf
                  "{\"buffer\":%d,\"ref_mb_s\":%.1f,\"native_mb_s\":%.1f,\
                   \"speedup\":%.2f}"
                  size ref_mb native_mb (native_mb /. ref_mb))
              crc_rows))
        slow_mb fast_mb (fast_mb /. slow_mb) n lookups off_p50 off_p99
        off_diff off_merge on_p50 on_p99 on_diff on_merge (off_p50 /. on_p50)
        (String.length doc) csv_reps
        (String.concat ","
           (List.map
              (fun (label, ref_ms, new_ms) ->
                Printf.sprintf
                  "\"%s\":{\"ref_ms\":%.2f,\"ms\":%.2f,\"ref_mb_s\":%.1f,\"mb_s\":%.1f,\
                   \"speedup\":%.2f}"
                  label ref_ms new_ms (doc_mb ref_ms) (doc_mb new_ms) (ref_ms /. new_ms))
              csv_rows))
        (String.concat ","
           (List.map (fun (label, ms) -> Printf.sprintf "\"%s\":%.2f" label ms) import_rows))
        words_per_varint records edit_reps
        (String.concat ","
           (List.map
              (fun (label, (p50, q1, q3)) ->
                Printf.sprintf "\"%s_ms\":{\"p50\":%.2f,\"q1\":%.2f,\"q3\":%.2f}" label p50 q1
                  q3)
              edit_rows))
        merge_gets merge_puts alone_us beside_us fresh_us fast_reads
    in
    let oc = open_out "BENCH_hotpath.json" in
    output_string oc json;
    close_out oc;
    Printf.printf "\nmachine-readable results written to BENCH_hotpath.json\n"
  end

(* ------------------------------------------------------------------ *)
(* net: N concurrent TCP clients against the framed service.          *)
(* ------------------------------------------------------------------ *)

let run_net ?(quick = false) () =
  header
    (if quick then "net-quick: framed TCP smoke (server + client round trip)"
     else "net: concurrent framed TCP service (mixed put/get/branch/merge)");
  let fb = FB.create (Fb_chunk.Metered_store.wrap (Mem_store.create ())) in
  let config =
    { Fb_net.Server.default_config with
      port = 0; read_timeout_s = 30.0 }
  in
  let srv =
    match Fb_net.Server.start ~config fb with
    | Ok s -> s
    | Error e -> failwith ("net bench: " ^ e)
  in
  let port = Fb_net.Server.port srv in
  let clients = if quick then 2 else 8 in
  let per_client = if quick then 30 else 250 in
  let errors = Atomic.make 0 in
  let lat_lock = Mutex.create () in
  let latencies : (string, float list ref) Hashtbl.t = Hashtbl.create 8 in
  let record verb dt =
    Mutex.protect lat_lock (fun () ->
        match Hashtbl.find_opt latencies verb with
        | Some l -> l := dt :: !l
        | None -> Hashtbl.replace latencies verb (ref [ dt ]))
  in
  let ops_done = Atomic.make 0 in
  let worker cid =
    match Fb_net.Mux.connect ~port ~user:(Printf.sprintf "bench%d" cid) ()
    with
    | Error e ->
      Atomic.incr errors;
      prerr_endline ("client connect failed: " ^ Fb_net.Client.error_to_string e)
    | Ok c ->
      let req verb tokens =
        let t0 = Unix.gettimeofday () in
        let r = Fb_net.Mux.request c tokens in
        record verb (Unix.gettimeofday () -. t0);
        Atomic.incr ops_done;
        match r with
        | Ok payload -> payload
        | Error e ->
          Atomic.incr errors;
          "ERR " ^ Fb_net.Client.error_to_string e
      in
      let key = Printf.sprintf "k%d" cid in
      for i = 0 to per_client - 1 do
        let v = Printf.sprintf "value-%d-%d" cid i in
        ignore (req "put" [ "put"; key; "master"; v ]);
        let got = req "get" [ "get"; key; "master" ] in
        if got <> v then Atomic.incr errors;
        ignore (req "head" [ "head"; key; "master" ]);
        if i mod 10 = 0 then begin
          let b = Printf.sprintf "dev%d" i in
          ignore (req "branch" [ "branch"; key; "master"; b ]);
          ignore
            (req "put" [ "put"; key; b; Printf.sprintf "side-%d-%d" cid i ]);
          (* Master has not moved since the fork, so this merge is a
             clean fast-forward on every iteration. *)
          ignore (req "merge" [ "merge"; key; "master"; b ])
        end
      done;
      Fb_net.Mux.close c
  in
  let t0 = Unix.gettimeofday () in
  let threads = List.init clients (fun cid -> Thread.create worker cid) in
  List.iter Thread.join threads;
  let wall = Unix.gettimeofday () -. t0 in
  let total = Atomic.get ops_done in
  let ops_per_s = float_of_int total /. wall in
  Printf.printf "%d clients x %d iterations: %d requests in %.2f s = %.0f ops/s\n"
    clients per_client total wall ops_per_s;
  let percentile sorted q =
    let n = Array.length sorted in
    if n = 0 then 0.0
    else sorted.(min (n - 1) (int_of_float (q *. float_of_int n)))
  in
  let verb_rows =
    List.filter_map
      (fun verb ->
        match Hashtbl.find_opt latencies verb with
        | None -> None
        | Some l ->
          let a = Array.of_list !l in
          Array.sort compare a;
          Some (verb, Array.length a, percentile a 0.5, percentile a 0.99))
      [ "put"; "get"; "head"; "branch"; "merge" ]
  in
  List.iter
    (fun (verb, n, p50, p99) ->
      Printf.printf "%-8s n=%-6d p50 %8.1f us   p99 %8.1f us\n" verb n
        (1e6 *. p50) (1e6 *. p99))
    verb_rows;
  Printf.printf "errors: %d\n" (Atomic.get errors);
  (* Graceful shutdown must leave nothing listening. *)
  Fb_net.Server.stop srv;
  let gone =
    match Fb_net.Mux.connect ~port ~timeout_s:1.0 () with
    | Error _ -> true
    | Ok c ->
      (* Accept queue leftovers can win the connect race; a request must
         still fail against a stopped server. *)
      let dead = Result.is_error (Fb_net.Mux.request c [ "stat" ]) in
      Fb_net.Mux.close c;
      dead
  in
  if not gone then failwith "net bench: server still answering after stop";
  if Atomic.get errors > 0 then
    failwith
      (Printf.sprintf "net bench: %d dropped/corrupt responses"
         (Atomic.get errors));
  Printf.printf "clean shutdown: port no longer serving\n";
  if not quick then begin
    let b = Buffer.create 512 in
    Printf.bprintf b
      "{\"clients\":%d,\"iterations\":%d,\"requests\":%d,\"seconds\":%.3f,\
       \"ops_per_s\":%.1f,\"errors\":%d,\"verbs\":{" clients per_client total
      wall ops_per_s (Atomic.get errors);
    List.iteri
      (fun i (verb, n, p50, p99) ->
        Printf.bprintf b "%s\"%s\":{\"n\":%d,\"p50_us\":%.1f,\"p99_us\":%.1f}"
          (if i > 0 then "," else "")
          verb n (1e6 *. p50) (1e6 *. p99))
      verb_rows;
    Buffer.add_string b "}}\n";
    let oc = open_out "BENCH_net_mixed.json" in
    Buffer.output_buffer oc b;
    close_out oc;
    Printf.printf "machine-readable results written to BENCH_net_mixed.json\n"
  end

(* ------------------------------------------------------------------ *)
(* net-scaling: concurrency of the striped read/write server layer.   *)
(*   1. read-only throughput as the reader count sweeps 1 -> 8        *)
(*   2. 32-op BATCH frames vs. 32 single round trips                  *)
(* ------------------------------------------------------------------ *)

(* Chunk reads with device latency: every get / liveness probe blocks for
   [delay_s], the way a cold NVMe, networked or cloud store would.  The
   blocking releases the OCaml runtime lock, so whether concurrent
   requests overlap those waits is decided purely by the server's lock
   discipline — exactly the variable this experiment isolates (and the
   only one measurable on a single-core host, where pure in-memory verbs
   are CPU-bound and no lock design can scale them). *)
let net_scaling_delay_s = 0.0003

let slow_store ~delay_s (inner : Fb_chunk.Store.t) =
  let d f x =
    Thread.delay delay_s;
    f x
  in
  { inner with
    Fb_chunk.Store.name = "slow+" ^ inner.Fb_chunk.Store.name;
    get = d inner.Fb_chunk.Store.get;
    get_raw = d inner.Fb_chunk.Store.get_raw;
    mem = d inner.Fb_chunk.Store.mem }

let run_net_scaling ?(quick = false) () =
  header
    (if quick then "net-scaling-quick: striped server concurrency smoke"
     else
       Printf.sprintf
         "net-scaling: reader sweep, batching (simulated %.0f us storage \
          latency)"
         (1e6 *. net_scaling_delay_s));
  let errors = Atomic.make 0 in
  let with_server ?(slow = false) f =
    let store = Fb_chunk.Metered_store.wrap (Mem_store.create ()) in
    let store =
      if slow then slow_store ~delay_s:net_scaling_delay_s store else store
    in
    let fb = FB.create store in
    let config =
      { Fb_net.Server.default_config with
        port = 0; read_timeout_s = 30.0 }
    in
    match Fb_net.Server.start ~config fb with
    | Error e -> failwith ("net-scaling: " ^ e)
    | Ok srv ->
      Fun.protect
        ~finally:(fun () -> Fb_net.Server.stop srv)
        (fun () -> f (Fb_net.Server.port srv))
  in
  let connect port cid =
    match
      Fb_net.Mux.connect ~port ~user:(Printf.sprintf "c%d" cid) ()
    with
    | Ok c -> c
    | Error e ->
      failwith ("net-scaling connect: " ^ Fb_net.Client.error_to_string e)
  in
  let request c tokens =
    match Fb_net.Mux.request c tokens with
    | Ok payload -> payload
    | Error _ ->
      Atomic.incr errors;
      ""
  in
  let keys = 16 in
  let key i = Printf.sprintf "k%d" i in
  let populate port =
    let c = connect port 0 in
    for i = 0 to keys - 1 do
      ignore (request c [ "put"; key i; "master"; "v-" ^ key i ])
    done;
    Fb_net.Mux.close c
  in

  (* 1. reader sweep: n clients, each issuing GETs against its own key
     (distinct stripes), fixed ops per client.  Each GET blocks on the
     simulated storage latency; under the shared read side those waits
     overlap, so throughput grows with the reader count. *)
  let reads_per_client = if quick then 100 else 800 in
  let reader_sweep = if quick then [ 1; 4 ] else [ 1; 2; 4; 8 ] in
  let sweep_results =
    with_server ~slow:true (fun port ->
        populate port;
        List.map
          (fun n ->
            let run () =
              let t0 = Unix.gettimeofday () in
              let threads =
                List.init n (fun cid ->
                    Thread.create
                      (fun () ->
                        let c = connect port cid in
                        let k = key (cid mod keys) in
                        let expect = "v-" ^ k in
                        for _ = 1 to reads_per_client do
                          if request c [ "get"; k; "master" ] <> expect then
                            Atomic.incr errors
                        done;
                        Fb_net.Mux.close c)
                      ())
              in
              List.iter Thread.join threads;
              float_of_int (n * reads_per_client)
              /. (Unix.gettimeofday () -. t0)
            in
            (* Two runs, keep the better: the first warms threads,
               sockets and the minor heap. *)
            let ops_per_s = max (run ()) (run ()) in
            Printf.printf "readers=%d  %8.0f ops/s\n%!" n ops_per_s;
            (n, ops_per_s))
          reader_sweep)
  in
  let sweep_ops n = List.assoc n sweep_results in
  let read_scaling =
    match reader_sweep with
    | first :: _ ->
      let last = List.hd (List.rev reader_sweep) in
      sweep_ops last /. sweep_ops first
    | [] -> 1.0
  in
  Printf.printf "read-only scaling %dx clients: %.2fx throughput\n"
    (List.hd (List.rev reader_sweep))
    read_scaling;

  (* 2. batching: 32 GETs per frame vs 32 single round trips. *)
  let batch_size = 32 in
  let rounds = if quick then 10 else 100 in
  let single_ops_per_s, batch_ops_per_s =
    with_server (fun port ->
        populate port;
        let c = connect port 0 in
        let gets =
          List.init batch_size (fun i -> [ "get"; key (i mod keys); "master" ])
        in
        let t0 = Unix.gettimeofday () in
        for _ = 1 to rounds do
          List.iter (fun g -> ignore (request c g)) gets
        done;
        let single = Unix.gettimeofday () -. t0 in
        let t0 = Unix.gettimeofday () in
        for _ = 1 to rounds do
          match Fb_net.Mux.batch c gets with
          | Ok replies ->
            List.iter
              (function Ok _ -> () | Error _ -> Atomic.incr errors)
              replies
          | Error _ -> Atomic.incr errors
        done;
        let batched = Unix.gettimeofday () -. t0 in
        Fb_net.Mux.close c;
        let total = float_of_int (batch_size * rounds) in
        (total /. single, total /. batched))
  in
  let batch_speedup = batch_ops_per_s /. single_ops_per_s in
  Printf.printf
    "batch(%d): %8.0f sub-ops/s   unbatched: %8.0f ops/s   speedup %.2fx\n"
    batch_size batch_ops_per_s single_ops_per_s batch_speedup;
  Printf.printf "errors: %d\n" (Atomic.get errors);
  if Atomic.get errors > 0 then
    failwith
      (Printf.sprintf "net-scaling: %d failed/corrupt responses"
         (Atomic.get errors));
  if not quick then begin
    let b = Buffer.create 512 in
    Printf.bprintf b "{\"simulated_storage_latency_us\":%.0f,\"reader_sweep\":["
      (1e6 *. net_scaling_delay_s);
    List.iteri
      (fun i (n, ops) ->
        Printf.bprintf b "%s{\"clients\":%d,\"ops_per_s\":%.1f}"
          (if i > 0 then "," else "") n ops)
      sweep_results;
    Printf.bprintf b
      "],\"read_scaling_8_over_1\":%.3f,\"batch_size\":%d,\
       \"batch_sub_ops_per_s\":%.1f,\"single_ops_per_s\":%.1f,\"batch_speedup\":%.3f,\"errors\":%d}\n"
      read_scaling batch_size batch_ops_per_s single_ops_per_s batch_speedup
      (Atomic.get errors);
    let oc = open_out "BENCH_net_scaling.json" in
    Buffer.output_buffer oc b;
    close_out oc;
    Printf.printf "machine-readable results written to BENCH_net_scaling.json\n"
  end

(* ------------------------------------------------------------------ *)
(* net-c10k: connection scalability of the event-loop engine against  *)
(* the thread-per-connection engine, plus single-connection request   *)
(* pipelining.  Three claims, measured:                                *)
(*   1. the event engine holds >= 10x the concurrent connections the   *)
(*      threaded engine sustains (which is select/thread-bound),       *)
(*   2. its active-request p99 stays flat (<= 1.5x) as idle            *)
(*      connections pile up,                                           *)
(*   3. pipelining depth 32 on one connection beats depth 1 by >= 5x.  *)
(* Writes BENCH_net.json.                                              *)
(* ------------------------------------------------------------------ *)

(* The soft RLIMIT_NOFILE, read from /proc (no getrlimit binding in the
   stdlib).  None on hosts without procfs: the guard then only skips
   nothing, and a genuinely capped host fails connect — visibly. *)
let fd_limit () =
  match open_in "/proc/self/limits" with
  | exception Sys_error _ -> None
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        let rec go () =
          match input_line ic with
          | exception End_of_file -> None
          | line ->
            if
              String.length line >= 14
              && String.equal (String.sub line 0 14) "Max open files"
            then
              match
                String.split_on_char ' ' line
                |> List.filter (fun s -> s <> "")
              with
              | "Max" :: "open" :: "files" :: soft :: _ ->
                int_of_string_opt soft
              | _ -> None
            else go ()
        in
        go ())

let percentile_ms lats p =
  match lats with
  | [] -> -1.0
  | _ ->
    let a = Array.of_list lats in
    Array.sort compare a;
    let n = Array.length a in
    let idx = int_of_float (ceil (p /. 100.0 *. float_of_int n)) - 1 in
    1000.0 *. a.(max 0 (min (n - 1) idx))

type c10k_point = {
  ck_mode : string;
  ck_conns : int;
  ck_established : int;
  ck_alive : int;
  ck_p99_ms : float;
  ck_ops_per_s : float;
  ck_events : int;
  ck_errors : int;
  ck_sustained : bool;
}

let run_net_c10k ?(quick = false) () =
  header
    (if quick then "net-c10k-quick: event vs threaded connection smoke"
     else
       "net-c10k: idle+active connection sweep (event vs threaded), \
        pipelined depth 1/8/32");
  let limit = fd_limit () in
  (match limit with
   | Some l -> Printf.printf "fd limit (ulimit -n): %d\n" l
   | None -> Printf.printf "fd limit: unknown (no /proc/self/limits)\n");
  let with_server mode f =
    let fb = FB.create (Mem_store.create ()) in
    let config =
      { Fb_net.Server.default_config with
        port = 0; read_timeout_s = 120.0;
        backlog = 1024; mode }
    in
    match Fb_net.Server.start ~config fb with
    | Error e -> failwith ("net-c10k: " ^ e)
    | Ok srv ->
      Fun.protect
        ~finally:(fun () -> Fb_net.Server.stop srv)
        (fun () -> f (Fb_net.Server.port srv))
  in
  (* timeout_s = 0 disables every select-based deadline in the client, so
     the bench process itself has no FD_SETSIZE ceiling; the servers
     under test keep their own discipline (which is the thing measured). *)
  let connect port =
    match Fb_net.Mux.connect ~port ~user:"bench" ~timeout_s:0.0 () with
    | Ok c -> Some c
    | Error _ -> None
  in
  (* Idle connections are bare dialed sockets: a Mux per idle socket
     would add a reader thread each to the process under test. *)
  let dial port =
    match Fb_net.Client.dial ~port ~timeout_s:0.0 () with
    | Ok fd -> Some fd
    | Error _ -> None
  in
  (* One untagged round trip on a bare socket. *)
  let probe fd =
    let frame =
      Fb_net.Frame.request_frame ~user:"bench"
        (Fb_net.Frame.Single [ "get"; "k0"; "master" ])
    in
    match
      Result.bind (Fb_net.Frame.send_frame fd frame) (fun () ->
          Fb_net.Frame.read_frame (Fb_net.Frame.reader ()) fd)
    with
    | Ok payload -> (
      match Fb_net.Frame.decode_response payload with
      | Ok (_, _, Fb_net.Frame.One (Ok _)) -> true
      | _ -> false)
    | Error _ -> false
    | exception Unix.Unix_error _ -> false
  in
  let mode_name = function `Event -> "event" | `Threaded -> "threaded" in
  let active_reqs = if quick then 50 else 300 in
  let hot_writes = if quick then 10 else 50 in
  let point mode port n =
    (* Hold [n] idle connections open for the duration of the point. *)
    let idles = Array.init n (fun _ -> dial port) in
    let established =
      Array.fold_left
        (fun acc -> function Some _ -> acc + 1 | None -> acc)
        0 idles
    in
    let errors = Atomic.make 0 in
    let lat_mu = Mutex.create () in
    let lats = ref [] in
    (* SUBSCRIBE under load (event engine only): one pushed watch while
       the getters hammer and a writer moves a branch head. *)
    let events_seen = Atomic.make 0 in
    let sub =
      if mode = `Event then
        match
          Fb_net.Mux.connect ~port ~user:"bench" ~timeout_s:0.0 ()
        with
        | Error _ ->
          Atomic.incr errors;
          None
        | Ok mux -> (
          match
            Fb_net.Mux.subscribe ~key:"hot" mux (fun _ _ ->
                Atomic.incr events_seen)
          with
          | Ok _ -> Some mux
          | Error _ ->
            Atomic.incr errors;
            Fb_net.Mux.close mux;
            None)
      else None
    in
    let t0 = Unix.gettimeofday () in
    let getters =
      List.init 4 (fun _ ->
          Thread.create
            (fun () ->
              match connect port with
              | None -> Atomic.incr errors
              | Some c ->
                let mine = ref [] in
                (* Unmeasured warmup: first round trips pay connection
                   and thread ramp-up, not steady-state latency. *)
                for _ = 1 to 10 do
                  ignore (Fb_net.Mux.request c [ "get"; "k0"; "master" ])
                done;
                for _ = 1 to active_reqs do
                  let r0 = Unix.gettimeofday () in
                  match Fb_net.Mux.request c [ "get"; "k0"; "master" ] with
                  | Ok _ -> mine := (Unix.gettimeofday () -. r0) :: !mine
                  | Error _ -> Atomic.incr errors
                done;
                Mutex.protect lat_mu (fun () -> lats := !mine @ !lats);
                Fb_net.Mux.close c)
            ())
    in
    let writer =
      Thread.create
        (fun () ->
          match connect port with
          | None -> Atomic.incr errors
          | Some c ->
            for i = 1 to hot_writes do
              match
                Fb_net.Mux.request c
                  [ "put"; "hot"; "master"; Printf.sprintf "h%d" i ]
              with
              | Ok _ -> ()
              | Error _ -> Atomic.incr errors
            done;
            Fb_net.Mux.close c)
        ()
    in
    List.iter Thread.join getters;
    Thread.join writer;
    let elapsed = Unix.gettimeofday () -. t0 in
    let ok_gets = List.length !lats in
    (match sub with
     | Some mux ->
       (* Give the last push a beat to arrive before tearing down. *)
       let deadline = Unix.gettimeofday () +. 2.0 in
       while
         Atomic.get events_seen < hot_writes
         && Unix.gettimeofday () < deadline
       do
         Thread.delay 0.02
       done;
       Fb_net.Mux.close mux
     | None -> ());
    (* Probe every idle connection: a round trip proves the server still
       owns the socket (the threaded engine silently drops connections
       past its select ceiling). *)
    let alive = ref 0 in
    Array.iter
      (function
        | None -> ()
        | Some fd ->
          if probe fd then incr alive;
          (try Unix.close fd with Unix.Unix_error _ -> ()))
      idles;
    let p99 = percentile_ms !lats 99.0 in
    let pt =
      { ck_mode = mode_name mode;
        ck_conns = n;
        ck_established = established;
        ck_alive = !alive;
        ck_p99_ms = p99;
        ck_ops_per_s =
          (if elapsed > 0.0 then float_of_int ok_gets /. elapsed else 0.0);
        ck_events = Atomic.get events_seen;
        ck_errors = Atomic.get errors;
        ck_sustained =
          established = n && !alive = n && Atomic.get errors = 0 }
    in
    Printf.printf
      "%-8s conns=%-5d held=%d/%d  p99=%6.2f ms  %8.0f gets/s  \
       events=%d/%d%s\n%!"
      pt.ck_mode n pt.ck_alive n pt.ck_p99_ms pt.ck_ops_per_s pt.ck_events
      (if mode = `Event then hot_writes else 0)
      (if pt.ck_sustained then "" else "  [NOT SUSTAINED]");
    pt
  in
  let shared_points = if quick then [ 1; 64 ] else [ 1; 64; 256; 1024 ] in
  let event_points =
    shared_points @ (if quick then [ 256 ] else [ 4096; 8192 ])
  in
  (* Every connection costs two fds in-process (client end + server
     end); skip points the rlimit cannot fit instead of dying on EMFILE. *)
  let fits n =
    match limit with None -> true | Some l -> (2 * n) + 128 <= l
  in
  let run_mode mode points =
    with_server mode (fun port ->
        (match connect port with
         | Some c ->
           ignore (Fb_net.Mux.request c [ "put"; "k0"; "master"; "v0" ]);
           ignore (Fb_net.Mux.request c [ "put"; "hot"; "master"; "h0" ]);
           Fb_net.Mux.close c
         | None -> failwith "net-c10k: populate connect failed");
        List.filter_map
          (fun n ->
            if fits n then Some (point mode port n)
            else begin
              Printf.printf
                "%-8s conns=%-5d skipped (needs %d fds, limit %s)\n"
                (mode_name mode) n
                ((2 * n) + 128)
                (match limit with
                 | Some l -> string_of_int l
                 | None -> "unknown")
              ;
              None
            end)
          points)
  in
  let threaded = run_mode `Threaded shared_points in
  let event = run_mode `Event event_points in
  let max_sustained pts =
    List.fold_left
      (fun acc p -> if p.ck_sustained then max acc p.ck_conns else acc)
      0 pts
  in
  let threaded_max = max_sustained threaded in
  let event_max = max_sustained event in
  let conn_ratio =
    if threaded_max > 0 then
      float_of_int event_max /. float_of_int threaded_max
    else infinity
  in
  let p99_at pts n =
    List.find_map
      (fun p -> if p.ck_conns = n && p.ck_p99_ms >= 0.0 then Some p.ck_p99_ms
                else None)
      pts
  in
  let event_base_p99 = p99_at event (List.hd event_points) in
  let event_max_p99 = p99_at event event_max in
  let p99_flatness =
    match event_base_p99, event_max_p99 with
    | Some b, Some m when b > 0.0 -> m /. b
    | _ -> nan
  in
  Printf.printf
    "max sustained: event %d conns, threaded %d conns (%.1fx); event p99 \
     %s -> %s ms across the sweep (%.2fx)\n"
    event_max threaded_max conn_ratio
    (match event_base_p99 with Some v -> Printf.sprintf "%.2f" v | None -> "?")
    (match event_max_p99 with Some v -> Printf.sprintf "%.2f" v | None -> "?")
    p99_flatness;

  (* Pipelining: one mux connection, a window of [depth] tagged requests
     kept in flight; depth 1 degenerates to strict request/response.
     The store carries the same simulated device latency as net-scaling:
     on a single-core host a pure in-memory get is CPU-bound, so whether
     the pipeline overlaps anything is decided by whether requests block
     on storage — the variable this leg isolates.  Depth 1 pays the full
     storage wait per round trip; deeper windows overlap those waits
     across the worker pool. *)
  let pipeline_total = if quick then 400 else 4_000 in
  let pipeline_depths = [ 1; 8; 32 ] in
  let with_pipeline_server f =
    let store =
      slow_store ~delay_s:net_scaling_delay_s
        (Fb_chunk.Metered_store.wrap (Mem_store.create ()))
    in
    let fb = FB.create store in
    let config =
      { Fb_net.Server.default_config with
        port = 0; read_timeout_s = 120.0;
        backlog = 1024; mode = `Event; workers = 8 }
    in
    match Fb_net.Server.start ~config fb with
    | Error e -> failwith ("net-c10k: " ^ e)
    | Ok srv ->
      Fun.protect
        ~finally:(fun () -> Fb_net.Server.stop srv)
        (fun () -> f (Fb_net.Server.port srv))
  in
  let pipeline_results =
    with_pipeline_server (fun port ->
        (match connect port with
         | Some c ->
           ignore (Fb_net.Mux.request c [ "put"; "k0"; "master"; "v0" ]);
           Fb_net.Mux.close c
         | None -> failwith "net-c10k: populate connect failed");
        match Fb_net.Mux.connect ~port ~user:"bench" ~timeout_s:0.0 () with
        | Error e ->
          failwith ("net-c10k mux: " ^ Fb_net.Client.error_to_string e)
        | Ok mux ->
          Fun.protect
            ~finally:(fun () -> Fb_net.Mux.close mux)
            (fun () ->
              List.map
                (fun depth ->
                  let inflight = Queue.create () in
                  let failed = ref 0 in
                  let await_one () =
                    match Fb_net.Mux.await mux (Queue.pop inflight) with
                    | Ok (Fb_net.Frame.One (Ok _)) -> ()
                    | _ -> incr failed
                  in
                  let t0 = Unix.gettimeofday () in
                  for _ = 1 to pipeline_total do
                    if Queue.length inflight >= depth then await_one ();
                    match
                      Fb_net.Mux.send mux
                        (Fb_net.Frame.Single [ "get"; "k0"; "master" ])
                    with
                    | Ok ticket -> Queue.push ticket inflight
                    | Error _ -> incr failed
                  done;
                  while not (Queue.is_empty inflight) do
                    await_one ()
                  done;
                  let ops =
                    float_of_int pipeline_total
                    /. (Unix.gettimeofday () -. t0)
                  in
                  if !failed > 0 then
                    failwith
                      (Printf.sprintf "net-c10k: %d pipelined failures"
                         !failed);
                  Printf.printf "pipeline depth=%-3d  %8.0f ops/s\n%!" depth
                    ops;
                  (depth, ops))
                pipeline_depths))
  in
  let depth_ops d = List.assoc d pipeline_results in
  let pipeline_speedup = depth_ops 32 /. depth_ops 1 in
  Printf.printf "pipelining speedup depth-32 over depth-1: %.2fx\n"
    pipeline_speedup;
  (* The event engine must be spotless: any error or dropped connection
     on its side of the sweep is a real regression, not a limitation
     being documented. *)
  List.iter
    (fun p ->
      if not p.ck_sustained then
        failwith
          (Printf.sprintf
             "net-c10k: event engine failed to sustain %d connections \
              (held %d, errors %d)"
             p.ck_conns p.ck_alive p.ck_errors))
    event;
  if not quick then begin
    let b = Buffer.create 1024 in
    let backend =
      let probe = Fb_net.Ev.create () in
      let name = Fb_net.Ev.backend_name probe in
      Fb_net.Ev.close probe;
      name
    in
    Printf.bprintf b "{\"fd_limit\":%s,\"backend\":\"%s\",\"sweep\":["
      (match limit with Some l -> string_of_int l | None -> "null")
      backend;
    List.iteri
      (fun i p ->
        Printf.bprintf b
          "%s{\"mode\":\"%s\",\"conns\":%d,\"established\":%d,\"alive\":%d,\
           \"p99_ms\":%.3f,\"gets_per_s\":%.1f,\"events_pushed\":%d,\
           \"errors\":%d,\"sustained\":%b}"
          (if i > 0 then "," else "")
          p.ck_mode p.ck_conns p.ck_established p.ck_alive p.ck_p99_ms
          p.ck_ops_per_s p.ck_events p.ck_errors p.ck_sustained)
      (threaded @ event);
    Printf.bprintf b
      "],\"threaded_max_sustained\":%d,\"event_max_sustained\":%d,\
       \"conn_ratio\":%.2f,\"event_p99_flatness\":%.3f,\"pipeline\":["
      threaded_max event_max conn_ratio p99_flatness;
    List.iteri
      (fun i (d, ops) ->
        Printf.bprintf b "%s{\"depth\":%d,\"ops_per_s\":%.1f}"
          (if i > 0 then "," else "")
          d ops)
      pipeline_results;
    Printf.bprintf b "],\"pipeline_speedup_32_over_1\":%.3f}\n"
      pipeline_speedup;
    let oc = open_out "BENCH_net.json" in
    Buffer.output_buffer oc b;
    close_out oc;
    Printf.printf "machine-readable results written to BENCH_net.json\n"
  end

(* ------------------------------------------------------------------ *)
(* Durability: sustained fully-durable puts through the append-only    *)
(* pack log (group commit) vs the directory backend (one fsync per     *)
(* chunk), recovery time with and without a checkpoint, and a crash-   *)
(* matrix smoke.  Writes BENCH_durability.json.                        *)
(* ------------------------------------------------------------------ *)

module Log_store = Fb_chunk.Log_store

(* ~1 KiB payload, unique per [i] so nothing dedups away. *)
let durability_blob i =
  let head = Printf.sprintf "durability-%08d-" i in
  let pad = String.make (1024 - String.length head) (Char.chr (97 + (i mod 26))) in
  Fb_chunk.Chunk.v Fb_chunk.Chunk.Leaf_blob (head ^ pad)

let durability_rm_rf dir =
  ignore (Sys.command ("rm -rf " ^ Filename.quote dir))

let durability_read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let durability_write_file path data =
  let oc = open_out_bin path in
  output_string oc data;
  close_out oc

(* A root a killed writer left: [n] unique ~512-byte chunks appended
   at a [checkpoint_bytes] cadence (fsync off: the row measures checkpoint
   volume and recovery, not the disk), then SIGKILL with no close — base,
   deltas and a log tail past the last one, as they stood.  The child
   reports its log and checkpoint byte counts in [root/STATS] first. *)
let durability_killed_writer ~root ~checkpoint_bytes n =
  match Unix.fork () with
  | 0 ->
    let log =
      Log_store.create
        ~config:{ Log_store.default_config with fsync = false; checkpoint_bytes } ~root ()
    in
    let s = Log_store.store log in
    for i = 0 to n - 1 do
      let head = Printf.sprintf "kill-%08d-" i in
      ignore
        (Store.put s
           (Fb_chunk.Chunk.v Fb_chunk.Chunk.Leaf_blob
              (head ^ String.make (512 - String.length head) 'k')))
    done;
    let c = Log_store.counters log in
    durability_write_file (Filename.concat root "STATS")
      (Printf.sprintf "%d %d %d %d\n" (Log_store.file_bytes log)
         c.Log_store.checkpoint_bytes c.Log_store.checkpoints c.Log_store.deltas);
    Unix.kill (Unix.getpid ()) Sys.sigkill;
    exit 1
  | pid -> (
    match Unix.waitpid [] pid with
    | _, Unix.WSIGNALED sg when sg = Sys.sigkill ->
      Scanf.sscanf (durability_read_file (Filename.concat root "STATS")) "%d %d %d %d"
        (fun log_bytes ckpt_bytes ckpts deltas -> (log_bytes, ckpt_bytes, ckpts, deltas))
    | _ -> failwith "durability: the writer was not killed")

(* A root with a base, [deltas] deltas and the last one torn: reopening
   keeps the others, replays the log past them, and a second open finds
   the chain whole again. *)
let durability_torn_delta ~root ~deltas =
  let config = { Log_store.default_config with fsync = false; checkpoint_bytes = 1 } in
  let log = Log_store.create ~config ~root () in
  let s = Log_store.store log in
  for i = 0 to deltas do
    ignore (Store.put s (durability_blob i));
    Log_store.sync log
  done;
  let delta_path = Log_store.delta_path log in
  let wrote = (Log_store.counters log).Log_store.deltas = deltas in
  (* Nothing changed since the last delta: close writes none. *)
  Log_store.close log;
  Unix.truncate delta_path ((Unix.stat delta_path).Unix.st_size - 3);
  let reopen () =
    let h = Log_store.create ~config ~root () in
    let c = Log_store.counters h in
    let r = (Log_store.live_chunks h, c.Log_store.loaded_deltas, c.Log_store.replayed_records) in
    Log_store.close h;
    r
  in
  let first = reopen () in
  let second = reopen () in
  wrote && first = (deltas + 1, deltas - 1, 1) && second = (deltas + 1, deltas, 0)

let run_durability ?(quick = false) () =
  header
    (if quick then "DURABILITY (quick): log vs file under fsync, crash smoke"
     else "DURABILITY: fsynced puts, recovery replay, crash matrix");
  let n = if quick then 120 else 2000 in
  let tmp_root name =
    let d =
      Filename.concat (Filename.get_temp_dir_name ()) ("fb_bench_dur_" ^ name)
    in
    durability_rm_rf d;
    d
  in
  (* Baseline: directory backend with one write+fsync+rename per chunk. *)
  let file_root = tmp_root "file" in
  let fstore = Fb_chunk.File_store.create ~fsync:true ~root:file_root () in
  let (), file_ms =
    time_ms (fun () ->
        for i = 0 to n - 1 do
          ignore (Store.put fstore (durability_blob i))
        done)
  in
  let file_puts = float_of_int n /. (file_ms /. 1000.0) in
  (* Pack log, default config: fsync on, group commit batches the syncs.
     The final [sync] is included so both sides end fully durable. *)
  let log_root = tmp_root "log" in
  let log = Log_store.create ~root:log_root () in
  let lstore = Log_store.store log in
  let (), log_ms =
    time_ms (fun () ->
        for i = 0 to n - 1 do
          ignore (Store.put lstore (durability_blob i))
        done;
        Log_store.sync log)
  in
  let log_puts = float_of_int n /. (log_ms /. 1000.0) in
  let speedup = log_puts /. file_puts in
  let flushes = (Log_store.counters log).Log_store.flushes in
  Printf.printf "%d puts of 1 KiB, fully durable before return:\n" n;
  Printf.printf "  file store (fsync per chunk)  %8.0f puts/s\n" file_puts;
  Printf.printf "  pack log   (group commit)     %8.0f puts/s   (%d fsyncs)\n"
    log_puts flushes;
  Printf.printf "  speedup %.1fx\n" speedup;
  (* Acknowledged head moves naming chunks just written, two keys
     alternating: the crash matrix below also cuts inside and after each
     of these ref records. *)
  let heads = Hashtbl.create 2 in
  let ref_ends =
    List.init 6 (fun j ->
        let key = Printf.sprintf "k%d" (j mod 2) in
        let uid = Fb_chunk.Chunk.hash (durability_blob (j * (n / 6))) in
        Log_store.append_ref log Log_store.Branches ~key ~branch:"master"
          ~old:(Hashtbl.find_opt heads key) (Some uid) ();
        Hashtbl.replace heads key uid;
        (Log_store.file_bytes log, (key, uid)))
  in
  (* Recovery time: reopen against the close-time checkpoint, then delete
     the side index and reopen again to force a full tail replay. *)
  let log_path = Log_store.log_path log in
  let idx_path = Log_store.idx_path log in
  Log_store.close log;
  let h, ckpt_ms = time_ms (fun () -> Log_store.create ~root:log_root ()) in
  let ckpt_replayed = (Log_store.counters h).Log_store.replayed_records in
  let live = Log_store.live_chunks h in
  Log_store.close h;
  Sys.remove idx_path;
  let h, replay_ms = time_ms (fun () -> Log_store.create ~root:log_root ()) in
  let replay_replayed = (Log_store.counters h).Log_store.replayed_records in
  let live' = Log_store.live_chunks h in
  Log_store.close h;
  if live <> n || live' <> n then
    failwith
      (Printf.sprintf "durability: recovery lost chunks (%d / %d of %d)" live
         live' n);
  Printf.printf "recovery (reopen of %d records):\n" n;
  Printf.printf "  with checkpoint   %7.2f ms  (%d records replayed)\n" ckpt_ms
    ckpt_replayed;
  Printf.printf "  full tail replay  %7.2f ms  (%d records replayed)\n"
    replay_ms replay_replayed;
  (* Crash-matrix smoke: truncate the log at evenly spaced byte offsets
     and one byte inside and at the end of each ref record; every cut must
     recover to a prefix of sealed records, every surviving read must
     re-hash, the recovered heads must be a prefix of the acknowledged
     moves and name only present chunks, and a second reopen must find
     nothing to repair.  (The exhaustive every-byte matrices, including
     garbled tails, run in the test suite; this keeps the property
     exercised from `make check`.) *)
  let bytes = durability_read_file log_path in
  let header_size = 16 in
  let spaced = if quick then 7 else 25 in
  let cuts =
    List.sort_uniq compare
      (List.init spaced (fun p ->
           header_size + (String.length bytes - header_size) * (p + 1) / spaced)
      @ List.concat_map (fun (e, _) -> [ e - 1; e ]) ref_ends)
  in
  let points = List.length cuts in
  let rig = tmp_root "rig" in
  let crash_ok = ref 0 in
  List.iter (fun cut ->
    durability_rm_rf rig;
    Unix.mkdir rig 0o755;
    durability_write_file (Filename.concat rig "gen-0.log")
      (String.sub bytes 0 cut);
    durability_write_file (Filename.concat rig "CURRENT") "0\n";
    let r = Log_store.create ~root:rig () in
    let rs = Log_store.store r in
    (* every surviving read must re-hash to its identity *)
    let sound = ref true in
    rs.Store.iter (fun id raw ->
        match Fb_chunk.Chunk.decode raw with
        | Ok c ->
          if not (Fb_hash.Hash.equal (Fb_chunk.Chunk.hash c) id) then
            sound := false
        | Error _ -> sound := false);
    let acked = Hashtbl.create 2 in
    List.iter
      (fun (e, (key, uid)) -> if e <= cut then Hashtbl.replace acked key uid)
      ref_ends;
    let got = Log_store.refs r in
    if
      List.length got <> Hashtbl.length acked
      || not
           (List.for_all
              (fun (_, key, _, uid) ->
                Hashtbl.find_opt acked key = Some uid && Store.mem rs uid)
              got)
    then sound := false;
    Log_store.close r;
    let r2 = Log_store.create ~root:rig () in
    if (Log_store.counters r2).Log_store.truncated_bytes <> 0 then sound := false;
    Log_store.close r2;
    if !sound then incr crash_ok
    else Printf.printf "  crash point at byte %d FAILED\n" cut)
    cuts;
  Printf.printf
    "crash matrix: %d/%d truncation points recovered cleanly (%d inside or \
     after ref records)\n"
    !crash_ok points (2 * List.length ref_ends);
  let torn_root = tmp_root "torn" in
  let torn_ok = durability_torn_delta ~root:torn_root ~deltas:5 in
  Printf.printf "torn last delta: reopen keeps the other %d deltas and replays past them: %s\n"
    4 (if torn_ok then "ok" else "FAILED");
  (* The large row: checkpoint volume against log volume, and the open a
     SIGKILLed writer leaves, deltas present. *)
  let big_n = if quick then 2000 else 200_000 in
  let kill_root = tmp_root "kill" in
  let big_log, big_ckpt, big_ckpts, big_deltas =
    durability_killed_writer ~root:kill_root big_n
      ~checkpoint_bytes:(if quick then 1 lsl 16 else Log_store.default_config.checkpoint_bytes)
  in
  let h, kill_ms = time_ms (fun () -> Log_store.create ~root:kill_root ()) in
  let kc = Log_store.counters h in
  let kill_live = Log_store.live_chunks h in
  let kill_loaded = kc.Log_store.loaded_deltas and kill_replayed = kc.Log_store.replayed_records in
  Log_store.close h;
  let ckpt_per_log = float_of_int big_ckpt /. float_of_int big_log in
  Printf.printf
    "%d chunks of ~512 B (%.1f MB of log), then SIGKILL:\n\
    \  checkpoints  %d (%d deltas), %.1f MB: %.3f checkpoint bytes per log byte\n\
    \  open         %7.2f ms  (%d deltas loaded, %d records replayed)\n"
    big_n (float_of_int big_log /. 1e6) big_ckpts big_deltas (float_of_int big_ckpt /. 1e6)
    ckpt_per_log kill_ms kill_loaded kill_replayed;
  durability_rm_rf file_root;
  durability_rm_rf log_root;
  durability_rm_rf rig;
  durability_rm_rf torn_root;
  durability_rm_rf kill_root;
  if !crash_ok <> points then failwith "durability: crash matrix failed";
  if not torn_ok then failwith "durability: a torn last delta did not recover";
  if kill_live <> big_n then
    failwith
      (Printf.sprintf "durability: the killed writer's root holds %d of %d chunks" kill_live
         big_n);
  if big_deltas = 0 || kill_loaded = 0 then
    failwith "durability: the killed writer's root opened without deltas";
  if (not quick) && speedup < 5.0 then
    failwith
      (Printf.sprintf "durability: group-commit speedup %.1fx below the 5x bar"
         speedup);
  if not quick then begin
    let oc = open_out "BENCH_durability.json" in
    Printf.fprintf oc
      "{\"puts\":%d,\"payload_bytes\":1024,\
       \"file_fsync_puts_per_s\":%.1f,\"log_fsync_puts_per_s\":%.1f,\
       \"speedup\":%.2f,\"log_fsyncs\":%d,\
       \"recovery_checkpoint_ms\":%.2f,\"recovery_checkpoint_replayed\":%d,\
       \"recovery_replay_ms\":%.2f,\"recovery_replay_replayed\":%d,\
       \"crash_points\":%d,\"crash_points_ok\":%d,\
       \"big_chunks\":%d,\"big_log_bytes\":%d,\"big_checkpoint_bytes\":%d,\
       \"big_checkpoints\":%d,\"big_deltas\":%d,\
       \"checkpoint_bytes_per_log_byte\":%.4f,\"open_after_kill_ms\":%.2f,\
       \"open_after_kill_loaded_deltas\":%d,\"open_after_kill_replayed\":%d}\n"
      n file_puts log_puts speedup flushes ckpt_ms ckpt_replayed replay_ms
      replay_replayed points !crash_ok big_n big_log big_ckpt big_ckpts big_deltas
      ckpt_per_log kill_ms kill_loaded kill_replayed;
    close_out oc;
    Printf.printf "machine-readable results written to BENCH_durability.json\n"
  end

(* ------------------------------------------------------------------ *)
(* sync: Merkle-DAG delta sync — bytes on the wire for a 1%-edit      *)
(* update vs the full transfer.  Writes BENCH_sync.json.              *)
(* ------------------------------------------------------------------ *)

let run_sync ?(quick = false) () =
  header
    (if quick then "sync-quick: delta push/pull smoke (wire bytes vs full)"
     else "sync: delta sync of a 1%-edit update across ~1M records");
  let n = if quick then 20_000 else 1_000_000 in
  let edits = n / 100 in
  let key_of i = Printf.sprintf "r%07d" i in
  let base = List.init n (fun i -> (key_of i, Printf.sprintf "v%d" i)) in
  (* The 1% edit is a contiguous key range: the update story of the
     paper's dataset workloads (a segment of rows revised), and the
     case chunk-level dedup is built to exploit. *)
  let edited =
    List.init n (fun i ->
        ( key_of i,
          if i < edits then Printf.sprintf "EDITED%d" i
          else Printf.sprintf "v%d" i ))
  in
  let src_store = Mem_store.create () in
  let src = FB.create src_store in
  let (), build_ms =
    time_ms (fun () ->
        ignore
          (ok_fb
             (FB.put src ~key:"table" (Value.map_of_bindings src_store base))))
  in
  Printf.printf "built v1 (%d records) in %.0f ms\n%!" n build_ms;
  let srv_fb = FB.create (Mem_store.create ()) in
  let config =
    { Fb_net.Server.default_config with port = 0 }
  in
  let srv =
    match Fb_net.Server.start ~config srv_fb with
    | Ok s -> s
    | Error e -> failwith ("sync bench: " ^ e)
  in
  let r =
    match Fb_net.Remote.connect ~port:(Fb_net.Server.port srv) () with
    | Ok r -> r
    | Error e -> failwith ("sync bench: " ^ Fb_core.Errors.to_string e)
  in
  Fun.protect
    ~finally:(fun () ->
      Fb_net.Remote.close r;
      Fb_net.Server.stop srv)
    (fun () ->
      let show verb (s : Fb_core.Sync.stats) ms =
        Printf.printf
          "  %-10s %6d chunks  %9.1f KiB on wire  %6d skipped  %4d rounds  \
           %7.0f ms\n%!"
          verb s.Fb_core.Sync.chunks_moved (kb s.Fb_core.Sync.bytes_moved)
          s.Fb_core.Sync.chunks_skipped s.Fb_core.Sync.rounds ms
      in
      (* Full transfer: the server starts empty. *)
      let (_, full_push), full_push_ms =
        time_ms (fun () -> ok_fb (Fb_net.Remote.push r src ~key:"table"))
      in
      show "push-full" full_push full_push_ms;
      let dst = FB.create (Mem_store.create ()) in
      let (_, full_pull), full_pull_ms =
        time_ms (fun () -> ok_fb (Fb_net.Remote.pull r dst ~key:"table"))
      in
      show "pull-full" full_pull full_pull_ms;
      (* The 1% edit, then the same sync again: only the frontier moves. *)
      let (), edit_ms =
        time_ms (fun () ->
            ignore
              (ok_fb
                 (FB.put src ~key:"table"
                    (Value.map_of_bindings src_store edited))))
      in
      Printf.printf "committed 1%% edit (%d records) in %.0f ms\n%!" edits
        edit_ms;
      (* The server times each single-frame sync-have under its own
         histogram before it replies: its count is the push's have waves. *)
      let have_hist = Obs.histogram "fb.net.sync_have_seconds" in
      let obs_was = Obs.is_enabled () in
      Obs.set_enabled true;
      let waves_before = Obs.hist_count have_hist in
      let (_, delta_push), delta_push_ms =
        time_ms (fun () -> ok_fb (Fb_net.Remote.push r src ~key:"table"))
      in
      let have_waves = Obs.hist_count have_hist - waves_before in
      Obs.set_enabled obs_was;
      show "push-delta" delta_push delta_push_ms;
      Printf.printf "  push-delta sync-have waves: %d\n" have_waves;
      (* The server's head vouches for every chunk the edit kept, and the
         new chunks are Bloom negatives (none of this fixed content's new
         ids is a false positive): a fast-forward push probes nothing. *)
      if have_waves > 0 then
        failwith
          (Printf.sprintf
             "sync: the 1%%-edit delta push sent %d sync-have waves; a \
              fast-forward push should send none"
             have_waves);
      let (_, delta_pull), delta_pull_ms =
        time_ms (fun () -> ok_fb (Fb_net.Remote.pull r dst ~key:"table"))
      in
      show "pull-delta" delta_pull delta_pull_ms;
      if not (Hash.equal (ok_fb (FB.head dst ~key:"table"))
                (ok_fb (FB.head src ~key:"table")))
      then failwith "sync bench: replica head diverged from source";
      let ratio what (delta : Fb_core.Sync.stats) (full : Fb_core.Sync.stats) =
        let r =
          float_of_int delta.Fb_core.Sync.bytes_moved
          /. float_of_int (max 1 full.Fb_core.Sync.bytes_moved)
        in
        Printf.printf "  %s delta/full wire bytes: %.2f%%\n" what (100.0 *. r);
        r
      in
      let push_ratio = ratio "push" delta_push full_push in
      let pull_ratio = ratio "pull" delta_pull full_pull in
      if (not quick) && (push_ratio > 0.10 || pull_ratio > 0.10) then
        failwith
          (Printf.sprintf
             "sync: 1%%-edit delta shipped %.1f%%/%.1f%% of full-transfer \
              bytes, above the 10%% bar"
             (100.0 *. push_ratio) (100.0 *. pull_ratio));
      if not quick then begin
        let oc = open_out "BENCH_sync.json" in
        Printf.fprintf oc
          "{\"records\":%d,\"edited_records\":%d,\
           \"full_push\":{\"chunks\":%d,\"bytes\":%d,\"skipped\":%d,\
           \"rounds\":%d,\"ms\":%.0f},\
           \"full_pull\":{\"chunks\":%d,\"bytes\":%d,\"skipped\":%d,\
           \"rounds\":%d,\"ms\":%.0f},\
           \"delta_push\":{\"chunks\":%d,\"bytes\":%d,\"skipped\":%d,\
           \"rounds\":%d,\"have_waves\":%d,\"ms\":%.0f},\
           \"delta_pull\":{\"chunks\":%d,\"bytes\":%d,\"skipped\":%d,\
           \"rounds\":%d,\"ms\":%.0f},\
           \"push_delta_over_full\":%.4f,\"pull_delta_over_full\":%.4f}\n"
          n edits full_push.Fb_core.Sync.chunks_moved
          full_push.Fb_core.Sync.bytes_moved
          full_push.Fb_core.Sync.chunks_skipped full_push.Fb_core.Sync.rounds
          full_push_ms full_pull.Fb_core.Sync.chunks_moved
          full_pull.Fb_core.Sync.bytes_moved
          full_pull.Fb_core.Sync.chunks_skipped full_pull.Fb_core.Sync.rounds
          full_pull_ms delta_push.Fb_core.Sync.chunks_moved
          delta_push.Fb_core.Sync.bytes_moved
          delta_push.Fb_core.Sync.chunks_skipped delta_push.Fb_core.Sync.rounds
          have_waves delta_push_ms delta_pull.Fb_core.Sync.chunks_moved
          delta_pull.Fb_core.Sync.bytes_moved
          delta_pull.Fb_core.Sync.chunks_skipped delta_pull.Fb_core.Sync.rounds
          delta_pull_ms push_ratio pull_ratio;
        close_out oc;
        Printf.printf "machine-readable results written to BENCH_sync.json\n"
      end)

(* ------------------------------------------------------------------ *)

let experiments =
  [ ("table1", run_table1);
    ("fig2", run_fig2);
    ("fig3", run_fig3);
    ("fig4", run_fig4);
    ("fig5", run_fig5);
    ("fig6", run_fig6);
    ("siri", run_siri);
    ("ablation", run_ablation);
    ("storage", run_storage);
    ("resilience", run_resilience);
    ("cluster", fun () -> run_cluster_net ());
    ("cluster-quick", fun () -> run_cluster_net ~quick:true ());
    ("obs", fun () -> run_obs ());
    ("obs-quick", fun () -> run_obs ~quick:true ());
    ("micro", run_micro);
    ("hotpath", fun () -> run_hotpath ());
    ("hotpath-quick", fun () -> run_hotpath ~quick:true ());
    ("net", fun () -> run_net ());
    ("net-quick", fun () -> run_net ~quick:true ());
    ("net-scaling", fun () -> run_net_scaling ());
    ("net-scaling-quick", fun () -> run_net_scaling ~quick:true ());
    ("net-c10k", fun () -> run_net_c10k ());
    ("net-c10k-quick", fun () -> run_net_c10k ~quick:true ());
    ("durability", fun () -> run_durability ());
    ("durability-quick", fun () -> run_durability ~quick:true ());
    ("sync", fun () -> run_sync ());
    ("sync-quick", fun () -> run_sync ~quick:true ()) ]

let () =
  let requested =
    match Array.to_list Sys.argv with
    | _ :: (_ :: _ as names) -> names
    | _ -> List.map fst experiments
  in
  List.iter
    (fun name ->
      match List.assoc_opt name experiments with
      | Some run -> run ()
      | None ->
        Printf.eprintf "unknown experiment %S; available: %s\n" name
          (String.concat " " (List.map fst experiments));
        exit 1)
    requested;
  Printf.printf "\n%s\nall experiments completed\n" line
