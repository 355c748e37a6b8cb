let () =
  Alcotest.run "forkbase"
    [ ("hash", Test_hash.suite);
      ("codec", Test_codec.suite);
      ("chunk", Test_chunk.suite);
      ("postree", Test_postree.suite);
      ("seqtree", Test_seqtree.suite);
      ("canonical", Test_canonical.suite);
      ("types", Test_types.suite);
      ("csv", Test_csv.suite);
      ("repr", Test_repr.suite);
      ("core", Test_core.suite);
      ("dataset", Test_dataset.suite);
      ("service", Test_service.suite);
      ("sharded", Test_sharded.suite);
      ("pack", Test_pack.suite);
      ("proof", Test_proof.suite);
      ("json", Test_json.suite);
      ("persistent", Test_persistent.suite);
      ("log", Test_log.suite);
      ("soak", Test_soak.suite);
      ("edge", Test_edge.suite);
      ("faults", Test_faults.suite);
      ("patch", Test_patch.suite);
      ("baselines", Test_baselines.suite);
      ("workload", Test_workload.suite);
      ("obs", Test_obs.suite);
      ("rwlock", Test_rwlock.suite);
      ("net", Test_net.suite);
      ("cluster", Test_cluster.suite);
      ("pipeline", Test_pipeline.suite);
      ("sync", Test_sync.suite);
      ("ids", Test_ids.suite) ]
