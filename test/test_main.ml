(* Aggregated test runner for the whole repository. *)

let () =
  Alcotest.run "sias"
    [
      ("util", Test_util.suite);
      ("flashsim", Test_flashsim.suite);
      ("noftl", Test_noftl.suite);
      ("storage", Test_storage.suite);
      ("wal", Test_wal.suite);
      ("commitpipe", Test_commitpipe.suite);
      ("txn", Test_txn.suite);
      ("contention", Test_contention.suite);
      ("vidmap", Test_vidmap.suite);
      ("index", Test_index.suite);
      ("paged-index", Test_paged_index.suite);
      ("mvcc-parts", Test_mvcc_parts.suite);
      ("engine-si", Test_engines.Si_suite.suite);
      ("engine-sias", Test_engines.Sias_suite.suite);
      ("engine-sias-v", Test_engines.Sias_v_suite.suite);
      ("engine-si-cv", Test_engines.Si_cv_suite.suite);
      ("sias-whitebox", Test_sias.suite);
      ("sias-v-vector", Test_vector.suite);
      ("si-vs-sias", Test_equiv.suite);
      ("tpcc", Test_tpcc.suite);
      ("integration", Test_extra.suite);
      ("tpcc-consistency", Test_tpcc_consistency.suite);
      ("hint-bits", Test_hintbits.suite);
      ("crash-fuzz", Test_crash.suite);
      ("fault-torture", Test_faults.suite);
      ("wal-retention", Test_walretention.suite);
      ("repl-failover", Test_repl.suite);
      ("ssi", Test_ssi.suite);
      ("obs", Test_obs.suite);
      ("chaos", Test_chaos.suite);
      ("multicore", Test_multicore.suite);
      ("cli", Test_cli.suite);
    ]
