let () =
  Alcotest.run "o2sched"
    [
      ("lru", Suite_lru.suite);
      ("event-queue", Suite_event_queue.suite);
      ("domain-pool", Suite_domain_pool.suite);
      ("hotpath-alloc", Suite_hotpath.suite);
      ("config-topology", Suite_config.suite);
      ("counters", Suite_counters.suite);
      ("memsys-dram", Suite_memsys_dram.suite);
      ("machine", Suite_machine.suite);
      ("engine", Suite_engine.suite);
      ("sharded", Suite_sharded.suite);
      ("spinlock", Suite_spinlock.suite);
      ("fat", Suite_fat.suite);
      ("object-table", Suite_object_table.suite);
      ("cache-packing", Suite_packing.suite);
      ("coretime", Suite_coretime.suite);
      ("rebalancer", Suite_rebalancer.suite);
      ("clustering-ownership", Suite_clustering_ownership.suite);
      ("workload", Suite_workload.suite);
      ("btree", Suite_btree.suite);
      ("sched", Suite_sched.suite);
      ("stats", Suite_stats.suite);
      ("obs", Suite_obs.suite);
      ("capture-pin", Suite_capture_pin.suite);
      ("experiments", Suite_experiments.suite);
      ("native", Suite_native.suite);
      ("grace-model", Suite_grace.suite);
      ("analysis", Suite_analysis.suite);
      ("staticcheck", Suite_staticcheck.suite);
    ]
