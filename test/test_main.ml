(* Entry point: every suite registered here runs under `dune runtest`. *)

let () =
  Alcotest.run "unistore"
    [
      ("heap", Test_heap.suite);
      ("rng", Test_rng.suite);
      ("zipf", Test_zipf.suite);
      ("stats", Test_stats.suite);
      ("metrics", Test_metrics.suite);
      ("engine", Test_engine.suite);
      ("fiber", Test_fiber.suite);
      ("vc", Test_vc.suite);
      ("crdt", Test_crdt.suite);
      ("oplog", Test_oplog.suite);
      ("keyspace", Test_keyspace.suite);
      ("network", Test_network.suite);
      ("trace", Test_trace.suite);
      ("prof", Test_prof.suite);
      ("protocol", Test_protocol_basic.suite);
      ("protocol-edge", Test_protocol_edge.suite);
      ("stream-log", Test_stream_log.suite);
      ("strong", Test_strong.suite);
      ("cert", Test_cert.suite);
      ("failures", Test_failures.suite);
      ("config", Test_config.suite);
      ("history", Test_history.suite);
      ("checker", Test_checker.suite);
      ("abstract-exec", Test_abstract_exec.suite);
      ("workloads", Test_workloads.suite);
      ("openloop", Test_openloop.suite);
      ("admission", Test_admission.suite);
      ("nemesis", Test_nemesis.suite);
      ("recovery", Test_recovery.suite);
      ("persistence", Test_persistence.suite);
      ("adversity", Test_adversity.suite);
      ("report", Test_report.suite);
      ("explore", Test_explore.suite);
      ("gossip", Test_gossip.suite);
      ("properties", Test_properties.suite);
    ]
