(* Configuration: conflict relations, mode predicates, validation. *)

module U = Unistore

let od key cls write = { U.Types.key; cls; write }

let test_serializable_conflicts () =
  let c = U.Config.ops_conflict U.Config.Serializable in
  Alcotest.(check bool) "w-w same key" true (c (od 1 0 true) (od 1 0 true));
  Alcotest.(check bool) "r-w same key" true (c (od 1 0 false) (od 1 0 true));
  Alcotest.(check bool) "w-r same key" true (c (od 1 0 true) (od 1 0 false));
  Alcotest.(check bool) "r-r same key" false (c (od 1 0 false) (od 1 0 false));
  Alcotest.(check bool) "different keys" false (c (od 1 0 true) (od 2 0 true))

let test_class_conflicts_symmetric () =
  let c = U.Config.ops_conflict (U.Config.Classes [ (1, 2) ]) in
  Alcotest.(check bool) "declared pair" true (c (od 1 1 true) (od 1 2 false));
  Alcotest.(check bool) "symmetric" true (c (od 1 2 false) (od 1 1 true));
  Alcotest.(check bool) "undeclared pair" false (c (od 1 1 true) (od 1 3 true));
  Alcotest.(check bool) "different keys" false (c (od 1 1 true) (od 2 2 true))

let test_empty_transactions () =
  (* dummy strong heartbeats (no operations) conflict with nothing *)
  let spec = U.Config.Serializable in
  Alcotest.(check bool) "two writers of one key" true
    (U.Config.txs_conflict spec [ od 1 0 true ] [ od 1 0 true ]);
  Alcotest.(check bool) "empty left" false
    (U.Config.txs_conflict spec [] [ od 1 0 true ]);
  Alcotest.(check bool) "empty right" false
    (U.Config.txs_conflict spec [ od 1 0 true ] [])

let test_mode_predicates () =
  let mk mode = U.Config.default ~mode () in
  Alcotest.(check bool) "unistore tracks uniformity" true
    (U.Config.tracks_uniformity (mk U.Config.Unistore));
  Alcotest.(check bool) "cureft does not" false
    (U.Config.tracks_uniformity (mk U.Config.Cure_ft));
  Alcotest.(check bool) "causal has no strong" false
    (U.Config.has_strong (mk U.Config.Causal_only));
  Alcotest.(check bool) "redblue centralized" true
    (U.Config.centralized_cert (mk U.Config.Red_blue));
  Alcotest.(check bool) "unistore distributed" false
    (U.Config.centralized_cert (mk U.Config.Unistore))

let test_effective_strong () =
  let mk mode = U.Config.default ~mode () in
  Alcotest.(check bool) "STRONG forces strong" true
    (U.Config.effective_strong (mk U.Config.Strong) ~requested:false);
  Alcotest.(check bool) "CAUSAL forces causal" false
    (U.Config.effective_strong (mk U.Config.Causal_only) ~requested:true);
  Alcotest.(check bool) "UNISTORE honours the request" true
    (U.Config.effective_strong (mk U.Config.Unistore) ~requested:true)

let test_validation () =
  Alcotest.(check bool) "bad partitions rejected" true
    (try
       ignore (U.Config.default ~partitions:0 ());
       false
     with Invalid_argument _ -> true);
  (* f ranges over 0 .. dcs - 1: the three-DC default topology *)
  Alcotest.(check bool) "f = dcs rejected" true
    (try
       ignore (U.Config.default ~f:3 ());
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "f = -1 rejected" true
    (try
       ignore (U.Config.default ~f:(-1) ());
       false
     with Invalid_argument _ -> true);
  Alcotest.(check int) "f = dcs - 1 accepted" 3
    (U.Config.quorum (U.Config.default ~f:2 ()))

let test_quorum () =
  let cfg = U.Config.default ~f:1 () in
  Alcotest.(check int) "f+1" 2 (U.Config.quorum cfg);
  let cfg = U.Config.default ~topo:(Net.Topology.five_dcs ()) ~f:2 () in
  Alcotest.(check int) "f+1 of 5" 3 (U.Config.quorum cfg)

(* The retransmission-backoff cap is derived from the deployment, not a
   hard-coded 500 ms: suspicion timeout plus the topology's worst-case
   round trip. Pinned against the three-DC defaults (Virginia–Frankfurt
   145 ms RTT, ±50 µs jitter → 145.1 ms worst case). *)
let test_rto_cap_derivation () =
  let topo = Net.Topology.three_dcs () in
  Alcotest.(check int) "worst-case RTT of three DCs" 145_100
    (Net.Topology.max_rtt_us topo);
  let cfg = U.Config.default ~topo () in
  Alcotest.(check int) "default cap = detection delay + max RTT"
    (U.Config.detection_delay_us + 145_100)
    (U.Config.rto_cap_us cfg);
  (* System.create installs the derived cap into the network *)
  let sys = U.System.create cfg in
  Alcotest.(check int) "installed into the network"
    (U.Config.rto_cap_us cfg)
    (Net.Network.rto_cap (U.System.network sys))

(* The RETRY-rule leadership-bid debounce is likewise derived — one Ω
   reaction period plus the worst-case RTT — and strictly tighter than
   the former fixed 1 s on the paper's deployments. *)
let test_reclaim_debounce_derivation () =
  let check_topo name topo =
    let cfg = U.Config.default ~topo () in
    Alcotest.(check int)
      (name ^ ": debounce = fd period + max RTT")
      (U.Config.fd_period_us + Net.Topology.max_rtt_us topo)
      (U.Config.reclaim_debounce_us cfg);
    Alcotest.(check bool)
      (name ^ ": tighter than the old fixed 1 s")
      true
      (U.Config.reclaim_debounce_us cfg < 1_000_000)
  in
  check_topo "three DCs" (Net.Topology.three_dcs ());
  check_topo "five DCs" (Net.Topology.five_dcs ())

(* The admission-shed retry backoff is likewise derived: two broadcast
   periods of queue drain, to which the client adds uniform jitter of
   the same magnitude — the 10-20 ms retry window at the default 5 ms
   broadcast period. *)
let test_overload_backoff_derivation () =
  let cfg = U.Config.default () in
  Alcotest.(check int) "base = two broadcast periods (10 ms)" 10_000
    (U.Config.overload_backoff_us cfg);
  let fast = U.Config.default ~broadcast_period_us:2_000 () in
  Alcotest.(check int) "faster gossip shrinks the window" 4_000
    (U.Config.overload_backoff_us fast)

let suite =
  [
    Alcotest.test_case "serializable conflict relation" `Quick
      test_serializable_conflicts;
    Alcotest.test_case "class conflicts are symmetric and keyed" `Quick
      test_class_conflicts_symmetric;
    Alcotest.test_case "empty transactions never conflict" `Quick
      test_empty_transactions;
    Alcotest.test_case "mode predicates" `Quick test_mode_predicates;
    Alcotest.test_case "effective strength per mode" `Quick
      test_effective_strong;
    Alcotest.test_case "configuration validation" `Quick test_validation;
    Alcotest.test_case "quorum sizes" `Quick test_quorum;
    Alcotest.test_case "derived RTO cap" `Quick test_rto_cap_derivation;
    Alcotest.test_case "derived reclaim debounce" `Quick
      test_reclaim_debounce_derivation;
    Alcotest.test_case "derived overload retry backoff" `Quick
      test_overload_backoff_derivation;
  ]
