(* Adversity *during* recovery: a rejoin must survive partitions, gray
   links and sibling crashes that land in the middle of its catch-up.
   These tests script the exact interleavings the seeded
   combined-adversity soak (bench `adversity`) explores randomly: the
   snapshot source going unreachable mid-SYNC_STORE, a sibling
   partitioned away while the rejoiner catches up, a sibling crashing
   mid-catch-up — plus the seeded acceptance scenario and the recovery
   guard rails. *)

module U = Unistore
module Client = U.Client
module Fiber = Sim.Fiber

(* A causal writer at [dc] bumping [key] until [until]; returns the
   commit counter so the test can read the value back elsewhere. *)
let spawn_writer sys ~dc ~key ~until ~period =
  let commits = ref 0 in
  ignore
    (U.System.spawn_client sys ~dc (fun c ->
         while U.System.now sys < until do
           (try
              Client.start c;
              Client.update c key (Crdt.Ctr_add 1);
              match Client.commit c with
              | `Committed _ -> incr commits
              | `Aborted -> ()
            with Client.Aborted -> ());
           Fiber.sleep period
         done));
  commits

(* Read [keys] back at [dc] once the run is over; returns the values. *)
let read_back sys ~dc ~keys ~at =
  let vals = Array.make (Array.length keys) (-1) in
  ignore
    (U.System.spawn_client sys ~dc (fun c ->
         Client.start c;
         Array.iteri (fun i k -> vals.(i) <- Client.read_int c k) keys;
         ignore (Client.commit c)));
  U.System.run sys ~until:at;
  vals

(* (1) The snapshot source is partitioned away mid-SYNC_STORE: dc2's
   snapshot request goes to dc1 (the sibling below it), but the
   dc1 <-> dc2 link is cut across the whole window. Once Ω suspects
   dc1, the retry tick must ask dc0, install its snapshot and finish
   the rejoin with the partition still up. *)
let test_partition_snapshot_source () =
  let sys = Util.make_system ~partitions:3 ~seed:21 () in
  let keys = [| 100; 101 |] in
  Array.iter (fun k -> U.System.preload sys k (Crdt.Ctr_add 0)) keys;
  U.Nemesis.inject sys
    (U.Nemesis.merge
       [
         [
           { U.Nemesis.at_us = 1_500_000; ev = U.Nemesis.Crash_dc 2 };
           { at_us = 3_000_000; ev = U.Nemesis.Recover_dc 2 };
         ];
         U.Nemesis.partition_during_sync ~rejoiner:2 ~peer:1
           ~from_us:2_900_000 ~until_us:5_500_000;
       ]);
  let c0 = spawn_writer sys ~dc:0 ~key:keys.(0) ~until:6_000_000
      ~period:90_000
  and c1 = spawn_writer sys ~dc:1 ~key:keys.(1) ~until:6_000_000
      ~period:90_000
  in
  (* probe while the partition is still up: the rejoin must not wait for
     the heal *)
  let done_during_partition = ref false in
  Sim.Engine.schedule_at (U.System.engine sys) ~time:5_400_000 (fun () ->
      done_during_partition := not (U.System.dc_syncing sys 2));
  U.System.run sys ~until:8_000_000;
  Alcotest.(check bool) "rejoin finished with the partition still up" true
    !done_during_partition;
  Util.assert_por sys;
  Util.assert_convergence sys;
  let vals = read_back sys ~dc:2 ~keys ~at:8_500_000 in
  Alcotest.(check int) "dc0's increments visible at dc2 exactly once" !c0
    vals.(0);
  Alcotest.(check int) "dc1's increments visible at dc2 exactly once" !c1
    vals.(1)

(* (2) A sibling is partitioned away while the rejoiner catches up: dc1
   sits behind a cut link from just before the recovery until after the
   writers stop. Once Ω suspects dc1 the rejoin must finish against dc0
   alone, before the heal. The partitioned sibling is a plain follower
   (the cert leaders live at dc0): a rejoiner cut off from the live
   *leader* legitimately cannot finish its strong-side catch-up until
   the heal. *)
let test_partition_polled_sibling () =
  let sys = Util.make_system ~partitions:3 ~seed:23 () in
  let keys = [| 110; 111 |] in
  Array.iter (fun k -> U.System.preload sys k (Crdt.Ctr_add 0)) keys;
  U.Nemesis.inject sys
    (U.Nemesis.merge
       [
         [
           { U.Nemesis.at_us = 1_500_000; ev = U.Nemesis.Crash_dc 2 };
           { at_us = 3_000_000; ev = U.Nemesis.Recover_dc 2 };
         ];
         U.Nemesis.partition_during_sync ~rejoiner:2 ~peer:1
           ~from_us:2_950_000 ~until_us:6_000_000;
       ]);
  let c0 = spawn_writer sys ~dc:0 ~key:keys.(0) ~until:6_500_000
      ~period:90_000
  and c1 = spawn_writer sys ~dc:1 ~key:keys.(1) ~until:6_500_000
      ~period:90_000
  in
  let done_during_partition = ref false in
  Sim.Engine.schedule_at (U.System.engine sys) ~time:5_400_000 (fun () ->
      done_during_partition := not (U.System.dc_syncing sys 2));
  U.System.run sys ~until:8_500_000;
  Alcotest.(check bool) "rejoin finished with the partition still up" true
    !done_during_partition;
  Util.assert_por sys;
  Util.assert_convergence sys;
  let vals = read_back sys ~dc:2 ~keys ~at:9_000_000 in
  Alcotest.(check int) "dc0's increments visible at dc2 exactly once" !c0
    vals.(0);
  Alcotest.(check int) "dc1's increments visible at dc2 exactly once" !c1
    vals.(1)

(* (3) A sibling crashes mid-catch-up and stays dead: dc2 rejoins via
   dc1's snapshot while dc0 dies permanently right after. The rejoin
   must conclude against the one surviving sibling, and the correct DCs
   converge. *)
let test_crash_polled_sibling () =
  let sys = Util.make_system ~partitions:3 ~seed:25 () in
  let key = 120 in
  U.System.preload sys key (Crdt.Ctr_add 0);
  U.Nemesis.inject sys
    (U.Nemesis.merge
       [
         [
           { U.Nemesis.at_us = 1_500_000; ev = U.Nemesis.Crash_dc 2 };
           { at_us = 3_000_000; ev = U.Nemesis.Recover_dc 2 };
         ];
         U.Nemesis.crash_during_sync ~peer:0 ~at_us:3_120_000;
       ]);
  (* the only counted writer sits at dc1: dc0's last pre-crash commits
     may die with it, dc1's are durable *)
  let c1 = spawn_writer sys ~dc:1 ~key ~until:5_000_000 ~period:90_000 in
  U.System.run sys ~until:7_000_000;
  Alcotest.(check bool) "dc2 finished catching up" false
    (U.System.dc_syncing sys 2);
  Util.assert_convergence sys;
  let vals = read_back sys ~dc:2 ~keys:[| key |] ~at:7_500_000 in
  Alcotest.(check int) "dc1's increments visible at dc2 exactly once" !c1
    vals.(0)

(* The ISSUE acceptance scenario: a seeded random schedule with one
   crash/recover cycle plus a partition and a gray link aimed at the
   recovering DC's sync peers (healed only by the final Heal_all) must
   still complete the rejoin before Heal_all + horizon/4, leave no DC
   stuck syncing and no strong transaction pending. *)
let test_seeded_combined_adversity () =
  let dcs = 3 and horizon = 8_000_000 in
  let heal_at = 3 * horizon / 4 in
  let schedule_of seed =
    U.Nemesis.random_schedule ~seed ~dcs ~horizon_us:horizon ~max_crashes:1
      ~max_partitions:1 ~max_degrades:1 ~max_recoveries:1
      ~max_sync_partitions:1 ~max_sync_degrades:1 ()
  in
  let recovery_of sched =
    List.find_map
      (fun s ->
        match s.U.Nemesis.ev with
        | U.Nemesis.Recover_dc dc -> Some dc
        | _ -> None)
      sched
  in
  let rec find seed =
    if seed > 564 then Alcotest.fail "no recovering seed below 564"
    else
      match recovery_of (schedule_of seed) with
      | Some dc -> (seed, dc)
      | None -> find (seed + 1)
  in
  let seed, rec_dc = find 501 in
  let sys =
    Util.make_system ~partitions:3 ~seed ~client_failover_us:400_000 ()
  in
  let key = 130 in
  U.System.preload sys key (Crdt.Ctr_add 0);
  U.Nemesis.inject sys (schedule_of seed);
  for dc = 0 to dcs - 1 do
    ignore (spawn_writer sys ~dc ~key ~until:heal_at ~period:120_000)
  done;
  ignore
    (U.System.spawn_client sys ~dc:0 (fun c ->
         while U.System.now sys < heal_at do
           (try
              Client.start c ~strong:true;
              Client.update c key (Crdt.Ctr_add 1);
              ignore (Client.commit c)
            with Client.Aborted -> ());
           Fiber.sleep 200_000
         done));
  let rejoined_in_time = ref false in
  Sim.Engine.schedule_at (U.System.engine sys)
    ~time:(heal_at + (horizon / 4))
    (fun () -> rejoined_in_time := not (U.System.dc_syncing sys rec_dc));
  U.System.run sys ~until:(horizon + 2_000_000);
  Alcotest.(check bool) "rejoined before Heal_all + horizon/4" true
    !rejoined_in_time;
  Alcotest.(check
      (float 0.0))
    "dcs_syncing gauge drained" 0.0
    (Sim.Metrics.gauge_value
       (Sim.Metrics.gauge (U.System.metrics sys) "dcs_syncing"));
  Alcotest.(check int) "no strong transaction left pending" 0
    (U.System.pending_strong sys);
  Util.assert_convergence sys

(* Recovery guard rails: a duplicate RECOVER_DC mid-sync and a
   RECOVER_DC for a DC that never crashed are warned no-ops — the
   system neither raises nor wedges, and the real recovery still
   completes. *)
let test_recover_guards () =
  let sys = Util.make_system ~partitions:2 ~seed:27 () in
  let key = 140 in
  U.System.preload sys key (Crdt.Ctr_add 0);
  U.Nemesis.inject sys
    [
      { U.Nemesis.at_us = 1_000_000; ev = U.Nemesis.Crash_dc 2 };
      { at_us = 2_000_000; ev = U.Nemesis.Recover_dc 2 };
      (* overlapping schedules fire a second recovery mid-sync ... *)
      { at_us = 2_050_000; ev = U.Nemesis.Recover_dc 2 };
      (* ... and one for a DC that never crashed *)
      { at_us = 2_500_000; ev = U.Nemesis.Recover_dc 1 };
    ];
  let c0 = spawn_writer sys ~dc:0 ~key ~until:4_000_000 ~period:90_000 in
  U.System.run sys ~until:6_000_000;
  Alcotest.(check bool) "dc2 finished catching up" false
    (U.System.dc_syncing sys 2);
  Alcotest.(check bool) "dc1 was never dragged into a sync" false
    (U.System.dc_syncing sys 1);
  Util.assert_convergence sys;
  let vals = read_back sys ~dc:2 ~keys:[| key |] ~at:6_500_000 in
  Alcotest.(check int) "increments visible at dc2 exactly once" !c0 vals.(0)

(* The overlap budgets are schedule-compatible: defaults draw nothing
   (explicit zeros reproduce the default schedule exactly), and enabling
   them only appends partitions / gray links that involve the recovering
   DC inside its crash -> recover window. *)
let test_overlap_schedule_determinism () =
  let dcs = 3 and horizon = 8_000_000 in
  let base_of seed =
    U.Nemesis.random_schedule ~seed ~dcs ~horizon_us:horizon ~max_crashes:1
      ~max_partitions:0 ~max_degrades:0 ~max_recoveries:1 ()
  in
  let overlap_of seed =
    U.Nemesis.random_schedule ~seed ~dcs ~horizon_us:horizon ~max_crashes:1
      ~max_partitions:0 ~max_degrades:0 ~max_recoveries:1
      ~max_sync_partitions:1 ~max_sync_degrades:1 ()
  in
  let recovery_of sched =
    List.find_map
      (fun s ->
        match s.U.Nemesis.ev with
        | U.Nemesis.Recover_dc dc -> Some (dc, s.U.Nemesis.at_us)
        | _ -> None)
      sched
  in
  let rec find seed =
    if seed > 128 then Alcotest.fail "no recovering seed below 128"
    else
      match recovery_of (base_of seed) with
      | Some r -> (seed, r)
      | None -> find (seed + 1)
  in
  let seed, (rec_dc, recover_at) = find 0 in
  let base = base_of seed in
  (* explicit zeros must not perturb the Rng stream *)
  let zeros =
    U.Nemesis.random_schedule ~seed ~dcs ~horizon_us:horizon ~max_crashes:1
      ~max_partitions:0 ~max_degrades:0 ~max_recoveries:1
      ~max_sync_partitions:0 ~max_sync_degrades:0 ()
  in
  Alcotest.(check bool) "zero overlap budgets draw nothing" true
    (base = zeros);
  let sched = overlap_of seed in
  let crash_at =
    match
      List.find_opt
        (fun s -> s.U.Nemesis.ev = U.Nemesis.Crash_dc rec_dc)
        sched
    with
    | Some s -> s.U.Nemesis.at_us
    | None -> Alcotest.fail "recovery without a crash"
  in
  let added =
    List.filter
      (fun s ->
        match s.U.Nemesis.ev with
        | U.Nemesis.Partition _ | U.Nemesis.Degrade _ -> true
        | _ -> false)
      sched
  in
  Alcotest.(check bool) "overlap budgets added adversity" true
    (added <> []);
  List.iter
    (fun s ->
      Alcotest.(check bool) "overlap targets the recovering DC" true
        (match s.U.Nemesis.ev with
        | U.Nemesis.Partition (a, b) -> a = rec_dc || b = rec_dc
        | U.Nemesis.Degrade { src; dst; _ } -> src = rec_dc || dst = rec_dc
        | _ -> false);
      Alcotest.(check bool) "overlap is cut inside the crash window" true
        (s.U.Nemesis.at_us >= crash_at && s.U.Nemesis.at_us <= recover_at))
    added;
  let stripped =
    List.filter
      (fun s ->
        match s.U.Nemesis.ev with
        | U.Nemesis.Partition _ | U.Nemesis.Degrade _ -> false
        | _ -> true)
      sched
  in
  Alcotest.(check bool) "overlap budgets only append to the base schedule"
    true
    (List.sort compare stripped = List.sort compare base)

(* The RETRY-rule leadership-bid debounce is derived from the deployment
   ([Config.reclaim_debounce_us]: one Ω reaction period plus the
   worst-case RTT) instead of the former fixed 1 s. Assert the tighter
   bound on the adversity deployment, and that a crashed leader's groups
   are actually reclaimed within the budget the derivation implies:
   detection delay + two debounce periods + an election round's slack. *)
let test_reclaim_debounce_bound () =
  let sys = Util.make_system ~partitions:2 ~seed:29 () in
  let cfg = U.System.cfg sys in
  let debounce = U.Config.reclaim_debounce_us cfg in
  Alcotest.(check bool) "derived debounce tighter than the old fixed 1 s"
    true (debounce < 1_000_000);
  let crash_at = 1_500_000 in
  Sim.Engine.schedule_at (U.System.engine sys) ~time:crash_at (fun () ->
      U.System.fail_dc sys 0);
  (* strong writer at a surviving DC: stalls while the crashed leader's
     groups are headless, resumes once the bids reclaim them *)
  let first_after = ref max_int in
  ignore
    (U.System.spawn_client sys ~dc:1 (fun c ->
         while U.System.now sys < 5_500_000 do
           (try
              Client.start c ~strong:true;
              Client.update c 500 (Crdt.Ctr_add 1);
              match Client.commit c with
              | `Committed _ ->
                  let t = U.System.now sys in
                  if t > crash_at && t < !first_after then first_after := t
              | `Aborted -> ()
            with Client.Aborted -> ());
           Fiber.sleep 50_000
         done));
  U.System.run sys ~until:6_000_000;
  let deadline =
    crash_at + U.Config.detection_delay_us + (2 * debounce) + 500_000
  in
  Alcotest.(check bool)
    (Fmt.str "strong commits resume by %d us (first: %d us)" deadline
       !first_after)
    true
    (!first_after <= deadline);
  Util.assert_convergence sys

(* (8) A rejoiner whose snapshot requests queue behind a partition (the
   shape of explore seed 19, trial 0): dc2 is cut off from both peers
   for its first second back, so Ω suspects the sibling it asked and the
   retry tick asks the other; every request waits on the links and is
   answered at the heal, together with the newer ones. The store is
   large enough that one snapshot takes longer to apply than the 500 ms
   retry period. The first complete snapshot must install whichever
   request drew it, the rejoin must finish, the stores must converge,
   and the rejoiner re-asks only on suspicion. *)
let test_snapshot_requests_queued_behind_partition () =
  let sys = Util.make_system ~partitions:1 ~seed:31 ~trace_enabled:true () in
  (* 60,000 entries at 12 us each: one snapshot books about 0.72 s of
     the rejoiner's CPU *)
  let keys = Array.init 60_000 (fun i -> 1_000 + i) in
  Array.iter (fun k -> U.System.preload sys k (Crdt.Ctr_add 0)) keys;
  U.Nemesis.inject sys
    [
      { U.Nemesis.at_us = 1_000_000; ev = U.Nemesis.Crash_dc 2 };
      { at_us = 1_900_000; ev = Partition (1, 2) };
      { at_us = 2_000_000; ev = Recover_dc 2 };
      { at_us = 2_000_000; ev = Partition (2, 0) };
      { at_us = 3_000_000; ev = Heal (1, 2) };
      { at_us = 4_000_000; ev = Heal_all };
    ];
  let c0 = spawn_writer sys ~dc:0 ~key:keys.(0) ~until:5_000_000
      ~period:90_000
  in
  U.System.run sys ~until:8_000_000;
  Alcotest.(check bool) "dc2 finished catching up" false
    (U.System.dc_syncing sys 2);
  (* one request at the rejoin, then one per tick on which Ω suspects
     the sibling asked last: dc1 at 2.0 s, dc0 at 3.0 s, dc1 again at
     3.5 s *)
  let requests =
    Sim.Trace.events ~source:"replica 2.0" ~kind:"sync-request"
      (U.System.trace sys)
  in
  Alcotest.(check bool)
    (Fmt.str "at most 3 snapshot requests (sent %d)" (List.length requests))
    true
    (List.length requests <= 3);
  Util.assert_convergence sys;
  let vals = read_back sys ~dc:2 ~keys:[| keys.(0) |] ~at:8_500_000 in
  Alcotest.(check int) "dc0's increments visible at dc2 exactly once" !c0
    vals.(0)

let suite =
  [
    Alcotest.test_case
      "snapshot source partitioned mid-SYNC_STORE fails over" `Slow
      test_partition_snapshot_source;
    Alcotest.test_case
      "polled sibling partitioned mid-SYNC_PULL is dropped" `Slow
      test_partition_polled_sibling;
    Alcotest.test_case "polled sibling crashing mid-round is tolerated"
      `Slow test_crash_polled_sibling;
    Alcotest.test_case
      "seeded combined adversity still rejoins before the deadline" `Slow
      test_seeded_combined_adversity;
    Alcotest.test_case "duplicate and spurious RECOVER_DC are warned no-ops"
      `Slow test_recover_guards;
    Alcotest.test_case "overlap budgets keep seeded schedules deterministic"
      `Quick test_overlap_schedule_determinism;
    Alcotest.test_case "leadership reclaim honours the derived debounce"
      `Slow test_reclaim_debounce_bound;
    Alcotest.test_case "snapshot requests queued behind a partition rejoin"
      `Slow test_snapshot_requests_queued_behind_partition;
  ]
