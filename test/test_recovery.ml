(* DC crash-recovery end to end: a crashed data center rejoins through
   a snapshot transfer plus gap repair and converges with the
   survivors; clients fail over to live DCs carrying their causal past;
   in-flight strong transactions are re-submitted idempotently; and the
   GC floors hold the catch-up logs for exactly the grace period. *)

module U = Unistore
module Client = U.Client
module Fiber = Sim.Fiber

let counter_total reg name =
  List.fold_left
    (fun acc (_, c) -> acc + Sim.Metrics.counter_value c)
    0
    (Sim.Metrics.counters_matching reg name)

(* Crash dc2 mid-workload, recover it, and check that it catches up
   completely: the rejoined store converges with the survivors, every
   increment committed anywhere (including while dc2 was down) reads
   back exactly once at dc2 itself, and the recovery metrics record the
   catch-up. A gray dc1 -> dc0 link around the rejoin keeps dc0's view
   of dc1's stream, and so the cut of the snapshot dc0 serves, 100 ms
   behind the dc1 stream messages dc2 drops while it waits for that
   snapshot: the catch-up always has a window to repair, whatever the
   DCs' tick phases. *)
let test_crash_recover_convergence () =
  let sys = Util.make_system ~partitions:3 ~seed:11 () in
  let keys = [| 100; 101 |] in
  let strong_key = 200 in
  Array.iter (fun k -> U.System.preload sys k (Crdt.Ctr_add 0)) keys;
  U.System.preload sys strong_key (Crdt.Ctr_add 0);
  U.Nemesis.inject sys
    [
      { U.Nemesis.at_us = 1_500_000; ev = U.Nemesis.Crash_dc 2 };
      { at_us = 2_900_000;
        ev = U.Nemesis.Degrade { src = 1; dst = 0; extra_us = 100_000 } };
      { at_us = 3_000_000; ev = U.Nemesis.Recover_dc 2 };
      { at_us = 3_200_000; ev = U.Nemesis.Restore { src = 1; dst = 0 } };
    ];
  let commits = Array.make 2 0 in
  let strong_commits = ref 0 in
  for dc = 0 to 1 do
    ignore
      (U.System.spawn_client sys ~dc (fun c ->
           while U.System.now sys < 6_000_000 do
             Client.start c;
             Client.update c keys.(dc) (Crdt.Ctr_add 1);
             (match Client.commit c with
             | `Committed _ -> commits.(dc) <- commits.(dc) + 1
             | `Aborted -> ());
             Fiber.sleep 90_000
           done))
  done;
  ignore
    (U.System.spawn_client sys ~dc:0 (fun c ->
         while U.System.now sys < 6_000_000 do
           Client.start c ~strong:true;
           Client.update c strong_key (Crdt.Ctr_add 1);
           (match Client.commit c with
           | `Committed _ -> incr strong_commits
           | `Aborted -> ());
           Fiber.sleep 140_000
         done));
  Util.run sys ~until:10_000_000;
  Alcotest.(check bool) "dc2 finished catching up" false
    (U.System.dc_syncing sys 2);
  Util.assert_por sys;
  Util.assert_convergence sys;
  Alcotest.(check int) "no strong transaction left pending" 0
    (U.System.pending_strong sys);
  Alcotest.(check bool) "workload committed during the outage" true
    (commits.(0) > 10 && commits.(1) > 10 && !strong_commits > 5);
  (* read everything back at the recovered DC itself: every commit —
     including those from the outage, delivered through the snapshot,
     the gap repairs or the live stream — applied there exactly once *)
  let final = Array.make 2 (-1) and final_strong = ref (-1) in
  ignore
    (U.System.spawn_client sys ~dc:2 (fun c ->
         Client.start c;
         Array.iteri (fun i k -> final.(i) <- Client.read_int c k) keys;
         final_strong := Client.read_int c strong_key;
         ignore (Client.commit c)));
  Util.run sys ~until:10_500_000;
  for dc = 0 to 1 do
    Alcotest.(check int)
      (Printf.sprintf "dc%d's causal increments visible exactly once" dc)
      commits.(dc)
      final.(dc)
  done;
  Alcotest.(check int) "strong increments visible exactly once"
    !strong_commits !final_strong;
  let reg = U.System.metrics sys in
  (match Sim.Metrics.histograms_matching reg "dc_catchup_us" with
  | [ (_, h) ] ->
      Alcotest.(check int) "every partition replica caught up" 3
        (Sim.Metrics.h_count h)
  | _ -> Alcotest.fail "dc_catchup_us histogram missing");
  Alcotest.(check bool) "snapshot bytes accounted" true
    (counter_total reg "sync_snapshot_bytes_total" > 0);
  Alcotest.(check bool) "repair catch-up bytes accounted" true
    (counter_total reg "repair_log_bytes_total" > 0)

(* A rejoiner's own pre-crash commits that its snapshot source lacks.
   dc2's last writes before its crash reach dc1 only (dc0 <-> dc2 is cut
   from 1 s), and dc0 <-> dc1 is cut through the outage, so forwarding
   cannot bring them to dc0 either. dc2 asks dc1 for its snapshot, but
   dc1 <-> dc2 is cut from just before the rejoin to 4 s: once Ω
   suspects dc1, the retry tick asks dc0, whose snapshot lands first and
   is installed; its cut misses those writes (both requests and their
   order are checked below, so a schedule drift cannot hollow the test
   out). Nobody else sends a DC its own stream, and no stream message
   from dc2 itself can reveal the gap: the rejoiner must learn it from
   dc1's gossip after the heal and repair its own stream, and every DC
   must end up holding every acked write. *)
let test_rejoiner_recovers_own_commits () =
  let sys =
    Util.make_system ~partitions:1 ~seed:19 ~trace_enabled:true ()
  in
  let key = 300 in
  U.System.preload sys key (Crdt.Ctr_add 0);
  U.Nemesis.inject sys
    [
      { U.Nemesis.at_us = 1_000_000; ev = U.Nemesis.Partition (0, 2) };
      { at_us = 2_000_000; ev = Crash_dc 2 };
      { at_us = 2_000_000; ev = Partition (0, 1) };
      { at_us = 2_000_000; ev = Heal (0, 2) };
      { at_us = 2_900_000; ev = Partition (1, 2) };
      { at_us = 3_000_000; ev = Recover_dc 2 };
      { at_us = 4_000_000; ev = Heal (1, 2) };
      { at_us = 5_000_000; ev = Heal (0, 1) };
    ];
  let commits = ref 0 in
  ignore
    (U.System.spawn_client sys ~dc:2 (fun c ->
         while U.System.now sys < 1_800_000 do
           Client.start c;
           Client.update c key (Crdt.Ctr_add 1);
           (match Client.commit c with
           | `Committed _ -> incr commits
           | `Aborted -> ());
           Fiber.sleep 50_000
         done));
  Util.run sys ~until:8_000_000;
  let snapshot_sources =
    List.map
      (fun (e : Sim.Trace.event) -> e.ev_detail)
      (Sim.Trace.events ~source:"replica 2.0" ~kind:"sync-request"
         (U.System.trace sys))
  in
  Alcotest.(check (list string))
    "dc1 was asked, then dc0 once Ω suspected dc1"
    [ "snapshot from dc1"; "snapshot from dc0" ]
    snapshot_sources;
  Alcotest.(check bool) "dc2 finished catching up" false
    (U.System.dc_syncing sys 2);
  Util.assert_por sys;
  Util.assert_convergence sys;
  for dc = 0 to 2 do
    let v = ref (-1) in
    ignore
      (U.System.spawn_client sys ~dc (fun c ->
           Client.start c;
           v := Client.read_int c key;
           ignore (Client.commit c)));
    Util.run sys ~until:(U.System.now sys + 500_000);
    Alcotest.(check int)
      (Printf.sprintf "dc2's increments visible exactly once at dc%d" dc)
      !commits !v
  done

(* Messages of [kind] the network sent, over every link. *)
let sent_of_kind reg kind =
  List.fold_left
    (fun acc (labels, c) ->
      if List.assoc_opt "kind" labels = Some kind then
        acc + Sim.Metrics.counter_value c
      else acc)
    0
    (Sim.Metrics.counters_matching reg "net_sent_total")

(* A DC rejoining next to healthy siblings asks one of them once: one
   SYNC_REQUEST and one SYNC_STORE per partition. Asking a second
   sibling on the retry tick's first firing, a few hundred microseconds
   after the first request, sent two of each and applied both
   snapshots. *)
let test_rejoin_one_snapshot_per_partition () =
  let partitions = 3 in
  let sys = Util.make_system ~partitions ~seed:13 () in
  let keys = [| 100; 101; 102 |] in
  Array.iter (fun k -> U.System.preload sys k (Crdt.Ctr_add 0)) keys;
  U.Nemesis.inject sys
    [
      { U.Nemesis.at_us = 1_000_000; ev = U.Nemesis.Crash_dc 2 };
      { at_us = 2_000_000; ev = Recover_dc 2 };
    ];
  for dc = 0 to 1 do
    ignore
      (U.System.spawn_client sys ~dc (fun c ->
           let i = ref 0 in
           while U.System.now sys < 3_000_000 do
             Client.run_txn c (fun c ->
                 Client.update c keys.(!i mod 3) (Crdt.Ctr_add 1));
             incr i;
             Fiber.sleep 40_000
           done))
  done;
  Util.run sys ~until:4_000_000;
  Alcotest.(check bool) "dc2 finished catching up" false
    (U.System.dc_syncing sys 2);
  let reg = U.System.metrics sys in
  Alcotest.(check int) "one snapshot request per partition" partitions
    (sent_of_kind reg "sync_request");
  Alcotest.(check int) "one snapshot per partition" partitions
    (sent_of_kind reg "sync_store");
  Util.assert_por sys;
  Util.assert_convergence sys

(* A snapshot source that refuses is asked again elsewhere after the
   silence bound. dc1 and dc2 crash together and rejoin together; dc2
   asks dc1, which is catching up itself and so stays silent, and Ω
   has no reason to suspect it. Only once dc1 has been silent for the
   silence bound does dc2's retry tick ask dc0; both
   DCs then finish and the stores converge. *)
let test_silent_snapshot_source_reasked () =
  let sys =
    Util.make_system ~partitions:1 ~seed:17 ~mode:U.Config.Causal_only
      ~trace_enabled:true ()
  in
  let key = 100 in
  U.System.preload sys key (Crdt.Ctr_add 0);
  U.Nemesis.inject sys
    [
      { U.Nemesis.at_us = 1_000_000; ev = U.Nemesis.Crash_dc 1 };
      { at_us = 1_000_000; ev = Crash_dc 2 };
      { at_us = 2_000_000; ev = Recover_dc 1 };
      { at_us = 2_000_000; ev = Recover_dc 2 };
    ];
  ignore
    (U.System.spawn_client sys ~dc:0 (fun c ->
         while U.System.now sys < 3_000_000 do
           Client.run_txn c (fun c -> Client.update c key (Crdt.Ctr_add 1));
           Fiber.sleep 50_000
         done));
  Util.run sys ~until:7_000_000;
  let requests =
    Sim.Trace.events ~source:"replica 2.0" ~kind:"sync-request"
      (U.System.trace sys)
  in
  Alcotest.(check (list string)) "dc2 asked dc1, then dc0"
    [ "snapshot from dc1"; "snapshot from dc0" ]
    (List.map (fun (e : Sim.Trace.event) -> e.ev_detail) requests);
  (* the silence bound ([Recovery.snapshot_silence_us], internal) is
     2 s; the retry tick runs every 500 ms *)
  (match requests with
  | [ first; second ] ->
      let gap = second.ev_time - first.ev_time in
      Alcotest.(check bool)
        (Fmt.str "re-asked after the silence bound, within one tick (%d us)"
           gap)
        true
        (gap >= 2_000_000 && gap < 2_500_000)
  | _ -> ());
  Alcotest.(check bool) "dc1 finished catching up" false
    (U.System.dc_syncing sys 1);
  Alcotest.(check bool) "dc2 finished catching up" false
    (U.System.dc_syncing sys 2);
  Util.assert_convergence sys

(* The snapshot cut's floor survives a restart from disk. A replica
   that rejoined by WAN snapshot at cut 1000 of dc1's stream holds
   nothing of that stream below the cut, and still holds nothing there
   after it crashes and restarts from its own disk: it must keep
   refusing a repair window that starts below the cut (serving it would
   vouch, through [covered], for transactions it never held), and keep
   serving one that starts at the cut. *)
let test_snapshot_floor_survives_restart () =
  let eng, r, probes, sent = Util.probe_rig ~persistence:true () in
  let zero = Vclock.Vc.create ~dcs:3 in
  let cut = Vclock.Vc.of_array [| 0; 1_000; 0; 0 |] in
  let settle () =
    List.iter
      (fun dc ->
        U.Replica.handle r
          (U.Msg.Knownvec_global { dc; claim = { vec = zero; stable = None } }))
      [ 1; 2 ]
  in
  U.Replica.begin_rejoin r ~on_done:(fun () -> ());
  U.Replica.handle r (U.Msg.Sync_store { entries = []; cut });
  settle ();
  Alcotest.(check bool) "the rejoin finished" false (U.Replica.is_syncing r);
  (* the re-seeding snapshot lands on disk *)
  Sim.Engine.run ~until:300_000 eng;
  U.Replica.crash_node r;
  sent := [];
  U.Replica.restart_from_disk r ~on_done:(fun () -> ());
  settle ();
  Alcotest.(check bool) "the restart finished" false (U.Replica.is_syncing r);
  let request ~vec_from ~sq =
    U.Replica.handle r
      (U.Msg.Repair_request
         { from = probes.(2); origin = 1; vec_from; upto = 1_000; sq })
  in
  request ~vec_from:500 ~sq:5;
  request ~vec_from:1_000 ~sq:6;
  Sim.Engine.run ~until:600_000 eng;
  Alcotest.(check bool) "the restart used the disk, not the WAN" false
    (List.exists
       (fun (_, m) -> match m with U.Msg.Sync_request _ -> true | _ -> false)
       !sent);
  let replies =
    List.filter_map
      (fun (dc, m) ->
        match m with
        | U.Msg.Repair_log { origin = 1; covered; sq; _ } when dc = 2 ->
            Some (sq, covered)
        | _ -> None)
      (List.rev !sent)
  in
  Alcotest.(check (list (pair int int)))
    "only the window from the cut is served, covering to the cut"
    [ (6, 1_000) ] replies

(* A client attached to the DC that crashes: its next transaction times
   out, the session migrates to a live DC blocking until the causal past
   is covered there, and read-your-writes holds across the switch. *)
let test_failover_causality () =
  let sys =
    Util.make_system ~partitions:2 ~seed:5 ~client_failover_us:300_000 ()
  in
  let key = 42 in
  U.System.preload sys key (Crdt.Ctr_add 0);
  U.Nemesis.inject sys
    [ { U.Nemesis.at_us = 1_000_000; ev = U.Nemesis.Crash_dc 2 } ];
  let writes = ref 0 and observed = ref (-1) and final_dc = ref (-1) in
  ignore
    (U.System.spawn_client sys ~dc:2 (fun c ->
         (* two causal writes before the crash, with time to replicate *)
         Client.run_txn c (fun c -> Client.update c key (Crdt.Ctr_add 1));
         incr writes;
         Client.run_txn c (fun c -> Client.update c key (Crdt.Ctr_add 1));
         incr writes;
         Fiber.sleep 1_500_000;
         (* the session DC is dead by now: this transaction fails over
            and re-executes at a surviving DC *)
         observed := Client.run_txn c (fun c -> Client.read_int c key);
         final_dc := Client.dc c));
  Util.run sys ~until:5_000_000;
  Alcotest.(check int) "read-your-writes across the failover" !writes
    !observed;
  Alcotest.(check bool) "the session migrated off the crashed DC" true
    (!final_dc >= 0 && !final_dc <> 2);
  Alcotest.(check int) "the failover was counted once" 1
    (counter_total (U.System.metrics sys) "client_failovers_total");
  Util.assert_por sys

(* Strong transactions under failover take effect at most once: the
   client re-submits an in-flight commit under the same tid at the
   failover DC, certification dedups, and the counter's final value
   equals exactly the number of commits the client observed. *)
let test_strong_resubmission_exactly_once () =
  let sys =
    Util.make_system ~partitions:2 ~seed:9 ~client_failover_us:250_000 ()
  in
  let key = 7 in
  U.System.preload sys key (Crdt.Ctr_add 0);
  U.Nemesis.inject sys
    [ { U.Nemesis.at_us = 1_000_000; ev = U.Nemesis.Crash_dc 2 } ];
  let commits = ref 0 in
  ignore
    (U.System.spawn_client sys ~dc:2 (fun c ->
         while U.System.now sys < 3_000_000 do
           (try
              Client.start c ~strong:true;
              Client.update c key (Crdt.Ctr_add 1);
              match Client.commit c with
              | `Committed _ -> incr commits
              | `Aborted -> ()
            with Client.Aborted -> ());
           Fiber.sleep 20_000
         done));
  Util.run sys ~until:6_000_000;
  Alcotest.(check int) "no strong transaction left pending" 0
    (U.System.pending_strong sys);
  Alcotest.(check bool) "the crash forced a failover" true
    (counter_total (U.System.metrics sys) "client_failovers_total" >= 1);
  Util.assert_por sys;
  let final = ref (-1) in
  ignore
    (U.System.spawn_client sys ~dc:0 (fun c ->
         Client.start c;
         final := Client.read_int c key;
         ignore (Client.commit c)));
  Util.run sys ~until:6_500_000;
  Alcotest.(check int) "strong increments applied exactly once" !commits
    !final

(* The GC floors of a crashed DC: the catch-up logs (both the remote
   forwarded buffers and the origin's own propagated log) are retained
   while the crashed DC is within its rejoin grace period, and pruned
   once the grace expires. *)
let test_gc_grace_floors () =
  let sys = Util.make_system ~partitions:1 ~seed:3 () in
  let key = 5 in
  U.System.preload sys key (Crdt.Ctr_add 0);
  U.Nemesis.inject sys
    [ { U.Nemesis.at_us = 300_000; ev = U.Nemesis.Crash_dc 2 } ];
  (* a causal commit at dc0 after the crash: dc2 cannot cover it, so the
     other replicas must hold it for a potential rejoin *)
  ignore
    (U.System.spawn_client sys ~dc:0 (fun c ->
         Fiber.sleep 800_000;
         Client.start c;
         Client.update c key (Crdt.Ctr_add 1);
         ignore (Client.commit c)));
  let r0 = U.System.replica sys ~dc:0 ~part:0 in
  let r1 = U.System.replica sys ~dc:1 ~part:0 in
  let own_during = ref (-1) and fwd_during = ref (-1) in
  Sim.Engine.schedule (U.System.engine sys) ~delay:9_800_000 (fun () ->
      own_during := U.Stream_log.length (U.Replica.stream_log r0 ~origin:0);
      fwd_during := U.Stream_log.length (U.Replica.stream_log r1 ~origin:0));
  (* grace ([Config.gc_grace_us], 10 s) expires at 10.3s; the floors
     release and the broadcast-driven prune empties the logs well before
     12.5s *)
  Util.run sys ~until:12_500_000;
  Alcotest.(check bool) "origin retains its propagated log during grace"
    true (!own_during > 0);
  Alcotest.(check bool) "peers retain the forwarded buffer during grace"
    true (!fwd_during > 0);
  Alcotest.(check int) "propagated log pruned after grace" 0
    (U.Stream_log.length (U.Replica.stream_log r0 ~origin:0));
  Alcotest.(check int) "forwarded buffer pruned after grace" 0
    (U.Stream_log.length (U.Replica.stream_log r1 ~origin:0))

(* A DC that crashes and recovers inside Ω's detection delay is never
   suspected, so [Cert.retry_suspected] does not finish the strong 2PCs
   its nodes were coordinating. Its rejoined members have no accepted
   log, and the client does not fail over. Only [System.recover_dc]'s
   RETRY at the surviving members ([Cert.retry_coordinated]) decides an
   entry the crash orphaned; without it, the entry blocks every later
   delivery in its group until the stale-entry retry fires seconds
   later. The crash offsets span the 2PC's legs, and at each the group's
   strong frontier at a survivor moves within 2 s of the recovery. *)
let recover_in_detection_delay_run ~crash_offset_us =
  let sys = Util.make_system ~partitions:1 ~seed:5 () in
  let key = 3 in
  U.System.preload sys key (Crdt.Ctr_add 0);
  let submit_us = 600_000 in
  let crash_us = submit_us + crash_offset_us in
  let recover_us = crash_us + 200_000 in
  U.Nemesis.inject sys
    [
      { U.Nemesis.at_us = crash_us; ev = U.Nemesis.Crash_dc 2 };
      { U.Nemesis.at_us = recover_us; ev = U.Nemesis.Recover_dc 2 };
    ];
  ignore
    (U.System.spawn_client sys ~dc:2 (fun c ->
         Fiber.sleep submit_us;
         Client.start c ~strong:true;
         Client.update c key (Crdt.Ctr_add 1);
         ignore (Client.commit c)));
  let frontier () =
    match U.Replica.cert (U.System.replica sys ~dc:1 ~part:0) with
    | Some c -> U.Cert.last_delivered c
    | None -> Alcotest.fail "dc1 holds no certification member"
  in
  Util.run sys ~until:recover_us;
  let at_recovery = frontier () in
  Util.run sys ~until:(recover_us + 2_000_000);
  (at_recovery, frontier ())

let test_recover_in_detection_delay_retries () =
  List.iter
    (fun crash_offset_us ->
      let before, after = recover_in_detection_delay_run ~crash_offset_us in
      Alcotest.(check bool)
        (Fmt.str "offset %dus: the strong frontier moves (%d -> %d)"
           crash_offset_us before after)
        true (after > before))
    [ 0; 25_000; 50_000; 75_000; 100_000 ]

(* Seeded schedules: by default no recovery is drawn (existing seeds
   keep their schedules); with a recovery budget, a crashed DC recovers
   after its crash and before the final heal. *)
let test_random_schedule_recovery () =
  let horizon = 8_000_000 in
  let base = U.Nemesis.random_schedule ~seed:7 ~dcs:5 ~horizon_us:horizon () in
  Alcotest.(check bool) "no recovery by default" true
    (List.for_all
       (fun s ->
         match s.U.Nemesis.ev with U.Nemesis.Recover_dc _ -> false | _ -> true)
       base);
  (* find a seed whose schedule crashes a DC *)
  let is_crash s =
    match s.U.Nemesis.ev with U.Nemesis.Crash_dc _ -> true | _ -> false
  in
  let rec find seed =
    if seed > 64 then Alcotest.fail "no crashing seed below 64"
    else
      let sched =
        U.Nemesis.random_schedule ~seed ~dcs:5 ~horizon_us:horizon
          ~max_recoveries:1 ()
      in
      match List.find_opt is_crash sched with
      | Some crash -> (seed, sched, crash)
      | None -> find (seed + 1)
  in
  let seed, sched, crash = find 0 in
  let dc =
    match crash.U.Nemesis.ev with U.Nemesis.Crash_dc dc -> dc | _ -> -1
  in
  (match
     List.find_opt (fun s -> s.U.Nemesis.ev = U.Nemesis.Recover_dc dc) sched
   with
  | None -> Alcotest.fail "crash without a paired recovery"
  | Some r ->
      Alcotest.(check bool) "recovery strictly after the crash" true
        (r.U.Nemesis.at_us > crash.U.Nemesis.at_us);
      Alcotest.(check bool) "recovery no later than the final heal" true
        (r.U.Nemesis.at_us <= 3 * horizon / 4));
  (* the recovery budget only appends steps: the same seed without it
     yields exactly the schedule minus the recoveries *)
  let without =
    U.Nemesis.random_schedule ~seed ~dcs:5 ~horizon_us:horizon ()
  in
  let strip =
    List.filter
      (fun s ->
        match s.U.Nemesis.ev with U.Nemesis.Recover_dc _ -> false | _ -> true)
      sched
  in
  Alcotest.(check bool) "recoveries only append to the base schedule" true
    (List.sort compare strip = List.sort compare without)

(* {1 Replication continuity after node restart} *)

(* A node that restarts while its partition's origin DC is unreachable:
   every sibling it can reach holds a view of that origin that may lag
   strictly below a write the origin already acked (the siblings missed
   batches behind the same partition). Nothing from such a lagging view
   may let the origin's next direct batch jump the restarted node's
   frontier over the window: the continuity check detects the jump and
   repairs the window first-hand, and every acked increment reads back
   exactly once everywhere. *)
let test_restart_behind_partition_keeps_acked_writes () =
  let sys =
    Util.make_system ~partitions:1 ~seed:17 ~persistence:true
      ~snapshot_interval_us:1_500_000
      ~client_failover_us:300_000
      ~link_faults:Net.Faults.default_spec ()
  in
  let keys = [| 100; 101; 102 |] in
  Array.iter (fun k -> U.System.preload sys k (Crdt.Ctr_add 0)) keys;
  U.Nemesis.inject sys
    [
      (* cut dc1 off from dc0, then crash dc0's node: when it restarts,
         dc1 is unreachable and only dc2 may hold dc1's latest writes *)
      { U.Nemesis.at_us = 2_000_000; ev = U.Nemesis.Partition (1, 0) };
      { at_us = 2_000_000; ev = Crash_node { dc = 0; part = 0 } };
      { at_us = 3_000_000; ev = Restart_node { dc = 0; part = 0 } };
      { at_us = 3_500_000; ev = Heal (1, 0) };
      { at_us = 4_000_000; ev = Heal_all };
    ];
  (* [maybe] counts commits interrupted by a failover: the client saw an
     abort, but the transaction may still have applied server-side (the
     history records it as an unacked writer) *)
  let commits = Array.make 3 0 and maybe = Array.make 3 0 in
  for dc = 0 to 2 do
    ignore
      (U.System.spawn_client sys ~dc (fun c ->
           while U.System.now sys < 4_500_000 do
             (try
                Client.start c;
                Client.update c keys.(dc) (Crdt.Ctr_add 1);
                match Client.commit c with
                | `Committed _ -> commits.(dc) <- commits.(dc) + 1
                | `Aborted -> ()
              with Client.Aborted -> maybe.(dc) <- maybe.(dc) + 1);
             Fiber.sleep 70_000
           done))
  done;
  Util.run sys ~until:9_000_000;
  Alcotest.(check bool) "node is back" false
    (U.System.node_down sys ~dc:0 ~part:0);
  Util.assert_por sys;
  Util.assert_convergence sys;
  (* no repair is left running once quiescent *)
  for dc = 0 to 2 do
    let r = U.System.replica sys ~dc ~part:0 in
    for origin = 0 to 2 do
      Alcotest.(check bool)
        (Printf.sprintf "no repair in flight at dc%d for dc%d" dc origin)
        false
        (U.Replica.repair_active r ~origin)
    done
  done;
  (* acked increments survive the partition window and apply exactly
     once; an interrupted commit may legitimately have landed too *)
  for dc = 0 to 2 do
    let final = Array.make 3 (-1) in
    ignore
      (U.System.spawn_client sys ~dc (fun c ->
           Client.start c;
           Array.iteri (fun i k -> final.(i) <- Client.read_int c k) keys;
           ignore (Client.commit c)));
    Util.run sys ~until:(9_200_000 + (100_000 * dc));
    Array.iteri
      (fun i _ ->
        Alcotest.(check bool)
          (Printf.sprintf "dc%d's acked increments read back at dc%d" i dc)
          true
          (final.(i) >= commits.(i)
          && final.(i) <= commits.(i) + maybe.(i)))
      keys
  done

(* Seeded lossy-link x node-restart durability sweep: under lossy
   inter-DC links, a DC partition and a node crash/restart, every acked
   increment is present exactly once at every DC after the dust
   settles, across several seeds. This is the schedule family the
   explorer minimized REPRO_4ce8396d6d636cc3 from. *)
let test_lossy_restart_durability_sweep () =
  List.iter
    (fun seed ->
      let sys =
        Util.make_system ~partitions:2 ~seed ~persistence:true
          ~snapshot_interval_us:1_500_000
          ~client_failover_us:300_000
          ~link_faults:Net.Faults.default_spec ()
      in
      let keys = [| 100; 101; 102 |] in
      Array.iter (fun k -> U.System.preload sys k (Crdt.Ctr_add 0)) keys;
      let part = seed mod 2 in
      U.Nemesis.inject sys
        [
          { U.Nemesis.at_us = 2_000_000; ev = U.Nemesis.Partition (1, 0) };
          { at_us = 2_000_000; ev = Crash_node { dc = 1; part } };
          { at_us = 3_000_000; ev = Restart_node { dc = 1; part } };
          { at_us = 3_200_000; ev = Heal (1, 0) };
          { at_us = 4_000_000; ev = Heal_all };
        ];
      let commits = Array.make 3 0 and maybe = Array.make 3 0 in
      for dc = 0 to 2 do
        ignore
          (U.System.spawn_client sys ~dc (fun c ->
               while U.System.now sys < 4_500_000 do
                 (try
                    Client.start c;
                    Client.update c keys.(dc) (Crdt.Ctr_add 1);
                    match Client.commit c with
                    | `Committed _ -> commits.(dc) <- commits.(dc) + 1
                    | `Aborted -> ()
                  with Client.Aborted -> maybe.(dc) <- maybe.(dc) + 1);
                 Fiber.sleep 90_000
               done))
      done;
      Util.run sys ~until:9_000_000;
      Alcotest.(check bool)
        (Printf.sprintf "seed %d: node is back" seed)
        false
        (U.System.node_down sys ~dc:1 ~part);
      Util.assert_por sys;
      Util.assert_convergence sys;
      let final = Array.make 3 (-1) in
      ignore
        (U.System.spawn_client sys ~dc:0 (fun c ->
             Client.start c;
             Array.iteri (fun i k -> final.(i) <- Client.read_int c k) keys;
             ignore (Client.commit c)));
      Util.run sys ~until:9_300_000;
      Array.iteri
        (fun i _ ->
          Alcotest.(check bool)
            (Printf.sprintf "seed %d: dc%d's increments durable exactly once"
               seed i)
            true
            (final.(i) >= commits.(i)
            && final.(i) <= commits.(i) + maybe.(i)))
        keys)
    [ 1; 2; 3 ]

(* Every key preloaded with the same op shares one t0 entry at every
   replica. A seeded run with a node restart from disk (its snapshot
   installs each key's list by reference) and a whole-DC rejoin (the
   snapshot transfer installs each list by reference too) must converge, and the
   shared t0 vector must still be all zeros: nothing mutates an entry's
   vector. A key nobody writes keeps the very list preload installed at
   the restarted node. *)
let test_shared_t0_survives_restart_and_rejoin () =
  let sys =
    Util.make_system ~partitions:2 ~seed:5 ~persistence:true
      ~snapshot_interval_us:500_000 ()
  in
  let keys = [| 100; 101; 102; 103 |] and idle = 104 in
  Array.iter (fun k -> U.System.preload sys k (Crdt.Ctr_add 0)) keys;
  U.System.preload sys idle (Crdt.Ctr_add 0);
  let part = Store.Keyspace.partition ~partitions:2 idle in
  let t0_list () = Store.Oplog.entries (U.Replica.oplog (U.System.replica sys ~dc:1 ~part)) idle in
  let t0 = t0_list () in
  U.Nemesis.inject sys
    [
      { U.Nemesis.at_us = 1_200_000; ev = Crash_node { dc = 0; part } };
      { at_us = 1_800_000; ev = Restart_node { dc = 0; part } };
      { at_us = 2_500_000; ev = Crash_dc 2 };
      { at_us = 3_500_000; ev = Recover_dc 2 };
    ];
  let commits = ref 0 in
  for dc = 0 to 1 do
    ignore
      (U.System.spawn_client sys ~dc (fun c ->
           let i = ref dc in
           while U.System.now sys < 5_000_000 do
             (try
                Client.start c ~strong:(!i mod 5 = 0);
                Client.update c keys.(!i mod 4) (Crdt.Ctr_add 1);
                match Client.commit c with
                | `Committed _ -> incr commits
                | `Aborted -> ()
              with Client.Aborted -> ());
             incr i;
             Fiber.sleep 80_000
           done))
  done;
  Util.run sys ~until:9_000_000;
  Alcotest.(check bool) "the node is back" false
    (U.System.node_down sys ~dc:0 ~part);
  Alcotest.(check bool) "dc2 caught up" false (U.System.dc_syncing sys 2);
  Alcotest.(check bool) "the workload committed" true (!commits > 20);
  Util.assert_por sys;
  Util.assert_convergence sys;
  let zero = Vclock.Vc.create ~dcs:3 in
  for dc = 0 to 2 do
    Array.iter
      (fun k ->
        let p = Store.Keyspace.partition ~partitions:2 k in
        let entries =
          Store.Oplog.entries (U.Replica.oplog (U.System.replica sys ~dc ~part:p)) k
        in
        match List.rev entries with
        | [] -> Alcotest.failf "dc%d lost key %d" dc k
        | (e : Store.Oplog.entry) :: _ ->
            Alcotest.(check int) (Printf.sprintf "dc%d key %d: t0 origin" dc k) (-1)
              e.tag.Crdt.origin;
            Alcotest.(check bool)
              (Printf.sprintf "dc%d key %d: t0 vector all zeros" dc k)
              true
              (Vclock.Vc.equal e.vec zero))
      (Array.append keys [| idle |])
  done;
  Alcotest.(check bool) "the restarted node kept the shared list" true
    (Store.Oplog.entries (U.Replica.oplog (U.System.replica sys ~dc:0 ~part)) idle == t0);
  Alcotest.(check bool) "and so did its sibling" true (t0_list () == t0)

(* A rejoin snapshot ships each key's entry list by reference and the
   rejoiner installs it as is. Writes stop before dc2 crashes, so what
   dc2 holds after its rejoin came from the snapshot: the never-written
   key's list is the very t0 list preload installed, and a written
   key's newest entry is the one its writer's commit built, shared with
   the DC that served the snapshot (and with every other DC). Key 103
   is written twice by one transaction: its two entries share a tag,
   and a rejoiner that re-sorted them would read the first write. *)
let test_rejoin_installs_shared_lists () =
  let sys = Util.make_system ~partitions:2 ~seed:5 () in
  let keys = [| 100; 101; 102; 103 |] and idle = 104 in
  Array.iter (fun k -> U.System.preload sys k (Crdt.Reg_write 0)) keys;
  U.System.preload sys idle (Crdt.Reg_write 0);
  let entries dc k =
    let part = Store.Keyspace.partition ~partitions:2 k in
    Store.Oplog.entries (U.Replica.oplog (U.System.replica sys ~dc ~part)) k
  in
  let t0 = entries 2 idle in
  U.Nemesis.inject sys
    [
      { U.Nemesis.at_us = 2_500_000; ev = Crash_dc 2 };
      { at_us = 3_000_000; ev = Recover_dc 2 };
    ];
  for dc = 0 to 1 do
    ignore
      (U.System.spawn_client sys ~dc (fun c ->
           Array.iteri
             (fun i k ->
               Client.start c ~strong:(i = 2);
               Client.update c k (Crdt.Reg_write ((10 * dc) + i + 1));
               if k = 103 then Client.update c k (Crdt.Reg_write (100 + dc));
               ignore (Client.commit c))
             keys))
  done;
  Util.run sys ~until:6_000_000;
  Alcotest.(check bool) "dc2 caught up" false (U.System.dc_syncing sys 2);
  Util.assert_convergence sys;
  Alcotest.(check bool) "the never-written key keeps the t0 list" true
    (entries 2 idle == t0);
  Array.iter
    (fun k ->
      let newest dc =
        match entries dc k with
        | e :: _ -> e
        | [] -> Alcotest.failf "dc%d lost key %d" dc k
      in
      Alcotest.(check bool)
        (Printf.sprintf "key %d: written before the crash" k)
        true
        ((newest 2).tag.Crdt.origin <> -1);
      for dc = 0 to 1 do
        Alcotest.(check bool)
          (Printf.sprintf "key %d: the rejoiner shares dc%d's newest entry" k dc)
          true
          (newest 2 == newest dc)
      done)
    keys

(* The failover watchdog times an unanswered call out at exactly its
   send time plus [client_failover_us]: the session's DC is crashed, so
   the START sent at 1.2 s never gets a reply, and the session fails
   over at 1.5 s. *)
let test_watchdog_exact_timeout () =
  let timeout = 300_000 in
  let sys =
    Util.make_system ~partitions:2 ~seed:5 ~client_failover_us:timeout
      ~trace_enabled:true ()
  in
  U.Nemesis.inject sys
    [ { U.Nemesis.at_us = 1_000_000; ev = U.Nemesis.Crash_dc 2 } ];
  let sent = ref (-1) and src = ref "" in
  ignore
    (U.System.spawn_client sys ~dc:2 (fun c ->
         src := Printf.sprintf "client %d" (Client.id c);
         (* answered calls before the crash leave entries in the ring *)
         for _ = 1 to 5 do
           Client.run_txn c (fun c -> ignore (Client.read_int c 1))
         done;
         Fiber.sleep (1_200_000 - U.System.now sys);
         sent := U.System.now sys;
         Client.run_txn c (fun c -> ignore (Client.read_int c 1))));
  Util.run sys ~until:3_000_000;
  match Sim.Trace.events ~source:!src ~kind:"failover" (U.System.trace sys) with
  | ev :: _ ->
      Alcotest.(check int) "timed out at send + client_failover_us"
        (!sent + timeout) ev.Sim.Trace.ev_time
  | [] -> Alcotest.fail "the session never failed over"

(* One watchdog timer per session, not one per call: a session making
   many answered calls leaves at most one more pending engine event
   than the same run with failover off (the timeout draws no randomness,
   so both runs are otherwise identical). *)
let test_watchdog_one_timer () =
  let build failover =
    let sys =
      Util.make_system ~partitions:2 ~seed:3 ~client_failover_us:failover ()
    in
    let calls = ref 0 in
    ignore
      (U.System.spawn_client sys ~dc:0 (fun c ->
           while true do
             Client.run_txn c (fun c ->
                 ignore (Client.read_int c 1);
                 Client.update c 2 (Crdt.Ctr_add 1));
             calls := !calls + 4
           done));
    (sys, calls)
  in
  let on, calls_on = build 300_000 and off, calls_off = build 0 in
  for step = 1 to 10 do
    let until = step * 100_000 in
    Util.run on ~until;
    Util.run off ~until;
    Alcotest.(check int) "same progress" !calls_off !calls_on;
    let extra =
      Sim.Engine.pending_events (U.System.engine on)
      - Sim.Engine.pending_events (U.System.engine off)
    in
    if extra < 0 || extra > 1 then
      Alcotest.failf "%d extra pending events at %d us after %d calls" extra
        until !calls_on
  done;
  Alcotest.(check bool) "many calls inside one timeout window" true
    (!calls_on > 100)

(* A reply that arrives after its call timed out is dropped, even while
   the session has a newer call in flight: a session keeps one call, and
   only that call's reply resolves it. Two scripted stand-ins answer for
   "dc0" and "dc1" (both physically in one DC, 100 us apart) and answer
   a START after 15 ms and 5 ms: the call to dc0 times out at 10 ms, the
   session fails over to dc1 (answered at once) and retries there. dc0's
   late reply lands at 15.2 ms, while the retry is in flight; the retry
   must still complete on its own reply, at 15.4 ms plus the session's
   service cost for the two replies it took since the failover. *)
let test_late_reply_dropped () =
  let timeout = 10_000 in
  let cfg = U.Config.default ~client_failover_us:timeout () in
  let eng = Sim.Engine.create () in
  let net =
    Net.Network.create eng
      (Net.Topology.create ~intra_dc_us:100 ~jitter_us:0
         [| Net.Topology.Virginia; Net.Topology.California |])
      (Sim.Metrics.create ()) ~kind_of:U.Msg.kind ~size_of:U.Msg.size_bytes
  in
  let snap = Vclock.Vc.create ~dcs:3 in
  let stand_in ~delay =
    let me = ref (-1) in
    me :=
      Net.Network.register net ~dc:0 ~cost:(fun _ -> 0) (function
        | U.Msg.C_start { client; req; tid; _ } ->
            Sim.Engine.schedule eng ~delay (fun () ->
                Net.Network.send net ~src:!me ~dst:client
                  (U.Msg.R_started { req; tid; snap }))
        | U.Msg.C_attach { client; req; _ } ->
            Net.Network.send net ~src:!me ~dst:client (U.Msg.R_ok { req })
        | _ -> ());
    !me
  in
  let dc0 = stand_in ~delay:15_000 and dc1 = stand_in ~delay:5_000 in
  let c =
    Client.create ~id:0 ~eng ~net ~cfg ~history:(U.History.create ())
      ~trace:Sim.Trace.disabled ~metrics:(Sim.Metrics.create ()) ~dc:0
      ~replicas_of_dc:(fun dc -> [| (if dc = 0 then dc0 else dc1) |])
  in
  Client.set_dc_live c (fun dc -> dc = 1);
  let aborted = ref false and started = ref (-1) in
  Fiber.spawn eng (fun () ->
      (try Client.start c with Client.Aborted -> aborted := true);
      Client.start c;
      started := Sim.Engine.now eng);
  Sim.Engine.run eng ~until:100_000;
  Alcotest.(check bool) "the first START timed out" true !aborted;
  Alcotest.(check int) "failed over to dc1" 1 (Client.dc c);
  let cost = U.Msg.cost cfg.U.Config.costs in
  let tid = { U.Types.cl = 0; sq = 2 } in
  Alcotest.(check int) "the retry completed on its own reply"
    (15_400 + cost (U.Msg.R_ok { req = 2 })
    + cost (U.Msg.R_started { req = 3; tid; snap }))
    !started;
  Alcotest.(check bool) "no call in flight" false (Client.in_flight c)

(* After a late reply is dropped, the next call still times out at its
   own send time plus the timeout, though the watchdog was armed for an
   earlier deadline. Scripted stand-ins answer for "dc0", "dc1" and
   "dc2" (all physically in one DC, 100 us apart): dc0 answers a START
   after 15 ms, dc1 answers a failover at once and never a START, dc2
   answers everything at once. The START to dc0 times out at 10 ms; the
   failover to dc1, sent then, arms the watchdog for 20 ms; the retried
   START to dc1 leaves a little later and must time out at its own
   deadline, not at 20 ms. dc0's reply lands at 15.2 ms, in between, and
   resolves nothing. *)
let test_next_call_after_late_reply () =
  let timeout = 10_000 in
  let cfg = U.Config.default ~client_failover_us:timeout () in
  let eng = Sim.Engine.create () in
  let net =
    Net.Network.create eng
      (Net.Topology.create ~intra_dc_us:100 ~jitter_us:0
         [| Net.Topology.Virginia; Net.Topology.California |])
      (Sim.Metrics.create ()) ~kind_of:U.Msg.kind ~size_of:U.Msg.size_bytes
  in
  let snap = Vclock.Vc.create ~dcs:3 in
  let failovers = ref [] in
  let stand_in ~start_delay =
    let me = ref (-1) in
    me :=
      Net.Network.register net ~dc:0 ~cost:(fun _ -> 0) (function
        | U.Msg.C_start { client; req; tid; _ } ->
            Option.iter
              (fun delay ->
                Sim.Engine.schedule eng ~delay (fun () ->
                    Net.Network.send net ~src:!me ~dst:client
                      (U.Msg.R_started { req; tid; snap })))
              start_delay
        | U.Msg.C_attach { client; req; _ } ->
            failovers := Sim.Engine.now eng :: !failovers;
            Net.Network.send net ~src:!me ~dst:client (U.Msg.R_ok { req })
        | _ -> ());
    !me
  in
  let dcs =
    [|
      stand_in ~start_delay:(Some 15_000);
      stand_in ~start_delay:None;
      stand_in ~start_delay:(Some 0);
    |]
  in
  let c =
    Client.create ~id:0 ~eng ~net ~cfg ~history:(U.History.create ())
      ~trace:Sim.Trace.disabled ~metrics:(Sim.Metrics.create ()) ~dc:0
      ~replicas_of_dc:(fun dc -> [| dcs.(dc) |])
  in
  let aborts = ref 0 and retry_sent = ref (-1) in
  let in_flight_at_late_reply = ref false in
  Sim.Engine.schedule eng ~delay:15_300 (fun () ->
      in_flight_at_late_reply := Client.in_flight c);
  Fiber.spawn eng (fun () ->
      (try Client.start c with Client.Aborted -> incr aborts);
      retry_sent := Sim.Engine.now eng;
      (try Client.start c with Client.Aborted -> incr aborts);
      Client.start c);
  Sim.Engine.run eng ~until:100_000;
  Alcotest.(check int) "both STARTs timed out" 2 !aborts;
  Alcotest.(check int) "failed over to dc2" 2 (Client.dc c);
  Alcotest.(check bool) "the retry was in flight when dc0's reply landed"
    true !in_flight_at_late_reply;
  Alcotest.(check (list int)) "each call timed out at its own deadline"
    [ timeout + 100; !retry_sent + timeout + 100 ]
    (List.rev !failovers);
  Alcotest.(check bool) "no call in flight" false (Client.in_flight c)

(* Without persistence, a partition still catching up after its DC
   rejoined drops the PREPAREs that reach it ([Recovery.sync_admits]).
   dc2's partition 1 holds a large store, so partition 0 finishes its
   catch-up first. Eight dc2 sessions then each commit a transaction
   that writes both partitions; those coordinated by partition 0 commit
   while partition 1 is still syncing (the others' START is dropped, and
   they wait). The coordinator re-sends each lost PREPARE once partition 1 is
   back, and every 2PC that started commits. *)
let test_prepare_dropped_during_catchup () =
  let sys = Util.make_system ~partitions:2 () in
  for i = 0 to 19_999 do
    U.System.preload sys ((2 * i) + 1) (Crdt.Ctr_add 0)
  done;
  U.Nemesis.inject sys
    [
      { U.Nemesis.at_us = 500_000; ev = U.Nemesis.Crash_dc 2 };
      { at_us = 1_000_000; ev = U.Nemesis.Recover_dc 2 };
    ];
  let p0 = U.System.replica sys ~dc:2 ~part:0
  and p1 = U.System.replica sys ~dc:2 ~part:1 in
  let started = ref 0 and committed = ref 0 and behind = ref 0 in
  for _ = 1 to 8 do
    ignore
      (U.System.spawn_client sys ~dc:2 (fun c ->
           Fiber.sleep 1_000_100;
           while U.Replica.is_syncing p0 do
             Fiber.sleep 1_000
           done;
           Client.start c;
           incr started;
           Client.update c 0 (Crdt.Ctr_add 1);
           Client.update c 1 (Crdt.Ctr_add 1);
           if U.Replica.is_syncing p1 then incr behind;
           match Client.commit c with
           | `Committed _ -> incr committed
           | `Aborted -> ()))
  done;
  Util.run sys ~until:5_000_000;
  Alcotest.(check bool) "a commit left while partition 1 was catching up"
    true (!behind > 0);
  Alcotest.(check int) "every started 2PC committed" !started !committed;
  Util.assert_convergence sys

(* Without persistence a coordinator keeps no record of a transaction
   once it has decided, so a participant that asked it about a stale
   prepare would hear "abort" even for a commit. Here dc0's partition 1
   holds a PREPARE from partition 0 (a coordinator with no record of
   the tid, as after its decision) whose COMMIT waits 2.5 s on the
   participant's clock, past the orphan age. The COMMIT must still apply
   the write when the clock gets there. *)
let test_prepare_outlives_orphan_age () =
  let sys = Util.make_system ~partitions:2 () in
  let key = 1 (* partition 1 *) in
  U.System.preload sys key (Crdt.Ctr_add 0);
  Util.run sys ~until:100_000;
  let p1 = U.System.replica sys ~dc:0 ~part:1 in
  (* System registers the replicas first, DC by DC and partition by
     partition: dc0's partition 0 is address 0 *)
  let coordinator = 0 in
  let tid = { U.Types.cl = 9_000; sq = 1 } in
  let snap = Vclock.Vc.create ~dcs:3 in
  U.Replica.handle p1
    (U.Msg.Prepare
       {
         from = coordinator;
         tid;
         writes =
           [ { U.Types.wkey = key; wop = Crdt.Ctr_add 1;
               wcls = U.Types.cls_default } ];
         snap;
       });
  let vec = Vclock.Vc.copy snap in
  Vclock.Vc.set vec 0 (U.System.now sys + 2_500_000);
  U.Replica.handle p1 (U.Msg.Commit { tid; vec; lc = 1; origin = 9_000 });
  Util.run sys ~until:4_000_000;
  let value, _ = Store.Oplog.read (U.Replica.oplog p1) key ~snap:vec in
  Alcotest.(check string) "the committed write is applied" "1"
    (Fmt.to_to_string Crdt.value_pp value)

let suite =
  [
    Alcotest.test_case
      "a crashed DC rejoins, catches up and converges exactly once" `Slow
      test_crash_recover_convergence;
    Alcotest.test_case "client failover preserves read-your-writes" `Slow
      test_failover_causality;
    Alcotest.test_case "in-flight strong commits re-submit exactly once"
      `Slow test_strong_resubmission_exactly_once;
    Alcotest.test_case "GC floors hold for the grace period, then release"
      `Slow test_gc_grace_floors;
    Alcotest.test_case "rejoiner gets back own commits its snapshot lacked"
      `Slow test_rejoiner_recovers_own_commits;
    Alcotest.test_case "a rejoin with healthy peers moves one snapshot"
      `Slow test_rejoin_one_snapshot_per_partition;
    Alcotest.test_case "a silent snapshot source is re-asked elsewhere"
      `Slow test_silent_snapshot_source_reasked;
    Alcotest.test_case "the snapshot cut's floor survives a restart"
      `Quick test_snapshot_floor_survives_restart;
    Alcotest.test_case "a DC recovered inside the detection delay unblocks"
      `Slow test_recover_in_detection_delay_retries;
    Alcotest.test_case "seeded schedules pair recoveries with crashes"
      `Quick test_random_schedule_recovery;
    Alcotest.test_case "restart behind a partition keeps acked writes"
      `Slow test_restart_behind_partition_keeps_acked_writes;
    Alcotest.test_case "lossy-link x node-restart durability sweep" `Slow
      test_lossy_restart_durability_sweep;
    Alcotest.test_case "a rejoin installs the snapshot's lists by reference"
      `Quick test_rejoin_installs_shared_lists;
    Alcotest.test_case "the shared t0 version survives a restart and a rejoin"
      `Slow test_shared_t0_survives_restart_and_rejoin;
    Alcotest.test_case "an unanswered call times out at send + timeout"
      `Quick test_watchdog_exact_timeout;
    Alcotest.test_case "one failover watchdog timer per session" `Quick
      test_watchdog_one_timer;
    Alcotest.test_case "a reply after the timeout is dropped" `Quick
      test_late_reply_dropped;
    Alcotest.test_case "the next call after a late reply times out on time"
      `Quick test_next_call_after_late_reply;
    Alcotest.test_case "a PREPARE dropped during catch-up is re-sent" `Slow
      test_prepare_dropped_during_catchup;
    Alcotest.test_case "a COMMIT waiting past the orphan age applies"
      `Quick test_prepare_outlives_orphan_age;
  ]
