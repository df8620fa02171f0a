(* Per-node persistence: the simulated disk's crash-consistency
   contract (acked records survive, recovery is prefix-closed, torn
   tails truncate), and node-level crash/restart end to end — a clean
   restart recovers snapshot + WAL locally and pulls only the missed
   suffix (zero WAN snapshot bytes), a scrubbed disk falls back to the
   whole-DC WAN rejoin, and gray disks / restart loops keep liveness. *)

module U = Unistore
module Client = U.Client
module Fiber = Sim.Fiber
module Wal = Store.Wal

let counter_total reg name =
  List.fold_left
    (fun acc (_, c) -> acc + Sim.Metrics.counter_value c)
    0
    (Sim.Metrics.counters_matching reg name)

(* {1 WAL unit and property tests} *)

let make_wal eng =
  Wal.create ~eng ~size:(fun _ -> 64) ~snap_size:(fun _ -> 256) ()

(* Acked records survive a crash and read back in order; the ~k
   continuation is exactly the durability barrier. *)
let test_wal_roundtrip () =
  let eng = Sim.Engine.create () in
  let w = make_wal eng in
  let acked = ref [] in
  for i = 1 to 20 do
    ignore (Wal.append w ~k:(fun () -> acked := i :: !acked) i)
  done;
  Sim.Engine.run eng ~until:1_000_000;
  Alcotest.(check bool) "group commit drained" true (Wal.quiescent w);
  Alcotest.(check int) "every append acked" 20 (List.length !acked);
  Wal.crash w;
  let snap, tail = Wal.recover w in
  Alcotest.(check bool) "no snapshot yet" true (snap = None);
  Alcotest.(check (list int)) "records replay oldest-first, no dup/skip"
    (List.init 20 (fun i -> i + 1))
    tail

(* Crash-consistency sweep: power-cut the disk at every instant around
   the fsync boundaries. Whatever the cut point, recovery must return a
   contiguous prefix of the appended sequence (no holes, no
   reordering), and that prefix must contain every record whose ack ran
   before the cut — durability promises survive, unacked tails may
   vanish. *)
let test_wal_crash_every_boundary () =
  let n = 12 in
  (* appends arrive every 300us against a 500us fsync: cut points walk
     across group-commit batches of varying size *)
  for cut = 0 to 60 do
    let cut_us = cut * 100 in
    let eng = Sim.Engine.create () in
    let w = make_wal eng in
    let acked = ref [] in
    for i = 1 to n do
      Sim.Engine.schedule eng ~delay:(i * 300) (fun () ->
          ignore (Wal.append w ~k:(fun () -> acked := i :: !acked) i))
    done;
    Sim.Engine.run eng ~until:cut_us;
    Wal.crash w;
    let _, tail = Wal.recover w in
    let prefix_len = List.length tail in
    Alcotest.(check (list int))
      (Printf.sprintf "cut at %dus: recovery is prefix-closed" cut_us)
      (List.init prefix_len (fun i -> i + 1))
      tail;
    List.iter
      (fun i ->
        if not (List.mem i tail) then
          Alcotest.failf "cut at %dus: acked record %d lost" cut_us i)
      !acked
  done

(* A torn final record — the half-written sector a power cut leaves —
   is truncated on recovery, and everything after it with it. *)
let test_wal_torn_tail () =
  let eng = Sim.Engine.create () in
  let w = make_wal eng in
  for i = 1 to 10 do
    ignore (Wal.append w i)
  done;
  Sim.Engine.run eng ~until:1_000_000;
  Wal.tear_next w;
  Wal.crash w;
  let _, tail = Wal.recover w in
  let len = List.length tail in
  Alcotest.(check bool) "torn tail truncated" true (len < 10);
  Alcotest.(check (list int)) "surviving prefix still contiguous"
    (List.init len (fun i -> i + 1))
    tail;
  (* the disk keeps working after recovery: sequence numbers resume *)
  ignore (Wal.append w 99);
  Sim.Engine.run eng ~until:2_000_000;
  Wal.crash w;
  let _, tail' = Wal.recover w in
  Alcotest.(check (list int)) "appends resume after truncation"
    (List.init len (fun i -> i + 1) @ [ 99 ])
    tail'

(* Durability continuations run oldest first across group commits, and
   a crash, a scrub or a recovery drops every pending one: the appends
   made afterwards are the only ones acked, still in order. *)
let test_wal_waiters_order () =
  let eng = Sim.Engine.create () in
  let w = make_wal eng in
  let acked = ref [] in
  let append_at us v =
    Sim.Engine.schedule_at eng ~time:us (fun () ->
        ignore
          (Wal.append w
             ~k:(fun () -> acked := (v, Sim.Engine.now eng) :: !acked)
             v))
  in
  (* 300us apart against a 500us fsync: batches of one and two; record
     i is appended i-th, so it gets sequence number i *)
  for i = 1 to 12 do
    append_at (i * 300) i
  done;
  Sim.Engine.run eng ~until:100_000;
  let acks = List.rev !acked in
  Alcotest.(check (list int)) "acked in sequence order"
    (List.init 12 (fun i -> i + 1))
    (List.map fst acks);
  Alcotest.(check bool) "over several group commits" true
    (List.length (List.sort_uniq compare (List.map snd acks)) >= 4);
  let pending_then cut label =
    acked := [];
    let base = Sim.Engine.now eng in
    for i = 1 to 3 do
      append_at (base + (i * 100)) (100 + i)
    done;
    Sim.Engine.run eng ~until:(base + 350);
    cut ();
    let after = Sim.Engine.now eng in
    append_at (after + 1) 200;
    append_at (after + 2) 201;
    Sim.Engine.run eng ~until:(after + 100_000);
    Alcotest.(check (list int))
      (label ^ ": only the later appends are acked, in order")
      [ 200; 201 ]
      (List.rev_map fst !acked)
  in
  pending_then (fun () -> Wal.crash w; ignore (Wal.recover w)) "crash";
  pending_then (fun () -> Wal.scrub w) "scrub";
  pending_then (fun () -> ignore (Wal.recover w)) "recover"

(* Snapshots bound replay: once installed, recovery returns the
   snapshot plus only the log suffix above its boundary. *)
let test_wal_snapshot_bounds_replay () =
  let eng = Sim.Engine.create () in
  let w = make_wal eng in
  for i = 1 to 8 do
    ignore (Wal.append w i)
  done;
  Sim.Engine.run eng ~until:100_000;
  Wal.snapshot w ~seq:(Wal.next_seq w - 1) "snap@8";
  Sim.Engine.run eng ~until:200_000;
  for i = 9 to 12 do
    ignore (Wal.append w i)
  done;
  Sim.Engine.run eng ~until:300_000;
  Wal.crash w;
  let snap, tail = Wal.recover w in
  Alcotest.(check (option string)) "snapshot recovered" (Some "snap@8") snap;
  Alcotest.(check (list int)) "only the suffix above the boundary replays"
    [ 9; 10; 11; 12 ] tail

(* {1 Node-level crash/restart, end to end} *)

let persistent_system ?(partitions = 2) ?(seed = 17) () =
  let sys =
    Util.make_system ~partitions ~seed ~persistence:true
      ~snapshot_interval_us:1_500_000 ~client_failover_us:150_000 ()
  in
  sys

let run_workload sys ~until ~keys =
  let commits = Array.make (Array.length keys) 0 in
  Array.iteri
    (fun i k ->
      let dc = i mod 2 in
      ignore
        (U.System.spawn_client sys ~dc (fun c ->
             while U.System.now sys < until do
               Client.start c;
               Client.update c k (Crdt.Ctr_add 1);
               (match Client.commit c with
               | `Committed _ -> commits.(i) <- commits.(i) + 1
               | `Aborted -> ());
               Fiber.sleep 80_000
             done)))
    keys;
  commits

let read_back sys ~dc ~keys =
  let final = Array.make (Array.length keys) (-1) in
  ignore
    (U.System.spawn_client sys ~dc (fun c ->
         Client.start c;
         Array.iteri (fun i k -> final.(i) <- Client.read_int c k) keys;
         ignore (Client.commit c)));
  final

(* Clean node restart: dc2/part0 dies mid-workload and comes back from
   its own disk. The restart replays locally, pulls only the suffix it
   missed, and never transfers a WAN snapshot; the recovered node
   converges and serves every commit exactly once. *)
let test_clean_node_restart () =
  let sys = persistent_system () in
  let keys = [| 100; 101 |] in
  Array.iter (fun k -> U.System.preload sys k (Crdt.Ctr_add 0)) keys;
  U.Nemesis.inject sys
    [
      { U.Nemesis.at_us = 2_000_000; ev = Crash_node { dc = 2; part = 0 } };
      { at_us = 3_000_000; ev = Restart_node { dc = 2; part = 0 } };
    ];
  let commits = run_workload sys ~until:5_000_000 ~keys in
  let strong_commits = ref 0 in
  ignore
    (U.System.spawn_client sys ~dc:0 (fun c ->
         while U.System.now sys < 5_000_000 do
           Client.start c ~strong:true;
           Client.update c 200 (Crdt.Ctr_add 1);
           (match Client.commit c with
           | `Committed _ -> incr strong_commits
           | `Aborted -> ());
           Fiber.sleep 150_000
         done));
  U.System.preload sys 200 (Crdt.Ctr_add 0);
  Util.run sys ~until:9_000_000;
  Alcotest.(check bool) "node is back" false
    (U.System.node_down sys ~dc:2 ~part:0);
  Util.assert_por sys;
  Util.assert_convergence sys;
  Alcotest.(check int) "no strong transaction left pending" 0
    (U.System.pending_strong sys);
  Alcotest.(check bool) "workload committed through the restart" true
    (commits.(0) > 10 && commits.(1) > 10 && !strong_commits > 5);
  let final = read_back sys ~dc:2 ~keys in
  Util.run sys ~until:9_500_000;
  Array.iteri
    (fun i k ->
      Alcotest.(check int)
        (Printf.sprintf "key %d visible exactly once at the restarted node" k)
        commits.(i) final.(i))
    keys;
  let reg = U.System.metrics sys in
  Alcotest.(check int) "one node restart" 1
    (counter_total reg "node_restarts_total");
  Alcotest.(check bool) "local replay did the heavy lifting" true
    (counter_total reg "replay_entries_total" > 0
    && counter_total reg "local_catchup_bytes_total" > 0);
  Alcotest.(check int) "zero WAN snapshot bytes for a clean restart" 0
    (counter_total reg "sync_snapshot_bytes_total");
  Alcotest.(check bool) "the WAL was exercised" true
    (counter_total reg "wal_appended_bytes_total" > 0)

(* Torn-tail restart: the crash corrupts the disk's final record. The
   restart truncates it, replays the surviving prefix and re-pulls the
   difference from a live sibling — still no WAN snapshot — and the run
   is deterministic under its seed. *)
let test_torn_tail_restart () =
  let run_once () =
    let sys = persistent_system ~seed:23 () in
    let keys = [| 100; 101 |] in
    Array.iter (fun k -> U.System.preload sys k (Crdt.Ctr_add 0)) keys;
    Sim.Engine.schedule (U.System.engine sys) ~delay:1_999_000 (fun () ->
        U.Replica.tear_disk_next (U.System.replica sys ~dc:2 ~part:0));
    U.Nemesis.inject sys
      [
        { U.Nemesis.at_us = 2_000_000; ev = Crash_node { dc = 2; part = 0 } };
        { at_us = 3_000_000; ev = Restart_node { dc = 2; part = 0 } };
      ];
    let commits = run_workload sys ~until:4_500_000 ~keys in
    Util.run sys ~until:8_000_000;
    Util.assert_convergence sys;
    let final = read_back sys ~dc:2 ~keys in
    Util.run sys ~until:8_500_000;
    Array.iteri
      (fun i _ ->
        Alcotest.(check int) "exactly once despite the torn tail"
          commits.(i) final.(i))
      keys;
    let reg = U.System.metrics sys in
    Alcotest.(check bool) "the torn record was truncated" true
      (counter_total reg "wal_torn_truncations_total" >= 1);
    Alcotest.(check int) "still no WAN snapshot" 0
      (counter_total reg "sync_snapshot_bytes_total");
    (Array.to_list commits, Array.to_list final)
  in
  let a = run_once () and b = run_once () in
  Alcotest.(check (pair (list int) (list int)))
    "torn-tail recovery replays deterministically under the seed" a b

(* A scrubbed disk (unrecoverable local state) falls back to the
   whole-DC WAN rejoin: snapshot transfer plus gap repair. *)
let test_scrubbed_disk_falls_back () =
  let sys = persistent_system ~seed:31 () in
  let keys = [| 100; 101 |] in
  Array.iter (fun k -> U.System.preload sys k (Crdt.Ctr_add 0)) keys;
  Sim.Engine.schedule (U.System.engine sys) ~delay:2_000_000 (fun () ->
      U.System.fail_node sys ~dc:2 ~part:0;
      U.Replica.scrub_disk (U.System.replica sys ~dc:2 ~part:0));
  Sim.Engine.schedule (U.System.engine sys) ~delay:3_000_000 (fun () ->
      U.System.restart_node sys ~dc:2 ~part:0);
  let commits = run_workload sys ~until:4_500_000 ~keys in
  Util.run sys ~until:8_000_000;
  Util.assert_convergence sys;
  let final = read_back sys ~dc:2 ~keys in
  Util.run sys ~until:8_500_000;
  Array.iteri
    (fun i _ ->
      Alcotest.(check int) "exactly once after the WAN rejoin" commits.(i)
        final.(i))
    keys;
  let reg = U.System.metrics sys in
  Alcotest.(check bool) "the empty disk forced a WAN snapshot" true
    (counter_total reg "sync_snapshot_bytes_total" > 0)

(* Gray disk: a 20x-slow fsync stretches commit latency but breaks
   nothing — the workload keeps committing and the DCs converge once
   the disk is restored. *)
let test_gray_disk () =
  let sys = persistent_system ~seed:41 () in
  let keys = [| 100; 101 |] in
  Array.iter (fun k -> U.System.preload sys k (Crdt.Ctr_add 0)) keys;
  U.Nemesis.inject sys
    (U.Nemesis.gray_disk ~dc:0 ~part:0 ~factor:20 ~from_us:1_500_000
       ~until_us:3_500_000);
  let commits = run_workload sys ~until:5_000_000 ~keys in
  Util.run sys ~until:8_000_000;
  Util.assert_por sys;
  Util.assert_convergence sys;
  Alcotest.(check bool) "commits continued under the gray disk" true
    (commits.(0) > 10 && commits.(1) > 10);
  match
    Sim.Metrics.histograms_matching (U.System.metrics sys) "wal_fsync_us"
  with
  | [] -> Alcotest.fail "wal_fsync_us histogram missing"
  | hs ->
      let worst =
        List.fold_left
          (fun acc (_, h) ->
            match Sim.Metrics.h_max h with
            | Some m -> max acc m
            | None -> acc)
          0 hs
      in
      Alcotest.(check bool) "the slow fsyncs were observed" true
        (worst >= 20 * 500)

(* Supervisor restart loop: the same node crash/restarts repeatedly
   under live traffic and the system converges with every restart
   recovered locally. *)
let test_restart_loop () =
  let sys = persistent_system ~seed:53 () in
  let keys = [| 100; 101 |] in
  Array.iter (fun k -> U.System.preload sys k (Crdt.Ctr_add 0)) keys;
  U.Nemesis.inject sys
    (U.Nemesis.restart_loop ~dc:2 ~part:1 ~start_us:1_500_000 ~cycles:3
       ~down_us:400_000 ~period_us:1_200_000);
  let commits = run_workload sys ~until:5_500_000 ~keys in
  Util.run sys ~until:9_500_000;
  Util.assert_convergence sys;
  Alcotest.(check bool) "commits continued through the loop" true
    (commits.(0) > 10 && commits.(1) > 10);
  let reg = U.System.metrics sys in
  Alcotest.(check int) "every cycle restarted the node" 3
    (counter_total reg "node_restarts_total");
  Alcotest.(check int) "every restart recovered locally" 0
    (counter_total reg "sync_snapshot_bytes_total")

(* Seeded schedules: node crashes draw nothing by default (existing
   seeds keep their schedules) and pair each crash with a restart. *)
let test_random_schedule_node_crashes () =
  let horizon = 8_000_000 in
  let base =
    U.Nemesis.random_schedule ~seed:7 ~dcs:3 ~horizon_us:horizon ()
  in
  let with_nodes =
    U.Nemesis.random_schedule ~seed:7 ~dcs:3 ~horizon_us:horizon
      ~max_node_crashes:2 ~node_partitions:4 ()
  in
  let is_node s =
    match s.U.Nemesis.ev with
    | U.Nemesis.Crash_node _ | U.Nemesis.Restart_node _ -> true
    | _ -> false
  in
  Alcotest.(check bool) "no node events by default" true
    (not (List.exists is_node base));
  Alcotest.(check bool) "node budget only appends to the base schedule" true
    (List.sort compare (List.filter (fun s -> not (is_node s)) with_nodes)
    = List.sort compare base);
  let crashes =
    List.filter_map
      (fun s ->
        match s.U.Nemesis.ev with
        | U.Nemesis.Crash_node { dc; part } -> Some (s.U.Nemesis.at_us, dc, part)
        | _ -> None)
      with_nodes
  in
  Alcotest.(check int) "the full crash budget was drawn" 2
    (List.length crashes);
  List.iter
    (fun (at, dc, part) ->
      match
        List.find_opt
          (fun s ->
            match s.U.Nemesis.ev with
            | U.Nemesis.Restart_node r ->
                r.dc = dc && r.part = part && s.U.Nemesis.at_us > at
            | _ -> false)
          with_nodes
      with
      | Some _ -> ()
      | None -> Alcotest.fail "node crash without a paired restart")
    crashes

(* {1 Snapshot sizing and the snapshot round trip} *)

(* The oplog term of a node snapshot, walked entry by entry: 8 bytes, 8
   a key, and per entry 24 plus its commit vector. *)
let oplog_walk log =
  List.fold_left
    (fun acc k ->
      List.fold_left
        (fun acc (e : Store.Oplog.entry) -> acc + 24 + (8 * Array.length e.vec))
        (acc + 8) (Store.Oplog.entries log k))
    8 (Store.Oplog.keys log)

(* The snapshot's byte count takes its oplog term from the key and entry
   counts. After random traffic through a node restart (oplog cleared
   and reinstalled) and a DC rejoin (oplog refilled from a snapshot
   transfer), every replica's count equals the full walk: emptying the
   oplog takes exactly the walked term off. *)
let test_snapshot_bytes_match_walk () =
  let sys = persistent_system ~seed:5 () in
  U.Nemesis.inject sys
    [
      { U.Nemesis.at_us = 600_000; ev = Crash_node { dc = 2; part = 0 } };
      { at_us = 900_000; ev = Restart_node { dc = 2; part = 0 } };
      { at_us = 1_000_000; ev = Crash_dc 1 };
      { at_us = 1_400_000; ev = Recover_dc 1 };
    ];
  let spec = { (Workload.Micro.default_spec ~partitions:2) with keys = 300 } in
  let stop () = U.System.now sys >= 2_000_000 in
  for i = 0 to 5 do
    ignore
      (U.System.spawn_client sys ~dc:(i mod 3) (fun c ->
           Workload.Micro.client_body spec ~stop c))
  done;
  Util.run sys ~until:3_000_000;
  for dc = 0 to 2 do
    for part = 0 to 1 do
      let r = U.System.replica sys ~dc ~part in
      let log = U.Replica.oplog r in
      let walk = oplog_walk log in
      Alcotest.(check bool) "the oplog holds traffic" true (walk > 1_000);
      let bytes = U.Replica.snapshot_bytes r in
      Store.Oplog.clear log;
      Alcotest.(check int)
        (Printf.sprintf "dc%d/p%d: snapshot bytes equal the full walk" dc part)
        (U.Replica.snapshot_bytes r - 8 + walk)
        bytes
    done
  done

(* A replica's oplog and stream logs, in a comparable form. *)
let capture r =
  let log = U.Replica.oplog r in
  let tids l = List.map (fun tx -> tx.U.Types.tx_tid) (U.Stream_log.to_list l) in
  ( List.map
      (fun k -> (k, Store.Oplog.entries log k))
      (List.sort compare (Store.Oplog.keys log)),
    tids (U.Replica.unshipped r)
    :: List.init 3 (fun origin -> tids (U.Replica.stream_log r ~origin)) )

(* Snapshot, crash, restart: with dc1 down inside its grace period the
   GC floors hold, so dc0/p0 keeps its own and dc2's streams; once the
   traffic stops, a periodic snapshot covers the whole state and, with
   no strong heartbeats to log, the WAL tail above it is empty. The restart from that snapshot alone
   restores the oplog and every stream log, in order. *)
let test_snapshot_restart_round_trip () =
  let sys =
    Util.make_system ~partitions:2 ~seed:11 ~mode:U.Config.Causal_only
      ~persistence:true ~snapshot_interval_us:200_000 ()
  in
  U.Nemesis.inject sys
    [ { U.Nemesis.at_us = 300_000; ev = U.Nemesis.Crash_dc 1 } ];
  let keys = [| 100; 101; 102; 103 |] in
  Array.iter (fun k -> U.System.preload sys k (Crdt.Ctr_add 0)) keys;
  Array.iteri
    (fun i k ->
      ignore
        (U.System.spawn_client sys ~dc:(2 * (i / 2)) (fun c ->
             while U.System.now sys < 1_200_000 do
               Client.start c;
               Client.update c k (Crdt.Ctr_add 1);
               ignore (Client.commit c);
               Fiber.sleep 40_000
             done)))
    keys;
  Util.run sys ~until:2_500_000;
  let r = U.System.replica sys ~dc:0 ~part:0 in
  let reg = U.System.metrics sys in
  let before = capture r in
  U.System.fail_node sys ~dc:0 ~part:0;
  U.System.restart_node sys ~dc:0 ~part:0;
  let after = capture r in
  Alcotest.(check int) "the snapshot alone: no WAL tail replayed" 0
    (counter_total reg "replay_entries_total");
  let oplog, streams = before in
  Alcotest.(check bool) "the oplog and both live streams hold entries" true
    (oplog <> []
    && List.nth streams 1 <> []
    && List.nth streams 3 <> []);
  Alcotest.(check bool) "oplog restored" true (fst after = oplog);
  Alcotest.(check bool) "stream logs restored in order" true
    (snd after = streams)

let suite =
  [
    Alcotest.test_case "acked WAL records survive a crash in order" `Quick
      test_wal_roundtrip;
    Alcotest.test_case "recovery is prefix-closed at every cut point" `Quick
      test_wal_crash_every_boundary;
    Alcotest.test_case "a torn tail truncates and the log resumes" `Quick
      test_wal_torn_tail;
    Alcotest.test_case "snapshots bound replay to the suffix" `Quick
      test_wal_snapshot_bounds_replay;
    Alcotest.test_case "durability acks run in order; none survive a cut"
      `Quick test_wal_waiters_order;
    Alcotest.test_case "clean node restart recovers locally, zero WAN bytes"
      `Slow test_clean_node_restart;
    Alcotest.test_case "torn-tail restart truncates, replays, rejoins" `Slow
      test_torn_tail_restart;
    Alcotest.test_case "scrubbed disk falls back to the WAN rejoin" `Slow
      test_scrubbed_disk_falls_back;
    Alcotest.test_case "gray disk slows commits but breaks nothing" `Slow
      test_gray_disk;
    Alcotest.test_case "supervisor restart loop converges" `Slow
      test_restart_loop;
    Alcotest.test_case "seeded schedules pair node crashes with restarts"
      `Quick test_random_schedule_node_crashes;
    Alcotest.test_case "snapshot bytes equal the full walk" `Quick
      test_snapshot_bytes_match_walk;
    Alcotest.test_case "snapshot round trip restores the stream logs" `Quick
      test_snapshot_restart_round_trip;
  ]
