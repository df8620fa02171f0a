(* Fault tolerance: the paper's Figure 1 and Figure 2 scenarios, Paxos
   leader recovery, and liveness after a data-center failure. *)

module U = Unistore
module Client = U.Client
module Fiber = Sim.Fiber

(* Figure 1: transaction forwarding preserves Eventual Visibility.
   t1 commits at d1 and reaches only d2 before d1 fails; d2 must forward
   t1 so it eventually becomes visible at d3. The d1–d3 link is cut
   before the commit, so t1 cannot reach d3 directly, not even a copy
   already in flight at the crash. *)
let test_fig1_forwarding () =
  let sys = Util.make_system () in
  let d1 = 1 (* California *) and d3 = 2 (* Frankfurt *) in
  U.System.preload sys 100 (Crdt.Reg_write 0);
  U.Nemesis.inject sys
    [ { U.Nemesis.at_us = 0; ev = U.Nemesis.Partition (d1, d3) } ];
  ignore
    (U.System.spawn_client sys ~dc:d1 (fun c ->
         Client.start c;
         Client.update c 100 (Crdt.Reg_write 77);
         ignore (Client.commit c)));
  (* Ca→Va is 30.5 ms one way: failing California at 45 ms lets Virginia
     receive t1 first *)
  Sim.Engine.schedule (U.System.engine sys) ~delay:45_000 (fun () ->
      U.System.fail_dc sys d1);
  let seen = ref (-1) in
  ignore
    (U.System.spawn_client sys ~dc:d3 (fun c ->
         Fiber.sleep 5_000_000;
         Client.start c;
         seen := Client.read_int c 100;
         ignore (Client.commit c)));
  Util.run sys ~until:8_000_000;
  Alcotest.(check int) "t1 forwarded to Frankfurt despite d1's crash" 77 !seen;
  Util.assert_convergence sys

(* Figure 1 with the direct path cut for certain: a dc1–dc2 partition
   keeps t1 from Frankfurt (dc2) while Virginia (dc0) receives it, and
   then California (dc1) fails. Only forwarding can make t1 visible at
   Frankfurt: dc2 pulls dc1's stream from dc0 once both suspect dc1. *)
let test_fig1_forwarding_behind_partition () =
  let sys = Util.make_system ~partitions:2 () in
  U.System.preload sys 100 (Crdt.Reg_write 0);
  U.Nemesis.inject sys
    [
      { U.Nemesis.at_us = 10_000; ev = U.Nemesis.Partition (1, 2) };
      { at_us = 1_000_000; ev = U.Nemesis.Crash_dc 1 };
    ];
  ignore
    (U.System.spawn_client sys ~dc:1 (fun c ->
         Fiber.sleep 50_000;
         Client.start c;
         Client.update c 100 (Crdt.Reg_write 77);
         ignore (Client.commit c)));
  let seen = ref (-1) in
  ignore
    (U.System.spawn_client sys ~dc:2 (fun c ->
         Fiber.sleep 4_000_000;
         Client.start c;
         seen := Client.read_int c 100;
         ignore (Client.commit c)));
  Util.run sys ~until:6_000_000;
  Alcotest.(check int) "t1 pulled to Frankfurt from Virginia" 77 !seen;
  Util.assert_convergence sys

(* Control for Figure 1: the replication window. If the origin fails
   before replicating anywhere, the transaction is lost — causal
   transactions are not durable until uniform (§4). *)
let test_fig1_lost_when_unreplicated () =
  let sys = Util.make_system () in
  U.System.preload sys 100 (Crdt.Reg_write 0);
  let committed = ref false in
  ignore
    (U.System.spawn_client sys ~dc:1 (fun c ->
         Client.start c;
         Client.update c 100 (Crdt.Reg_write 77);
         ignore (Client.commit c);
         committed := true));
  (* fail California before the 5 ms propagation timer can run *)
  Sim.Engine.schedule (U.System.engine sys) ~delay:2_000 (fun () ->
      U.System.fail_dc sys 1);
  let seen = ref (-1) in
  ignore
    (U.System.spawn_client sys ~dc:2 (fun c ->
         Fiber.sleep 3_000_000;
         Client.start c;
         seen := Client.read_int c 100;
         ignore (Client.commit c)));
  Util.run sys ~until:5_000_000;
  Alcotest.(check bool) "client saw its commit" true !committed;
  Alcotest.(check int) "unreplicated causal transaction lost" 0 !seen;
  Util.assert_convergence sys

(* Figure 2: a strong transaction only commits once its causal
   dependencies are uniform, so conflicting strong transactions stay
   live even if the origin DC fails right after the strong commit. *)
let test_fig2_strong_liveness () =
  let sys = Util.make_system ~partitions:4 () in
  let k_dep = 200 and k_strong = 201 in
  U.System.preload sys k_dep (Crdt.Reg_write 0);
  U.System.preload sys k_strong (Crdt.Reg_write 0);
  let t2_committed = ref false in
  ignore
    (U.System.spawn_client sys ~dc:1 (fun c ->
         (* t1: causal transaction *)
         Client.start c;
         Client.update c k_dep (Crdt.Reg_write 1);
         ignore (Client.commit c);
         (* t2: strong transaction depending on t1 *)
         Client.start c ~strong:true;
         ignore (Client.read_int c k_dep);
         Client.update c k_strong (Crdt.Reg_write 2);
         (match Client.commit c with
         | `Committed _ ->
             t2_committed := true;
             (* the origin fails right after the strong commit returns *)
             U.System.fail_dc sys 1
         | `Aborted -> ())));
  (* t3 at Frankfurt conflicts with t2; it must eventually commit *)
  let t3_committed = ref false and t3_read = ref (-1) in
  ignore
    (U.System.spawn_client sys ~dc:2 (fun c ->
         Fiber.sleep 3_000_000;
         let rec attempt n =
           Client.start c ~strong:true;
           t3_read := Client.read_int c k_strong;
           Client.update c k_strong (Crdt.Reg_write 3);
           match Client.commit c with
           | `Committed _ -> t3_committed := true
           | `Aborted ->
               if n < 30 then begin
                 Fiber.sleep 200_000;
                 attempt (n + 1)
               end
         in
         attempt 0));
  Util.run sys ~until:15_000_000;
  Alcotest.(check bool) "t2 committed" true !t2_committed;
  Alcotest.(check bool) "t3 commits after the failure (liveness)" true
    !t3_committed;
  Alcotest.(check int) "t3 observed t2 (conflict ordering)" 2 !t3_read;
  Util.assert_convergence sys

(* Leader failure: the Paxos groups elect a new leader and strong
   transactions keep committing. *)
let test_leader_recovery () =
  let sys = Util.make_system ~partitions:4 () in
  U.System.preload sys 300 (Crdt.Reg_write 0);
  let before = ref 0 and after = ref 0 in
  ignore
    (U.System.spawn_client sys ~dc:1 (fun c ->
         (* commit strong transactions, then keep going after the leader
            DC (Virginia, dc 0) fails *)
         for _ = 1 to 3 do
           Client.start c ~strong:true;
           let v = Client.read_int c 300 in
           Client.update c 300 (Crdt.Reg_write (v + 1));
           match Client.commit c with
           | `Committed _ -> incr before
           | `Aborted -> ()
         done;
         Fiber.sleep 1_000_000;
         (* Virginia fails here (scheduled below) *)
         Fiber.sleep 4_000_000;
         let rec attempts n =
           if n > 0 then begin
             Client.start c ~strong:true;
             let v = Client.read_int c 300 in
             Client.update c 300 (Crdt.Reg_write (v + 1));
             (match Client.commit c with
             | `Committed _ -> incr after
             | `Aborted -> ());
             attempts (n - 1)
           end
         in
         attempts 3));
  Sim.Engine.schedule (U.System.engine sys) ~delay:1_500_000 (fun () ->
      U.System.fail_dc sys 0);
  Util.run sys ~until:20_000_000;
  Alcotest.(check int) "strong commits before the failure" 3 !before;
  Alcotest.(check bool)
    (Fmt.str "strong commits after leader failover (%d)" !after)
    true (!after >= 2);
  Util.assert_convergence sys

(* Causal transactions stay available during a remote DC failure: the
   paper's availability claim — no WAN coordination on the critical
   path. *)
let test_causal_availability_under_failure () =
  let sys = Util.make_system () in
  U.System.fail_dc sys 2;
  let commits = ref 0 in
  ignore
    (U.System.spawn_client sys ~dc:0 (fun c ->
         for i = 1 to 50 do
           Client.start c;
           Client.update c (400 + (i mod 5)) (Crdt.Reg_write i);
           match Client.commit c with
           | `Committed _ -> incr commits
           | `Aborted -> ()
         done));
  Util.run sys ~until:5_000_000;
  Alcotest.(check int) "all causal transactions committed" 50 !commits;
  Util.assert_convergence sys

(* Strong transactions also survive a non-leader DC failure: the quorum
   of f+1 = 2 (Virginia + Frankfurt) still certifies. *)
let test_strong_availability_non_leader_failure () =
  let sys = Util.make_system ~partitions:4 () in
  U.System.preload sys 500 (Crdt.Reg_write 0);
  Sim.Engine.schedule (U.System.engine sys) ~delay:500_000 (fun () ->
      U.System.fail_dc sys 1);
  let commits = ref 0 in
  ignore
    (U.System.spawn_client sys ~dc:0 (fun c ->
         Fiber.sleep 2_000_000;
         for _ = 1 to 5 do
           Client.start c ~strong:true;
           let v = Client.read_int c 500 in
           Client.update c 500 (Crdt.Reg_write (v + 1));
           match Client.commit c with
           | `Committed _ -> incr commits
           | `Aborted -> ()
         done));
  Util.run sys ~until:10_000_000;
  Alcotest.(check int) "strong commits with 2 of 3 DCs" 5 !commits;
  Util.assert_convergence sys

(* A4 forwards a suspected DC's transactions only when their holder
   suspects it too. With only dc0–dc1 partitioned, dc0 suspects dc1
   while dc2 still hears it and holds dc1's stream further than dc0:
   dc0 must not relay dc1's stream through dc2, so it sends no repair
   pull for dc1's stream (and receives no [Repair_log] for it). *)
let test_no_relay_while_holder_hears_origin () =
  let sys = Util.make_system ~partitions:2 () in
  let net = U.System.network sys and reg = Sim.Metrics.create () in
  let kind_of = function
    | U.Msg.Repair_request { from; origin = 1; _ }
      when Net.Network.dc_of net from = 0 ->
        "dc0 pulls dc1"
    | m -> U.Msg.kind m
  in
  Net.Network.set_meter net reg ~kind_of ~size_of:U.Msg.size_bytes;
  ignore
    (U.System.spawn_client sys ~dc:1 (fun c ->
         for i = 1 to 100 do
           Client.start c;
           Client.update c 100 (Crdt.Reg_write i);
           ignore (Client.commit c);
           Fiber.sleep 20_000
         done));
  U.Nemesis.inject sys
    [ { U.Nemesis.at_us = 500_000; ev = U.Nemesis.Partition (0, 1) } ];
  Util.run sys ~until:3_000_000;
  Alcotest.(check bool) "Ω suspects across the partition" true
    (U.Detector.false_suspicions (U.System.detector sys) > 0);
  Alcotest.(check int) "dc0 pulls nothing of dc1's stream" 0
    (List.fold_left
       (fun acc (labels, c) ->
         if List.assoc_opt "kind" labels = Some "dc0 pulls dc1" then
           acc + Sim.Metrics.counter_value c
         else acc)
       0
       (Sim.Metrics.counters_matching reg "net_sent_total"))

let suite =
  [
    Alcotest.test_case "Fig. 1: forwarding after origin failure" `Slow
      test_fig1_forwarding;
    Alcotest.test_case "Fig. 1 control: unreplicated txn is lost" `Quick
      test_fig1_lost_when_unreplicated;
    Alcotest.test_case "Fig. 1 behind a partition: forwarding by pull" `Quick
      test_fig1_forwarding_behind_partition;
    Alcotest.test_case "no relay while the holder still hears the origin"
      `Quick test_no_relay_while_holder_hears_origin;
    Alcotest.test_case "Fig. 2: strong commit waits for uniformity" `Slow
      test_fig2_strong_liveness;
    Alcotest.test_case "Paxos leader recovery" `Slow test_leader_recovery;
    Alcotest.test_case "causal availability under remote failure" `Quick
      test_causal_availability_under_failure;
    Alcotest.test_case "strong txns survive a non-leader failure" `Slow
      test_strong_availability_non_leader_failure;
  ]
