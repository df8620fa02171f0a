(* Strong transactions: conflict ordering, aborts, the overdraft example,
   serializability and REDBLUE modes. *)

module U = Unistore
module Client = U.Client
module Fiber = Sim.Fiber

(* The overdraft anomaly of §1: two concurrent withdrawals of the full
   balance. Under causal consistency both succeed; with strong
   withdrawals one observes the other and fails. *)
let overdraft_run ~strong =
  let sys = Util.make_system ~conflict:U.Config.Serializable () in
  let account = 5 in
  U.System.preload sys account (Crdt.Reg_write 100);
  let successes = ref 0 in
  let withdraw c =
    let rec attempt n =
      Client.start c ~label:"withdraw" ~strong;
      let balance = Client.read_int c account in
      if balance >= 100 then begin
        Client.update c account (Crdt.Reg_write (balance - 100));
        match Client.commit c with
        | `Committed _ -> incr successes
        | `Aborted -> if n < 5 then attempt (n + 1)
      end
      else ignore (Client.commit c)
    in
    attempt 0
  in
  ignore (U.System.spawn_client sys ~dc:0 withdraw);
  ignore (U.System.spawn_client sys ~dc:1 withdraw);
  Util.run sys ~until:3_000_000;
  Util.assert_convergence sys;
  (sys, !successes)

let test_overdraft_with_causal () =
  (* demonstrates the anomaly: both causal withdrawals succeed *)
  let _, successes = overdraft_run ~strong:false in
  Alcotest.(check int) "both causal withdrawals succeed (anomaly)" 2 successes

let test_overdraft_with_strong () =
  let sys, successes = overdraft_run ~strong:true in
  Alcotest.(check int) "exactly one strong withdrawal succeeds" 1 successes;
  Util.assert_por sys

let test_conflicting_strong_ordered () =
  let sys = Util.make_system () in
  U.System.preload sys 8 (Crdt.Reg_write 0);
  for dc = 0 to 2 do
    ignore
      (U.System.spawn_client sys ~dc (fun c ->
           for i = 1 to 5 do
             let rec attempt n =
               Client.start c ~strong:true;
               let v = Client.read_int c 8 in
               Client.update c 8 (Crdt.Reg_write (v + 1));
               match Client.commit c with
               | `Committed _ -> ()
               | `Aborted -> if n < 20 then attempt (n + 1)
             in
             attempt 0;
             ignore i
           done))
  done;
  Util.run sys ~until:20_000_000;
  (* all increments on one key through strong transactions act like a
     counter under serializability: the final value equals the number of
     committed increments *)
  let h = U.System.history sys in
  let committed = U.History.committed_strong h in
  let final = ref (-1) in
  ignore
    (U.System.spawn_client sys ~dc:0 (fun c ->
         Client.start c;
         final := Client.read_int c 8;
         ignore (Client.commit c)));
  Util.run sys ~until:21_000_000;
  Alcotest.(check int) "no lost updates" committed !final;
  Alcotest.(check bool) "some aborts happened under contention" true
    (U.History.aborted_strong h > 0);
  Util.assert_por sys;
  Util.assert_convergence sys

let test_nonconflicting_strong_commit () =
  (* PoR: strong transactions on different keys never abort each other *)
  let sys = Util.make_system () in
  for dc = 0 to 2 do
    ignore
      (U.System.spawn_client sys ~dc (fun c ->
           for i = 0 to 9 do
             Client.start c ~strong:true;
             Client.update c ((100 * (dc + 1)) + i) (Crdt.Reg_write i);
             ignore (Client.commit c)
           done))
  done;
  Util.run sys ~until:10_000_000;
  let h = U.System.history sys in
  Alcotest.(check int) "all committed" 30 (U.History.committed_strong h);
  Alcotest.(check int) "no aborts" 0 (U.History.aborted_strong h);
  Util.assert_por sys

let test_por_class_conflicts () =
  (* only declared class pairs conflict: class-1 writers conflict with
     each other, class-2 writers do not conflict with anyone *)
  let conflict = U.Config.Classes [ (1, 1) ] in
  let sys = Util.make_system ~conflict () in
  U.System.preload sys 9 (Crdt.Reg_write 0);
  let c1_commits = ref 0 and c2_commits = ref 0 in
  for dc = 0 to 1 do
    ignore
      (U.System.spawn_client sys ~dc (fun c ->
           Client.start c ~strong:true;
           ignore (Client.read ~cls:1 c 9);
           Client.update ~cls:1 c 9 (Crdt.Reg_write dc);
           (match Client.commit c with
           | `Committed _ -> incr c1_commits
           | `Aborted -> ())));
    ignore
      (U.System.spawn_client sys ~dc (fun c ->
           Client.start c ~strong:true;
           ignore (Client.read ~cls:2 c 9);
           Client.update ~cls:2 c 9 (Crdt.Reg_write (10 + dc));
           match Client.commit c with
           | `Committed _ -> incr c2_commits
           | `Aborted -> ()))
  done;
  Util.run sys ~until:3_000_000;
  Alcotest.(check int) "class-2 transactions never conflict" 2 !c2_commits;
  Alcotest.(check bool) "class-1 transactions conflicted" true
    (!c1_commits >= 1);
  Util.assert_por sys

let test_serializable_mode_read_only_strong () =
  (* in STRONG mode even read-only transactions certify *)
  let sys = Util.make_system ~mode:U.Config.Strong () in
  U.System.preload sys 3 (Crdt.Reg_write 42);
  let v = ref (-1) in
  ignore
    (U.System.spawn_client sys ~dc:0 (fun c ->
         Client.start c;
         v := Client.read_int c 3;
         ignore (Client.commit c)));
  Util.run sys ~until:2_000_000;
  Alcotest.(check int) "read committed" 42 !v;
  let h = U.System.history sys in
  Alcotest.(check int) "the transaction counted as strong" 1
    (U.History.committed_strong h);
  Util.assert_por sys

let test_redblue_mode () =
  let sys =
    Util.make_system ~mode:U.Config.Red_blue ()
  in
  U.System.preload sys 4 (Crdt.Reg_write 0);
  let commits = ref 0 in
  for dc = 0 to 2 do
    ignore
      (U.System.spawn_client sys ~dc (fun c ->
           for i = 1 to 3 do
             let rec attempt n =
               Client.start c ~strong:true;
               let v = Client.read_int c 4 in
               Client.update c 4 (Crdt.Reg_write (v + 1));
               match Client.commit c with
               | `Committed _ -> incr commits
               | `Aborted -> if n < 20 then attempt (n + 1)
             in
             attempt 0;
             ignore i
           done))
  done;
  Util.run sys ~until:20_000_000;
  let final = ref (-1) in
  ignore
    (U.System.spawn_client sys ~dc:1 (fun c ->
         Client.start c;
         final := Client.read_int c 4;
         ignore (Client.commit c)));
  Util.run sys ~until:21_000_000;
  Alcotest.(check int) "updates serialized by the central service" !commits
    !final;
  Alcotest.(check bool) "all clients progressed" true (!commits >= 3);
  Util.assert_convergence sys

(* REDBLUE leader failover: the service's leader DC crashes at 1 s. Ω
   at the survivors retargets their service members (partition 0 holds
   each DC's), dc1's member takes over the group, the coordinators
   re-send to it, and the survivors keep certifying and converge. *)
let test_redblue_leader_failover () =
  let sys = Util.make_system ~mode:U.Config.Red_blue () in
  (* partition 0's disk holds the service member: no node faults *)
  Alcotest.check_raises "node crashes are refused"
    (Invalid_argument
       "System.fail_node: unsupported under the REDBLUE centralized service")
    (fun () -> U.System.fail_node sys ~dc:1 ~part:0);
  let crash_us = 1_000_000 in
  let keys = [| 20; 21; 22 |] in
  Array.iter (fun k -> U.System.preload sys k (Crdt.Ctr_add 0)) keys;
  U.Nemesis.inject sys
    [ { U.Nemesis.at_us = crash_us; ev = U.Nemesis.Crash_dc 0 } ];
  let after_crash = ref 0 in
  for dc = 1 to 2 do
    ignore
      (U.System.spawn_client sys ~dc (fun c ->
           let i = ref dc in
           while U.System.now sys < 4_000_000 do
             let started_us = U.System.now sys in
             Client.start c ~strong:true;
             let k = keys.(!i mod Array.length keys) in
             Client.update c k (Crdt.Ctr_add 1);
             (match Client.commit c with
             | `Committed _ when started_us > crash_us -> incr after_crash
             | `Committed _ | `Aborted -> ());
             incr i;
             Fiber.sleep 100_000
           done))
  done;
  Util.run sys ~until:10_000_000;
  Alcotest.(check bool)
    (Fmt.str "transactions started after the crash commit (%d)" !after_crash)
    true (!after_crash > 0);
  Alcotest.(check int) "no strong transaction left pending" 0
    (U.System.pending_strong sys);
  Util.assert_por sys;
  Util.assert_convergence sys

let test_strong_lamport_order_matches_certification () =
  (* Property 5: conflicting strong transactions are ordered by strong
     timestamp, and the earlier is in the later's snapshot — exercised
     via the checker on a contended run *)
  let sys = Util.make_system () in
  U.System.preload sys 11 (Crdt.Reg_write 0);
  for dc = 0 to 2 do
    ignore
      (U.System.spawn_client sys ~dc (fun c ->
           for _ = 1 to 4 do
             let rec attempt n =
               Client.start c ~strong:true;
               ignore (Client.read_int c 11);
               Client.update c 11 (Crdt.Reg_write dc);
               match Client.commit c with
               | `Committed _ -> ()
               | `Aborted -> if n < 20 then attempt (n + 1)
             in
             attempt 0
           done))
  done;
  Util.run sys ~until:20_000_000;
  let txns = U.History.txns (U.System.history sys) in
  let strong_ts =
    List.filter_map
      (fun (r : U.History.txn_record) ->
        if r.h_strong then Some (Vclock.Vc.strong r.h_vec) else None)
      txns
  in
  Alcotest.(check int) "strong timestamps all distinct"
    (List.length strong_ts)
    (List.length (List.sort_uniq compare strong_ts));
  Util.assert_por sys

let test_strong_survives_mixed_causal_traffic () =
  (* causal transactions keep flowing while strong ones certify; strong
     snapshots must wait for causal dependencies to become uniform *)
  let sys = Util.make_system () in
  U.System.preload sys 12 (Crdt.Reg_write 0);
  let strong_ok = ref false in
  ignore
    (U.System.spawn_client sys ~dc:0 (fun c ->
         Client.start c;
         Client.update c 12 (Crdt.Reg_write 1);
         ignore (Client.commit c);
         (* immediately commit a strong transaction depending on it *)
         Client.start c ~strong:true;
         let v = Client.read_int c 12 in
         Client.update c 13 (Crdt.Reg_write (v * 10));
         (match Client.commit c with
         | `Committed _ -> strong_ok := true
         | `Aborted -> ())));
  let remote = ref (-1) in
  ignore
    (U.System.spawn_client sys ~dc:2 (fun c ->
         Fiber.sleep 2_000_000;
         Client.start c;
         remote := Client.read_int c 13;
         ignore (Client.commit c)));
  Util.run sys ~until:4_000_000;
  Alcotest.(check bool) "strong committed" true !strong_ok;
  Alcotest.(check int) "strong write visible remotely with its deps" 10
    !remote;
  Util.assert_por sys;
  Util.assert_convergence sys

(* Crash the Paxos leader DC while a strong transaction's 2PC is in
   flight. Whatever the crash timing relative to the PREPARE / ACCEPT /
   DECISION legs, the increment must be exactly-once: the coordinator's
   verdict matches the state every surviving DC converges to, and a
   transaction never both commits and aborts. The detector notices the
   crash, dc1 takes over the certification groups (Algorithm A10), and
   the coordinator's retry drives the transaction to a decision. *)
let leader_crash_run ~crash_offset_us =
  let sys = Util.make_system ~topo:(Net.Topology.n_dcs 5) ~partitions:3 () in
  U.System.preload sys 9 (Crdt.Ctr_add 0);
  let verdict = ref `Pending in
  ignore
    (U.System.spawn_client sys ~dc:2 (fun c ->
         Fiber.sleep 20_000;
         Client.start c ~strong:true;
         Client.update c 9 (Crdt.Ctr_add 1);
         match Client.commit c with
         | `Committed _ -> verdict := `Committed
         | `Aborted -> verdict := `Aborted));
  Sim.Engine.schedule (U.System.engine sys)
    ~delay:(20_000 + crash_offset_us) (fun () -> U.System.fail_dc sys 0);
  Util.run sys ~until:15_000_000;
  (* read the counter back at every surviving DC *)
  let finals = ref [] in
  for dc = 1 to 4 do
    ignore
      (U.System.spawn_client sys ~dc (fun c ->
           Client.start c;
           finals := (dc, Client.read_int c 9) :: !finals;
           ignore (Client.commit c)))
  done;
  Util.run sys ~until:16_000_000;
  (!verdict, !finals)

let test_leader_crash_mid_certification () =
  (* offsets chosen to land the crash on different legs of the 2PC:
     before the PREPARE reaches Virginia, during certification, during
     the ACCEPT round, and around the DECISION *)
  List.iter
    (fun crash_offset_us ->
      let verdict, finals = leader_crash_run ~crash_offset_us in
      let expected =
        match verdict with
        | `Committed -> 1
        | `Aborted -> 0
        | `Pending ->
            Alcotest.failf "offset %dus: strong commit never resolved"
              crash_offset_us
      in
      List.iter
        (fun (dc, v) ->
          Alcotest.(check int)
            (Fmt.str "offset %dus: dc%d agrees with the %s verdict"
               crash_offset_us dc
               (if expected = 1 then "commit" else "abort"))
            expected v)
        finals)
    [ 0; 30_000; 60_000; 90_000; 120_000 ]

let suite =
  [
    Alcotest.test_case "overdraft anomaly under causal (§1)" `Quick
      test_overdraft_with_causal;
    Alcotest.test_case "overdraft prevented by strong txns (§1)" `Quick
      test_overdraft_with_strong;
    Alcotest.test_case "conflicting strong txns are serialized" `Slow
      test_conflicting_strong_ordered;
    Alcotest.test_case "non-conflicting strong txns all commit" `Quick
      test_nonconflicting_strong_commit;
    Alcotest.test_case "PoR class conflicts are selective" `Quick
      test_por_class_conflicts;
    Alcotest.test_case "STRONG mode certifies read-only txns" `Quick
      test_serializable_mode_read_only_strong;
    Alcotest.test_case "REDBLUE centralized certification" `Slow
      test_redblue_mode;
    Alcotest.test_case "REDBLUE survives its leader DC's crash" `Slow
      test_redblue_leader_failover;
    Alcotest.test_case "strong timestamps distinct (Property 5)" `Slow
      test_strong_lamport_order_matches_certification;
    Alcotest.test_case "leader crash mid-certification is exactly-once"
      `Slow test_leader_crash_mid_certification;
    Alcotest.test_case "strong txns wait for uniform dependencies" `Quick
      test_strong_survives_mixed_causal_traffic;
  ]
