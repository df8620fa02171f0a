(* Causal-transaction protocol: session guarantees, causal visibility,
   atomic visibility, snapshots, barriers and migration. *)

module U = Unistore
module Client = U.Client
module Fiber = Sim.Fiber

let test_read_your_writes () =
  let sys = Util.make_system () in
  let seen = ref (-1) in
  ignore
    (U.System.spawn_client sys ~dc:0 (fun c ->
         Client.start c;
         Client.update c 10 (Crdt.Reg_write 7);
         ignore (Client.commit c);
         Client.start c;
         seen := Client.read_int c 10;
         ignore (Client.commit c)));
  Util.run sys ~until:1_000_000;
  Alcotest.(check int) "reads own write" 7 !seen;
  Util.assert_por sys

let test_read_your_writes_within_txn () =
  let sys = Util.make_system () in
  let seen = ref (-1) and seen_ctr = ref (-1) in
  ignore
    (U.System.spawn_client sys ~dc:0 (fun c ->
         Client.start c;
         Client.update c 10 (Crdt.Reg_write 1);
         Client.update c 10 (Crdt.Reg_write 2);
         seen := Client.read_int c 10;
         Client.update c 11 (Crdt.Ctr_add 5);
         Client.update c 11 (Crdt.Ctr_add 6);
         seen_ctr := Client.read_int c 11;
         ignore (Client.commit c)));
  Util.run sys ~until:1_000_000;
  Alcotest.(check int) "latest own write" 2 !seen;
  Alcotest.(check int) "own counter increments" 11 !seen_ctr;
  Util.assert_por sys

let test_monotonic_reads_across_txns () =
  let sys = Util.make_system () in
  let values = ref [] in
  ignore
    (U.System.spawn_client sys ~dc:0 (fun c ->
         for i = 1 to 5 do
           Client.start c;
           Client.update c 20 (Crdt.Reg_write i);
           ignore (Client.commit c)
         done));
  ignore
    (U.System.spawn_client sys ~dc:0 (fun c ->
         for _ = 1 to 10 do
           Client.start c;
           values := Client.read_int c 20 :: !values;
           ignore (Client.commit c);
           Fiber.sleep 10_000
         done));
  Util.run sys ~until:2_000_000;
  let rec monotone = function
    | a :: (b :: _ as rest) -> a <= b && monotone rest
    | _ -> true
  in
  Alcotest.(check bool) "reads never go back in time" true
    (monotone (List.rev !values));
  Util.assert_por sys

(* The banking anomaly of §1: Alice deposits (u1) then posts (u2); if Bob
   sees the post (u3) he must see the deposit (u4). *)
let test_causality_banking_anomaly () =
  let sys = Util.make_system () in
  let balance_key = 1 and inbox_key = 2 in
  U.System.preload sys balance_key (Crdt.Reg_write 0);
  U.System.preload sys inbox_key (Crdt.Reg_write 0);
  ignore
    (U.System.spawn_client sys ~dc:0 (fun alice ->
         Client.start alice;
         Client.update alice balance_key (Crdt.Reg_write 100);
         ignore (Client.commit alice);
         Client.start alice;
         Client.update alice inbox_key (Crdt.Reg_write 1);
         ignore (Client.commit alice)));
  let violations = ref 0 and saw_notification = ref false in
  ignore
    (U.System.spawn_client sys ~dc:2 (fun bob ->
         (* poll from Frankfurt: whenever the notification is visible,
            the deposit must be too *)
         for _ = 1 to 100 do
           Client.start bob;
           let note = Client.read_int bob inbox_key in
           let balance = Client.read_int bob balance_key in
           ignore (Client.commit bob);
           if note = 1 then begin
             saw_notification := true;
             if balance <> 100 then incr violations
           end;
           Fiber.sleep 5_000
         done));
  Util.run sys ~until:3_000_000;
  Alcotest.(check bool) "notification eventually visible" true
    !saw_notification;
  Alcotest.(check int) "no causality violation" 0 !violations;
  Util.assert_por sys;
  Util.assert_convergence sys

let test_atomic_visibility () =
  (* both keys of a transaction become visible together *)
  let sys = Util.make_system () in
  U.System.preload sys 30 (Crdt.Reg_write 0);
  U.System.preload sys 31 (Crdt.Reg_write 0);
  ignore
    (U.System.spawn_client sys ~dc:0 (fun c ->
         for i = 1 to 20 do
           Client.start c;
           Client.update c 30 (Crdt.Reg_write i);
           Client.update c 31 (Crdt.Reg_write i);
           ignore (Client.commit c);
           Fiber.sleep 20_000
         done));
  let violations = ref 0 in
  ignore
    (U.System.spawn_client sys ~dc:1 (fun c ->
         for _ = 1 to 200 do
           Client.start c;
           let a = Client.read_int c 30 in
           let b = Client.read_int c 31 in
           ignore (Client.commit c);
           if a <> b then incr violations;
           Fiber.sleep 2_000
         done));
  Util.run sys ~until:2_000_000;
  Alcotest.(check int) "no torn transaction" 0 !violations;
  Util.assert_por sys

let test_uniform_barrier_durability () =
  (* after a uniform barrier, the origin DC may fail and the transaction
     must still reach every correct DC *)
  let sys = Util.make_system () in
  let barrier_done = ref false in
  ignore
    (U.System.spawn_client sys ~dc:0 (fun c ->
         Client.start c;
         Client.update c 40 (Crdt.Reg_write 99);
         ignore (Client.commit c);
         Client.uniform_barrier c;
         barrier_done := true));
  (* fail Virginia shortly after the barrier completes *)
  Sim.Fiber.spawn (U.System.engine sys) (fun () ->
      let rec wait () =
        if not !barrier_done then begin
          Fiber.sleep 10_000;
          wait ()
        end
      in
      wait ();
      U.System.fail_dc sys 0);
  let value_at_fra = ref (-1) in
  ignore
    (U.System.spawn_client sys ~dc:2 (fun c ->
         Fiber.sleep 4_000_000;
         Client.start c;
         value_at_fra := Client.read_int c 40;
         ignore (Client.commit c)));
  Util.run sys ~until:6_000_000;
  Alcotest.(check bool) "barrier returned" true !barrier_done;
  Alcotest.(check int) "write survives origin failure" 99 !value_at_fra;
  Util.assert_convergence sys

let test_client_migration () =
  (* migrate a client from Virginia to Frankfurt; its session must see
     everything it wrote at the origin *)
  let sys = Util.make_system () in
  let after_migration = ref (-1) and final_dc = ref (-1) in
  ignore
    (U.System.spawn_client sys ~dc:0 (fun c ->
         Client.start c;
         Client.update c 50 (Crdt.Reg_write 123);
         ignore (Client.commit c);
         Client.migrate c ~dc:2;
         final_dc := Client.dc c;
         Client.start c;
         after_migration := Client.read_int c 50;
         ignore (Client.commit c)));
  Util.run sys ~until:3_000_000;
  Alcotest.(check int) "attached to Frankfurt" 2 !final_dc;
  Alcotest.(check int) "session reads its own past" 123 !after_migration;
  Util.assert_por sys

(* §5.6's attach wait. The client lives in dc1, commits at dc0 and
   migrates to dc2 while the dc0 -> dc2 link is a second slow: its
   attach reaches dc2 over the healthy dc1 -> dc2 link long before
   dc0's stream does, so dc2 must hold the reply until its uniformVec
   covers the client's past. One partition, so the single dc2 replica
   is the one that answered. *)
let test_migration_waits_for_uniformity () =
  let sys = Util.make_system ~partitions:1 () in
  let extra_us = 1_000_000 in
  U.Nemesis.inject sys
    [
      {
        U.Nemesis.at_us = 0;
        ev = U.Nemesis.Degrade { src = 0; dst = 2; extra_us };
      };
    ];
  let elapsed = ref (-1) and uncovered = ref [ -1 ] in
  ignore
    (U.System.spawn_client sys ~dc:1 (fun c ->
         Client.attach c ~dc:0;
         Client.start c;
         Client.update c 50 (Crdt.Reg_write 1);
         ignore (Client.commit c);
         let before = U.System.now sys in
         Client.migrate c ~dc:2;
         elapsed := U.System.now sys - before;
         let past = Client.past c in
         let uniform =
           U.Replica.uniform_vec (U.System.replica sys ~dc:2 ~part:0)
         in
         uncovered :=
           List.filter
             (fun i -> Vclock.Vc.get uniform i < Vclock.Vc.get past i)
             [ 0; 1 ]));
  Util.run sys ~until:4_000_000;
  Alcotest.(check bool) "migrate blocked until dc0's stream reached dc2" true
    (!elapsed >= extra_us);
  Alcotest.(check (list int)) "dc2's uniformVec covers the remote past" []
    !uncovered

let test_counter_concurrent_merge () =
  (* §3: two concurrent causal deposits of 100 and 200 converge to 300 at
     every replica thanks to the counter CRDT *)
  let sys = Util.make_system () in
  U.System.preload sys 60 (Crdt.Ctr_add 0);
  ignore
    (U.System.spawn_client sys ~dc:0 (fun c ->
         Client.start c;
         Client.update c 60 (Crdt.Ctr_add 100);
         ignore (Client.commit c)));
  ignore
    (U.System.spawn_client sys ~dc:1 (fun c ->
         Client.start c;
         Client.update c 60 (Crdt.Ctr_add 200);
         ignore (Client.commit c)));
  let results = Array.make 3 (-1) in
  for dc = 0 to 2 do
    ignore
      (U.System.spawn_client sys ~dc (fun c ->
           Fiber.sleep 2_000_000;
           Client.start c;
           results.(dc) <- Client.read_int c 60;
           ignore (Client.commit c)))
  done;
  Util.run sys ~until:3_000_000;
  Array.iteri
    (fun dc v ->
      Alcotest.(check int) (Fmt.str "balance at dc%d" dc) 300 v)
    results;
  Util.assert_convergence sys

let test_remote_visibility_needs_uniformity () =
  (* UniStore exposes a remote transaction only once it is uniform; with
     f = 1 and three DCs this takes roughly one WAN exchange longer than
     raw replication but must still happen promptly *)
  let sys = Util.make_system () in
  U.System.preload sys 70 (Crdt.Reg_write 0);
  ignore
    (U.System.spawn_client sys ~dc:1 (fun c ->
         Client.start c;
         Client.update c 70 (Crdt.Reg_write 5);
         ignore (Client.commit c)));
  let seen_at = ref (-1) in
  ignore
    (U.System.spawn_client sys ~dc:0 (fun c ->
         let rec poll () =
           Client.start c;
           let v = Client.read_int c 70 in
           ignore (Client.commit c);
           if v = 5 then seen_at := Sim.Engine.now (U.System.engine sys)
           else begin
             Fiber.sleep 5_000;
             poll ()
           end
         in
         poll ()));
  Util.run sys ~until:2_000_000;
  Alcotest.(check bool) "eventually visible" true (!seen_at > 0);
  (* California→Virginia one way is 30.5 ms; uniformity needs the
     stableVec exchange on top, so visibility lands between 30 ms and a
     few hundred ms *)
  Alcotest.(check bool)
    (Fmt.str "visible at %dus" !seen_at)
    true
    (!seen_at > 30_000 && !seen_at < 500_000);
  Util.assert_por sys

let test_deterministic_histories () =
  let run seed =
    let sys = Util.make_system ~seed () in
    for dc = 0 to 2 do
      ignore
        (U.System.spawn_client sys ~dc (fun c ->
             for i = 1 to 20 do
               Client.start c;
               ignore (Client.read_int c (i mod 7));
               Client.update c (i mod 7) (Crdt.Reg_write i);
               ignore (Client.commit c)
             done))
    done;
    Util.run sys ~until:2_000_000;
    List.map
      (fun (r : U.History.txn_record) ->
        (r.h_tid, Vclock.Vc.to_string r.h_vec, r.h_commit_us))
      (U.History.txns (U.System.history sys))
  in
  let h1 = run 7 and h2 = run 7 and h3 = run 8 in
  Alcotest.(check int) "same seed, same history length" (List.length h1)
    (List.length h2);
  Alcotest.(check bool) "same seed, identical histories" true (h1 = h2);
  Alcotest.(check bool) "different seed, different timings" true (h1 <> h3)

(* One version per write: a causal write replicated to the other DCs
   and a strong write delivered by certification are each one opLog
   entry, held by reference at every DC's replica of the key. *)
let test_write_entry_shared_by_every_dc () =
  let sys = Util.make_system () in
  let dcs = U.Config.dcs (U.System.cfg sys) in
  let partitions = (U.System.cfg sys).U.Config.partitions in
  ignore
    (U.System.spawn_client sys ~dc:0 (fun c ->
         Client.start c;
         Client.update c 10 (Crdt.Reg_write 7);
         ignore (Client.commit c);
         Client.start c ~strong:true;
         Client.update c 11 (Crdt.Reg_write 8);
         ignore (Client.commit c)));
  Util.run sys ~until:2_000_000;
  List.iter
    (fun key ->
      let head dc =
        let part = Store.Keyspace.partition ~partitions key in
        match
          Store.Oplog.entries (U.Replica.oplog (U.System.replica sys ~dc ~part)) key
        with
        | e :: _ -> e
        | [] -> Alcotest.failf "dc%d has no version of key %d" dc key
      in
      let e = head 0 in
      for dc = 1 to dcs - 1 do
        Alcotest.(check bool)
          (Printf.sprintf "key %d: dc%d holds dc0's entry itself" key dc)
          true
          (head dc == e)
      done)
    [ 10; 11 ]

let suite =
  [
    Alcotest.test_case "read your writes across transactions" `Quick
      test_read_your_writes;
    Alcotest.test_case "read your writes within a transaction" `Quick
      test_read_your_writes_within_txn;
    Alcotest.test_case "monotonic reads" `Quick test_monotonic_reads_across_txns;
    Alcotest.test_case "banking anomaly impossible (§1)" `Quick
      test_causality_banking_anomaly;
    Alcotest.test_case "atomic visibility" `Quick test_atomic_visibility;
    Alcotest.test_case "uniform barrier makes writes durable" `Quick
      test_uniform_barrier_durability;
    Alcotest.test_case "client migration keeps the session" `Quick
      test_client_migration;
    Alcotest.test_case "migration waits until the past is uniform" `Quick
      test_migration_waits_for_uniformity;
    Alcotest.test_case "concurrent counter updates merge (§3)" `Quick
      test_counter_concurrent_merge;
    Alcotest.test_case "remote transactions visible when uniform" `Quick
      test_remote_visibility_needs_uniformity;
    Alcotest.test_case "histories are deterministic per seed" `Quick
      test_deterministic_histories;
    Alcotest.test_case "a write's entry is shared by every DC" `Quick
      test_write_entry_shared_by_every_dc;
  ]
