(* The exploration harness: schedule validation, the corpus/repro
   interchange format, oracle verdicts on a clean run, byte-determinism
   of the swarm loop, and the planted-bug self-test — flip
   [Store.Wal.unsafe_ack] (ack before fsync), let the explorer's own
   trial path catch the lost write with the durability oracle, shrink
   the failing schedule to a 1-minimal repro, and prove the repro
   document replays to the same failure. *)

module U = Unistore
module E = Explore.Explorer
module Oracle = Explore.Oracle

let cfg ?(persistence = false) ?mode () =
  U.Config.default ~topo:(Net.Topology.three_dcs ()) ~partitions:2 ~f:1
    ~persistence ?mode ()

let ok = Alcotest.(check bool) "validates" true
let rejected = Alcotest.(check bool) "rejected" false

let valid c s = Result.is_ok (U.Nemesis.validate c s)

(* --- Nemesis.validate: the documented schedule footguns ------------- *)

let test_validate_rules () =
  let crash_restart ?(dc = 1) ?(at = 1_000) () =
    [
      { U.Nemesis.at_us = at; ev = U.Nemesis.Crash_node { dc; part = 0 } };
      { at_us = at + 500; ev = U.Nemesis.Restart_node { dc; part = 0 } };
    ]
  in
  ok (valid (cfg ~persistence:true ()) (crash_restart ()));
  (* out of time order *)
  rejected
    (valid
       (cfg ~persistence:true ())
       [
         { U.Nemesis.at_us = 2_000; ev = U.Nemesis.Heal_all };
         { at_us = 1_000; ev = U.Nemesis.Crash_dc 1 };
       ]);
  (* node events need a disk to restart from *)
  rejected (valid (cfg ()) (crash_restart ()));
  (* node and DC failure domains must not mix on one DC *)
  rejected
    (valid
       (cfg ~persistence:true ())
       (crash_restart ()
       @ [ { U.Nemesis.at_us = 3_000; ev = U.Nemesis.Crash_dc 1 } ]));
  (* a restart must restart something *)
  rejected
    (valid
       (cfg ~persistence:true ())
       [
         {
           U.Nemesis.at_us = 1_000;
           ev = U.Nemesis.Restart_node { dc = 1; part = 0 };
         };
       ]);
  (* ... and interleaved cycles on one node leave the second restart
     with nothing to restart *)
  rejected
    (valid
       (cfg ~persistence:true ())
       [
         {
           U.Nemesis.at_us = 1_000;
           ev = U.Nemesis.Crash_node { dc = 1; part = 0 };
         };
         { at_us = 1_200; ev = U.Nemesis.Crash_node { dc = 1; part = 0 } };
         { at_us = 1_400; ev = U.Nemesis.Restart_node { dc = 1; part = 0 } };
         { at_us = 1_600; ev = U.Nemesis.Restart_node { dc = 1; part = 0 } };
       ]);
  (* sequential cycles on one node are fine *)
  ok
    (valid
       (cfg ~persistence:true ())
       (crash_restart ~at:1_000 () @ crash_restart ~at:5_000 ()));
  (* REDBLUE refuses node crashes and DC recovery, not DC crashes *)
  let redblue = cfg ~persistence:true ~mode:U.Config.Red_blue () in
  let crash_dc = { U.Nemesis.at_us = 1_000; ev = U.Nemesis.Crash_dc 1 } in
  rejected (valid redblue (crash_restart ()));
  rejected
    (valid redblue
       [ crash_dc; { U.Nemesis.at_us = 2_000; ev = U.Nemesis.Recover_dc 1 } ]);
  ok (valid redblue [ crash_dc ])

(* Random schedules satisfy validate by construction — including
   multiple node-crash cycles, which may draw the same node twice and
   must not interleave its down windows. *)
let test_random_schedule_validates () =
  let c = cfg ~persistence:true () in
  for seed = 1 to 100 do
    let sched =
      U.Nemesis.random_schedule ~seed ~dcs:3 ~horizon_us:4_000_000
        ~max_crashes:0 ~max_node_crashes:3 ~node_partitions:2 ()
    in
    match U.Nemesis.validate c sched with
    | Ok () -> ()
    | Error e -> Alcotest.failf "seed %d generated an invalid schedule: %s" seed e
  done

(* --- interchange ---------------------------------------------------- *)

let test_schedule_json_roundtrip () =
  let sched =
    [
      { U.Nemesis.at_us = 100; ev = U.Nemesis.Crash_dc 1 };
      { at_us = 200; ev = U.Nemesis.Recover_dc 1 };
      { at_us = 300; ev = U.Nemesis.Partition (0, 2) };
      { at_us = 400; ev = U.Nemesis.Heal (0, 2) };
      { at_us = 500; ev = U.Nemesis.Degrade { src = 0; dst = 1; extra_us = 7 } };
      { at_us = 600; ev = U.Nemesis.Restore { src = 0; dst = 1 } };
      { at_us = 700; ev = U.Nemesis.Set_drop 0.05 };
      { at_us = 800; ev = U.Nemesis.Crash_node { dc = 2; part = 1 } };
      { at_us = 900; ev = U.Nemesis.Restart_node { dc = 2; part = 1 } };
      { at_us = 1_000; ev = U.Nemesis.Slow_disk { dc = 2; part = 1; factor = 8 } };
      { at_us = 1_100; ev = U.Nemesis.Restore_disk { dc = 2; part = 1 } };
      { at_us = 1_200; ev = U.Nemesis.Heal_all };
    ]
  in
  match U.Nemesis.schedule_of_json (U.Nemesis.schedule_to_json sched) with
  | Error e -> Alcotest.failf "round-trip failed: %s" e
  | Ok back ->
      Alcotest.(check bool) "schedule survives JSON round-trip" true (back = sched)

(* A fault-free profile for oracle sanity and the planted-bug test. *)
let quiet_profile ?(max_node_crashes = 0) () =
  {
    E.p_dcs = 3;
    p_f = 1;
    p_partitions = 2;
    p_persistence = true;
    p_admission = 0;
    p_lossy = false;
    p_open_rate = None;
    p_clients = 3;
    p_strong_ratio = 0.1;
    p_keys = 100;
    p_max_crashes = 0;
    p_max_recoveries = 0;
    p_max_partitions = 0;
    p_max_degrades = 0;
    p_max_sync_partitions = 0;
    p_max_sync_degrades = 0;
    p_max_node_crashes = max_node_crashes;
    p_horizon_us = 4_000_000;
  }

let test_profile_json_roundtrip () =
  let p = quiet_profile ~max_node_crashes:2 () in
  match E.profile_of_json (E.profile_to_json p) with
  | Error e -> Alcotest.failf "round-trip failed: %s" e
  | Ok back ->
      Alcotest.(check bool) "profile survives JSON round-trip" true (back = p)

(* --- oracles on a clean run ----------------------------------------- *)

let test_clean_run_oracles_pass () =
  let p = quiet_profile () in
  let seed = 11 in
  let sched = E.schedule_of p ~seed in
  let verdicts, _sys = E.run_with p ~seed ~sched in
  List.iter
    (fun v ->
      Alcotest.(check bool)
        (Fmt.str "oracle %s passes on a clean run (%s)" v.Oracle.oracle
           v.Oracle.detail)
        true v.Oracle.pass)
    verdicts

(* A follower no leader's message reaches stops delivering while the
   rest of its group moves on: a causal-only run (strong heartbeats
   still run) with dc2 cut off from the leader DC dc0 for good. dc2 is
   up, not syncing, and no real strong transaction is pending, so only
   the wedged-follower check sees it. *)
let test_liveness_catches_wedged_follower () =
  let p = { (quiet_profile ()) with E.p_strong_ratio = 0.0 } in
  let sched = [ { U.Nemesis.at_us = 1_000_000; ev = U.Nemesis.Partition (0, 2) } ] in
  let verdicts, _sys = E.run_with p ~seed:11 ~sched in
  match List.find_opt (fun v -> v.Oracle.oracle = "liveness") verdicts with
  | None -> Alcotest.fail "no liveness verdict"
  | Some v ->
      Alcotest.(check bool) (Fmt.str "liveness fails (%s)" v.detail) false v.pass;
      let names s =
        let n = String.length s in
        let rec go i =
          i + n <= String.length v.detail
          && (String.sub v.detail i n = s || go (i + 1))
        in
        go 0
      in
      Alcotest.(check bool)
        (Fmt.str "the detail names the group and dc2 (%s)" v.detail)
        true
        (names "wedged" && names "group " && names "dc2 delivered")

(* --- determinism of the swarm loop ---------------------------------- *)

let test_explore_deterministic () =
  let run () =
    let o = E.explore ~horizon_us:3_000_000 ~trials:2 ~seed:5 () in
    List.map
      (fun t -> (t.E.t_seed, t.E.t_fingerprint, t.E.t_novel))
      o.E.o_trials
  in
  let a = run () and b = run () in
  Alcotest.(check bool)
    "two explorations from one seed produce identical fingerprints" true
    (a = b && List.length a = 2)

(* --- the planted bug ------------------------------------------------- *)

(* Acking a write before its WAL record is fsynced is exactly the bug
   the durability oracle exists to catch: a node crash in the
   ack-to-fsync window silently discards a PREPARE whose coordinator
   goes on to commit — the client saw the ack, no replica ever applies
   the write. Whether a given seed puts a crash inside that window is a
   matter of timing, so scan a fixed seed range for the first trial that
   the explorer's own trial path flags with the bug and that is green
   without it; then shrink the schedule and replay the repro document. *)
let planted_seeds = List.init 60 (fun i -> i + 1)

let test_planted_bug_found_shrunk_replayed () =
  let p = quiet_profile ~max_node_crashes:2 () in
  let with_bug f =
    Fun.protect
      ~finally:(fun () -> Store.Wal.unsafe_ack := false)
      (fun () ->
        Store.Wal.unsafe_ack := true;
        f ())
  in
  (* the explorer's own trial path flags the violation, and the same
     trial is green without the bug *)
  let caught seed =
    let trial = with_bug (fun () -> E.run_trial ~index:0 p ~seed) in
    match Oracle.first_failure trial.E.t_verdicts with
    | None -> None
    | Some failing ->
        let clean, _ = E.run_with p ~seed ~sched:trial.E.t_schedule in
        if Oracle.ok clean then Some (trial, failing) else None
  in
  let trial, failing =
    match List.find_map caught planted_seeds with
    | Some found -> found
    | None ->
        Alcotest.fail
          "planted bug not caught by any oracle on a seed that is green \
           without it"
  in
  with_bug (fun () ->
      Alcotest.(check string)
        "the durability oracle catches the unsafe ack" "durability"
        failing.Oracle.oracle;
      let case = E.case_of_trial trial in
      let fails = E.schedule_fails case ~oracle:"durability" in
      let minimal = Explore.Shrink.minimize ~fails trial.E.t_schedule in
      Alcotest.(check bool) "minimal schedule still fails" true (fails minimal);
      Alcotest.(check bool) "shrinking made it no larger" true
        (List.length minimal <= List.length trial.E.t_schedule);
      (* 1-minimality at the atom level: dropping any remaining fault
         atom — a crash grouped with its closing restart — makes it
         pass (Heal_all is structural, the shrinker always keeps it).
         Dropping only the restart is NOT required to defuse it: the
         unsafe-acked write is lost at crash time. *)
      let atom_of i (s : U.Nemesis.step) =
        match s.ev with
        | U.Nemesis.Crash_node { dc; part } | U.Nemesis.Restart_node { dc; part }
          ->
            Some (`Node (dc, part))
        | U.Nemesis.Heal_all -> None
        | _ -> Some (`Step i)
      in
      let atoms =
        List.sort_uniq compare
          (List.concat
             (List.mapi (fun i s -> Option.to_list (atom_of i s)) minimal))
      in
      List.iter
        (fun atom ->
          let without =
            List.filteri (fun i s -> atom_of i s <> Some atom) minimal
          in
          Alcotest.(check bool)
            "dropping any remaining fault atom defuses the repro" false
            (fails without))
        atoms;
      (* the repro document replays to the same failure *)
      let repro =
        E.repro_to_json { case with E.c_schedule = minimal } ~failing
      in
      match E.case_of_json repro with
      | Error e -> Alcotest.failf "repro document does not parse: %s" e
      | Ok back -> (
          let verdicts, _ = E.replay back in
          match Oracle.first_failure verdicts with
          | Some v ->
              Alcotest.(check string) "replayed repro fails the same oracle"
                "durability" v.Oracle.oracle
          | None -> Alcotest.fail "replayed repro did not fail"))

let suite =
  [
    Alcotest.test_case "validate rejects the documented footguns" `Quick
      test_validate_rules;
    Alcotest.test_case "random schedules validate by construction" `Quick
      test_random_schedule_validates;
    Alcotest.test_case "schedule JSON round-trips" `Quick
      test_schedule_json_roundtrip;
    Alcotest.test_case "profile JSON round-trips" `Quick
      test_profile_json_roundtrip;
    Alcotest.test_case "all oracles pass on a clean run" `Quick
      test_clean_run_oracles_pass;
    Alcotest.test_case "liveness catches a wedged follower" `Quick
      test_liveness_catches_wedged_follower;
    Alcotest.test_case "exploration is deterministic under its seed" `Slow
      test_explore_deterministic;
    Alcotest.test_case "planted unsafe-ack bug: found, shrunk, replayed" `Slow
      test_planted_bug_found_shrunk_replayed;
  ]
