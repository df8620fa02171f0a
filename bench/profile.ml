(* Self-profiling artifact (BENCH_profile.json): the engine profiles a
   fixed workload mix — a fig3-style closed loop, an open-loop overload
   burst under admission control, and a nemesis churn run with
   persistence on — and the merged per-label breakdown (event counts,
   allocation words per event, sampled wall estimates) becomes the
   document [bin/perfcheck.exe] gates against bench/PERF_BASELINE.json.

   Event counts and allocation words are exact and deterministic under
   the fixed seed; only the sampled wall-clock estimates (and the
   artifact-level [sim_events_per_sec]) vary across machines. The same
   merged breakdown is exported as PROF_profile.folded for
   speedscope/flamegraph.pl. *)

module U = Unistore
module Json = Sim.Json
module Prof = Sim.Prof
module Openloop = Workload.Openloop

let seed = 42
let partitions = 4
let sample_every = 64

(* Closed-loop microbenchmark leg: the fig3 shape (mixed causal/strong
   transactions, closed-loop clients over three DCs), with disks on. *)
let run_closed () =
  let cfg =
    U.Config.default ~topo:(Net.Topology.three_dcs ()) ~partitions ~f:1
      ~seed ~persistence:true ~profile:true
      ~profile_sample_every:sample_every ()
  in
  let spec = Workload.Micro.default_spec ~partitions in
  let body ~stop client = Workload.Micro.client_body spec ~stop client in
  Common.run_experiment ~cfg ~clients:45 ~warmup_us:200_000
    ~window_us:1_000_000 ~body

(* Open-loop flash-crowd leg: all-strong updates through a flash crowd
   with admission control shedding the excess — exercises the
   certification queue, admission sheds and client fibers. *)
let run_burst () =
  let warmup_us = 200_000 and window_us = 1_000_000 in
  let cfg =
    U.Config.default ~topo:(Net.Topology.three_dcs ()) ~partitions:2 ~f:1
      ~seed ~persistence:true ~admission_max_pending:60
      ~costs:{ U.Config.default_costs with U.Config.c_cert = 600 }
      ~profile:true ~profile_sample_every:sample_every ()
  in
  let sys = U.System.create cfg in
  Common.track sys;
  U.System.set_window sys ~start:warmup_us ~stop:(warmup_us + window_us);
  let stop_at = warmup_us + window_us in
  let spec =
    {
      (Workload.Micro.default_spec ~partitions:2) with
      Workload.Micro.keys = 100_000;
      strong_ratio = 1.0;
      update_ratio = 1.0;
      ops_per_txn = 2;
      max_retries = 0;
    }
  in
  let rng = Sim.Rng.split (Sim.Engine.rng (U.System.engine sys)) ~id:0xbf01 in
  let rate =
    Openloop.flash_crowd ~base:300.0 ~peak:1200.0 ~at_us:(warmup_us + 200_000)
      ~duration_us:500_000
  in
  let times = Openloop.arrivals ~rng ~rate ~until_us:stop_at in
  ignore (Openloop.install sys ~arrivals:times ~body:(Openloop.micro_body spec));
  U.System.run sys ~until:(stop_at + 300_000);
  sys

(* Nemesis churn leg: lossy links plus a scripted partition, a node
   crash/restart from disk, and a whole-DC crash/rejoin — exercises the
   retransmission layer, the detector, the WAL and the sync path. *)
let run_churn () =
  let horizon_us = 8_000_000 in
  let cfg =
    U.Config.default ~topo:(Net.Topology.three_dcs ()) ~partitions ~f:1
      ~seed ~persistence:true ~link_faults:Net.Faults.default_spec
      ~profile:true ~profile_sample_every:sample_every ()
  in
  let sys = U.System.create cfg in
  Common.track sys;
  U.System.set_window sys ~start:500_000 ~stop:(horizon_us - 1_000_000);
  let sched =
    [
      { U.Nemesis.at_us = 1_000_000; ev = U.Nemesis.Partition (0, 1) };
      { U.Nemesis.at_us = 2_200_000; ev = U.Nemesis.Heal (0, 1) };
      { U.Nemesis.at_us = 2_500_000;
        ev = U.Nemesis.Crash_node { dc = 1; part = 0 } };
      { U.Nemesis.at_us = 3_200_000;
        ev = U.Nemesis.Restart_node { dc = 1; part = 0 } };
      { U.Nemesis.at_us = 3_500_000; ev = U.Nemesis.Crash_dc 2 };
      { U.Nemesis.at_us = 5_000_000; ev = U.Nemesis.Recover_dc 2 };
      { U.Nemesis.at_us = 6_500_000; ev = U.Nemesis.Heal_all };
    ]
  in
  U.Nemesis.inject sys sched;
  let spec = Workload.Micro.default_spec ~partitions in
  let stop () = U.System.now sys >= horizon_us - 1_000_000 in
  for i = 0 to 8 do
    ignore
      (U.System.spawn_client sys ~dc:(i mod 3) (fun c ->
           Workload.Micro.client_body spec ~stop c))
  done;
  U.System.run sys ~until:horizon_us;
  sys

let run_json name sys =
  let p = Sim.Engine.prof (U.System.engine sys) in
  let h = U.System.history sys in
  Json.Obj
    [
      ("name", Json.String name);
      ("simulated_us", Json.Int (U.System.now sys));
      ("committed", Json.Int (U.History.committed_total h));
      ("events", Json.Int (Prof.total_events p));
      ("coverage_pct", Json.Float (Prof.coverage_pct p));
    ]

let run () =
  Common.section
    "Profile — engine self-profiling over the fixed workload mix";
  Common.note
    "closed loop + overload burst + nemesis churn, persistence on, seed %d, \
     wall sampling every %d events"
    seed sample_every;
  Common.hr ();
  let legs =
    [
      ("closed_loop", run_closed);
      ("overload_burst", run_burst);
      ("nemesis_churn", run_churn);
    ]
  in
  let runs =
    List.map
      (fun (name, f) ->
        let sys = Common.timed name f in
        let p = Sim.Engine.prof (U.System.engine sys) in
        Common.note "%s: %d events, %.1f%% attributed" name
          (Prof.total_events p) (Prof.coverage_pct p);
        U.Report.pp_hot_paths ~n:8 Fmt.stdout sys;
        (name, sys))
      legs
  in
  let merged =
    Prof.merge
      (List.map
         (fun (_, sys) -> Prof.entries (Sim.Engine.prof (U.System.engine sys)))
         runs)
  in
  let total =
    List.fold_left
      (fun acc (_, sys) ->
        acc + Prof.total_events (Sim.Engine.prof (U.System.engine sys)))
      0 runs
  in
  let noise_events, noise_words =
    List.fold_left
      (fun (ne, nw) (_, sys) ->
        let p = Sim.Engine.prof (U.System.engine sys) in
        (ne + Prof.noise_events p, nw +. Prof.noise_words p))
      (0, 0.0) runs
  in
  let attributed =
    List.fold_left
      (fun acc e -> if e.Prof.e_label <> "other" then acc + e.Prof.e_events else acc)
      0 merged
  in
  let coverage =
    if total = 0 then 100.0
    else 100.0 *. float_of_int attributed /. float_of_int total
  in
  (* the churn leg's lossy links and disks: every lossy send arms a
     retransmission timer *)
  let required_labels = [ "net/retransmit"; "wal/fsync" ] in
  let labels_present =
    List.for_all
      (fun l -> List.exists (fun e -> e.Prof.e_label = l) merged)
      required_labels
  in
  let coverage_ge_95 = coverage >= 95.0 in
  Common.hr ();
  Common.note
    "merged: %d events over %d labels, %.1f%% attributed; verdicts: \
     coverage-ge-95=%b required-labels-present=%b"
    total (List.length merged) coverage coverage_ge_95 labels_present;
  (* Always write the artifact, into bench-out without [--json]:
     bin/perfcheck.exe gates bench-out/BENCH_profile.json, and a run
     that left an older file in place would have it gate that one. *)
  let json_dir = !Common.json_dir in
  if json_dir = None then Common.json_dir := Some "bench-out";
  Common.emit_folded ~name:"profile"
    (Prof.folded_of_entries ~sample_every merged);
  Common.emit_artifact ~name:"profile"
    (Json.Obj
       [
         ("experiment", Json.String "profile");
         ("seed", Json.Int seed);
         ("sample_every", Json.Int sample_every);
         ("runs", Json.List (List.map (fun (n, s) -> run_json n s) runs));
         ( "profile",
           Prof.entries_to_json ~noise_events ~noise_words ~sample_every
             ~total_events:total merged );
         ( "verdicts",
           Json.Obj
             [
               ("coverage_ge_95", Json.Bool coverage_ge_95);
               ("required_labels_present", Json.Bool labels_present);
               ("all_pass", Json.Bool (coverage_ge_95 && labels_present));
             ] );
       ]);
  Common.json_dir := json_dir
