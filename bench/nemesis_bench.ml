(* Nemesis artefact: a seeded adversity schedule — steady loss and
   duplication, transient partitions, gray links, a whole-DC crash —
   injected into a RUBiS run, with the failure detector's view, the
   per-cause message-drop counters and the end-to-end verdicts (PoR,
   convergence, no stuck strong transaction) printed as the run's
   summary. Everything derives from one seed and replays exactly. *)

module U = Unistore
module Rubis = Workload.Rubis
module Network = Net.Network

let seed = 2021

let run () =
  Common.section
    "Nemesis — lossy links, partitions, a DC crash, and the Ω detector";
  let topo = Net.Topology.n_dcs 5 in
  let horizon_us = 16_000_000 in
  let cfg =
    U.Config.default ~topo ~partitions:3 ~f:2 ~conflict:Rubis.conflict_spec
      ~seed ~link_faults:Net.Faults.default_spec ~record_history:true
      ~trace_enabled:true ()
  in
  let sys = U.System.create cfg in
  Common.track sys;
  let spec =
    {
      Rubis.default_spec with
      n_items = 300;
      n_users = 1_000;
      n_regions = 10;
      n_categories = 5;
      think_time_us = 50_000;
    }
  in
  Rubis.populate sys spec;
  let sched =
    U.Nemesis.random_schedule ~seed ~dcs:(Net.Topology.dcs topo) ~horizon_us
      ()
  in
  Common.note "schedule (seed %d):" seed;
  List.iter (fun s -> Common.note "  %a" U.Nemesis.pp_step s) sched;
  U.Nemesis.inject sys sched;
  let stop () = U.System.now sys >= horizon_us - 4_000_000 in
  for i = 0 to 7 do
    ignore
      (U.System.spawn_client sys
         ~dc:(i mod Net.Topology.dcs topo)
         (fun c -> Rubis.client_body spec ~stop c))
  done;
  U.System.run sys ~until:horizon_us;
  let det = U.System.detector sys in
  let net = U.System.network sys in
  let h = U.System.history sys in
  Common.note "detector timeline:";
  List.iter
    (fun (e : Sim.Trace.event) ->
      if e.ev_source = "fd" then
        Common.note "  t=%8dus  %s" e.ev_time e.ev_detail)
    (Sim.Trace.events (U.System.trace sys));
  Common.note "committed: %d (%d strong), aborted strong: %d"
    (U.History.committed_total h)
    (U.History.committed_strong h)
    (U.History.aborted_strong h);
  Common.note
    "drops: %d crash / %d loss / %d partition; %d retransmissions, %d \
     duplicates suppressed"
    (Network.dropped_crash net) (Network.dropped_loss net)
    (Network.dropped_partition net)
    (Network.retransmissions net)
    (Network.duplicates_suppressed net);
  Common.note "suspicions: %d (%d false), rehabilitations: %d"
    (U.Detector.suspicions det)
    (U.Detector.false_suspicions det)
    (U.Detector.restorations det);
  Common.note "strong transactions still pending: %d"
    (U.System.pending_strong sys);
  let result =
    U.Checker.check
      ~preloads:(U.History.preloads h)
      ~unacked:(U.History.unacked_writers h)
      cfg (U.History.txns h)
  in
  if U.Checker.ok result then Common.note "PoR: %a" U.Checker.pp_result result
  else Common.note "PoR FAILED: %a" U.Checker.pp_result result;
  let divergences = U.System.check_convergence sys in
  (match divergences with
  | [] -> Common.note "correct DCs converged after the final heal"
  | errs -> List.iter (Common.note "DIVERGENCE: %s") errs);
  Common.emit_artifact ~name:"nemesis"
    (Sim.Json.Obj
       [
         ("report", U.Report.of_system ~name:"nemesis" sys);
         ( "drops",
           Sim.Json.Obj
             [
               ("crash", Sim.Json.Int (Network.dropped_crash net));
               ("loss", Sim.Json.Int (Network.dropped_loss net));
               ("partition", Sim.Json.Int (Network.dropped_partition net));
             ] );
         ("retransmissions", Sim.Json.Int (Network.retransmissions net));
         ( "duplicates_suppressed",
           Sim.Json.Int (Network.duplicates_suppressed net) );
         ( "detector",
           Sim.Json.Obj
             [
               ("suspicions", Sim.Json.Int (U.Detector.suspicions det));
               ( "false_suspicions",
                 Sim.Json.Int (U.Detector.false_suspicions det) );
               ("restorations", Sim.Json.Int (U.Detector.restorations det));
             ] );
         ("pending_strong", Sim.Json.Int (U.System.pending_strong sys));
         ("por_holds", Sim.Json.Bool (U.Checker.ok result));
         ("converged", Sim.Json.Bool (divergences = []));
       ]);
  Common.emit_trace ~name:"nemesis" (U.System.trace sys)

(* Recovery artefact: a scripted whole-DC crash followed by a recovery
   mid-run. Shows the throughput dip while the DC is down (its clients
   fail over), the rejoin catch-up cost (snapshot + log-replay bytes,
   catch-up latency) and the end-to-end verdicts: the recovered DC
   converges to the same store as the DCs that never crashed. *)
let recovery_seed = 4242

let run_recovery () =
  Common.section "Recovery — whole-DC crash, rejoin, client failover";
  let topo = Net.Topology.n_dcs 3 in
  let horizon_us = 16_000_000 in
  let crash_at = 4_000_000 and recover_at = 8_000_000 in
  let cfg =
    U.Config.default ~topo ~partitions:3 ~f:1 ~conflict:Rubis.conflict_spec
      ~seed:recovery_seed ~client_failover_us:400_000 ~record_history:true ()
  in
  let sys = U.System.create cfg in
  Common.track sys;
  let spec =
    {
      Rubis.default_spec with
      n_items = 300;
      n_users = 1_000;
      n_regions = 10;
      n_categories = 5;
      think_time_us = 50_000;
    }
  in
  Rubis.populate sys spec;
  let sched =
    [
      { U.Nemesis.at_us = crash_at; ev = U.Nemesis.Crash_dc 2 };
      { U.Nemesis.at_us = recover_at; ev = U.Nemesis.Recover_dc 2 };
    ]
  in
  Common.note "schedule (scripted):";
  List.iter (fun s -> Common.note "  %a" U.Nemesis.pp_step s) sched;
  U.Nemesis.inject sys sched;
  let stop () = U.System.now sys >= horizon_us - 3_000_000 in
  for i = 0 to 8 do
    ignore
      (U.System.spawn_client sys
         ~dc:(i mod Net.Topology.dcs topo)
         (fun c -> Rubis.client_body spec ~stop c))
  done;
  (* per-second committed-transaction timeline: the crash dip and the
     post-recovery catch-up are visible in the deltas *)
  let eng = U.System.engine sys in
  let buckets = horizon_us / 1_000_000 in
  let cumulative = Array.make (buckets + 1) 0 in
  let committed () = U.History.committed_total (U.System.history sys) in
  for k = 1 to buckets do
    Sim.Engine.schedule_at eng ~time:(k * 1_000_000) (fun () ->
        cumulative.(k) <- committed ())
  done;
  U.System.run sys ~until:horizon_us;
  cumulative.(buckets) <- committed ();
  let per_second =
    List.init buckets (fun k -> cumulative.(k + 1) - cumulative.(k))
  in
  let h = U.System.history sys in
  Common.note "committed per second: %s"
    (String.concat " " (List.map string_of_int per_second));
  Common.note "committed: %d (%d strong), pending strong: %d"
    (U.History.committed_total h)
    (U.History.committed_strong h)
    (U.System.pending_strong sys);
  Common.note "dc2 still syncing: %b" (U.System.dc_syncing sys 2);
  let result =
    U.Checker.check
      ~preloads:(U.History.preloads h)
      ~unacked:(U.History.unacked_writers h)
      cfg (U.History.txns h)
  in
  if U.Checker.ok result then Common.note "PoR: %a" U.Checker.pp_result result
  else Common.note "PoR FAILED: %a" U.Checker.pp_result result;
  let divergences = U.System.check_convergence sys in
  (match divergences with
  | [] -> Common.note "all DCs (including the recovered one) converged"
  | errs -> List.iter (Common.note "DIVERGENCE: %s") errs);
  Common.emit_artifact ~name:"recovery"
    (Sim.Json.Obj
       [
         ("report", U.Report.of_system ~name:"recovery" sys);
         ("crash_at_us", Sim.Json.Int crash_at);
         ("recover_at_us", Sim.Json.Int recover_at);
         ( "committed_per_second",
           Sim.Json.List (List.map (fun n -> Sim.Json.Int n) per_second) );
         ("pending_strong", Sim.Json.Int (U.System.pending_strong sys));
         ("dc_syncing", Sim.Json.Bool (U.System.dc_syncing sys 2));
         ("por_holds", Sim.Json.Bool (U.Checker.ok result));
         ("converged", Sim.Json.Bool (divergences = []));
       ])

(* Combined-adversity artefact: a multi-seed soak where the nemesis aims
   partitions and gray links at the *recovery itself* — the recovering
   DC's sync peers are cut or degraded inside the crash→recover→heal
   window, so the rejoin's catch-up races the very faults that used to
   stall it. Per seed the verdicts are: the rejoin completed before
   [Heal_all] + horizon/4 (no stuck dcs_syncing gauge), all correct DCs
   converged, and no strong transaction is left pending. *)
let adversity_base_seed = 7001
let adversity_seeds_wanted = 3

let run_adversity () =
  Common.section
    "Combined adversity — partitions and gray links during DC rejoin";
  let dcs = 3 in
  let topo = Net.Topology.n_dcs dcs in
  let horizon_us = 16_000_000 in
  let heal_at = 3 * horizon_us / 4 in
  let rejoin_deadline = heal_at + (horizon_us / 4) in
  let schedule_of seed =
    U.Nemesis.random_schedule ~seed ~dcs ~horizon_us ~max_crashes:1
      ~max_partitions:1 ~max_degrades:1 ~max_recoveries:1
      ~max_sync_partitions:1 ~max_sync_degrades:1 ()
  in
  (* deterministically scan for seeds whose schedule actually contains a
     crash/recover cycle (a seed may draw zero crashes) *)
  let recovery_of sched =
    List.find_map
      (fun { U.Nemesis.at_us; ev } ->
        match ev with U.Nemesis.Recover_dc dc -> Some (dc, at_us) | _ -> None)
      sched
  in
  let seeds =
    let rec scan seed acc =
      if List.length acc >= adversity_seeds_wanted then List.rev acc
      else
        let acc =
          match recovery_of (schedule_of seed) with
          | Some _ -> seed :: acc
          | None -> acc
        in
        scan (seed + 1) acc
    in
    scan adversity_base_seed []
  in
  let run_seed seed =
    let cfg =
      U.Config.default ~topo ~partitions:3 ~f:1 ~conflict:Rubis.conflict_spec
        ~seed ~link_faults:Net.Faults.default_spec
        ~client_failover_us:400_000 ~record_history:true ()
    in
    let sys = U.System.create cfg in
  Common.track sys;
    let spec =
      {
        Rubis.default_spec with
        n_items = 200;
        n_users = 500;
        n_regions = 10;
        n_categories = 5;
        think_time_us = 50_000;
      }
    in
    Rubis.populate sys spec;
    let sched = schedule_of seed in
    let rec_dc, recover_at =
      match recovery_of sched with Some p -> p | None -> assert false
    in
    Common.note "seed %d schedule:" seed;
    List.iter (fun s -> Common.note "  %a" U.Nemesis.pp_step s) sched;
    U.Nemesis.inject sys sched;
    (* the workload stops at the final heal: the last quarter of the run
       is settle time, so the liveness verdicts (pending strong drains,
       stores converge) measure the protocol, not a still-hot workload *)
    let stop () = U.System.now sys >= heal_at in
    for i = 0 to 5 do
      ignore
        (U.System.spawn_client sys ~dc:(i mod dcs) (fun c ->
             Rubis.client_body spec ~stop c))
    done;
    (* probe the rejoin exactly at the liveness deadline *)
    let rejoined_in_time = ref false in
    Sim.Engine.schedule_at (U.System.engine sys)
      ~time:(min rejoin_deadline (horizon_us - 1))
      (fun () -> rejoined_in_time := not (U.System.dc_syncing sys rec_dc));
    U.System.run sys ~until:horizon_us;
    let gauge_left =
      Sim.Metrics.gauge_value
        (Sim.Metrics.gauge (U.System.metrics sys) "dcs_syncing")
    in
    let divergences = U.System.check_convergence sys in
    let pending = U.System.pending_strong sys in
    let verdict =
      !rejoined_in_time && gauge_left = 0.0 && divergences = [] && pending = 0
    in
    Common.note
      "seed %d: recover dc%d at %dus; rejoined by deadline: %b, dcs_syncing \
       gauge: %.0f, converged: %b, pending strong: %d -> %s"
      seed rec_dc recover_at !rejoined_in_time gauge_left (divergences = [])
      pending
      (if verdict then "PASS" else "FAIL");
    List.iter (Common.note "DIVERGENCE: %s") divergences;
    ( verdict,
      Sim.Json.Obj
        [
          ("seed", Sim.Json.Int seed);
          ("recovered_dc", Sim.Json.Int rec_dc);
          ("recover_at_us", Sim.Json.Int recover_at);
          ("rejoin_deadline_us", Sim.Json.Int rejoin_deadline);
          ("rejoined_by_deadline", Sim.Json.Bool !rejoined_in_time);
          ("dcs_syncing_gauge", Sim.Json.Float gauge_left);
          ("converged", Sim.Json.Bool (divergences = []));
          ("pending_strong", Sim.Json.Int pending);
          ("verdict", Sim.Json.Bool verdict);
        ] )
  in
  let results = List.map run_seed seeds in
  let all_pass = List.for_all fst results in
  Common.note "combined adversity: %d/%d seeds pass"
    (List.length (List.filter fst results))
    (List.length results);
  Common.emit_artifact ~name:"adversity"
    (Sim.Json.Obj
       [
         ("horizon_us", Sim.Json.Int horizon_us);
         ("heal_all_at_us", Sim.Json.Int heal_at);
         ("seeds", Sim.Json.List (List.map snd results));
         ("all_pass", Sim.Json.Bool all_pass);
       ])
