(* Ablations of design parameters called out in the paper's text.

   1. Metadata broadcast period (§8.3): "The penalty can be reduced by
      decreasing the frequency at which sibling replicas exchange their
      stableVec, at the expense of an extra delay in the visibility of
      remote transactions." We sweep the period and measure both sides
      of the trade-off. The verdicts check both sides over the periods
      from the paper's 5 ms up: throughput does not fall and visibility
      delay rises strictly. Below the 5 ms propagate period, sibling
      exchange is capped by the stream the stableVec rides on.

   2. Clock skew (§2): "The correctness of UniStore does not depend on
      the precision of clock synchronization, but large drifts may
      negatively impact its performance." We sweep the skew bound and
      measure causal latency (and verify PoR consistency still holds at
      extreme skews), which is the third verdict. *)

module U = Unistore

let partitions = 8

(* --- broadcast period: throughput vs visibility delay --------------- *)

let period_point ~period_us =
  let topo = Net.Topology.three_dcs () in
  let cfg =
    U.Config.default ~topo ~partitions ~mode:U.Config.Uniform_only
      ~broadcast_period_us:period_us ~measure_visibility:true ()
  in
  let sys = U.System.create cfg in
  Common.track sys;
  let spec =
    {
      (Workload.Micro.default_spec ~partitions) with
      update_ratio = 0.15;
      strong_ratio = 0.0;
    }
  in
  let warmup = 300_000 and window = 700_000 in
  U.System.set_window sys ~start:warmup ~stop:(warmup + window);
  let stop () = U.System.now sys >= warmup + window in
  for i = 0 to 1199 do
    ignore
      (U.System.spawn_client sys ~dc:(i mod 3) (fun c ->
           Workload.Micro.client_body spec ~stop c))
  done;
  U.System.run sys ~until:(warmup + window + 100_000);
  let h = U.System.history sys in
  let thr = match U.History.throughput h with Some t -> t | None -> 0.0 in
  let vis_p90 =
    (* delay of Californian updates at Virginia *)
    match U.History.visibility_samples h ~observer:0 ~origin:1 with
    | Some s -> (
        match Sim.Stats.percentile_opt s 90.0 with
        | Some v -> v /. 1000.0
        | None -> nan)
    | None -> nan
  in
  (thr, vis_p90)

let broadcast_period () =
  Common.section
    "Ablation — stableVec exchange period: throughput vs visibility (§8.3 \
     claim)";
  Fmt.pr "  %-12s %12s %18s@." "period (ms)" "thr (tx/s)" "vis p90 Ca→Va (ms)";
  let points =
    List.map
      (fun period_us ->
        let thr, vis = period_point ~period_us in
        Fmt.pr "  %-12.0f %12.0f %18.1f@."
          (float_of_int period_us /. 1000.0)
          thr vis;
        (period_us, thr, vis))
      [ 2_000; 5_000; 20_000; 50_000 ]
  in
  Common.note
    "expected: larger periods buy background-message savings and cost \
     visibility delay";
  points

(* --- clock skew: causal latency sensitivity ------------------------- *)

let skew_point ?(use_hlc = false) ~skew_us () =
  let topo = Net.Topology.three_dcs () in
  let cfg =
    U.Config.default ~topo ~partitions ~clock_skew_us:skew_us ~use_hlc
      ~record_history:true ()
  in
  let sys = U.System.create cfg in
  Common.track sys;
  let spec =
    {
      (Workload.Micro.default_spec ~partitions) with
      update_ratio = 0.5;
      strong_ratio = 0.0;
      think_time_us = 1_000;
    }
  in
  let warmup = 400_000 and window = 1_000_000 in
  U.System.set_window sys ~start:warmup ~stop:(warmup + window);
  let stop () = U.System.now sys >= warmup + window in
  for i = 0 to 59 do
    ignore
      (U.System.spawn_client sys ~dc:(i mod 3) (fun c ->
           Workload.Micro.client_body spec ~stop c))
  done;
  U.System.run sys ~until:(warmup + window + 100_000);
  let h = U.System.history sys in
  let lat =
    match Sim.Stats.mean_opt (U.History.latency_causal h) with
    | Some m -> m /. 1000.0
    | None -> nan
  in
  let check =
    U.Checker.check ~preloads:(U.History.preloads h) cfg (U.History.txns h)
  in
  (lat, U.Checker.ok check)

let clock_skew () =
  Common.section
    "Ablation — clock skew: physical vs hybrid clocks (§2, §9)";
  Fmt.pr "  %-12s %22s %22s %10s@." "skew (ms)" "physical: lat (ms)"
    "hybrid: lat (ms)" "PoR holds";
  let points =
    List.map
      (fun skew_us ->
        let lat_p, ok_p = skew_point ~skew_us () in
        let lat_h, ok_h = skew_point ~use_hlc:true ~skew_us () in
        Fmt.pr "  %-12.0f %22.2f %22.2f %10b@."
          (float_of_int skew_us /. 1000.0)
          lat_p lat_h (ok_p && ok_h);
        (skew_us, lat_p, lat_h, ok_p && ok_h))
      [ 0; 1_000; 10_000; 50_000 ]
  in
  Common.note
    "expected: with physical clocks latency grows with skew (commits and \
     reads wait for clocks to catch up); hybrid clocks merge timestamps \
     instead and stay flat; PoR holds in every configuration";
  points

(* Strictly increasing ([strict]) or non-decreasing sequence. *)
let rec rising ~strict = function
  | a :: (b :: _ as rest) ->
      (if strict then a < b else a <= b) && rising ~strict rest
  | _ -> true

let run () =
  let period_points = broadcast_period () in
  let skew_points = clock_skew () in
  (* the §8.3 trade-off, from the paper's 5 ms period up *)
  let swept = List.filter (fun (p, _, _) -> p >= 5_000) period_points in
  let verdicts =
    [
      ( "throughput_holds_with_period",
        rising ~strict:false (List.map (fun (_, thr, _) -> thr) swept) );
      ( "visibility_rises_with_period",
        rising ~strict:true (List.map (fun (_, _, vis) -> vis) swept) );
      ( "por_holds_at_every_skew",
        List.for_all (fun (_, _, _, ok) -> ok) skew_points );
    ]
  in
  let all_pass = List.for_all snd verdicts in
  Common.note "ablations: %s"
    (if all_pass then "ALL VERDICTS PASS" else "VERDICT FAILURES");
  Common.emit_artifact ~name:"ablations"
    (Sim.Json.Obj
       [
         ( "broadcast_period",
           Sim.Json.List
             (List.map
                (fun (period_us, thr, vis) ->
                  Sim.Json.Obj
                    [
                      ("period_us", Sim.Json.Int period_us);
                      ("throughput_tx_s", Sim.Json.Float thr);
                      ("visibility_p90_ms", Sim.Json.Float vis);
                    ])
                period_points) );
         ( "clock_skew",
           Sim.Json.List
             (List.map
                (fun (skew_us, lat_p, lat_h, ok) ->
                  Sim.Json.Obj
                    [
                      ("skew_us", Sim.Json.Int skew_us);
                      ("physical_lat_ms", Sim.Json.Float lat_p);
                      ("hybrid_lat_ms", Sim.Json.Float lat_h);
                      ("por_holds", Sim.Json.Bool ok);
                    ])
                skew_points) );
         ( "verdicts",
           Sim.Json.Obj
             (List.map (fun (k, v) -> (k, Sim.Json.Bool v)) verdicts) );
         ("all_pass", Sim.Json.Bool all_pass);
       ])
