(* Figure 6 (§8.3): visibility delay of remote transactions when reading
   from a uniform snapshot.

   4 DCs (Virginia, California, Frankfurt, Brazil) with f = 2: a data
   center exposes a remote transaction once it knows that 3 DCs store it.
   The figure shows the CDF of the extra delay (visible - received) for
   updates originating at California, observed at Brazil (best case:
   ~5 ms at the 90th percentile) and at Virginia (worst case: ~92 ms at
   the 90th percentile, because Virginia must hear that a third, distant
   DC stores the transaction).

   The artifact's verdicts check the figure's shape: Virginia's p90
   exceeds Brazil's, and reaches the structural floor the topology sets
   for it — a third DC must receive the transaction from California and
   tell Virginia, which itself received it one Ca->Va hop after the
   commit. *)

module U = Unistore

let partitions = 8
let virginia = 0
let california = 1
let frankfurt = 2
let brazil = 3

let run () =
  Common.section
    "Figure 6 — extra visibility delay under uniform reads (4 DCs, f = 2)";
  let topo = Net.Topology.four_dcs () in
  let spec =
    {
      (Workload.Micro.default_spec ~partitions) with
      update_ratio = 1.0;
      strong_ratio = 0.0;
      think_time_us = 2_000;
    }
  in
  let cfg =
    U.Config.default ~topo ~partitions ~f:2 ~mode:U.Config.Uniform_only
      ~measure_visibility:true ()
  in
  let sys = U.System.create cfg in
  Common.track sys;
  let stop_at = 4_000_000 in
  let stop () = U.System.now sys >= stop_at in
  (* updates originate at California, as in the paper's measurement *)
  for _ = 1 to 150 do
    ignore
      (U.System.spawn_client sys ~dc:california (fun c ->
           Workload.Micro.client_body spec ~stop c))
  done;
  U.System.run sys ~until:(stop_at + 500_000);
  let h = U.System.history sys in
  let pcts = [ 10.0; 25.0; 50.0; 75.0; 90.0; 99.0 ] in
  let report ~observer name paper =
    match U.History.visibility_samples h ~observer ~origin:california with
    | Some s when Sim.Stats.count s > 0 ->
        Fmt.pr "  California -> %-9s (%d samples)  (paper: %s)@." name
          (Sim.Stats.count s) paper;
        Fmt.pr "    %-6s %8s@." "pct" "delay ms";
        List.iter
          (fun p ->
            Fmt.pr "    p%-5.0f %8.1f@." p
              (Sim.Stats.percentile s p /. 1000.0))
          pcts;
        ( Sim.Json.Obj
            [
              ("observer", Sim.Json.String name);
              ("samples", Sim.Json.Int (Sim.Stats.count s));
              ( "delay_ms",
                Sim.Json.Obj
                  (List.map
                     (fun p ->
                       ( Fmt.str "p%.0f" p,
                         Sim.Json.Float (Sim.Stats.percentile s p /. 1000.0)
                       ))
                     pcts) );
            ],
          Some (Sim.Stats.percentile s 90.0 /. 1000.0) )
    | _ ->
        Fmt.pr "  California -> %s: no samples@." name;
        ( Sim.Json.Obj
            [
              ("observer", Sim.Json.String name);
              ("samples", Sim.Json.Int 0);
            ],
          None )
  in
  let j_brazil, p90_brazil =
    report ~observer:brazil "brazil" "~5 ms at p90 (best case)"
  in
  let j_virginia, p90_virginia =
    report ~observer:virginia "virginia" "~92 ms at p90 (worst case)"
  in
  let one_way src dst =
    float_of_int (Net.Topology.one_way topo ~src ~dst) /. 1000.0
  in
  (* through the cheapest third DC (Frankfurt here) *)
  let floor_ms =
    List.fold_left
      (fun acc k -> Float.min acc (one_way california k +. one_way k virginia))
      infinity [ frankfurt; brazil ]
    -. one_way california virginia
  in
  let holds f =
    match (p90_brazil, p90_virginia) with
    | Some b, Some v -> f b v
    | _ -> false
  in
  let verdicts =
    [
      ("virginia_p90_exceeds_brazil", holds (fun b v -> v > b));
      ("virginia_p90_at_structural_floor", holds (fun _ v -> v >= floor_ms));
    ]
  in
  let all_pass = List.for_all snd verdicts in
  Common.note
    "structural floor at Virginia (Ca->third + third->Va - Ca->Va): %.1f ms"
    floor_ms;
  Common.note "fig6: %s"
    (if all_pass then "ALL VERDICTS PASS" else "VERDICT FAILURES");
  Common.emit_artifact ~name:"fig6"
    (Sim.Json.Obj
       [
         ("origin", Sim.Json.String "california");
         ("observers", Sim.Json.List [ j_brazil; j_virginia ]);
         ("virginia_floor_ms", Sim.Json.Float floor_ms);
         ( "verdicts",
           Sim.Json.Obj
             (List.map (fun (k, v) -> (k, Sim.Json.Bool v)) verdicts) );
         ("all_pass", Sim.Json.Bool all_pass);
       ])
