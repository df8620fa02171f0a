(* Figures 1 and 2 (§4): the liveness scenarios that motivate transaction
   forwarding and uniformity, replayed as scripted failure schedules.
   These are qualitative figures in the paper; here the runner prints the
   observed event sequence so the mechanism is visible. *)

module U = Unistore
module Client = U.Client
module Fiber = Sim.Fiber

let fig1 () =
  Common.section "Figure 1 — transaction forwarding preserves Eventual \
                  Visibility";
  let cfg =
    U.Config.default ~topo:(Net.Topology.three_dcs ()) ~partitions:4
      ~record_history:true ()
  in
  let sys = U.System.create cfg in
  Common.track sys;
  U.System.preload sys 1 (Crdt.Reg_write 0);
  (* cut California–Frankfurt before t1 commits: no copy of t1 can reach
     Frankfurt directly, so only forwarding makes it visible there *)
  U.Nemesis.inject sys
    [ { U.Nemesis.at_us = 0; ev = U.Nemesis.Partition (1, 2) } ];
  ignore
    (U.System.spawn_client sys ~dc:1 (fun c ->
         Client.start c;
         Client.update c 1 (Crdt.Reg_write 42);
         ignore (Client.commit c);
         Common.note "t=%6dus  t1 committed at California (d1)"
           (U.System.now sys)));
  Sim.Engine.schedule (U.System.engine sys) ~delay:45_000 (fun () ->
      Common.note
        "t=%6dus  California fails: t1 reached Virginia; the link to \
         Frankfurt is cut"
        (U.System.now sys);
      U.System.fail_dc sys 1);
  let forwarded = ref false in
  ignore
    (U.System.spawn_client sys ~dc:2 (fun c ->
         let rec poll () =
           Client.start c;
           let v = Client.read_int c 1 in
           ignore (Client.commit c);
           if v = 42 then begin
             forwarded := true;
             Common.note
               "t=%6dus  t1 visible at Frankfurt via forwarding from Virginia"
               (U.System.now sys)
           end
           else begin
             Fiber.sleep 100_000;
             poll ()
           end
         in
         poll ()));
  U.System.run sys ~until:8_000_000;
  let converged =
    match U.System.check_convergence sys with
    | [] ->
        Common.note "correct DCs converged: Eventual Visibility holds";
        true
    | errs ->
        List.iter (Common.note "DIVERGENCE: %s") errs;
        false
  in
  let por = Explore.Oracle.por sys in
  Common.note "PoR check: %s" por.Explore.Oracle.detail;
  (!forwarded, converged, por)

let fig2 () =
  Common.section "Figure 2 — strong transactions wait for uniform \
                  dependencies (liveness)";
  let cfg =
    U.Config.default ~topo:(Net.Topology.three_dcs ()) ~partitions:4
      ~record_history:true ()
  in
  let sys = U.System.create cfg in
  Common.track sys;
  U.System.preload sys 1 (Crdt.Reg_write 0);
  U.System.preload sys 2 (Crdt.Reg_write 0);
  ignore
    (U.System.spawn_client sys ~dc:1 (fun c ->
         Client.start c;
         Client.update c 1 (Crdt.Reg_write 1);
         ignore (Client.commit c);
         Common.note "t=%6dus  t1 (causal) committed at California"
           (U.System.now sys);
         Client.start c ~strong:true;
         ignore (Client.read_int c 1);
         Client.update c 2 (Crdt.Reg_write 2);
         (match Client.commit c with
         | `Committed _ ->
             Common.note
               "t=%6dus  t2 (strong) committed — its dependency t1 is \
                already uniform"
               (U.System.now sys);
             U.System.fail_dc sys 1;
             Common.note "t=%6dus  California fails immediately afterwards"
               (U.System.now sys)
         | `Aborted -> Common.note "t2 aborted (unexpected)")));
  let live = ref false in
  ignore
    (U.System.spawn_client sys ~dc:2 (fun c ->
         Fiber.sleep 2_000_000;
         let rec attempt n =
           Client.start c ~strong:true;
           let v = Client.read_int c 2 in
           Client.update c 2 (Crdt.Reg_write 3);
           match Client.commit c with
           | `Committed _ ->
               live := true;
               Common.note
                 "t=%6dus  t3 (strong, conflicts with t2) committed at \
                  Frankfurt having observed t2's write (%d) — liveness \
                  preserved"
                 (U.System.now sys) v
           | `Aborted ->
               if n < 30 then begin
                 Fiber.sleep 200_000;
                 attempt (n + 1)
               end
               else Common.note "t3 never committed: LIVENESS VIOLATION"
         in
         attempt 0));
  U.System.run sys ~until:15_000_000;
  let converged =
    match U.System.check_convergence sys with
    | [] ->
        Common.note "correct DCs converged";
        true
    | errs ->
        List.iter (Common.note "DIVERGENCE: %s") errs;
        false
  in
  let por = Explore.Oracle.por sys in
  Common.note "PoR check: %s" por.Explore.Oracle.detail;
  (!live, converged, por)

let run () =
  let fwd, conv1, por1 = fig1 () in
  let live, conv2, por2 = fig2 () in
  Common.emit_artifact ~name:"scenarios"
    (Sim.Json.Obj
       [
         ( "fig1",
           Sim.Json.Obj
             [
               ("forwarding_visible", Sim.Json.Bool fwd);
               ("converged", Sim.Json.Bool conv1);
               ("por_safe", Sim.Json.Bool por1.Explore.Oracle.pass);
               ("por", Sim.Json.String por1.Explore.Oracle.detail);
             ] );
         ( "fig2",
           Sim.Json.Obj
             [
               ("strong_liveness", Sim.Json.Bool live);
               ("converged", Sim.Json.Bool conv2);
               ("por_safe", Sim.Json.Bool por2.Explore.Oracle.pass);
               ("por", Sim.Json.String por2.Explore.Oracle.detail);
             ] );
       ])
