(* The cross-DC sibling gossip of Algorithm A5: every broadcast tick each
   partition sends each sibling one KNOWNVEC_GLOBAL, carrying its
   knownVec GC claim and, when the mode tracks uniformity, its stableVec.
   A replica still catching up after a rejoin gossips its claim alone:
   it does not vouch for stability. *)

module U = Unistore
module Vc = Vclock.Vc

let kind = "knownvec_global"

let by_kind reg name k =
  List.fold_left
    (fun acc (labels, c) ->
      if List.assoc_opt "kind" labels = Some k then
        acc + Sim.Metrics.counter_value c
      else acc)
    0
    (Sim.Metrics.counters_matching reg name)

let kinds_sent reg =
  List.filter_map
    (fun (labels, c) ->
      if Sim.Metrics.counter_value c > 0 then List.assoc_opt "kind" labels
      else None)
    (Sim.Metrics.counters_matching reg "net_sent_total")

(* Wire size of one gossip message with and without a stableVec. *)
let gossip_bytes ~dcs ~stable =
  let v = Vc.create ~dcs in
  U.Msg.size_bytes
    (U.Msg.Knownvec_global
       { dc = 0; vec = v; stable = (if stable then Some v else None) })

(* How many of the gossip messages sent so far carried no stableVec:
   sizes depend only on the vector width, so the byte count splits the
   message count exactly. *)
let sent_without_stable sys =
  let reg = U.System.metrics sys and dcs = U.Config.dcs (U.System.cfg sys) in
  let n = by_kind reg "net_sent_total" kind
  and bytes = by_kind reg "net_sent_bytes" kind in
  let with_s = gossip_bytes ~dcs ~stable:true
  and without = gossip_bytes ~dcs ~stable:false in
  ((n * with_s) - bytes) / (with_s - without)

let test_cost_model () =
  let c = U.Config.default_costs and v = Vc.create ~dcs:3 in
  let gossip stable = U.Msg.Knownvec_global { dc = 0; vec = v; stable } in
  Alcotest.(check int) "a gossip with a stableVec costs the uniformVec \
                        recomputation on top of the vector merge"
    (c.U.Config.c_stablevec + c.U.Config.c_vec)
    (U.Msg.cost c (gossip (Some v)));
  Alcotest.(check int) "a gossip without one costs the merge alone"
    c.U.Config.c_vec
    (U.Msg.cost c (gossip None))

let test_one_message_per_sibling_per_tick () =
  let partitions = 4 in
  let sys = Util.make_system ~partitions () in
  let cfg = U.System.cfg sys and reg = U.System.metrics sys in
  let dcs = U.Config.dcs cfg and period = cfg.U.Config.broadcast_period_us in
  let uniform dc = Vc.copy (U.Replica.uniform_vec (U.System.replica sys ~dc ~part:0)) in
  Util.run sys ~until:1_000_000;
  let before = by_kind reg "net_sent_total" kind in
  let uniform_before = Array.init dcs uniform in
  let ticks = 20 in
  Util.run sys ~until:(1_000_000 + (ticks * period));
  Alcotest.(check int) "partitions x DCs x (DCs - 1) gossip messages per tick"
    (ticks * partitions * dcs * (dcs - 1))
    (by_kind reg "net_sent_total" kind - before);
  Alcotest.(check bool) "no separate stableVec message is ever sent" false
    (List.mem "stablevec" (kinds_sent reg));
  Alcotest.(check int) "every gossip carries the stableVec" 0
    (sent_without_stable sys);
  for dc = 0 to dcs - 1 do
    let now = uniform dc in
    for j = 0 to dcs - 1 do
      if j <> dc then
        Alcotest.(check bool)
          (Fmt.str "dc%d's uniformVec[%d] advances" dc j)
          true
          (Vc.get now j > Vc.get uniform_before.(dc) j)
    done
  done

let test_cure_gossips_no_stablevec () =
  let sys = Util.make_system ~partitions:2 ~mode:U.Config.Cure_ft () in
  Util.run sys ~until:500_000;
  let n = by_kind (U.System.metrics sys) "net_sent_total" kind in
  Alcotest.(check bool) "Cure gossips knownVec" true (n > 0);
  Alcotest.(check int) "no Cure gossip carries a stableVec" n
    (sent_without_stable sys)

let test_rejoiner_gossips_no_stablevec () =
  let sys = Util.make_system ~partitions:2 () in
  U.Nemesis.inject sys
    [
      { U.Nemesis.at_us = 500_000; ev = U.Nemesis.Crash_dc 2 };
      { at_us = 1_000_000; ev = U.Nemesis.Recover_dc 2 };
    ];
  Util.run sys ~until:3_000_000;
  Alcotest.(check bool) "dc2 finished catching up" false
    (U.System.dc_syncing sys 2);
  Alcotest.(check bool) "the rejoiner's catch-up gossip carried no stableVec"
    true
    (sent_without_stable sys > 0)

let suite =
  [
    Alcotest.test_case "gossip cost: stableVec charge only when carried" `Quick
      test_cost_model;
    Alcotest.test_case "one gossip message per sibling per tick" `Quick
      test_one_message_per_sibling_per_tick;
    Alcotest.test_case "Cure gossips no stableVec" `Quick
      test_cure_gossips_no_stablevec;
    Alcotest.test_case "a rejoiner gossips no stableVec" `Quick
      test_rejoiner_gossips_no_stablevec;
  ]
