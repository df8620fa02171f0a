(* The cross-DC sibling gossip of Algorithm A5. Each propagate tick, a
   partition's own replication stream message to a sibling (REPLICATE,
   or HEARTBEAT when idle) carries its claim: the knownVec GC claim and,
   when the mode tracks uniformity and it advanced since the last one
   attached, its stableVec. Only an origin sends its own stream, so the
   type makes every stream message carry a claim. A standalone
   KNOWNVEC_GLOBAL is sent only outside the tick: by a replica catching
   up, without a stableVec (it does not vouch for stability), and once
   by a replica resuming service. *)

module U = Unistore
module Vc = Vclock.Vc

(* Classify every message the network sends into a private registry:
   stream messages by the claim they carry, everything else by its
   kind. *)
let meter sys =
  let net = U.System.network sys and reg = Sim.Metrics.create () in
  let kind_of = function
    | U.Msg.Replicate { claim = { stable = None; _ }; _ }
    | U.Msg.Heartbeat { claim = { stable = None; _ }; _ } ->
        "stream/claim"
    | U.Msg.Replicate _ | U.Msg.Heartbeat _ -> "stream/claim+stable"
    | U.Msg.Knownvec_global { claim = { stable = Some _; _ }; _ } ->
        "knownvec_global+stable"
    | m -> U.Msg.kind m
  in
  Net.Network.set_meter net reg ~kind_of ~size_of:U.Msg.size_bytes;
  fun k ->
    List.fold_left
      (fun acc (labels, c) ->
        if List.assoc_opt "kind" labels = Some k then
          acc + Sim.Metrics.counter_value c
        else acc)
      0
      (Sim.Metrics.counters_matching reg "net_sent_total")

let stream sent = sent "stream/claim" + sent "stream/claim+stable"

let test_cost_model () =
  let c = U.Config.default_costs and v = Vc.create ~dcs:3 in
  let claim stable = { U.Msg.vec = v; stable } in
  let gossip stable = U.Msg.Knownvec_global { dc = 0; claim = claim stable } in
  let heartbeat claim =
    U.Msg.Heartbeat { origin = 0; ts = 1; from_ts = 0; claim }
  in
  let replicate claim =
    U.Msg.Replicate { origin = 0; txs = []; from_ts = 0; claim }
  in
  let cost = U.Msg.cost c in
  Alcotest.(check int) "a gossip with a stableVec costs the uniformVec \
                        recomputation on top of the vector merge"
    (c.U.Config.c_stablevec + c.U.Config.c_vec)
    (cost (gossip (Some v)));
  Alcotest.(check int) "a gossip without one costs the merge alone"
    c.U.Config.c_vec
    (cost (gossip None));
  Alcotest.(check int) "a claim adds exactly the gossip's charge to a \
                        heartbeat's own merge: the per-tick CPU charge is \
                        unchanged"
    (c.U.Config.c_vec + cost (gossip (Some v)))
    (cost (heartbeat (claim (Some v))));
  Alcotest.(check int) "so does a claim without a stableVec"
    (c.U.Config.c_vec + cost (gossip None))
    (cost (heartbeat (claim None)));
  Alcotest.(check int) "and a claim on a replicate batch"
    (c.U.Config.c_base + cost (gossip (Some v)))
    (cost (replicate (claim (Some v))))

let test_one_message_per_sibling_per_tick () =
  let partitions = 4 in
  let sys = Util.make_system ~partitions () in
  let sent = meter sys in
  let cfg = U.System.cfg sys in
  let dcs = U.Config.dcs cfg and period = U.Config.propagate_period_us in
  let uniform dc =
    Vc.copy (U.Replica.uniform_vec (U.System.replica sys ~dc ~part:0))
  in
  Util.run sys ~until:1_000_000;
  let stream_before = stream sent
  and stable_before = sent "stream/claim+stable"
  and gossip_before = sent "knownvec_global" in
  let uniform_before = Array.init dcs uniform in
  let ticks = 20 in
  Util.run sys ~until:(1_000_000 + (ticks * period));
  Alcotest.(check int)
    "partitions x DCs x (DCs - 1) sibling stream messages per tick"
    (ticks * partitions * dcs * (dcs - 1))
    (stream sent - stream_before);
  Alcotest.(check int) "every one carries a claim with a stableVec"
    (stream sent - stream_before)
    (sent "stream/claim+stable" - stable_before);
  Alcotest.(check int) "no standalone knownvec_global is sent" 0
    (sent "knownvec_global" - gossip_before);
  Alcotest.(check int) "no stableVec message kind exists" 0 (sent "stablevec");
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

(* With a broadcast period four times the propagate period, the tree
   step advances stableVec once per four stream sends: the claim carries
   it on about one stream message in four, so the period still sets the
   stableVec exchange cost that §8.3 sweeps. *)
let test_slow_broadcast_attaches_stable_per_tree_step () =
  let cfg =
    U.Config.default ~topo:(Util.default_topo ()) ~partitions:2
      ~broadcast_period_us:20_000 ()
  in
  let sys = U.System.create cfg in
  let sent = meter sys in
  Util.run sys ~until:500_000;
  let stream_before = stream sent
  and stable_before = sent "stream/claim+stable" in
  Util.run sys ~until:1_500_000;
  let streamed = stream sent - stream_before
  and stable = sent "stream/claim+stable" - stable_before in
  let share = float_of_int stable /. float_of_int streamed in
  Alcotest.(check bool)
    (Fmt.str "about one in four carries a stableVec (%d of %d)" stable streamed)
    true
    (share > 0.2 && share < 0.3)

let test_cure_claims_carry_no_stablevec () =
  let sys = Util.make_system ~partitions:2 ~mode:U.Config.Cure_ft () in
  let sent = meter sys in
  Util.run sys ~until:500_000;
  Alcotest.(check bool) "Cure's stream carries knownVec claims" true
    (sent "stream/claim" > 0);
  Alcotest.(check int) "none carries a stableVec" 0 (sent "stream/claim+stable")

let test_rejoiner_gossips_no_stablevec () =
  let partitions = 2 in
  let sys = Util.make_system ~partitions () in
  let sent = meter sys in
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
    (sent "knownvec_global" > 0);
  (* a replica resuming service sends one claim per live sibling, with
     its stableVec if that advanced since the crash wiped it *)
  Alcotest.(check bool)
    "only a resuming replica's one claim per live sibling may carry one"
    true
    (sent "knownvec_global+stable"
    <= partitions * (U.Config.dcs (U.System.cfg sys) - 1))

(* The in-DC dissemination tree of a quiet 8-partition DC. *)
let tree_partitions = 8

(* Levels below the root of the binary tree over [n] partitions. *)
let rec tree_depth n = if n <= 1 then 0 else 1 + tree_depth (n / 2)

let stable sys ~dc ~part =
  U.Replica.stable_vec (U.System.replica sys ~dc ~part)

(* A remote entry every partition of dc0 holds reaches the root's
   stableVec within one broadcast period (the wait for the next leaf
   tick) plus (depth + 1) intra-DC hops: the round climbs the tree one
   hop per level, with a hop of slack. A hop is the in-DC one-way
   latency, its jitter and the receiver's vector merge; on top comes
   the queue of a quiet DC, one stableVec-carrying heartbeat from every
   sibling DC. Sampled every 50 us over 100 ms. *)
let test_tree_round_reaches_root () =
  let sys = Util.make_system ~partitions:tree_partitions () in
  let cfg = U.System.cfg sys in
  let dcs = U.Config.dcs cfg and c = cfg.U.Config.costs in
  let topo = cfg.U.Config.topo in
  let hop =
    Net.Topology.one_way topo ~src:0 ~dst:0
    + Net.Topology.jitter_us topo + c.U.Config.c_vec
  in
  let queue = (dcs - 1) * ((2 * c.U.Config.c_vec) + c.U.Config.c_stablevec) in
  let bound =
    cfg.U.Config.broadcast_period_us
    + ((tree_depth tree_partitions + 1) * hop)
    + queue
  in
  let held j =
    let m = ref max_int in
    for part = 0 to tree_partitions - 1 do
      let r = U.System.replica sys ~dc:0 ~part in
      m := min !m (Vc.get (U.Replica.known_vec r) j)
    done;
    !m
  in
  let step = 50 and start = 500_000 and stop = 600_000 in
  Util.run sys ~until:start;
  (* (sampled at, remote entry, value every partition held) *)
  let pending = ref [] and worst = ref 0 and checked = ref 0 in
  let now = ref start in
  while !now < stop + bound do
    let root = stable sys ~dc:0 ~part:0 in
    pending :=
      List.filter
        (fun (at, j, x) ->
          if Vc.get root j >= x then begin
            worst := max !worst (!now - at);
            incr checked;
            false
          end
          else true)
        !pending;
    if !now < stop then
      for j = 1 to dcs - 1 do
        pending := (!now, j, held j) :: !pending
      done;
    now := !now + step;
    Util.run sys ~until:!now
  done;
  Alcotest.(check bool)
    (Fmt.str "every sample reached the root (%d checked)" !checked)
    true
    (!pending = [] && !checked > 0);
  Alcotest.(check bool)
    (Fmt.str "within %d us (worst %d us)" bound !worst)
    true
    (!worst <= bound + step)

(* The tree's send rate: each round, every non-root partition sends one
   [Kv_up] and the root one [Stable_down] per other partition, whether
   a timer or the children's reports drive a node. So neither kind
   exceeds (partitions - 1) per broadcast period per DC (one round of
   slack for the window's edges). *)
let test_tree_sends_per_period () =
  let partitions = tree_partitions in
  let sys = Util.make_system ~partitions () in
  let sent = meter sys in
  let cfg = U.System.cfg sys in
  let dcs = U.Config.dcs cfg and period = cfg.U.Config.broadcast_period_us in
  Util.run sys ~until:500_000;
  let kv = sent "kv_up" and down = sent "stable_down" in
  let rounds = 200 in
  Util.run sys ~until:(500_000 + (rounds * period));
  let bound = dcs * (partitions - 1) * (rounds + 1) in
  List.iter
    (fun (kind, n) ->
      Alcotest.(check bool)
        (Fmt.str "%s: %d sends, at most %d" kind n bound)
        true
        (n > 0 && n <= bound))
    [ ("kv_up", sent "kv_up" - kv); ("stable_down", sent "stable_down" - down) ]

(* A crashed tree node stalls the rounds through it; once it restarted
   from its disk and caught up, the root and a leaf see stableVec
   advance again on every remote entry within a few periods. Crashes
   the root, then an internal node. *)
let test_tree_survives_node_restart () =
  let sys =
    Util.make_system ~partitions:tree_partitions ~persistence:true ()
  in
  let cfg = U.System.cfg sys in
  let dcs = U.Config.dcs cfg and period = cfg.U.Config.broadcast_period_us in
  let leaf = tree_partitions - 1 in
  let restart ~part ~at =
    Util.run sys ~until:at;
    U.System.fail_node sys ~dc:0 ~part;
    Util.run sys ~until:(at + 100_000);
    U.System.restart_node sys ~dc:0 ~part;
    let deadline = at + 2_000_000 in
    while
      U.Replica.is_syncing (U.System.replica sys ~dc:0 ~part)
      && U.System.now sys < deadline
    do
      Util.run sys ~until:(U.System.now sys + 1_000)
    done;
    Alcotest.(check bool)
      (Fmt.str "partition %d caught up" part)
      false
      (U.Replica.is_syncing (U.System.replica sys ~dc:0 ~part));
    let watched = [ ("root", 0); ("leaf", leaf) ] in
    let before =
      List.map (fun (_, p) -> Vc.copy (stable sys ~dc:0 ~part:p)) watched
    in
    Util.run sys ~until:(U.System.now sys + (4 * period));
    List.iter2
      (fun (name, p) v ->
        let now = stable sys ~dc:0 ~part:p in
        for j = 1 to dcs - 1 do
          Alcotest.(check bool)
            (Fmt.str "after restarting partition %d, the %s's stableVec[%d] \
                      advances" part name j)
            true
            (Vc.get now j > Vc.get v j)
        done)
      watched before
  in
  restart ~part:0 ~at:500_000;
  restart ~part:1 ~at:3_000_000

let suite =
  [
    Alcotest.test_case "gossip cost: stableVec charge only when carried" `Quick
      test_cost_model;
    Alcotest.test_case "one gossip message per sibling per tick" `Quick
      test_one_message_per_sibling_per_tick;
    Alcotest.test_case "Cure gossips no stableVec" `Quick
      test_cure_claims_carry_no_stablevec;
    Alcotest.test_case "a rejoiner gossips no stableVec" `Quick
      test_rejoiner_gossips_no_stablevec;
    Alcotest.test_case "a slow tree step attaches stableVec 1 in 4" `Quick
      test_slow_broadcast_attaches_stable_per_tree_step;
    Alcotest.test_case "a tree round reaches the root within a period" `Quick
      test_tree_round_reaches_root;
    Alcotest.test_case "tree sends per period per DC" `Quick
      test_tree_sends_per_period;
    Alcotest.test_case "the tree survives a node restart" `Quick
      test_tree_survives_node_restart;
  ]
