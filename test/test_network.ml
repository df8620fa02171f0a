(* Network substrate: latency, FIFO channels, CPU serialization, DC
   failures. *)

let mk ?(jitter = 0) () =
  let eng = Sim.Engine.create () in
  let topo =
    Net.Topology.create ~intra_dc_us:100 ~jitter_us:jitter
      [| Net.Topology.Virginia; Net.Topology.California; Net.Topology.Frankfurt |]
  in
  (eng, Net.Network.create eng topo)

let test_latency () =
  let eng, net = mk () in
  let got = ref (-1) in
  let a = Net.Network.register net ~dc:0 ~cost:(fun _ -> 0) (fun _ -> ()) in
  let b =
    Net.Network.register net ~dc:1
      ~cost:(fun _ -> 0)
      (fun (_ : int) -> got := Sim.Engine.now eng)
  in
  Net.Network.send net ~src:a ~dst:b 1;
  Sim.Engine.run eng;
  (* Virginia–California RTT is 61 ms, one way 30.5 ms *)
  Alcotest.(check int) "one-way latency" 30_500 !got

let test_intra_dc_latency () =
  let eng, net = mk () in
  let got = ref (-1) in
  let a = Net.Network.register net ~dc:0 ~cost:(fun _ -> 0) (fun _ -> ()) in
  let b =
    Net.Network.register net ~dc:0
      ~cost:(fun _ -> 0)
      (fun (_ : int) -> got := Sim.Engine.now eng)
  in
  Net.Network.send net ~src:a ~dst:b 1;
  Sim.Engine.run eng;
  Alcotest.(check int) "intra-DC latency" 100 !got

let test_fifo_order () =
  let eng, net = mk ~jitter:5_000 () in
  let received = ref [] in
  let a = Net.Network.register net ~dc:0 ~cost:(fun _ -> 0) (fun _ -> ()) in
  let b =
    Net.Network.register net ~dc:1
      ~cost:(fun _ -> 0)
      (fun m -> received := m :: !received)
  in
  for i = 1 to 50 do
    Net.Network.send net ~src:a ~dst:b i
  done;
  Sim.Engine.run eng;
  Alcotest.(check (list int))
    "messages delivered in send order despite jitter"
    (List.init 50 (fun i -> i + 1))
    (List.rev !received)

let test_cpu_serialization () =
  let eng, net = mk () in
  let times = ref [] in
  let a = Net.Network.register net ~dc:0 ~cost:(fun _ -> 0) (fun _ -> ()) in
  let b =
    Net.Network.register net ~dc:0
      ~cost:(fun _ -> 1_000)
      (fun (_ : int) -> times := Sim.Engine.now eng :: !times)
  in
  (* three messages arrive together; each costs 1 ms of CPU, so handlers
     complete 1 ms apart *)
  for _ = 1 to 3 do
    Net.Network.send net ~src:a ~dst:b 0
  done;
  Sim.Engine.run eng;
  (match List.rev !times with
  | [ t1; t2; t3 ] ->
      Alcotest.(check int) "first after service" 1_100 t1;
      Alcotest.(check int) "second queued" 2_100 t2;
      Alcotest.(check int) "third queued" 3_100 t3
  | _ -> Alcotest.fail "expected three deliveries");
  Alcotest.(check int) "busy time accounted" 3_000 (Net.Network.node_busy_us net b);
  Alcotest.(check int) "processed count" 3 (Net.Network.node_processed net b)

let test_send_self_no_latency () =
  let eng, net = mk () in
  let got = ref (-1) in
  let rec_addr = ref (-1) in
  let a =
    Net.Network.register net ~dc:0
      ~cost:(fun _ -> 42)
      (fun (_ : int) -> got := Sim.Engine.now eng)
  in
  rec_addr := a;
  Net.Network.send_self net ~node:a 0;
  Sim.Engine.run eng;
  Alcotest.(check int) "only service time, no network" 42 !got

let test_failed_dc_drops () =
  let eng, net = mk () in
  let received = ref 0 in
  let a = Net.Network.register net ~dc:0 ~cost:(fun _ -> 0) (fun _ -> ()) in
  let b =
    Net.Network.register net ~dc:1 ~cost:(fun _ -> 0) (fun (_ : int) -> incr received)
  in
  Net.Network.send net ~src:a ~dst:b 0;
  Sim.Engine.run eng;
  Net.Network.fail_dc net 1;
  Alcotest.(check bool) "marked failed" true (Net.Network.dc_failed net 1);
  Net.Network.send net ~src:a ~dst:b 0;
  Net.Network.send net ~src:b ~dst:a 0;
  Sim.Engine.run eng;
  Alcotest.(check int) "no delivery to or from a failed DC" 1 !received;
  Alcotest.(check int) "drops counted" 2 (Net.Network.messages_dropped net)

let test_inflight_to_failed_dc_dropped () =
  let eng, net = mk () in
  let received = ref 0 in
  let a = Net.Network.register net ~dc:0 ~cost:(fun _ -> 0) (fun _ -> ()) in
  let b =
    Net.Network.register net ~dc:1 ~cost:(fun _ -> 0) (fun (_ : int) -> incr received)
  in
  Net.Network.send net ~src:a ~dst:b 0;
  (* the DC fails while the message is still in flight *)
  Sim.Engine.schedule eng ~delay:1_000 (fun () -> Net.Network.fail_dc net 1);
  Sim.Engine.run eng;
  Alcotest.(check int) "in-flight message dropped" 0 !received

(* Epochs: a node that comes back from a crash (its own restart or its
   DC's recovery) must not receive traffic sent to its previous life, on
   either the direct path or the reliable (faulted) path. *)
let inflight_across_restart ~faults ~crash ~recover () =
  let eng, net = mk () in
  if faults then ignore (Net.Network.enable_faults net);
  let received = ref [] in
  let a = Net.Network.register net ~dc:0 ~cost:(fun _ -> 0) (fun _ -> ()) in
  let b =
    Net.Network.register net ~dc:1 ~cost:(fun _ -> 0) (fun m ->
        received := m :: !received)
  in
  Net.Network.send net ~src:a ~dst:b 1;
  (* down and back up well inside the 30.5 ms transit *)
  Sim.Engine.schedule eng ~delay:1_000 (fun () -> crash net b);
  Sim.Engine.schedule eng ~delay:2_000 (fun () -> recover net b);
  Sim.Engine.schedule eng ~delay:3_000 (fun () ->
      Net.Network.send net ~src:a ~dst:b 2);
  Sim.Engine.run eng;
  Alcotest.(check (list int))
    "pre-crash message dropped, post-recovery one delivered" [ 2 ]
    (List.rev !received);
  Alcotest.(check int) "nothing left unacked" 0
    (Net.Network.unacked_backlog net)

let test_inflight_across_node_restart () =
  List.iter
    (fun faults ->
      inflight_across_restart ~faults
        ~crash:(fun net b -> Net.Network.fail_node net b)
        ~recover:(fun net b -> Net.Network.recover_node net b)
        ())
    [ false; true ]

let test_inflight_across_dc_recovery () =
  List.iter
    (fun faults ->
      inflight_across_restart ~faults
        ~crash:(fun net b -> Net.Network.fail_dc net (Net.Network.dc_of net b))
        ~recover:(fun net b ->
          Net.Network.recover_dc net (Net.Network.dc_of net b))
        ())
    [ false; true ]

(* A client session colocated with a crashed DC is outside its failure
   domain: its message to a live DC, in flight while the colocated DC
   recovers, still arrives. *)
let test_client_survives_colocated_recovery () =
  List.iter
    (fun faults ->
      let eng, net = mk () in
      if faults then ignore (Net.Network.enable_faults net);
      let received = ref 0 in
      let c =
        Net.Network.register net ~client:true ~dc:0
          ~cost:(fun _ -> 0)
          (fun _ -> ())
      in
      let b =
        Net.Network.register net ~dc:1 ~cost:(fun _ -> 0) (fun (_ : int) ->
            incr received)
      in
      Net.Network.fail_dc net 0;
      Net.Network.send net ~src:c ~dst:b 1;
      Sim.Engine.schedule eng ~delay:1_000 (fun () ->
          Net.Network.recover_dc net 0);
      Sim.Engine.run eng;
      Alcotest.(check int)
        (Fmt.str "client message delivered (faults %b)" faults)
        1 !received;
      Alcotest.(check int) "nothing left unacked" 0
        (Net.Network.unacked_backlog net))
    [ false; true ]

(* Partition-heal backlog: 5,000 messages queue behind a cut inter-DC
   link and drain once it heals. Delivery must be exactly-once and in
   order, and draining must cost constant allocation per message — a
   cumulative ack pops the acked prefix instead of rebuilding the
   whole unacked window, which made the heal quadratic in the backlog. *)
let test_partition_heal_backlog () =
  let n = 5_000 in
  let eng, net = mk () in
  let f = Net.Network.enable_faults net in
  let received = ref [] in
  let a = Net.Network.register net ~dc:0 ~cost:(fun _ -> 0) (fun _ -> ()) in
  let b =
    Net.Network.register net ~dc:1 ~cost:(fun _ -> 0) (fun m ->
        received := m :: !received)
  in
  Net.Faults.partition f 0 1;
  for i = 0 to n - 1 do
    Net.Network.send net ~src:a ~dst:b i
  done;
  Sim.Engine.run eng ~until:2_000_000;
  Alcotest.(check int) "nothing crosses the cut" 0 (List.length !received);
  Alcotest.(check int) "backlog queued" n (Net.Network.unacked_backlog net);
  Net.Faults.heal f 0 1;
  let w0 = Gc.minor_words () in
  Sim.Engine.run eng;
  let words_per_msg = (Gc.minor_words () -. w0) /. float_of_int n in
  Alcotest.(check (list int))
    "exactly once, in order" (List.init n Fun.id) (List.rev !received);
  Alcotest.(check int) "backlog drained" 0 (Net.Network.unacked_backlog net);
  (* a few hundred words per message (delivery, handler and ack events);
     rebuilding the window on every ack costs thousands *)
  Alcotest.(check bool)
    (Fmt.str "heal allocation linear in the backlog (%.0f words/msg)"
       words_per_msg)
    true (words_per_msg < 1_000.0)

let test_topology_paper_rtts () =
  let topo = Net.Topology.five_dcs () in
  (* §8: RTT between regions ranges from 26 ms to 202 ms *)
  let max_rtt = ref 0 and min_rtt = ref max_int in
  for i = 0 to 4 do
    for j = 0 to 4 do
      if i <> j then begin
        let rtt =
          Net.Topology.one_way topo ~src:i ~dst:j
          + Net.Topology.one_way topo ~src:j ~dst:i
        in
        if rtt > !max_rtt then max_rtt := rtt;
        if rtt < !min_rtt then min_rtt := rtt
      end
    done
  done;
  Alcotest.(check int) "min RTT 26ms" 26_000 !min_rtt;
  Alcotest.(check int) "max RTT 202ms" 202_000 !max_rtt;
  (* Virginia–California: 61 ms, the latency that dominates strong
     transactions in §8.1 *)
  Alcotest.(check int) "Va-Ca RTT" 61_000
    (Net.Topology.one_way topo ~src:0 ~dst:1
    + Net.Topology.one_way topo ~src:1 ~dst:0)

let test_topology_growth_order () =
  (* §8.3 grows the deployment: 3 DCs, then Ireland, then Brazil *)
  let t4 = Net.Topology.n_dcs 4 in
  Alcotest.(check string) "fourth DC is Ireland" "ireland"
    (Net.Topology.region_of_dc t4 3);
  let t5 = Net.Topology.n_dcs 5 in
  Alcotest.(check string) "fifth DC is Brazil" "brazil"
    (Net.Topology.region_of_dc t5 4)

(* --- one engine event per message ------------------------------------ *)

(* The CPU serves messages in arrival order: [start = max arrival
   busy_until], [finish = start + cost]. A direct-path message's one
   event sits at [arrival + cost]; when the CPU was busy on arrival it
   moves once, to the finish time. The expected times below are the
   FIFO-by-arrival model's, worked by hand. Messages are (name, cost). *)
let fifo_node ?(dc = 0) eng net log =
  Net.Network.register net ~dc
    ~cost:(fun (_, c) -> c)
    (fun (name, _) -> log := (name, Sim.Engine.now eng) :: !log)

let served log = List.rev !log
let served_t = Alcotest.(list (pair string int))

let test_wan_overtaken_by_intra_dc () =
  let eng, net = mk () in
  let log = ref [] in
  let b = fifo_node eng net log in
  let local = Net.Network.register net ~dc:0 ~cost:(fun _ -> 0) ignore in
  let wan = Net.Network.register net ~dc:1 ~cost:(fun _ -> 0) ignore in
  (* sent first, arrives at 30,500 *)
  Net.Network.send net ~src:wan ~dst:b ("wan", 1_000);
  (* sent later, arrives first, at 30,100 *)
  Sim.Engine.schedule eng ~delay:30_000 (fun () ->
      Net.Network.send net ~src:local ~dst:b ("local", 1_000));
  Sim.Engine.run eng;
  Alcotest.check served_t "the earlier arrival is served first"
    [ ("local", 31_100); ("wan", 32_100) ]
    (served log);
  (* the overtaking message is the expensive one: the cheap WAN
     message's event (at 30,600) finds the CPU already promised to it *)
  let eng, net = mk () in
  let log = ref [] in
  let b = fifo_node eng net log in
  let local = Net.Network.register net ~dc:0 ~cost:(fun _ -> 0) ignore in
  let wan = Net.Network.register net ~dc:1 ~cost:(fun _ -> 0) ignore in
  Net.Network.send net ~src:wan ~dst:b ("wan", 100);
  Sim.Engine.schedule eng ~delay:30_000 (fun () ->
      Net.Network.send net ~src:local ~dst:b ("local", 5_000));
  Sim.Engine.run eng;
  Alcotest.check served_t "served in arrival order, not event order"
    [ ("local", 35_100); ("wan", 35_200) ]
    (served log);
  Alcotest.(check int) "busy time" 5_100 (Net.Network.node_busy_us net b)

(* A lossy-path delivery takes its CPU slot at arrival, behind the
   direct-path messages that arrived before it and ahead of those that
   arrive after. *)
let test_lossy_and_direct_share_the_cpu () =
  let eng, net = mk () in
  ignore (Net.Network.enable_faults net);
  let log = ref [] in
  let b = fifo_node eng net log in
  let local = Net.Network.register net ~dc:0 ~cost:(fun _ -> 0) ignore in
  let wan = Net.Network.register net ~dc:1 ~cost:(fun _ -> 0) ignore in
  (* lossy link, arrives at 30,500 *)
  Net.Network.send net ~src:wan ~dst:b ("lossy", 1_000);
  (* direct, arrive at 30,100 and 30,550 *)
  Sim.Engine.schedule eng ~delay:30_000 (fun () ->
      Net.Network.send net ~src:local ~dst:b ("before", 1_000));
  Sim.Engine.schedule eng ~delay:30_450 (fun () ->
      Net.Network.send net ~src:local ~dst:b ("after", 1_000));
  Sim.Engine.run eng;
  Alcotest.check served_t "one FIFO CPU for both paths"
    [ ("before", 31_100); ("lossy", 32_100); ("after", 33_100) ]
    (served log)

let test_crash_in_flight_and_queued () =
  (* in flight: arrives at 100, after the crash at 50 — a counted drop *)
  let eng, net = mk () in
  let log = ref [] in
  let b = fifo_node eng net log in
  let a = Net.Network.register net ~dc:0 ~cost:(fun _ -> 0) ignore in
  Net.Network.send net ~src:a ~dst:b ("m", 1_000);
  Sim.Engine.schedule eng ~delay:50 (fun () -> Net.Network.fail_node net b);
  Sim.Engine.run eng;
  Alcotest.check served_t "in flight: not served" [] (served log);
  Alcotest.(check int) "in flight: a crash drop" 1
    (Net.Network.dropped_crash net);
  (* queued: m1 uses the CPU 100–1,100, m2 (arrived at 101) waits for
     it; the crash at 1,050 lands before either finishes. Both arrived
     while the node was up, so neither is a drop: the handler-time check
     discards them. *)
  let eng, net = mk () in
  let log = ref [] in
  let b = fifo_node eng net log in
  let a = Net.Network.register net ~dc:0 ~cost:(fun _ -> 0) ignore in
  Net.Network.send net ~src:a ~dst:b ("m1", 1_000);
  Net.Network.send net ~src:a ~dst:b ("m2", 1_000);
  Sim.Engine.schedule eng ~delay:1_050 (fun () -> Net.Network.fail_node net b);
  Sim.Engine.run eng;
  Alcotest.check served_t "queued: not served" [] (served log);
  Alcotest.(check int) "queued: no drop counted" 0
    (Net.Network.dropped_crash net);
  Alcotest.(check int) "queued: both took the CPU" 2_000
    (Net.Network.node_busy_us net b)

(* A restart during transit: the message is sent to the node's previous
   life and never served. If the node is back up before the arrival,
   the epoch check drops it silently; if the arrival finds the node
   still down, it is a counted crash drop — even when the restart comes
   before the message's event. *)
let test_restart_during_transit () =
  let run ~down ~up =
    let eng, net = mk () in
    let log = ref [] in
    let b = fifo_node eng net log in
    let wan = Net.Network.register net ~dc:1 ~cost:(fun _ -> 0) ignore in
    (* arrives at 30,500; its event is at 31,500 *)
    Net.Network.send net ~src:wan ~dst:b ("m", 1_000);
    Sim.Engine.schedule eng ~delay:down (fun () ->
        Net.Network.fail_node net b);
    Sim.Engine.schedule eng ~delay:up (fun () ->
        Net.Network.recover_node net b);
    Sim.Engine.run eng;
    (served log, Net.Network.dropped_crash net)
  in
  let log, drops = run ~down:1_000 ~up:2_000 in
  Alcotest.check served_t "back before arrival: not served" [] log;
  Alcotest.(check int) "back before arrival: silent" 0 drops;
  let log, drops = run ~down:1_000 ~up:31_000 in
  Alcotest.check served_t "back after arrival: not served" [] log;
  Alcotest.(check int) "back after arrival: a crash drop" 1 drops

let test_events_per_delivery () =
  let eng, net = mk () in
  let log = ref [] in
  let b = fifo_node eng net log in
  let a = Net.Network.register net ~dc:0 ~cost:(fun _ -> 0) ignore in
  let delta f =
    let e0 = Sim.Engine.executed_events eng in
    f ();
    Sim.Engine.run eng;
    Sim.Engine.executed_events eng - e0
  in
  Alcotest.(check int) "an idle CPU: one event" 1
    (delta (fun () -> Net.Network.send net ~src:a ~dst:b ("m", 1_000)));
  Alcotest.(check int) "three at once: 1 + 2 + 2 events" 5
    (delta (fun () ->
         for i = 1 to 3 do
           Net.Network.send net ~src:a ~dst:b (string_of_int i, 1_000)
         done));
  Alcotest.(check int) "all four served" 4 (List.length !log)

let suite =
  [
    Alcotest.test_case "WAN latency from the topology" `Quick test_latency;
    Alcotest.test_case "intra-DC latency" `Quick test_intra_dc_latency;
    Alcotest.test_case "channels are FIFO under jitter" `Quick test_fifo_order;
    Alcotest.test_case "node CPU serializes processing" `Quick
      test_cpu_serialization;
    Alcotest.test_case "self-send skips the network" `Quick
      test_send_self_no_latency;
    Alcotest.test_case "failed DC sends and receives nothing" `Quick
      test_failed_dc_drops;
    Alcotest.test_case "in-flight messages to a failed DC drop" `Quick
      test_inflight_to_failed_dc_dropped;
    Alcotest.test_case "in-flight traffic dies across a node restart" `Quick
      test_inflight_across_node_restart;
    Alcotest.test_case "in-flight traffic dies across a DC recovery" `Quick
      test_inflight_across_dc_recovery;
    Alcotest.test_case "client traffic survives its DC's recovery" `Quick
      test_client_survives_colocated_recovery;
    Alcotest.test_case "partition-heal backlog drains in linear time" `Quick
      test_partition_heal_backlog;
    Alcotest.test_case "topology matches the paper's RTTs" `Quick
      test_topology_paper_rtts;
    Alcotest.test_case "deployment growth order (§8.3)" `Quick
      test_topology_growth_order;
    Alcotest.test_case "a later intra-DC arrival overtakes a WAN message"
      `Quick test_wan_overtaken_by_intra_dc;
    Alcotest.test_case "lossy and direct arrivals share one FIFO CPU" `Quick
      test_lossy_and_direct_share_the_cpu;
    Alcotest.test_case "crash with a message in flight or queued" `Quick
      test_crash_in_flight_and_queued;
    Alcotest.test_case "restart during transit drops by arrival state"
      `Quick test_restart_during_transit;
    Alcotest.test_case "one event per idle delivery, two per busy one"
      `Quick test_events_per_delivery;
  ]
