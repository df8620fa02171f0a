(* Network substrate: latency, FIFO channels, CPU serialization, DC
   failures. *)

let mk ?(jitter = 0) ?(reg = Sim.Metrics.create ()) () =
  let eng = Sim.Engine.create () in
  let topo =
    Net.Topology.create ~intra_dc_us:100 ~jitter_us:jitter
      [| Net.Topology.Virginia; Net.Topology.California; Net.Topology.Frankfurt |]
  in
  ( eng,
    Net.Network.create eng topo reg ~kind_of:(fun _ -> "m")
      ~size_of:(fun _ -> 8) )

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
   either the direct path or the reliable (faulted) path. The message
   sent after the recovery arrives after one plain transit: [burst]
   pre-crash copies, sent at once, would floor the direct channel's
   FIFO order one past its arrival if the recovery kept the floor. *)
let inflight_across_restart ?(burst = 1) ~faults ~crash ~recover () =
  let eng, net = mk () in
  if faults then ignore (Net.Network.enable_faults net);
  let received = ref [] in
  let a = Net.Network.register net ~dc:0 ~cost:(fun _ -> 0) (fun _ -> ()) in
  let b =
    Net.Network.register net ~dc:1 ~cost:(fun _ -> 0) (fun m ->
        received := (m, Sim.Engine.now eng) :: !received)
  in
  for _ = 1 to burst do
    Net.Network.send net ~src:a ~dst:b 1
  done;
  (* down and back up well inside the 30.5 ms transit *)
  Sim.Engine.schedule eng ~delay:1_000 (fun () -> crash net b);
  Sim.Engine.schedule eng ~delay:2_000 (fun () -> recover net b);
  Sim.Engine.schedule eng ~delay:3_000 (fun () ->
      Net.Network.send net ~src:a ~dst:b 2);
  Sim.Engine.run eng;
  Alcotest.(check (list (pair int int)))
    "pre-crash message dropped, post-recovery one delivered on time"
    [ (2, 3_000 + 30_500) ]
    (List.rev !received);
  Alcotest.(check int) "nothing left unacked" 0
    (Net.Network.unacked_backlog net)

let test_inflight_across_node_restart () =
  List.iter
    (fun (faults, burst) ->
      inflight_across_restart ~burst ~faults
        ~crash:(fun net b -> Net.Network.fail_node net b)
        ~recover:(fun net b -> Net.Network.recover_node net b)
        ())
    [ (false, 1); (true, 1); (false, 3_001) ]

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

(* Handlers of one node run in arrival order even when a zero-cost
   message queues behind another. m1 arrives at 100 behind [big] (CPU
   busy until 200) and finishes at 205; its event, due at 105, moves
   there. m2, sent at 105 (before that move was scheduled), arrives at
   205 and costs nothing: it finishes 1 µs after m1 rather than at the
   same instant, where its older event would run it first. *)
let test_zero_cost_keeps_fifo () =
  let eng, net = mk () in
  let log = ref [] in
  let b = fifo_node eng net log in
  let a = Net.Network.register net ~dc:0 ~cost:(fun _ -> 0) ignore in
  let x = Net.Network.register net ~dc:0 ~cost:(fun _ -> 0) ignore in
  Sim.Engine.schedule eng ~delay:105 (fun () ->
      Net.Network.send net ~src:a ~dst:b ("m2", 0));
  Net.Network.send net ~src:x ~dst:b ("big", 100);
  Net.Network.send net ~src:a ~dst:b ("m1", 5);
  Sim.Engine.run eng;
  Alcotest.check served_t "served in arrival order"
    [ ("big", 200); ("m1", 205); ("m2", 206) ]
    (served log)

(* --- the reliable layer ------------------------------------------------ *)

(* A lossy transport (all rates zero, no jitter) and a reader for its
   reliable-layer counters. Virginia -> California is 30.5 ms one way,
   so a data packet's ack lands 61 ms after the send and the base
   retransmission timeout is 71 ms. *)
let metered () =
  let reg = Sim.Metrics.create () in
  let eng, net = mk ~reg () in
  let f = Net.Network.enable_faults net in
  let count name = Sim.Metrics.counter_value (Sim.Metrics.counter reg name) in
  (eng, net, f, count)

let lossy_pair eng net =
  let log = ref [] in
  let a = Net.Network.register net ~dc:0 ~cost:(fun _ -> 0) ignore in
  let b =
    Net.Network.register net ~dc:1 ~cost:(fun _ -> 0) (fun (m : int) ->
        log := (m, Sim.Engine.now eng) :: !log)
  in
  (a, b, fun () -> List.rev_map fst !log)

(* Seq 0 dies on a cut; seqs 1-7 arrive behind the gap and draw seven
   duplicate acks, all landing at 61 ms, before the timeout. The third
   fast-retransmits the head; the [in_recovery] latch keeps the other
   four from counting, so the head is resent once, not twice. *)
let test_fast_retransmit_once () =
  let eng, net, f, count = metered () in
  let a, b, delivered = lossy_pair eng net in
  Net.Faults.partition f 0 1;
  Net.Network.send net ~src:a ~dst:b 0;
  Net.Faults.heal f 0 1;
  for i = 1 to 7 do
    Net.Network.send net ~src:a ~dst:b i
  done;
  Sim.Engine.run eng ~until:70_000;
  Alcotest.(check int) "duplicate acks counted up to the latch" 3
    (count "net_dup_acks_total");
  Alcotest.(check int) "one fast retransmit" 1
    (count "net_fast_retransmits_total");
  Sim.Engine.run eng;
  Alcotest.(check int) "still one fast retransmit" 1
    (count "net_fast_retransmits_total");
  Alcotest.(check (list int)) "exactly once, in order" (List.init 8 Fun.id)
    (delivered ());
  Alcotest.(check int) "backlog drained" 0 (Net.Network.unacked_backlog net)

(* m0's ack leaves at 30.5 ms on a link with a pinned 50 ms gray delay
   and lands at 111 ms. The delay is lifted before m1's ack leaves at
   31.5 ms; that ack lands first, at 62 ms, and acks both. When the
   overtaken ack lands, m2 is unacked: the stale ack is a duplicate. *)
let test_overtaken_ack_is_duplicate () =
  let eng, net, f, count = metered () in
  let a, b, delivered = lossy_pair eng net in
  Net.Faults.degrade_link f ~src:1 ~dst:0 ~extra_us:50_000;
  Net.Network.send net ~src:a ~dst:b 0;
  Sim.Engine.schedule eng ~delay:1_000 (fun () ->
      Net.Network.send net ~src:a ~dst:b 1);
  Sim.Engine.schedule eng ~delay:31_000 (fun () ->
      Net.Faults.clear_degrade f ~src:1 ~dst:0);
  Sim.Engine.schedule eng ~delay:100_000 (fun () ->
      Net.Network.send net ~src:a ~dst:b 2);
  Sim.Engine.run eng ~until:120_000;
  Alcotest.(check int) "the overtaken ack counts as a duplicate" 1
    (count "net_dup_acks_total");
  Alcotest.(check int) "the later ack stopped the timeout" 0
    (Net.Network.retransmissions net);
  Sim.Engine.run eng;
  Alcotest.(check (list int)) "exactly once, in order" [ 0; 1; 2 ]
    (delivered ());
  Alcotest.(check int) "backlog drained" 0 (Net.Network.unacked_backlog net)

(* Acks for m0-m2 land at 61, 62 and 63 ms, each advancing the window by
   one, while m3 (sent at 50 ms) is still unacked: none is a duplicate.
   The 71 ms timeout still resends m3, whose duplicate arrival draws an
   ack after m3's own ack emptied the window. *)
let test_acks_apply_in_arrival_order () =
  let eng, net, _, count = metered () in
  let a, b, delivered = lossy_pair eng net in
  List.iter
    (fun (at, m) ->
      Sim.Engine.schedule eng ~delay:at (fun () ->
          Net.Network.send net ~src:a ~dst:b m))
    [ (0, 0); (1_000, 1); (2_000, 2); (50_000, 3) ];
  Sim.Engine.run eng;
  Alcotest.(check int) "no duplicate acks" 0 (count "net_dup_acks_total");
  Alcotest.(check int) "the timeout resent m3" 1
    (Net.Network.retransmissions net);
  Alcotest.(check (list int)) "exactly once, in order" [ 0; 1; 2; 3 ]
    (delivered ());
  Alcotest.(check int) "backlog drained" 0 (Net.Network.unacked_backlog net)

(* Engine events of the reliable layer. A lossy packet to an idle CPU is
   one event, under its handler's label, as on the direct path. The ack
   that advances the window is held by the sender's flow and costs no
   event; a duplicate's ack does not advance it and runs as its own
   event. With [dup_p] = 1 every data packet arrives twice, at 30.5 ms
   (the second copy's event is a no-op); the acks land at 61 ms, before
   the 71 ms timeout. *)
let test_events_per_ack () =
  let eng, net, f, count = metered () in
  let a, b, delivered = lossy_pair eng net in
  let delta until =
    let e0 = Sim.Engine.executed_events eng in
    Sim.Engine.run eng ~until;
    Sim.Engine.executed_events eng - e0
  in
  Net.Network.send net ~src:a ~dst:b 0;
  Alcotest.(check int) "a lossy message to an idle CPU: one event" 1
    (delta 35_000);
  Alcotest.(check int) "an advancing ack: no event" 0 (delta 70_000);
  Alcotest.(check int) "the window is empty" 0
    (Net.Network.unacked_backlog net);
  Sim.Engine.run eng;
  Net.Faults.set_dup f 1.0;
  let t0 = Sim.Engine.now eng in
  Net.Network.send net ~src:a ~dst:b 1;
  Alcotest.(check int) "a packet and its duplicate: one event each" 2
    (delta (t0 + 35_000));
  Alcotest.(check int) "a duplicate's ack: one event" 1 (delta (t0 + 70_000));
  Sim.Engine.run eng;
  Alcotest.(check int) "one duplicate suppressed" 1
    (count "net_dups_suppressed_total");
  Alcotest.(check (list int)) "exactly once" [ 0; 1 ] (delivered ())

(* Random lossy runs: four nodes (two share DC 0, so direct and lossy
   traffic share a CPU), random drop, duplication and gray delay, 5 ms
   jitter, random per-message costs, one partition that heals and one
   node restart. Each message carries its channel's epoch pair at send
   and its index within that pair. Within an epoch pair a channel's
   handler log must be 0, 1, 2, ... (exactly once, FIFO); it must be
   complete unless the restart ended the pair; and the reliable layer's
   backlog must drain. *)
type lossy_case = {
  drop : float;
  dup : float;
  degrade : float;
  sends : (int * int * int * int) list;  (* at ms, src, dst, cost us *)
  cut : int * int * int * int;  (* dc a, dc b, at ms, for ms *)
  restart : int * int * int;  (* node, at ms, down for ms *)
}

let lossy_nodes = 4
let lossy_dc = [| 0; 0; 1; 2 |]

let gen_lossy_case =
  QCheck.Gen.(
    let gen_send =
      map
        (fun (at, src, d, cost) ->
          (at, src, (src + 1 + d) mod lossy_nodes, cost))
        (quad (int_bound 1500) (int_bound 3) (int_bound 2) (int_bound 2000))
    in
    map
      (fun ((drop, dup, degrade), sends, (a, d, at, len), (x, x_at, x_len)) ->
        {
          drop;
          dup;
          degrade;
          sends;
          cut = (a, (a + 1 + d) mod 3, at, len);
          restart = (x, x_at, 1 + x_len);
        })
      (quad
         (triple (float_bound_inclusive 0.3) (float_bound_inclusive 0.3)
            (float_bound_inclusive 0.3))
         (list_size (int_range 1 150) gen_send)
         (quad (int_bound 2) (int_bound 1) (int_bound 1500) (int_bound 1000))
         (triple (int_bound 3) (int_bound 1500) (int_bound 500))))

let print_lossy_case c =
  let a, b, at, len = c.cut and x, x_at, x_len = c.restart in
  Fmt.str "drop %.2f dup %.2f degrade %.2f; cut dc%d-dc%d @%d ms for %d; \
           restart n%d @%d ms for %d; sends %s"
    c.drop c.dup c.degrade a b at len x x_at x_len
    (String.concat " "
       (List.map
          (fun (at, s, d, cost) -> Fmt.str "%d:%d->%d/%d" at s d cost)
          c.sends))

let lossy_channels_exactly_once_fifo c =
  let eng, net = mk ~jitter:5_000 () in
  let f =
    Net.Faults.of_spec ~dcs:3
      {
        Net.Faults.drop_p = c.drop;
        dup_p = c.dup;
        degrade_p = c.degrade;
        degrade_extra_us = 20_000;
      }
  in
  Net.Network.set_faults net f;
  (* a message is (src, src epoch, dst epoch, index, cost) *)
  let log = ref [] in
  let nodes =
    Array.init lossy_nodes (fun i ->
        Net.Network.register net ~dc:lossy_dc.(i)
          ~cost:(fun (_, _, _, _, cost) -> cost)
          (fun (src, sep, dep, k, _) -> log := ((src, i, sep, dep), k) :: !log))
  in
  let epoch = Array.make lossy_nodes 0 in
  let sent = Hashtbl.create 16 in
  let at_ms ms fn = Sim.Engine.schedule eng ~delay:(ms * 1_000) fn in
  List.iter
    (fun (at, src, dst, cost) ->
      at_ms at (fun () ->
          if
            not
              (Net.Network.node_down net nodes.(src)
              || Net.Network.node_down net nodes.(dst))
          then begin
            let key = (src, dst, epoch.(src), epoch.(dst)) in
            let k = Option.value (Hashtbl.find_opt sent key) ~default:0 in
            Hashtbl.replace sent key (k + 1);
            Net.Network.send net ~src:nodes.(src) ~dst:nodes.(dst)
              (src, epoch.(src), epoch.(dst), k, cost)
          end))
    c.sends;
  let a, b, cut_at, cut_len = c.cut in
  at_ms cut_at (fun () -> Net.Faults.partition f a b);
  at_ms (cut_at + cut_len) (fun () -> Net.Faults.heal f a b);
  let x, x_at, x_len = c.restart in
  at_ms x_at (fun () -> Net.Network.fail_node net nodes.(x));
  at_ms (x_at + x_len) (fun () ->
      Net.Network.recover_node net nodes.(x);
      epoch.(x) <- epoch.(x) + 1);
  Sim.Engine.run eng;
  (* newest first in [log], so consing rebuilds each channel's order *)
  let got = Hashtbl.create 16 in
  List.iter
    (fun (key, k) ->
      Hashtbl.replace got key
        (k :: Option.value (Hashtbl.find_opt got key) ~default:[]))
    !log;
  let backlog = Net.Network.unacked_backlog net in
  if backlog <> 0 then QCheck.Test.fail_reportf "backlog %d left" backlog;
  Hashtbl.iter
    (fun ((src, dst, sep, dep) as key) n ->
      let ks = Option.value (Hashtbl.find_opt got key) ~default:[] in
      let m = List.length ks in
      let live = sep = epoch.(src) && dep = epoch.(dst) in
      if ks <> List.init m Fun.id || m > n || (live && m <> n) then
        QCheck.Test.fail_reportf
          "n%d -> n%d, epochs (%d, %d): sent %d, got [%s]" src dst sep dep n
          (String.concat "; " (List.map string_of_int ks)))
    sent;
  Hashtbl.iter
    (fun (src, dst, sep, dep) _ ->
      if not (Hashtbl.mem sent (src, dst, sep, dep)) then
        QCheck.Test.fail_reportf "n%d -> n%d, epochs (%d, %d): never sent" src
          dst sep dep)
    got;
  true

let lossy_properties =
  List.map QCheck_alcotest.to_alcotest
    [
      QCheck.Test.make ~count:150
        ~name:
          "lossy channels: exactly once, FIFO per epoch pair, backlog drains"
        (QCheck.make ~print:print_lossy_case gen_lossy_case)
        lossy_channels_exactly_once_fifo;
    ]

(* The direct path's allocation per message is pinned: the send (its
   arrival record and engine event), the arrival event, and the handler
   event a busy CPU moves it to. Every event carries its arrival record
   to one function the network built once, so no hop allocates a
   closure. A burst of 1,000 messages lands at one instant: the first
   finds the CPU idle, the rest queue behind it and take the second
   event. *)
let test_direct_path_alloc () =
  let n = 1_000 in
  let eng, net = mk () in
  let got = ref 0 in
  let a = Net.Network.register net ~dc:0 ~cost:(fun _ -> 0) (fun _ -> ()) in
  let b =
    Net.Network.register net ~dc:1 ~cost:(fun _ -> 10) (fun (_ : int) ->
        incr got)
  in
  let burst () =
    for i = 1 to n do
      Net.Network.send net ~src:a ~dst:b i
    done;
    Sim.Engine.run eng
  in
  (* the first burst creates the channel and sizes the queues *)
  burst ();
  let w0 = Gc.minor_words () in
  burst ();
  let words_per_msg = (Gc.minor_words () -. w0) /. float_of_int n in
  Alcotest.(check int) "all delivered" (2 * n) !got;
  Alcotest.(check bool)
    (Fmt.str "direct path: %.1f words/msg (at most 25)" words_per_msg)
    true
    (words_per_msg <= 25.)

(* [settle_all] books the CPU slots of everything delivered before now,
   so [cpu_booked_until] shows a node's queued work: 100 messages of
   1 ms each reach [b] at once (30.5 ms), and just after they land the
   node is booked 100 ms ahead. A crashed node's backlog does not
   count. *)
let test_cpu_booked_until () =
  let eng, net = mk () in
  let a = Net.Network.register net ~dc:0 ~cost:(fun _ -> 0) (fun _ -> ()) in
  let b =
    Net.Network.register net ~dc:1 ~cost:(fun _ -> 1_000) (fun (_ : int) -> ())
  in
  for i = 1 to 100 do
    Net.Network.send net ~src:a ~dst:b i
  done;
  Sim.Engine.run eng ~until:30_600;
  Net.Network.settle_all net;
  Alcotest.(check int) "booked through the last message's slot"
    (30_500 + (100 * 1_000))
    (Net.Network.cpu_booked_until net);
  Net.Network.fail_dc net 1;
  Alcotest.(check bool) "a crashed node's backlog does not count" true
    (Net.Network.cpu_booked_until net < 30_600)

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
    Alcotest.test_case "direct-path allocation per message is pinned" `Quick
      test_direct_path_alloc;
    Alcotest.test_case "settled inboxes show booked CPU work" `Quick
      test_cpu_booked_until;
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
    Alcotest.test_case "zero-cost messages keep FIFO handler order" `Quick
      test_zero_cost_keeps_fifo;
    Alcotest.test_case "three duplicate acks fast-retransmit the head once"
      `Quick test_fast_retransmit_once;
    Alcotest.test_case "an overtaken ack counts as a duplicate" `Quick
      test_overtaken_ack_is_duplicate;
    Alcotest.test_case "cumulative acks apply in arrival order" `Quick
      test_acks_apply_in_arrival_order;
    Alcotest.test_case "lossy events: one per packet, none per advancing ack"
      `Quick test_events_per_ack;
  ]
  @ lossy_properties
