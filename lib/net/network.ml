(* Message transport between simulated nodes.

   Models the paper's system model (§2) plus the resources its evaluation
   exercises (§8):

   - WAN latency from the deployment topology, plus bounded uniform jitter;
   - per-node CPU: a node processes one message at a time, in arrival
     order; each message has a service cost (microseconds) charged to the
     node, so nodes saturate and queueing delay emerges, which is what
     shapes the throughput/latency curves of §8. A direct-path message
     costs one engine event when the CPU is idle on arrival and two when
     it is busy: the send schedules the handler at [arrival + cost], and
     the per-node arrival inbox settles the FIFO queue lazily (see
     [settle]);
   - whole-data-center crash failures: a failed DC neither sends nor
     receives from the moment of the crash (§2 considers only whole-DC
     failures).

   Channel reliability comes in two regimes:

   - Without faults (the default), channels are reliable FIFO: per-(src,
     dst) delivery times are monotone and messages between correct data
     centers are always delivered — the idealised network the paper's
     happy-path evaluation assumes.
   - With a [Faults.t] installed ([enable_faults] / [set_faults]),
     inter-DC links become lossy: messages can be dropped, duplicated,
     delayed (gray links) or cut off by heal-able partitions. The
     transport then runs a sequence-numbered ack/retransmission layer
     per (src, dst) channel — cumulative acks, timeout with exponential
     backoff, receiver-side reordering and dedup — restoring exactly-once
     FIFO *eventual* delivery, which is all the paper's model promises.
     Intra-DC links stay reliable (the WAN is the adversary).

   Dropped messages are counted by cause (DC crash, random loss,
   partition) and optionally reported to a [Sim.Trace.t].

   The module is parametric in the message type: the protocol layer
   instantiates it with its own message variant. *)

type addr = int

type drop_cause = Crash | Loss | Partition

let drop_cause_name = function
  | Crash -> "crash"
  | Loss -> "loss"
  | Partition -> "partition"

type 'm node = {
  addr : addr;
  dc : int;
  (* client nodes are colocated with a DC for latency purposes only:
     they are external sessions, not part of the DC's failure domain,
     so they keep sending and receiving while the DC is crashed *)
  client : bool;
  (* profiling identity: handler events run as "<name>/handle:<kind>".
     Labels are interned once per (node, kind) through [lab_cache]. *)
  name : string;
  lab_cache : (string, Sim.Prof.label) Hashtbl.t;
  cost : 'm -> int;
  handler : 'm -> unit;
  mutable busy_until : int;
  mutable processed : int;
  mutable busy_us : int;
  (* node-level failure domain: a single machine down while its DC is
     up. Distinct from the DC crash so one process can restart with its
     disk intact while siblings keep serving. *)
  mutable down : bool;
  (* bumped whenever the node comes back from a crash — its own restart
     ([recover_node]) or its DC's recovery ([recover_dc]); in-flight
     traffic stamped with an older epoch is discarded on arrival. Client
     nodes never lose state, so their epoch never moves. *)
  mutable epoch : int;
  (* direct-path arrivals not yet given a CPU slot: a binary min-heap on
     (arrival time, send seq) in [inbox.(0 .. inbox_len - 1)] — the order
     in which the messages reach the node *)
  mutable inbox : 'm arrival array;
  mutable inbox_len : int;
}

(* A message on the direct path, from send until its CPU slot is fixed.
   [a_finish] is [unsettled] until [settle] serves it in arrival order,
   then its handler's finish time, or [dropped]. *)
and 'm arrival = {
  a_src : 'm node;
  a_msg : 'm;
  a_cost : int;  (* the destination's service cost for [a_msg] *)
  a_sep : int;  (* source epoch at send *)
  a_dep : int;  (* destination epoch at send *)
  a_at : int;  (* arrival time *)
  a_seq : int;  (* send order: breaks ties on [a_at] *)
  mutable a_finish : int;
}

let unsettled = -1
let dropped = -2

(* Sender half of a reliable channel. [unacked] holds sent-but-unacked
   messages in ascending sequence order (a send appends, a cumulative ack
   pops from the head); the retransmission timer walks it with
   exponential backoff until an ack clears it. *)
type 'm tx_flow = {
  mutable next_seq : int;
  unacked : (int * 'm) Queue.t;
  base_rto_us : int;
  mutable rto_us : int;
  mutable timer_armed : bool;
  mutable dup_acks : int;
  mutable in_recovery : bool;
}

(* Receiver half: next in-order sequence number plus an out-of-order
   buffer. Anything below [expected] (or already buffered) is a duplicate
   and is suppressed. *)
type 'm rx_flow = {
  mutable expected : int;
  ooo : (int, 'm) Hashtbl.t;
}

(* Optional instrumentation sink. When installed, the transport feeds a
   metrics registry: per-message-kind and per-DC-link traffic counters
   (messages and estimated bytes), reliable-layer counters
   (retransmits, fast retransmits, duplicate acks, suppressed
   duplicates, acks), drops by cause, and per-link backlog gauges.
   Handle lookups are cached here so the per-message cost is a hash hit
   plus an increment; with no meter installed the cost is one branch. *)
type 'm meter = {
  reg : Sim.Metrics.t;
  kind_of : 'm -> string;
  size_of : 'm -> int;  (* estimated wire bytes *)
  by_kind_sent : (string, Sim.Metrics.counter * Sim.Metrics.counter) Hashtbl.t;
  by_kind_recv : (string, Sim.Metrics.counter) Hashtbl.t;
  by_link : (int * int, Sim.Metrics.counter * Sim.Metrics.counter) Hashtbl.t;
  by_link_backlog : (int * int, Sim.Metrics.gauge) Hashtbl.t;
  m_retransmit : Sim.Metrics.counter;
  m_fast_retransmit : Sim.Metrics.counter;
  m_dup_ack : Sim.Metrics.counter;
  m_dup_suppressed : Sim.Metrics.counter;
  m_ack : Sim.Metrics.counter;
  m_drop_crash : Sim.Metrics.counter;
  m_drop_loss : Sim.Metrics.counter;
  m_drop_partition : Sim.Metrics.counter;
}

type 'm t = {
  eng : Sim.Engine.t;
  topo : Topology.t;
  rng : Sim.Rng.t;
  mutable nodes : 'm node array;
  mutable node_count : int;
  mutable failed : bool array;
  failed_at : int array;  (* crash time per DC, -1 when never/not failed *)
  fifo : (int * int, int) Hashtbl.t;  (* (src, dst) -> last arrival time *)
  mutable faults : Faults.t option;
  tx_flows : (int * int, 'm tx_flow) Hashtbl.t;
  rx_flows : (int * int, 'm rx_flow) Hashtbl.t;
  mutable trace : Sim.Trace.t;
  mutable meter : 'm meter option;
  (* transport-level profiling labels, interned on first use so the
     profiler can be enabled either before or after [create] *)
  prof : Sim.Prof.t;
  mutable lab_deliver : Sim.Prof.label;
  mutable lab_ack : Sim.Prof.label;
  mutable lab_retransmit : Sim.Prof.label;
  mutable rto_cap_us : int;  (* retransmission-backoff ceiling *)
  mutable send_seq : int;  (* direct sends so far: the inbox tie-break *)
  mutable sent : int;
  mutable dropped_crash : int;
  mutable dropped_loss : int;
  mutable dropped_partition : int;
  mutable retransmissions : int;
  mutable acks_sent : int;
  mutable dups_suppressed : int;
}

(* Retransmission backoff is capped so a healed link catches up on its
   backlog before Ω can falsely re-suspect the peer, at the price of a
   few more (dropped) probes while a long partition lasts. The effective
   cap is per-transport ([set_rto_cap]) and is normally derived from the
   deployed failure-detector configuration plus the worst-case link RTT
   (see [Unistore.Config.rto_cap_us]); this constant is only the
   fallback for transports wired without a protocol configuration. *)
let default_rto_cap_us = 500_000

let create eng topo =
  {
    eng;
    topo;
    rng = Sim.Rng.split (Sim.Engine.rng eng) ~id:0x4e45;
    nodes = [||];
    node_count = 0;
    failed = Array.make (Topology.dcs topo) false;
    failed_at = Array.make (Topology.dcs topo) (-1);
    fifo = Hashtbl.create 1024;
    faults = None;
    tx_flows = Hashtbl.create 256;
    rx_flows = Hashtbl.create 256;
    trace = Sim.Trace.disabled;
    meter = None;
    prof = Sim.Engine.prof eng;
    lab_deliver = Sim.Prof.none;
    lab_ack = Sim.Prof.none;
    lab_retransmit = Sim.Prof.none;
    rto_cap_us = default_rto_cap_us;
    send_seq = 0;
    sent = 0;
    dropped_crash = 0;
    dropped_loss = 0;
    dropped_partition = 0;
    retransmissions = 0;
    acks_sent = 0;
    dups_suppressed = 0;
  }

let topology t = t.topo
let engine t = t.eng

(* Transport-level attribution labels, interned lazily: [Prof.label]
   returns [none] while the profiler is off, so the memo only sticks
   once it is on. [net/deliver] labels only the lossy path's arrival
   events; direct-path deliveries run under their handler's label. *)
let lab_deliver t =
  if t.lab_deliver <> Sim.Prof.none then t.lab_deliver
  else begin
    let l = Sim.Prof.label t.prof "net/deliver" in
    t.lab_deliver <- l;
    l
  end

let lab_ack t =
  if t.lab_ack <> Sim.Prof.none then t.lab_ack
  else begin
    let l = Sim.Prof.label t.prof "net/ack" in
    t.lab_ack <- l;
    l
  end

let lab_retransmit t =
  if t.lab_retransmit <> Sim.Prof.none then t.lab_retransmit
  else begin
    let l = Sim.Prof.label t.prof "net/retransmit" in
    t.lab_retransmit <- l;
    l
  end

(* "<node>/handle:<kind>" label for a handler-execution event, cached
   per (node, kind). Only called when the profiler is on. *)
let handler_label t n kind =
  match Hashtbl.find_opt n.lab_cache kind with
  | Some l -> l
  | None ->
      let l = Sim.Prof.label t.prof (n.name ^ "/handle:" ^ kind) in
      Hashtbl.replace n.lab_cache kind l;
      l

(* Install a fault model: switches inter-DC channels to the lossy
   transport with the ack/retransmission layer. Idempotent. *)
let set_faults t f = t.faults <- Some f

let enable_faults t =
  match t.faults with
  | Some f -> f
  | None ->
      let f = Faults.create ~dcs:(Topology.dcs t.topo) in
      t.faults <- Some f;
      f

let faults t = t.faults
let set_trace t trace = t.trace <- trace

let set_rto_cap t cap =
  if cap <= 0 then invalid_arg "Network.set_rto_cap: cap must be positive";
  t.rto_cap_us <- cap

let rto_cap t = t.rto_cap_us

let set_meter t reg ~kind_of ~size_of =
  let c ?labels name = Sim.Metrics.counter reg ?labels name in
  t.meter <-
    Some
      {
        reg;
        kind_of;
        size_of;
        by_kind_sent = Hashtbl.create 64;
        by_kind_recv = Hashtbl.create 64;
        by_link = Hashtbl.create 32;
        by_link_backlog = Hashtbl.create 32;
        m_retransmit = c "net_retransmits_total";
        m_fast_retransmit = c "net_fast_retransmits_total";
        m_dup_ack = c "net_dup_acks_total";
        m_dup_suppressed = c "net_dups_suppressed_total";
        m_ack = c "net_acks_total";
        m_drop_crash = c ~labels:[ ("cause", "crash") ] "net_dropped_total";
        m_drop_loss = c ~labels:[ ("cause", "loss") ] "net_dropped_total";
        m_drop_partition =
          c ~labels:[ ("cause", "partition") ] "net_dropped_total";
      }

(* Cached (counter, bytes-counter) per message kind / DC link. *)
let meter_kind_sent m kind =
  match Hashtbl.find_opt m.by_kind_sent kind with
  | Some pair -> pair
  | None ->
      let labels = [ ("kind", kind) ] in
      let pair =
        ( Sim.Metrics.counter m.reg ~labels "net_sent_total",
          Sim.Metrics.counter m.reg ~labels "net_sent_bytes" )
      in
      Hashtbl.replace m.by_kind_sent kind pair;
      pair

let meter_kind_recv m kind =
  match Hashtbl.find_opt m.by_kind_recv kind with
  | Some ctr -> ctr
  | None ->
      let ctr =
        Sim.Metrics.counter m.reg ~labels:[ ("kind", kind) ] "net_received_total"
      in
      Hashtbl.replace m.by_kind_recv kind ctr;
      ctr

let link_labels ~src_dc ~dst_dc =
  [ ("src_dc", string_of_int src_dc); ("dst_dc", string_of_int dst_dc) ]

let meter_link m ~src_dc ~dst_dc =
  match Hashtbl.find_opt m.by_link (src_dc, dst_dc) with
  | Some pair -> pair
  | None ->
      let labels = link_labels ~src_dc ~dst_dc in
      let pair =
        ( Sim.Metrics.counter m.reg ~labels "net_link_sent_total",
          Sim.Metrics.counter m.reg ~labels "net_link_sent_bytes" )
      in
      Hashtbl.replace m.by_link (src_dc, dst_dc) pair;
      pair

let meter_backlog m ~src_dc ~dst_dc =
  match Hashtbl.find_opt m.by_link_backlog (src_dc, dst_dc) with
  | Some g -> g
  | None ->
      let g =
        Sim.Metrics.gauge m.reg
          ~labels:(link_labels ~src_dc ~dst_dc)
          "net_flow_backlog"
      in
      Hashtbl.replace m.by_link_backlog (src_dc, dst_dc) g;
      g

(* Backlog delta on the (src_dc, dst_dc) gauge; the gauge also tracks
   its all-time maximum, the peak flow-buffer depth. *)
let meter_backlog_add t ~src_dc ~dst_dc delta =
  match t.meter with
  | None -> ()
  | Some m ->
      if delta <> 0 then
        Sim.Metrics.gauge_add (meter_backlog m ~src_dc ~dst_dc)
          (float_of_int delta)

let count_drop t cause ~src_dc ~dst_dc =
  (match cause with
  | Crash -> t.dropped_crash <- t.dropped_crash + 1
  | Loss -> t.dropped_loss <- t.dropped_loss + 1
  | Partition -> t.dropped_partition <- t.dropped_partition + 1);
  (match t.meter with
  | None -> ()
  | Some m ->
      Sim.Metrics.incr
        (match cause with
        | Crash -> m.m_drop_crash
        | Loss -> m.m_drop_loss
        | Partition -> m.m_drop_partition));
  if Sim.Trace.enabled t.trace then
    Sim.Trace.emitf t.trace ~source:"net" ~kind:"drop" "%s dc%d->dc%d"
      (drop_cause_name cause) src_dc dst_dc

let register t ?(client = false) ?name ~dc ~cost handler =
  if dc < 0 || dc >= Topology.dcs t.topo then
    invalid_arg "Network.register: no such data center";
  let addr = t.node_count in
  let name =
    match name with Some n -> n | None -> "node" ^ string_of_int addr
  in
  let node =
    {
      addr;
      dc;
      client;
      name;
      lab_cache = Hashtbl.create 8;
      cost;
      handler;
      busy_until = 0;
      processed = 0;
      busy_us = 0;
      down = false;
      epoch = 0;
      inbox = [||];
      inbox_len = 0;
    }
  in
  if t.node_count = Array.length t.nodes then begin
    let nodes = Array.make (max 64 (2 * t.node_count)) node in
    Array.blit t.nodes 0 nodes 0 t.node_count;
    t.nodes <- nodes
  end;
  t.nodes.(t.node_count) <- node;
  t.node_count <- t.node_count + 1;
  addr

let node t addr =
  if addr < 0 || addr >= t.node_count then
    invalid_arg "Network.node: unknown address";
  t.nodes.(addr)

let dc_of t addr = (node t addr).dc
let dc_failed t dc = t.failed.(dc)

(* A node is dead iff it crashed on its own ([down]) or its DC crashed
   and it belongs to the DC's failure domain — client nodes are external
   and outlive the crash. *)
let node_failed t n = n.down || (t.failed.(n.dc) && not n.client)

(* ------------------------------------------------------------------ *)
(* Per-node arrival inbox.                                              *)

let arrives_before a b =
  a.a_at < b.a_at || (a.a_at = b.a_at && a.a_seq < b.a_seq)

let inbox_push n r =
  if n.inbox_len = Array.length n.inbox then begin
    let data = Array.make (max 16 (2 * n.inbox_len)) r in
    Array.blit n.inbox 0 data 0 n.inbox_len;
    n.inbox <- data
  end;
  let h = n.inbox in
  let i = ref n.inbox_len in
  n.inbox_len <- n.inbox_len + 1;
  while !i > 0 && arrives_before r h.((!i - 1) / 2) do
    let parent = (!i - 1) / 2 in
    h.(!i) <- h.(parent);
    i := parent
  done;
  h.(!i) <- r

(* Remove the earliest arrival. The vacated slot keeps a reference to a
   record still in the heap (or, once empty, to the popped one), so no
   filler value is needed. *)
let inbox_pop n =
  let h = n.inbox in
  let top = h.(0) in
  let len = n.inbox_len - 1 in
  n.inbox_len <- len;
  if len > 0 then begin
    let last = h.(len) in
    let i = ref 0 and sifting = ref true in
    while !sifting do
      let l = (2 * !i) + 1 in
      if l >= len then sifting := false
      else begin
        let c =
          if l + 1 < len && arrives_before h.(l + 1) h.(l) then l + 1 else l
        in
        if arrives_before h.(c) last then begin
          h.(!i) <- h.(c);
          i := c
        end
        else sifting := false
      end
    done;
    h.(!i) <- last
  end;
  top

(* Serve every inbox arrival at or before [upto], in arrival order, as
   the node's FIFO CPU would have on arrival: [start = max arrival
   busy_until], [finish = start + cost]. The arrival-time checks run
   here: an epoch that moved since the send is a silent drop, a dead
   destination a counted [Crash] drop. Exact as long as the node's state
   and epochs have not changed since the arrivals being served — which
   the failure operations guarantee by settling every inbox first
   ([settle_all]). *)
let settle t n ~upto =
  while n.inbox_len > 0 && n.inbox.(0).a_at <= upto do
    let r = inbox_pop n in
    let src = r.a_src in
    if r.a_sep <> src.epoch || r.a_dep <> n.epoch then r.a_finish <- dropped
    else if node_failed t n then begin
      r.a_finish <- dropped;
      count_drop t Crash ~src_dc:src.dc ~dst_dc:n.dc
    end
    else begin
      let finish = max r.a_at n.busy_until + r.a_cost in
      n.busy_until <- finish;
      n.busy_us <- n.busy_us + r.a_cost;
      r.a_finish <- finish
    end
  done

(* Before a node or DC changes state, serve every arrival strictly
   before now under the state in force when it arrived. *)
let settle_all t =
  let upto = Sim.Engine.now t.eng - 1 in
  for addr = 0 to t.node_count - 1 do
    settle t t.nodes.(addr) ~upto
  done

let fail_dc t dc =
  if dc < 0 || dc >= Topology.dcs t.topo then
    invalid_arg "Network.fail_dc: no such data center";
  if not t.failed.(dc) then begin
    settle_all t;
    t.failed.(dc) <- true;
    t.failed_at.(dc) <- Sim.Engine.now t.eng
  end

let dc_failed_at t dc =
  if dc < 0 || dc >= Topology.dcs t.topo then
    invalid_arg "Network.dc_failed_at: no such data center";
  if t.failed.(dc) then Some t.failed_at.(dc) else None

(* Discard every FIFO channel and reliable-layer flow touching a node
   matched by [matches], on both sides, so post-recovery traffic starts
   fresh sequence spaces in both directions (resetting only the tx side
   would leave the peer's rx [expected] suppressing the fresh seq-0
   sends as duplicates). *)
let reset_channels t ~matches =
  let stale tbl =
    Hashtbl.fold
      (fun ((src, dst) as key) _ acc ->
        if matches src || matches dst then key :: acc else acc)
      tbl []
  in
  List.iter (Hashtbl.remove t.fifo) (stale t.fifo);
  List.iter
    (fun ((src, dst) as key) ->
      (match Hashtbl.find_opt t.tx_flows key with
      | Some fl ->
          meter_backlog_add t ~src_dc:t.nodes.(src).dc
            ~dst_dc:t.nodes.(dst).dc
            (-Queue.length fl.unacked);
          (* an armed retransmission timer still references this
             record; emptying it makes the orphaned fire a no-op
             instead of replaying stale sequence numbers into the
             fresh flow's sequence space *)
          Queue.clear fl.unacked
      | None -> ());
      Hashtbl.remove t.tx_flows key)
    (stale t.tx_flows);
  List.iter (Hashtbl.remove t.rx_flows) (stale t.rx_flows)

(* Revive a crashed data center. Its nodes come back with no in-flight
   state: every channel touching the DC is reset and pre-crash traffic
   dies on the epoch check. Messages buffered for the DC while it was
   down died with the crash — the protocol layer's rejoin recovers the
   content. *)
let recover_dc t dc =
  if dc < 0 || dc >= Topology.dcs t.topo then
    invalid_arg "Network.recover_dc: no such data center";
  if t.failed.(dc) then begin
    settle_all t;
    t.failed.(dc) <- false;
    t.failed_at.(dc) <- -1;
    (* client nodes kept their state through the crash: their epochs and
       their channels to live DCs are intact and must not be reset *)
    let member addr =
      addr >= 0 && addr < t.node_count
      && t.nodes.(addr).dc = dc
      && not t.nodes.(addr).client
    in
    (* new epoch: anything still in flight from before the crash (stale
       data packets, cumulative acks) is discarded on arrival *)
    for addr = 0 to t.node_count - 1 do
      if member addr then t.nodes.(addr).epoch <- t.nodes.(addr).epoch + 1
    done;
    reset_channels t ~matches:member
  end

(* Node-level failure domain: one machine dies while its DC stays up.
   Client sessions are not machines of the deployment, so they cannot
   node-crash. *)
let fail_node t addr =
  let n = node t addr in
  if n.client then invalid_arg "Network.fail_node: client nodes cannot crash";
  if not n.down then begin
    settle_all t;
    n.down <- true
  end

let node_down t addr = (node t addr).down

(* Restart a crashed machine: like [recover_dc] but scoped to one
   address — fresh epoch (in-flight pre-crash traffic dies on the epoch
   check), both-sided channel reset, and an idle CPU. *)
let recover_node t addr =
  let n = node t addr in
  if n.down then begin
    settle_all t;
    n.down <- false;
    n.epoch <- n.epoch + 1;
    n.busy_until <- 0;
    reset_channels t ~matches:(fun a -> a = addr)
  end

(* Base one-way transit time of a physical transmission, jitter included. *)
let transit_us t ~src_dc ~dst_dc =
  let base = Topology.one_way t.topo ~src:src_dc ~dst:dst_dc in
  let jitter =
    let j = Topology.jitter_us t.topo in
    if j = 0 then 0 else Sim.Rng.int t.rng (j + 1)
  in
  base + jitter

(* Handler-time check: the node may have crashed, or restarted, while
   the message waited for (or used) the CPU. *)
let run_handler t n msg ep =
  if (not (node_failed t n)) && ep = n.epoch then begin
    n.processed <- n.processed + 1;
    (match t.meter with
    | None -> ()
    | Some m -> Sim.Metrics.incr (meter_kind_recv m (m.kind_of msg)));
    n.handler msg
  end

(* handler events carry the node's own identity plus the message kind
   (when a meter names kinds), so replica work is attributed to
   "dcN/replica/handle:Replicate" rather than to whoever sent it *)
let label_for t n msg =
  if Sim.Prof.is_on t.prof then
    handler_label t n
      (match t.meter with Some m -> m.kind_of msg | None -> "msg")
  else Sim.Prof.none

(* A message reaching its node now, off the inbox (self-sends and the
   lossy path's in-order deliveries): serve the inbox's earlier arrivals
   first, then take the next CPU slot and run the handler once the
   service time has been paid. *)
let process t dst_node msg =
  let now = Sim.Engine.now t.eng in
  settle t dst_node ~upto:now;
  let start = max now dst_node.busy_until in
  let cost = dst_node.cost msg in
  let finish = start + cost in
  dst_node.busy_until <- finish;
  dst_node.busy_us <- dst_node.busy_us + cost;
  let ep = dst_node.epoch in
  Sim.Engine.schedule_at t.eng ~label:(label_for t dst_node msg) ~time:finish
    (fun () -> run_handler t dst_node msg ep)

(* ------------------------------------------------------------------ *)
(* Reliable (default) path: FIFO channels, no loss between live DCs.    *)

(* The one event of a direct-path message, scheduled at [arrival + cost]
   — its finish time if the CPU is idle on arrival. Settling the inbox
   through the arrival is exact: anything arriving earlier was sent
   earlier, so it is already queued. A busy CPU pushed the finish later;
   the event then moves there once (a second event, same label). *)
let on_arrival t n r () =
  if r.a_finish = unsettled then settle t n ~upto:r.a_at;
  let finish = r.a_finish in
  if finish = Sim.Engine.now t.eng then run_handler t n r.a_msg r.a_dep
  else if finish <> dropped then
    Sim.Engine.schedule_at t.eng ~time:finish (fun () ->
        run_handler t n r.a_msg r.a_dep)

let direct_send t ~src_node ~dst_node msg =
  let now = Sim.Engine.now t.eng in
  let arrival = now + transit_us t ~src_dc:src_node.dc ~dst_dc:dst_node.dc in
  (* FIFO per channel: never deliver before an earlier send's arrival. *)
  let key = (src_node.addr, dst_node.addr) in
  let arrival =
    match Hashtbl.find_opt t.fifo key with
    | Some last when arrival <= last -> last + 1
    | _ -> arrival
  in
  Hashtbl.replace t.fifo key arrival;
  t.send_seq <- t.send_seq + 1;
  let cost = dst_node.cost msg in
  let r =
    {
      a_src = src_node;
      a_msg = msg;
      a_cost = cost;
      a_sep = src_node.epoch;
      a_dep = dst_node.epoch;
      a_at = arrival;
      a_seq = t.send_seq;
      a_finish = unsettled;
    }
  in
  inbox_push dst_node r;
  Sim.Engine.schedule_at t.eng ~label:(label_for t dst_node msg)
    ~time:(arrival + cost) (on_arrival t dst_node r)

(* ------------------------------------------------------------------ *)
(* Lossy path: ack/retransmission layer over faulty inter-DC links.     *)

let tx_flow t ~src ~dst =
  match Hashtbl.find_opt t.tx_flows (src, dst) with
  | Some fl -> fl
  | None ->
      let src_dc = (node t src).dc and dst_dc = (node t dst).dc in
      (* initial timeout: a full round trip plus jitter and slack *)
      let base_rto =
        (2 * Topology.one_way t.topo ~src:src_dc ~dst:dst_dc)
        + (2 * Topology.jitter_us t.topo)
        + 10_000
      in
      let fl =
        {
          next_seq = 0;
          unacked = Queue.create ();
          base_rto_us = base_rto;
          rto_us = base_rto;
          timer_armed = false;
          dup_acks = 0;
          in_recovery = false;
        }
      in
      Hashtbl.replace t.tx_flows (src, dst) fl;
      fl

let rx_flow t ~src ~dst =
  match Hashtbl.find_opt t.rx_flows (src, dst) with
  | Some rx -> rx
  | None ->
      let rx = { expected = 0; ooo = Hashtbl.create 8 } in
      Hashtbl.replace t.rx_flows (src, dst) rx;
      rx

(* Cumulative ack for channel (src, dst): everything up to [upto] has
   been received in order. Acks traverse the same faulty links but cost
   no CPU at the sender (pure transport bookkeeping). *)
let rec send_ack t ~src ~dst ~upto =
  let src_node = node t src and dst_node = node t dst in
  (* the ack travels dst -> src *)
  match t.faults with
  | None -> ()
  | Some f -> (
      match Faults.judge f t.rng ~src:dst_node.dc ~dst:src_node.dc with
      | Faults.Cut | Faults.Lost -> ()  (* lost acks just delay the sender *)
      | Faults.Deliver { extra_us; _ } ->
          t.acks_sent <- t.acks_sent + 1;
          (match t.meter with
          | None -> ()
          | Some m -> Sim.Metrics.incr m.m_ack);
          let delay =
            transit_us t ~src_dc:dst_node.dc ~dst_dc:src_node.dc + extra_us
          in
          let sep = src_node.epoch and dep = dst_node.epoch in
          Sim.Engine.schedule t.eng ~label:(lab_ack t) ~delay (fun () ->
              if
                sep = src_node.epoch && dep = dst_node.epoch
                && not (node_failed t src_node)
              then
                match Hashtbl.find_opt t.tx_flows (src, dst) with
                | None -> ()
                | Some fl ->
                    (* [unacked] is in ascending sequence order, so the
                       acked prefix is exactly the head run <= upto *)
                    let acked = ref 0 in
                    while
                      (not (Queue.is_empty fl.unacked))
                      && fst (Queue.peek fl.unacked) <= upto
                    do
                      ignore (Queue.take fl.unacked);
                      incr acked
                    done;
                    if !acked > 0 then begin
                      (* progress resets the backoff and ends recovery *)
                      meter_backlog_add t ~src_dc:src_node.dc
                        ~dst_dc:dst_node.dc (- !acked);
                      fl.rto_us <- fl.base_rto_us;
                      fl.dup_acks <- 0;
                      fl.in_recovery <- false
                    end
                    else if
                      (not (Queue.is_empty fl.unacked)) && not fl.in_recovery
                    then begin
                      (* duplicate cumulative ack: the receiver sees
                         packets beyond a sequence gap — a lost message,
                         or fresh sends landing right after a partition
                         heals. After three duplicates, retransmit the
                         missing head immediately rather than waiting
                         out the backed-off timeout (TCP fast
                         retransmit); the reset timer resends the rest
                         of the window if the gap is wider than one.
                         The [in_recovery] latch allows one fast
                         retransmit per stall: resends arrive as a burst
                         of further duplicate acks, which must not
                         trigger resends of their own. *)
                      fl.dup_acks <- fl.dup_acks + 1;
                      (match t.meter with
                      | None -> ()
                      | Some m -> Sim.Metrics.incr m.m_dup_ack);
                      if fl.dup_acks >= 3 then begin
                        fl.dup_acks <- 0;
                        fl.in_recovery <- true;
                        fl.rto_us <- fl.base_rto_us;
                        let s, m = Queue.peek fl.unacked in
                        t.retransmissions <- t.retransmissions + 1;
                        (match t.meter with
                        | None -> ()
                        | Some mt ->
                            Sim.Metrics.incr mt.m_retransmit;
                            Sim.Metrics.incr mt.m_fast_retransmit);
                        transmit t f ~src ~dst s m
                      end
                    end))

(* A data packet reached the destination: deduplicate, deliver in order,
   flush the out-of-order buffer, and ack cumulatively. *)
and deliver_data t ~src ~dst seq msg =
  let src_node = node t src and dst_node = node t dst in
  if node_failed t dst_node then
    count_drop t Crash ~src_dc:src_node.dc ~dst_dc:dst_node.dc
  else begin
    let rx = rx_flow t ~src ~dst in
    if seq < rx.expected || Hashtbl.mem rx.ooo seq then begin
      t.dups_suppressed <- t.dups_suppressed + 1;
      match t.meter with
      | None -> ()
      | Some m -> Sim.Metrics.incr m.m_dup_suppressed
    end
    else if seq = rx.expected then begin
      process t dst_node msg;
      rx.expected <- rx.expected + 1;
      let continue = ref true in
      while !continue do
        match Hashtbl.find_opt rx.ooo rx.expected with
        | Some m ->
            Hashtbl.remove rx.ooo rx.expected;
            process t dst_node m;
            rx.expected <- rx.expected + 1
        | None -> continue := false
      done
    end
    else Hashtbl.replace rx.ooo seq msg;
    send_ack t ~src ~dst ~upto:(rx.expected - 1)
  end

(* One physical transmission attempt of (seq, msg) on channel (src, dst):
   the fault model decides loss, partition, gray delay and duplication. *)
and transmit t f ~src ~dst seq msg =
  let src_node = node t src and dst_node = node t dst in
  let src_dc = src_node.dc and dst_dc = dst_node.dc in
  match Faults.judge f t.rng ~src:src_dc ~dst:dst_dc with
  | Faults.Cut -> count_drop t Partition ~src_dc ~dst_dc
  | Faults.Lost -> count_drop t Loss ~src_dc ~dst_dc
  | Faults.Deliver { extra_us; duplicate } ->
      let sep = src_node.epoch and dep = dst_node.epoch in
      let deliver_after delay =
        Sim.Engine.schedule t.eng ~label:(lab_deliver t) ~delay (fun () ->
            if sep = src_node.epoch && dep = dst_node.epoch then
              deliver_data t ~src ~dst seq msg)
      in
      deliver_after (transit_us t ~src_dc ~dst_dc + extra_us);
      if duplicate then deliver_after (transit_us t ~src_dc ~dst_dc + extra_us)

let rec arm_timer t f ~src ~dst fl =
  if (not fl.timer_armed) && not (Queue.is_empty fl.unacked) then begin
    fl.timer_armed <- true;
    Sim.Engine.schedule t.eng ~label:(lab_retransmit t) ~delay:fl.rto_us
      (fun () ->
        fl.timer_armed <- false;
        if not (Queue.is_empty fl.unacked) then begin
          let src_node = node t src and dst_node = node t dst in
          let src_dc = src_node.dc and dst_dc = dst_node.dc in
          if node_failed t src_node then begin
            meter_backlog_add t ~src_dc ~dst_dc (-Queue.length fl.unacked);
            Queue.clear fl.unacked
          end
          else if node_failed t dst_node then begin
            (* the peer crashed: everything buffered is lost with it *)
            Queue.iter
              (fun _ -> count_drop t Crash ~src_dc ~dst_dc)
              fl.unacked;
            meter_backlog_add t ~src_dc ~dst_dc (-Queue.length fl.unacked);
            Queue.clear fl.unacked
          end
          else begin
            Queue.iter
              (fun (seq, msg) ->
                t.retransmissions <- t.retransmissions + 1;
                (match t.meter with
                | None -> ()
                | Some m -> Sim.Metrics.incr m.m_retransmit);
                transmit t f ~src ~dst seq msg)
              fl.unacked;
            fl.rto_us <- min (2 * fl.rto_us) t.rto_cap_us;
            arm_timer t f ~src ~dst fl
          end
        end)
  end

let reliable_send t f ~src ~dst msg =
  let fl = tx_flow t ~src ~dst in
  let seq = fl.next_seq in
  fl.next_seq <- seq + 1;
  Queue.add (seq, msg) fl.unacked;
  meter_backlog_add t ~src_dc:(node t src).dc ~dst_dc:(node t dst).dc 1;
  transmit t f ~src ~dst seq msg;
  arm_timer t f ~src ~dst fl

(* ------------------------------------------------------------------ *)

let send t ~src ~dst msg =
  let src_node = node t src and dst_node = node t dst in
  if node_failed t src_node || node_failed t dst_node then
    count_drop t Crash ~src_dc:src_node.dc ~dst_dc:dst_node.dc
  else begin
    t.sent <- t.sent + 1;
    (match t.meter with
    | None -> ()
    | Some m ->
        let bytes = m.size_of msg in
        let kind_msgs, kind_bytes = meter_kind_sent m (m.kind_of msg) in
        Sim.Metrics.incr kind_msgs;
        Sim.Metrics.incr ~by:bytes kind_bytes;
        let link_msgs, link_bytes =
          meter_link m ~src_dc:src_node.dc ~dst_dc:dst_node.dc
        in
        Sim.Metrics.incr link_msgs;
        Sim.Metrics.incr ~by:bytes link_bytes);
    match t.faults with
    | Some f when src_node.dc <> dst_node.dc ->
        reliable_send t f ~src ~dst msg
    | _ -> direct_send t ~src_node ~dst_node msg
  end

(* Deliver a message a node sends to itself: no network hop, but the
   service cost is still charged (the CPU does the work). *)
let send_self t ~node:addr msg =
  let n = node t addr in
  if not (node_failed t n) then process t n msg

let messages_sent t = t.sent

let messages_dropped t =
  t.dropped_crash + t.dropped_loss + t.dropped_partition

let dropped_crash t = t.dropped_crash
let dropped_loss t = t.dropped_loss
let dropped_partition t = t.dropped_partition
let retransmissions t = t.retransmissions
let acks_sent t = t.acks_sent
let duplicates_suppressed t = t.dups_suppressed

(* In-flight reliable-layer backlog: messages sent but not yet
   acknowledged across all channels (0 once the network is quiescent). *)
let unacked_backlog t =
  Hashtbl.fold (fun _ fl acc -> acc + Queue.length fl.unacked) t.tx_flows 0

let unacked_matching t ~f =
  match t.meter with
  | None -> unacked_backlog t
  | Some m ->
      Hashtbl.fold
        (fun _ fl acc ->
          Queue.fold
            (fun acc (_, msg) -> if f (m.kind_of msg) then acc + 1 else acc)
            acc fl.unacked)
        t.tx_flows 0

let node_processed t addr = (node t addr).processed
let node_busy_us t addr = (node t addr).busy_us

(* Fraction of the interval [0, now] the node's CPU spent processing. *)
let node_utilization t addr =
  let now = Sim.Engine.now t.eng in
  if now = 0 then 0.0
  else float_of_int (node t addr).busy_us /. float_of_int now
