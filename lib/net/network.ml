(* Message transport between simulated nodes.

   Models the paper's system model (§2) plus the resources its evaluation
   exercises (§8):

   - WAN latency from the deployment topology, plus bounded uniform jitter;
   - per-node CPU: a node processes one message at a time, in arrival
     order; each message has a service cost (microseconds) charged to the
     node, so nodes saturate and queueing delay emerges, which is what
     shapes the throughput/latency curves of §8. A message — direct, or
     one physical copy on a lossy link — costs one engine event when the
     CPU is idle on arrival and two when it is busy: the send schedules
     the handler at [arrival + cost], and the per-node arrival inbox
     settles the FIFO queue lazily (see [settle]). Both events carry
     the arrival record to a function the network builds once
     ([Sim.Engine.schedule_call]), so no hop allocates a closure;
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
     Intra-DC links stay reliable (the WAN is the adversary). Lossy
     arrivals join the same inbox; the receiver logic (dedup, reorder,
     cumulative ack) runs when the inbox serves them. An ack that
     advances the sender's window costs no event: the channel holds it
     and lands it when the channel is next read (see [send_ack]).
     Because an arrival is served up to one service cost after it
     happens, its ack's fault verdict and jitter are drawn then, not at
     the arrival: the network RNG stream is consumed in that order, and
     a partition cut or healed inside that window (rare: it is a few
     hundred microseconds wide) applies to an ack that left just
     before.

   Each ordered node pair has one channel record ([chan]) holding both
   paths' state: the direct path's FIFO floor, and the reliable layer's
   sender and receiver halves. Arrivals, retransmission timers and ack
   events carry their channel, so only a send looks one up. Each node's
   inbox is a [Sim.Heap] on (arrival time, send seq).

   Dropped messages are counted by cause (DC crash, random loss,
   partition) in the meter and optionally reported to a [Sim.Trace.t].

   The module is parametric in the message type: the protocol layer
   instantiates it with its own message variant. *)

type addr = int

(* Out-of-order buffers, by sequence number. Empty costs nothing, and
   most channels never need one. *)
module Seqs = Map.Make (Int)

(* Why a message was dropped: destination (or source) DC crashed, random
   link loss, or a network partition. *)
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
  (* the last CPU slot's finish time; [idle] when there is none *)
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
  (* arrivals not yet given a CPU slot, from both paths, in the order
     they reach the node: (arrival time, send seq) *)
  inbox : 'm arrival Sim.Heap.t;
}

(* A message in flight to its node (one physical copy on a lossy link),
   from send until its CPU slot is fixed. [a_finish] is [unsettled]
   until [settle] serves it in arrival order, then its handler's finish
   time, or [dropped]. The service cost is not kept: [cost] is pure, so
   [settle] recomputes it. *)
and 'm arrival = {
  a_chan : 'm chan;
  a_msg : 'm;
  a_rseq : int;  (* reliable-layer sequence number; -1 on the direct path *)
  a_sep : int;  (* source epoch at send *)
  a_dep : int;  (* destination epoch at send *)
  a_at : int;  (* arrival time *)
  a_seq : int;  (* send order: breaks ties on [a_at] *)
  mutable a_finish : int;
}

(* The channel from [src] to [dst], created by its first send.

   Direct path: [last_at] is the latest arrival time sent so far (-1
   before any); a later send never arrives before it.

   Reliable sender: [unacked] holds sent-but-unacked messages in
   ascending sequence order (a send appends, a cumulative ack pops from
   the head); the retransmission timer walks it with exponential backoff
   until an ack clears it. Most channels never take the reliable path,
   so [unacked] is the network's shared, always-empty [no_unacked] until
   the channel's first reliable send. Acks in flight that will advance
   the window when they land are held here rather than scheduled: in
   arrival order, a ring of [held_len] entries in [held] (see
   [held_slot]), each an arrival time, the engine ticket its event would
   have had and the ack's [upto]. Landing pops the acked prefix and
   resets the backoff — no send — so it can wait until something reads
   the channel, which first lands every held ack whose turn has passed
   ([apply_held]).

   Reliable receiver: next in-order sequence number plus an out-of-order
   buffer. Anything below [expected] (or already buffered) is a
   duplicate and is suppressed. [acked] is the highest [upto] of the
   acks sent that are not lost: an ack above it advances the sender's
   window.

   A channel is reset — emptied and dropped from the table — exactly
   when one of its ends takes a new epoch ([reset_channels]). So an
   arrival, timer or ack event whose epochs still match holds the
   channel's current record; [settle] drops an arrival from before a
   reset before it reaches [receive]. *)
and 'm chan = {
  src : 'm node;
  dst : 'm node;
  mutable last_at : int;
  mutable next_seq : int;
  mutable unacked : (int * 'm) Queue.t;
  mutable rto_us : int;
  mutable timer_armed : bool;
  mutable dup_acks : int;
  mutable in_recovery : bool;
  mutable held : int array;
  mutable held_head : int;
  mutable held_len : int;
  mutable expected : int;
  mutable ooo : 'm Seqs.t;
  mutable acked : int;
}

let unsettled = -1
let dropped = -2
let idle = -1

(* The transport's instrumentation, and the only place its counts live:
   it feeds a metrics registry with per-message-kind and per-DC-link
   traffic counters (messages and estimated bytes), reliable-layer
   counters (retransmits, fast retransmits, duplicate acks, suppressed
   duplicates, acks), drops by cause, and per-link backlog gauges.
   Handle lookups are cached here so the per-message cost is a hash hit
   (the kinds) or an array read (the links, indexed by
   [src_dc * dcs + dst_dc]) plus an increment, with nothing allocated. *)
type 'm meter = {
  reg : Sim.Metrics.t;
  kind_of : 'm -> string;
  size_of : 'm -> int;  (* estimated wire bytes *)
  by_kind_sent : (string, Sim.Metrics.counter * Sim.Metrics.counter) Hashtbl.t;
  by_kind_recv : (string, Sim.Metrics.counter) Hashtbl.t;
  dcs : int;
  by_link : (Sim.Metrics.counter * Sim.Metrics.counter) option array;
  by_link_backlog : Sim.Metrics.gauge option array;
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
  failed_at : int array;  (* crash time per DC, -1 while it is live *)
  chans : (int, 'm chan) Hashtbl.t;  (* see [chan] *)
  no_unacked : (int * 'm) Queue.t;  (* never added to: see ['m chan] *)
  mutable faults : Faults.t option;
  mutable trace : Sim.Trace.t;
  mutable meter : 'm meter;
  (* transport-level profiling labels, interned on first use so the
     profiler can be enabled either before or after [create] *)
  prof : Sim.Prof.t;
  mutable lab_ack : Sim.Prof.label;
  mutable lab_retransmit : Sim.Prof.label;
  mutable rto_cap_us : int;  (* retransmission-backoff ceiling *)
  mutable send_seq : int;  (* arrivals queued so far: the inbox tie-break *)
  (* the engine functions of an arrival's event and of its deferred
     handler event, built once by [create]: each event carries only its
     arrival record ([Sim.Engine.schedule_call]) *)
  arrive : 'm arrival -> unit;
  serve : 'm arrival -> unit;
}

(* Retransmission backoff is capped so a healed link catches up on its
   backlog before Ω can falsely re-suspect the peer, at the price of a
   few more (dropped) probes while a long partition lasts. The effective
   cap is per-transport ([set_rto_cap]) and is normally derived from the
   deployed failure-detector configuration plus the worst-case link RTT
   (see [Unistore.Config.rto_cap_us]); this constant is only the
   fallback for transports wired without a protocol configuration. *)
let default_rto_cap_us = 500_000

let topology t = t.topo

(* Transport-level attribution labels, interned lazily: [Prof.label]
   returns [none] while the profiler is off, so the memo only sticks
   once it is on. Deliveries on either path run under their handler's
   label, not a transport one. *)
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
  match Hashtbl.find n.lab_cache kind with
  | l -> l
  | exception Not_found ->
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

let make_meter reg ~dcs ~kind_of ~size_of =
  let c ?labels name = Sim.Metrics.counter reg ?labels name in
  {
    reg;
    kind_of;
    size_of;
    by_kind_sent = Hashtbl.create 64;
    by_kind_recv = Hashtbl.create 64;
    dcs;
    by_link = Array.make (dcs * dcs) None;
    by_link_backlog = Array.make (dcs * dcs) None;
    m_retransmit = c "net_retransmits_total";
    m_fast_retransmit = c "net_fast_retransmits_total";
    m_dup_ack = c "net_dup_acks_total";
    m_dup_suppressed = c "net_dups_suppressed_total";
    m_ack = c "net_acks_total";
    m_drop_crash = c ~labels:[ ("cause", "crash") ] "net_dropped_total";
    m_drop_loss = c ~labels:[ ("cause", "loss") ] "net_dropped_total";
    m_drop_partition = c ~labels:[ ("cause", "partition") ] "net_dropped_total";
  }

let set_meter t reg ~kind_of ~size_of =
  t.meter <- make_meter reg ~dcs:(Topology.dcs t.topo) ~kind_of ~size_of

(* Cached (counter, bytes-counter) per message kind / DC link, interned
   on first use. A hit allocates nothing ([Hashtbl.find], not
   [find_opt]). *)
let meter_kind_sent m kind =
  match Hashtbl.find m.by_kind_sent kind with
  | pair -> pair
  | exception Not_found ->
      let labels = [ ("kind", kind) ] in
      let pair =
        ( Sim.Metrics.counter m.reg ~labels "net_sent_total",
          Sim.Metrics.counter m.reg ~labels "net_sent_bytes" )
      in
      Hashtbl.replace m.by_kind_sent kind pair;
      pair

let meter_kind_recv m kind =
  match Hashtbl.find m.by_kind_recv kind with
  | ctr -> ctr
  | exception Not_found ->
      let ctr =
        Sim.Metrics.counter m.reg ~labels:[ ("kind", kind) ] "net_received_total"
      in
      Hashtbl.replace m.by_kind_recv kind ctr;
      ctr

let link_labels ~src_dc ~dst_dc =
  [ ("src_dc", string_of_int src_dc); ("dst_dc", string_of_int dst_dc) ]

let meter_link m ~src_dc ~dst_dc =
  let i = (src_dc * m.dcs) + dst_dc in
  match m.by_link.(i) with
  | Some pair -> pair
  | None ->
      let labels = link_labels ~src_dc ~dst_dc in
      let pair =
        ( Sim.Metrics.counter m.reg ~labels "net_link_sent_total",
          Sim.Metrics.counter m.reg ~labels "net_link_sent_bytes" )
      in
      m.by_link.(i) <- Some pair;
      pair

let meter_backlog m ~src_dc ~dst_dc =
  let i = (src_dc * m.dcs) + dst_dc in
  match m.by_link_backlog.(i) with
  | Some g -> g
  | None ->
      let g =
        Sim.Metrics.gauge m.reg
          ~labels:(link_labels ~src_dc ~dst_dc)
          "net_flow_backlog"
      in
      m.by_link_backlog.(i) <- Some g;
      g

(* Backlog delta on the (src_dc, dst_dc) gauge; the gauge also tracks
   its all-time maximum, the peak flow-buffer depth. *)
let meter_backlog_add t ~src_dc ~dst_dc delta =
  if delta <> 0 then
    Sim.Metrics.gauge_add (meter_backlog t.meter ~src_dc ~dst_dc)
      (float_of_int delta)

let drop_counter m = function
  | Crash -> m.m_drop_crash
  | Loss -> m.m_drop_loss
  | Partition -> m.m_drop_partition

let count_drop t cause ~src_dc ~dst_dc =
  Sim.Metrics.incr (drop_counter t.meter cause);
  if Sim.Trace.enabled t.trace then
    Sim.Trace.emitf t.trace ~source:"net" ~kind:"drop" "%s dc%d->dc%d"
      (drop_cause_name cause) src_dc dst_dc

let arrives_before a b =
  a.a_at < b.a_at || (a.a_at = b.a_at && a.a_seq < b.a_seq)

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
      busy_until = idle;
      processed = 0;
      busy_us = 0;
      down = false;
      epoch = 0;
      inbox = Sim.Heap.create ~less:arrives_before;
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
let dc_failed t dc = t.failed_at.(dc) >= 0

(* A node is dead iff it crashed on its own ([down]) or its DC crashed
   and it belongs to the DC's failure domain — client nodes are external
   and outlive the crash. *)
let node_failed t n = n.down || (dc_failed t n.dc && not n.client)

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
    Sim.Metrics.incr (meter_kind_recv t.meter (t.meter.kind_of msg));
    n.handler msg
  end

(* handler events carry the node's own identity plus the message kind,
   so replica work is attributed to "dcN/replica/handle:Replicate"
   rather than to whoever sent it *)
let label_for t n msg =
  if Sim.Prof.is_on t.prof then handler_label t n (t.meter.kind_of msg)
  else Sim.Prof.none

(* Take the node's next FIFO CPU slot for [msg], arrived at [at]:
   [start = max at busy_until], [finish = start + cost]. Returns the
   finish time. A zero-cost message queued behind another finishes 1 µs
   after it: one node's handler events never share an instant, so time
   order alone runs them in slot order, whichever order their events
   were scheduled in. Positive costs never need the bump. *)
let take_cpu n ~at msg =
  let cost = n.cost msg in
  let finish = max (max at n.busy_until + cost) (n.busy_until + 1) in
  n.busy_until <- finish;
  n.busy_us <- n.busy_us + cost;
  finish

(* Run [msg]'s handler once its CPU slot ends at [finish]. *)
let handle_at t n msg ~finish =
  let ep = n.epoch in
  Sim.Engine.schedule_at t.eng ~label:(label_for t n msg) ~time:finish
    (fun () -> run_handler t n msg ep)

(* Initial retransmission timeout: a full round trip plus jitter and
   slack. *)
let base_rto t ~src_dc ~dst_dc =
  (2 * Topology.one_way t.topo ~src:src_dc ~dst:dst_dc)
  + (2 * Topology.jitter_us t.topo)
  + 10_000

(* The (src, dst) channel, created on first use. Its key packs both
   addresses into one int (addresses are node-array indices, far below
   2^31), so neither the table nor a lookup allocates a pair, and a hit
   allocates no option either. *)
let chan t ~src_node ~dst_node =
  let key = (src_node.addr lsl 31) lor dst_node.addr in
  match Hashtbl.find t.chans key with
  | ch -> ch
  | exception Not_found ->
      let ch =
        {
          src = src_node;
          dst = dst_node;
          last_at = -1;
          next_seq = 0;
          unacked = t.no_unacked;
          rto_us = base_rto t ~src_dc:src_node.dc ~dst_dc:dst_node.dc;
          timer_armed = false;
          dup_acks = 0;
          in_recovery = false;
          held = [||];
          held_head = 0;
          held_len = 0;
          expected = 0;
          ooo = Seqs.empty;
          acked = -1;
        }
      in
      Hashtbl.replace t.chans key ch;
      ch

(* ------------------------------------------------------------------ *)
(* Reliable layer: acks and retransmission over lossy inter-DC links.  *)

(* The held-ack ring: push at the back, pop from either end. Entry [k]
   from the head fills slots [i], [i + 1] and [i + 2] of [held], where
   [i = held_slot ch k]: its arrival time, engine ticket and [upto]. The
   capacity in entries is a power of two. *)
let held_slot ch k =
  3 * ((ch.held_head + k) land ((Array.length ch.held / 3) - 1))

let held_push ch ~at ~tk ~upto =
  let cap = Array.length ch.held / 3 in
  if ch.held_len = cap then begin
    let a = Array.make (3 * max 4 (2 * cap)) 0 in
    for k = 0 to cap - 1 do
      Array.blit ch.held (held_slot ch k) a (3 * k) 3
    done;
    ch.held <- a;
    ch.held_head <- 0
  end;
  let i = held_slot ch ch.held_len in
  ch.held.(i) <- at;
  ch.held.(i + 1) <- tk;
  ch.held.(i + 2) <- upto;
  ch.held_len <- ch.held_len + 1

(* ------------------------------------------------------------------ *)
(* Arrivals. Both paths queue a message in its node's inbox with one
   event, at [arrival + cost] — its finish time if the CPU is idle on
   arrival; [settle] serves the inbox in arrival order.                 *)

(* Queue [msg] on [ch], reaching its destination at [at]. [rseq] is its
   reliable-layer sequence number on a lossy link, -1 on the direct
   path. *)
let rec push_arrival t ch ~rseq ~at msg =
  t.send_seq <- t.send_seq + 1;
  let n = ch.dst in
  let r =
    {
      a_chan = ch;
      a_msg = msg;
      a_rseq = rseq;
      a_sep = ch.src.epoch;
      a_dep = n.epoch;
      a_at = at;
      a_seq = t.send_seq;
      a_finish = unsettled;
    }
  in
  Sim.Heap.push n.inbox r;
  Sim.Engine.schedule_call t.eng ~label:(label_for t n msg)
    ~time:(at + n.cost msg) t.arrive r

(* The arrival's one event. Settling the inbox through the arrival is
   exact: anything arriving earlier was queued before this event, which
   is at or after its arrival. A busy CPU pushed the finish later; the
   event then moves there once (a second event, same label). A dropped
   arrival — stale epoch, dead node, lossy duplicate or packet beyond a
   gap — makes this event a no-op. *)
and on_arrival t r =
  let n = r.a_chan.dst in
  if r.a_finish = unsettled then settle t n ~upto:r.a_at;
  let finish = r.a_finish in
  if finish = Sim.Engine.now t.eng then serve t r
  else if finish <> dropped then
    Sim.Engine.schedule_call t.eng ~time:finish t.serve r

and serve t r = run_handler t r.a_chan.dst r.a_msg r.a_dep

(* Serve every inbox arrival at or before [upto], in arrival order, as
   the node's FIFO CPU would have on arrival. The arrival-time checks run
   here: an epoch that moved since the send is a silent drop, a dead
   destination a counted [Crash] drop. Exact as long as the node's state
   and epochs have not changed since the arrivals being served — which
   the failure operations guarantee by settling every inbox first
   ([settle_all]). *)
and settle t n ~upto =
  while
    (not (Sim.Heap.is_empty n.inbox)) && (Sim.Heap.top n.inbox).a_at <= upto
  do
    let r = Sim.Heap.pop n.inbox in
    let src = r.a_chan.src in
    if r.a_sep <> src.epoch || r.a_dep <> n.epoch then r.a_finish <- dropped
    else if node_failed t n then begin
      r.a_finish <- dropped;
      count_drop t Crash ~src_dc:src.dc ~dst_dc:n.dc
    end
    else if r.a_rseq < 0 then r.a_finish <- take_cpu n ~at:r.a_at r.a_msg
    else receive t n r
  done

(* A lossy-link packet's turn at its node. A duplicate is suppressed; the
   next packet in sequence takes the CPU and releases what the
   out-of-order buffer holds behind it, each with a handler event of its
   own at its finish (never in the past: the packet's own event, at or
   after now, is no later than its finish); a packet beyond a gap waits
   in the buffer. Then the cumulative ack leaves, as of the arrival. *)
and receive t n r =
  let seq = r.a_rseq and ch = r.a_chan in
  if seq < ch.expected || Seqs.mem seq ch.ooo then begin
    r.a_finish <- dropped;
    Sim.Metrics.incr t.meter.m_dup_suppressed
  end
  else if seq = ch.expected then begin
    r.a_finish <- take_cpu n ~at:r.a_at r.a_msg;
    ch.expected <- seq + 1;
    let released = ref true in
    while !released do
      match Seqs.find_opt ch.expected ch.ooo with
      | Some m ->
          ch.ooo <- Seqs.remove ch.expected ch.ooo;
          ch.expected <- ch.expected + 1;
          handle_at t n m ~finish:(take_cpu n ~at:r.a_at m)
      | None -> released := false
    done
  end
  else begin
    r.a_finish <- dropped;
    ch.ooo <- Seqs.add seq r.a_msg ch.ooo
  end;
  send_ack t ch ~at:r.a_at ~upto:(ch.expected - 1)

(* One physical transmission attempt of (seq, msg) on [ch]'s channel:
   the fault model decides loss, partition, gray delay and
   duplication. *)
and transmit t f ch seq msg =
  let src_dc = ch.src.dc and dst_dc = ch.dst.dc in
  match Faults.judge f t.rng ~src:src_dc ~dst:dst_dc with
  | Faults.Cut -> count_drop t Partition ~src_dc ~dst_dc
  | Faults.Lost -> count_drop t Loss ~src_dc ~dst_dc
  | Faults.Deliver { extra_us; duplicate } ->
      let arrive () =
        let at =
          Sim.Engine.now t.eng + transit_us t ~src_dc ~dst_dc + extra_us
        in
        push_arrival t ch ~rseq:seq ~at msg
      in
      arrive ();
      if duplicate then arrive ()

(* A cumulative ack for [ch] lands at its sender. [unacked] is in
   ascending sequence order, so the acked prefix is exactly the head run
   <= upto. *)
and ack_lands t f ch ~upto =
  let acked = ref 0 in
  while
    (not (Queue.is_empty ch.unacked)) && fst (Queue.peek ch.unacked) <= upto
  do
    ignore (Queue.take ch.unacked);
    incr acked
  done;
  if !acked > 0 then begin
    (* progress resets the backoff and ends recovery *)
    meter_backlog_add t ~src_dc:ch.src.dc ~dst_dc:ch.dst.dc (- !acked);
    ch.rto_us <- base_rto t ~src_dc:ch.src.dc ~dst_dc:ch.dst.dc;
    ch.dup_acks <- 0;
    ch.in_recovery <- false
  end
  else if (not (Queue.is_empty ch.unacked)) && not ch.in_recovery then begin
    (* duplicate cumulative ack: the receiver sees packets beyond a
       sequence gap — a lost message, or fresh sends landing right after
       a partition heals. After three duplicates, retransmit the missing
       head immediately rather than waiting out the backed-off timeout
       (TCP fast retransmit); the reset timer resends the rest of the
       window if the gap is wider than one. The [in_recovery] latch
       allows one fast retransmit per stall: resends arrive as a burst of
       further duplicate acks, which must not trigger resends of their
       own. *)
    ch.dup_acks <- ch.dup_acks + 1;
    Sim.Metrics.incr t.meter.m_dup_ack;
    if ch.dup_acks >= 3 then begin
      ch.dup_acks <- 0;
      ch.in_recovery <- true;
      ch.rto_us <- base_rto t ~src_dc:ch.src.dc ~dst_dc:ch.dst.dc;
      let s, m = Queue.peek ch.unacked in
      Sim.Metrics.incr t.meter.m_retransmit;
      Sim.Metrics.incr t.meter.m_fast_retransmit;
      transmit t f ch s m
    end
  end

(* Land, in arrival order, every held ack whose event would have run by
   now. Each one advances the window (see [send_ack]), so none sends.
   Every change of a node's failure state first lands the acks whose
   turn came before it ([settle_all]), so the sender's state now is its
   state at each arrival. *)
and apply_held t f ch =
  while
    ch.held_len > 0
    &&
    let i = held_slot ch 0 in
    Sim.Engine.passed t.eng ~time:ch.held.(i) ~ticket:ch.held.(i + 1)
  do
    let u = ch.held.(held_slot ch 0 + 2) in
    ch.held_head <- (ch.held_head + 1) land ((Array.length ch.held / 3) - 1);
    ch.held_len <- ch.held_len - 1;
    if not (node_failed t ch.src) then ack_lands t f ch ~upto:u
  done

(* An ack for [ch] with an event of its own, at its arrival, in the
   place in the event order of ticket [tk]. Unchanged epochs mean [ch]
   has not been reset since. *)
and ack_event t f ch ~at ~tk ~upto =
  let sep = ch.src.epoch and dep = ch.dst.epoch in
  Sim.Engine.schedule_ticket t.eng ~label:(lab_ack t) ~time:at ~ticket:tk
    (fun () ->
      if
        sep = ch.src.epoch && dep = ch.dst.epoch
        && not (node_failed t ch.src)
      then begin
        apply_held t f ch;
        ack_lands t f ch ~upto
      end)

(* Cumulative ack for [ch], leaving its destination as of [at]:
   everything up to [upto] has been received in order. Acks traverse
   the same faulty links but cost no CPU at the sender (pure transport
   bookkeeping). An ack that advances the window — [upto] above every
   earlier ack not lost — is held by the channel and costs no event;
   any other ack gets its own event, so duplicate-ack counting and fast
   retransmit run at its arrival. A held ack that this one overtakes
   will no longer advance the window when it lands, so it moves to an
   event of its own. *)
and send_ack t ch ~at ~upto =
  match t.faults with
  | None -> ()
  | Some f -> (
      (* the ack travels dst -> src *)
      let src_dc = ch.dst.dc and dst_dc = ch.src.dc in
      match Faults.judge f t.rng ~src:src_dc ~dst:dst_dc with
      | Faults.Cut | Faults.Lost -> ()  (* lost acks just delay the sender *)
      | Faults.Deliver { extra_us; _ } ->
          Sim.Metrics.incr t.meter.m_ack;
          (* [at] is at most one service cost ago, well inside any WAN
             transit; the clamp only guards a zero-latency topology *)
          let at =
            max (Sim.Engine.now t.eng)
              (at + transit_us t ~src_dc ~dst_dc + extra_us)
          in
          let tk = Sim.Engine.ticket t.eng in
          while
            ch.held_len > 0 && ch.held.(held_slot ch (ch.held_len - 1)) > at
          do
            let i = held_slot ch (ch.held_len - 1) in
            ch.held_len <- ch.held_len - 1;
            ack_event t f ch ~at:ch.held.(i) ~tk:ch.held.(i + 1)
              ~upto:ch.held.(i + 2)
          done;
          if upto > ch.acked then begin
            ch.acked <- upto;
            held_push ch ~at ~tk ~upto
          end
          else ack_event t f ch ~at ~tk ~upto)

(* ------------------------------------------------------------------ *)
(* Sending.                                                             *)

let direct_send t ch msg =
  let now = Sim.Engine.now t.eng in
  let arrival = now + transit_us t ~src_dc:ch.src.dc ~dst_dc:ch.dst.dc in
  (* FIFO per channel: never deliver before an earlier send's arrival. *)
  let arrival = if arrival <= ch.last_at then ch.last_at + 1 else arrival in
  ch.last_at <- arrival;
  push_arrival t ch ~rseq:(-1) ~at:arrival msg

let rec arm_timer t f ch =
  if (not ch.timer_armed) && not (Queue.is_empty ch.unacked) then begin
    ch.timer_armed <- true;
    Sim.Engine.schedule t.eng ~label:(lab_retransmit t) ~delay:ch.rto_us
      (fun () ->
        ch.timer_armed <- false;
        apply_held t f ch;
        if not (Queue.is_empty ch.unacked) then begin
          let src_dc = ch.src.dc and dst_dc = ch.dst.dc in
          if node_failed t ch.src then begin
            meter_backlog_add t ~src_dc ~dst_dc (-Queue.length ch.unacked);
            Queue.clear ch.unacked
          end
          else if node_failed t ch.dst then begin
            (* the peer crashed: everything buffered is lost with it *)
            Queue.iter
              (fun _ -> count_drop t Crash ~src_dc ~dst_dc)
              ch.unacked;
            meter_backlog_add t ~src_dc ~dst_dc (-Queue.length ch.unacked);
            Queue.clear ch.unacked
          end
          else begin
            Queue.iter
              (fun (seq, msg) ->
                Sim.Metrics.incr t.meter.m_retransmit;
                transmit t f ch seq msg)
              ch.unacked;
            ch.rto_us <- min (2 * ch.rto_us) t.rto_cap_us;
            arm_timer t f ch
          end
        end)
  end

let reliable_send t f ch msg =
  if ch.unacked == t.no_unacked then ch.unacked <- Queue.create ();
  apply_held t f ch;
  let seq = ch.next_seq in
  ch.next_seq <- seq + 1;
  Queue.add (seq, msg) ch.unacked;
  meter_backlog_add t ~src_dc:ch.src.dc ~dst_dc:ch.dst.dc 1;
  transmit t f ch seq msg;
  arm_timer t f ch

let create eng topo reg ~kind_of ~size_of =
  let rec t =
    {
      eng;
      topo;
      rng = Sim.Rng.split (Sim.Engine.rng eng) ~id:0x4e45;
      nodes = [||];
      node_count = 0;
      failed_at = Array.make (Topology.dcs topo) (-1);
      chans = Hashtbl.create 256;
      no_unacked = Queue.create ();
      faults = None;
      trace = Sim.Trace.disabled;
      meter = make_meter reg ~dcs:(Topology.dcs topo) ~kind_of ~size_of;
      prof = Sim.Engine.prof eng;
      lab_ack = Sim.Prof.none;
      lab_retransmit = Sim.Prof.none;
      rto_cap_us = default_rto_cap_us;
      send_seq = 0;
      arrive = (fun r -> on_arrival t r);
      serve = (fun r -> serve t r);
    }
  in
  t

(* ------------------------------------------------------------------ *)
(* Failures.                                                            *)

(* [apply_held] on every channel. Acks are held only once faults are
   installed. *)
let apply_all_held t =
  match t.faults with
  | None -> ()
  | Some f -> Hashtbl.iter (fun _ ch -> apply_held t f ch) t.chans

(* Before a node or DC changes state, serve every arrival strictly
   before now under the state in force when it arrived: inbox arrivals
   and held acks. *)
let settle_all t =
  let upto = Sim.Engine.now t.eng - 1 in
  for addr = 0 to t.node_count - 1 do
    settle t t.nodes.(addr) ~upto
  done;
  apply_all_held t

let fail_dc t dc =
  if dc < 0 || dc >= Topology.dcs t.topo then
    invalid_arg "Network.fail_dc: no such data center";
  if not (dc_failed t dc) then begin
    settle_all t;
    t.failed_at.(dc) <- Sim.Engine.now t.eng
  end

let dc_failed_at t dc =
  if dc < 0 || dc >= Topology.dcs t.topo then
    invalid_arg "Network.dc_failed_at: no such data center";
  if dc_failed t dc then Some t.failed_at.(dc) else None

(* Discard every channel touching a node matched by [matches], so
   post-recovery traffic starts with no FIFO floor and fresh sequence
   spaces in both directions (resetting only the sender would leave the
   peer's [expected] suppressing the fresh seq-0 sends as
   duplicates). *)
let reset_channels t ~matches =
  Hashtbl.filter_map_inplace
    (fun _ ch ->
      if matches ch.src.addr || matches ch.dst.addr then begin
        meter_backlog_add t ~src_dc:ch.src.dc ~dst_dc:ch.dst.dc
          (-Queue.length ch.unacked);
        (* an armed retransmission timer still references this record;
           emptying it makes the orphaned fire a no-op instead of
           replaying stale sequence numbers into the fresh channel's
           sequence space *)
        Queue.clear ch.unacked;
        ch.held_len <- 0;
        None
      end
      else Some ch)
    t.chans

(* Revive a crashed data center. Its nodes come back with no in-flight
   state: every channel touching the DC is reset and pre-crash traffic
   dies on the epoch check. Messages buffered for the DC while it was
   down died with the crash — the protocol layer's rejoin recovers the
   content. *)
let recover_dc t dc =
  if dc < 0 || dc >= Topology.dcs t.topo then
    invalid_arg "Network.recover_dc: no such data center";
  if dc_failed t dc then begin
    settle_all t;
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
    n.busy_until <- idle;
    reset_channels t ~matches:(fun a -> a = addr)
  end

(* ------------------------------------------------------------------ *)

let send t ~src ~dst msg =
  let src_node = node t src and dst_node = node t dst in
  if node_failed t src_node || node_failed t dst_node then
    count_drop t Crash ~src_dc:src_node.dc ~dst_dc:dst_node.dc
  else begin
    let m = t.meter in
    let bytes = m.size_of msg in
    let kind_msgs, kind_bytes = meter_kind_sent m (m.kind_of msg) in
    Sim.Metrics.incr kind_msgs;
    Sim.Metrics.add kind_bytes bytes;
    let link_msgs, link_bytes =
      meter_link m ~src_dc:src_node.dc ~dst_dc:dst_node.dc
    in
    Sim.Metrics.incr link_msgs;
    Sim.Metrics.add link_bytes bytes;
    let ch = chan t ~src_node ~dst_node in
    match t.faults with
    | Some f when src_node.dc <> dst_node.dc -> reliable_send t f ch msg
    | _ -> direct_send t ch msg
  end

(* Deliver a message a node sends to itself: no network hop, but the
   service cost is still charged (the CPU does the work). *)
let send_self t ~node:addr msg =
  let n = node t addr in
  if not (node_failed t n) then begin
    let now = Sim.Engine.now t.eng in
    settle t n ~upto:now;
    handle_at t n msg ~finish:(take_cpu n ~at:now msg)
  end

let drops t cause = Sim.Metrics.counter_value (drop_counter t.meter cause)
let dropped_crash t = drops t Crash
let dropped_loss t = drops t Loss
let dropped_partition t = drops t Partition
let messages_dropped t = dropped_crash t + dropped_loss t + dropped_partition t
let retransmissions t = Sim.Metrics.counter_value t.meter.m_retransmit

let duplicates_suppressed t =
  Sim.Metrics.counter_value t.meter.m_dup_suppressed

(* In-flight reliable-layer backlog: messages sent but not yet
   acknowledged across all channels (0 once the network is quiescent). *)
let unacked_backlog t =
  apply_all_held t;
  Hashtbl.fold (fun _ ch acc -> acc + Queue.length ch.unacked) t.chans 0

let unacked_matching t ~f =
  apply_all_held t;
  Hashtbl.fold
    (fun _ ch acc ->
      Queue.fold
        (fun acc (_, msg) -> if f (t.meter.kind_of msg) then acc + 1 else acc)
        acc ch.unacked)
    t.chans 0

(* The latest CPU slot booked on a live node, as the inbox stands now:
   call [settle_all] first to book every arrival before now. *)
let cpu_booked_until t =
  let last = ref idle in
  for addr = 0 to t.node_count - 1 do
    let n = t.nodes.(addr) in
    if not (node_failed t n) then last := max !last n.busy_until
  done;
  !last

let node_processed t addr = (node t addr).processed
let node_busy_us t addr = (node t addr).busy_us
