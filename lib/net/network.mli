(** Message transport between simulated nodes: FIFO channels with WAN
    latency and jitter, per-node CPU (service-time) modelling, and
    whole-data-center crash failures — the system model of UniStore §2.

    Channels are perfectly reliable by default. Installing a {!Faults.t}
    ({!enable_faults} / {!set_faults}) makes inter-DC links lossy
    (drop / duplicate / gray delay / heal-able partitions) and switches
    those links to a sequence-numbered ack/retransmission layer that
    restores exactly-once FIFO {e eventual} delivery — the guarantee the
    paper's eventual-delivery links actually provide. Intra-DC traffic
    stays reliable and direct. A lossy-link packet costs the same engine
    events as a direct message; an ack that advances the sender's window
    costs none.

    Parametric in the message type. *)

type addr = int

type 'm t

(** [create eng topo reg ~kind_of ~size_of] builds a transport that
    keeps all of its counts in the registry [reg]: per-message-kind
    send/receive counters and byte counts ([net_sent_total],
    [net_sent_bytes], [net_received_total]), per-DC link traffic
    ([net_link_sent_total], [net_link_sent_bytes]), reliable-layer
    counters ([net_retransmits_total], [net_fast_retransmits_total],
    [net_dup_acks_total], [net_dups_suppressed_total],
    [net_acks_total]), drops by cause ([net_dropped_total]) and per-link
    flow-buffer depth gauges ([net_flow_backlog], with tracked maxima).
    [kind_of] names a message; [size_of] estimates its wire size in
    bytes. *)
val create :
  Sim.Engine.t ->
  Topology.t ->
  Sim.Metrics.t ->
  kind_of:('m -> string) ->
  size_of:('m -> int) ->
  'm t

val topology : 'm t -> Topology.t

(** [register t ~dc ~cost handler] adds a node in data center [dc].
    [cost msg] is the CPU microseconds charged to the node per message;
    [handler] runs after the service time has been paid, unless the DC has
    failed by then.

    [~client:true] marks the node as an external client session that is
    merely {e colocated} with [dc] for latency purposes: it is not part
    of the DC's failure domain, so it keeps sending and receiving while
    the DC is crashed (messages between it and the dead DC's own nodes
    still drop), and its channels survive the DC's recovery.

    [~name] is the node's profiling identity: handler-execution events
    are attributed to ["<name>/handle:<kind>"] (kind from the meter's
    [kind_of]). Defaults to
    ["node<addr>"]. Every delivery, on reliable and lossy links alike,
    runs as one such event when the CPU is idle on arrival.

    [cost] must be pure: it is evaluated more than once per message.
    Handlers run in arrival order; a zero-cost message that queues
    behind another finishes 1 µs after it. *)
val register :
  'm t ->
  ?client:bool ->
  ?name:string ->
  dc:int ->
  cost:('m -> int) ->
  ('m -> unit) ->
  addr

val dc_of : 'm t -> addr -> int
val dc_failed : 'm t -> int -> bool

(** Crash a whole data center: from now on its nodes neither send nor
    receive, and in-flight messages to it are dropped. *)
val fail_dc : 'm t -> int -> unit

(** Simulated time at which the DC crashed; [None] if it is live. *)
val dc_failed_at : 'm t -> int -> int option

(** Revive a crashed data center with empty in-flight state: every
    channel touching the DC is discarded, in both directions (no FIFO
    floor, fresh sequence spaces), and anything still in flight from
    before the crash is dropped on arrival. Messages the DC missed while
    down are {e not} replayed — recovering the content is the protocol
    layer's job (snapshot + log catch-up). No-op if the DC is live. *)
val recover_dc : 'm t -> int -> unit

(** {1 Node-level failures}

    The machine-granularity failure domain: one node dies while its DC
    stays up. Distinct from {!fail_dc} so a single replica process can
    crash and restart (with its simulated disk intact — see
    [Store.Wal]) while its siblings keep serving. *)

(** Crash a single node: it neither sends nor receives until
    {!recover_node}. Client nodes cannot node-crash
    ([Invalid_argument]). Idempotent. *)
val fail_node : 'm t -> addr -> unit

(** Restart a crashed node with a fresh epoch: in-flight pre-crash
    traffic to or from it is dropped on arrival, every channel touching
    it is reset on both sides (fresh sequence spaces), and its CPU comes
    back idle. No-op if the node is up. *)
val recover_node : 'm t -> addr -> unit

val node_down : 'm t -> addr -> bool

(** Send a message. Per-(src,dst) delivery order is FIFO; latency is the
    topology's one-way delay plus jitter; processing at the destination is
    serialized on its CPU. Silently dropped if either end's DC failed.
    With faults installed, inter-DC messages ride the retransmission
    layer: they may arrive late (after retries) but arrive exactly once,
    in order, unless a DC crashes or a partition never heals. *)
val send : 'm t -> src:addr -> dst:addr -> 'm -> unit

(** Local delivery to self: no network hop, service cost still charged. *)
val send_self : 'm t -> node:addr -> 'm -> unit

(** {1 Fault injection} *)

(** Install a fresh all-clean fault model (or return the existing one):
    from now on inter-DC links go through the lossy transport. *)
val enable_faults : 'm t -> Faults.t

val set_faults : 'm t -> Faults.t -> unit
val faults : 'm t -> Faults.t option

(** Report drops (with their cause) to a trace. *)
val set_trace : 'm t -> Sim.Trace.t -> unit

(** Ceiling of the reliable layer's exponential retransmission backoff.
    Defaults to 500 ms; deployments derive it from the failure-detector
    configuration plus the worst-case link RTT so a healed link catches
    up on its backlog before Ω can falsely re-suspect the peer (see
    [Unistore.Config.rto_cap_us]). *)
val set_rto_cap : 'm t -> int -> unit

val rto_cap : 'm t -> int

(** {1 Metrics} *)

(** Replace the meter given to {!create}: from now on the counts go to
    [reg], with messages named by [kind_of], and the statistics below
    read them there. *)
val set_meter :
  'm t -> Sim.Metrics.t -> kind_of:('m -> string) -> size_of:('m -> int) -> unit

(** {1 Statistics}

    Read from the meter's counters. *)

(** Total drops, all causes (= crash + loss + partition). *)
val messages_dropped : 'm t -> int

val dropped_crash : 'm t -> int
val dropped_loss : 'm t -> int
val dropped_partition : 'm t -> int

(** Physical re-sends performed by the reliable layer. *)
val retransmissions : 'm t -> int

(** Receiver-side duplicates discarded (retransmit races and [dup_p]). *)
val duplicates_suppressed : 'm t -> int

(** Messages sent on lossy channels not yet acknowledged; 0 when the
    network is quiescent. *)
val unacked_backlog : 'm t -> int

(** Unacknowledged messages whose meter kind satisfies [f] — lets a
    drain loop wait for data-plane traffic to clear while ignoring
    periodic background kinds (failure-detector pings, stability
    gossip) that are always momentarily in flight. *)
val unacked_matching : 'm t -> f:(string -> bool) -> int

(** Serve every inbox arrival strictly before now, booking its CPU
    slot, as a failure operation does before it changes a node's state.
    Eager settling books the same slots the lazy path would. *)
val settle_all : 'm t -> unit

(** The latest finish time of a CPU slot booked on any live node (-1 if
    none was ever booked). After {!settle_all}, a value well past now
    means a node still has queued work: messages delivered to its inbox
    and waiting for its CPU. *)
val cpu_booked_until : 'm t -> int

val node_processed : 'm t -> addr -> int
val node_busy_us : 'm t -> addr -> int
