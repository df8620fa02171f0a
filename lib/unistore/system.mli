(** Deployment assembly: build the data store described by a
    {!Config.t} on the simulated network — partition replicas at every
    data center, certification groups, the REDBLUE centralized service
    when configured, periodic protocol tasks, clients, and failure
    injection with the Ω failure detector. *)

type t

(** Build a deployment. Nothing runs until {!run}. *)
val create : Config.t -> t

val cfg : t -> Config.t
val engine : t -> Sim.Engine.t
val network : t -> Msg.t Net.Network.t
val history : t -> History.t

(** The deployment's event trace (a disabled no-op trace unless
    [Config.trace_enabled] is set). *)
val trace : t -> Sim.Trace.t

(** The deployment's metrics registry: network traffic by kind and
    link, retransmission-layer counters, strong-transaction phase
    histograms ([strong_phase_us] with phases [execute],
    [uniform_wait], [certify]), transaction latency/outcome metrics,
    the uniformity-lag and pending-certification probes, and the Ω
    detector's transition counters. *)
val metrics : t -> Sim.Metrics.t

(** Current simulated time (microseconds). *)
val now : t -> int

val replica : t -> dc:int -> part:int -> Replica.t
val clients : t -> Client.t list

(** Number of client sessions with a call still outstanding. {!drain}
    counts only the sessions homed at a live DC. *)
val clients_in_flight : t -> int

(** Install an initial version of a key at every data center, below
    every possible snapshot (the paper's initial transaction t0). Must
    be called before {!run}, once per key. *)
val preload : t -> Store.Keyspace.key -> Crdt.op -> unit

(** Create a client session attached to [dc] (no fiber). *)
val new_client : t -> dc:int -> Client.t

(** Create a client and run [body] in a fiber; the body may block on
    the store's replies. *)
val spawn_client : t -> dc:int -> (Client.t -> unit) -> Client.t

(** Crash a whole data center (§2): its nodes stop sending and
    receiving. The heartbeat-based Ω detector notices the silence
    (within [detection_delay_us] plus a ping period) and notifies each
    surviving DC, which re-elects Paxos leaders and pulls the failed
    DC's transactions from the siblings that hold them. *)
val fail_dc : t -> int -> unit

(** Recover a crashed data center (the tentpole of the recovery PR):
    revive its network nodes with empty in-flight state, restart its Ω
    detector node, zero its rows of the peers' gossip matrices (pinning
    the causal-buffer and decided-log GC floors until fresh vectors
    arrive), and drive every partition replica through the rejoin
    protocol — snapshot from a live sibling, gap repair of every stream
    above its cut and certification-state catch-up — until it serves clients again.
    Idempotent: recovering a DC that has not failed — never crashed, or
    already recovered by an overlapping schedule — is a warned no-op.
    Raises [Invalid_argument] under the REDBLUE centralized service
    (whose recovery is an open ROADMAP item). *)
val recover_dc : t -> int -> unit

(** Whether any replica of [dc] is still catching up after
    {!recover_dc}. Client failover skips syncing DCs. *)
val dc_syncing : t -> int -> bool

(** {2 Node-level failures (persistence mode)}

    The machine-granularity failure domain: one replica process dies
    while its DC stays up. Its simulated disk survives, so the restart
    recovers snapshot + WAL locally and pulls only the suffix missed
    while down — zero WAN snapshot bytes — falling back to the whole-DC
    WAN rejoin only when the disk is unrecoverable. *)

(** Crash one replica process: it stops sending/receiving, its timers
    retire, un-fsynced WAL appends are lost (the in-flight head may
    tear). Raises [Invalid_argument] under the REDBLUE centralized
    service: partition 0's disk holds the DC's service member, whose
    node stays up. *)
val fail_node : t -> dc:int -> part:int -> unit

(** Restart a crashed node from its own disk (warned no-op if the node
    is not down). *)
val restart_node : t -> dc:int -> part:int -> unit

val node_down : t -> dc:int -> part:int -> bool

(** Gray-disk fault: multiply the node's fsync latency (and divide its
    write bandwidth) by [factor]; restore with [factor:1]. *)
val set_disk_slow : t -> dc:int -> part:int -> factor:int -> unit

(** The deployment's Ω failure detector. *)
val detector : t -> Detector.t

(** The network fault model, when [Config.link_faults] installed one
    (partitions and degradations are injected through it). *)
val faults : t -> Net.Faults.t option

(** Strong transactions awaiting a certification decision at live-DC
    coordinators (dummy heartbeats excluded); 0 after quiescence means
    no strong transaction is stuck. *)
val pending_strong : t -> int

(** Execute the simulation up to the given simulated time. *)
val run : t -> until:int -> unit

(** Run 500 ms slices, at most 16, until quiet — no strong
    certification pending, no call in flight from a session homed at a
    live DC, no live DC syncing, no unacknowledged data-plane message —
    then one 200 ms grace slice. Returns whether quiet was reached. *)
val drain : t -> bool

(** Restrict measurement (throughput window, latency samples) to
    [start, stop) of simulated time. *)
val set_window : t -> start:int -> stop:int -> unit

(** After quiescence: check that every correct data center stores the
    same keys with the same values (Eventual Visibility + CRDT
    convergence). Returns human-readable divergence descriptions, empty
    when converged. *)
val check_convergence : t -> string list
