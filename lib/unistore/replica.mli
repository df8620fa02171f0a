(** Partition replica p_d^m: transaction coordination and the causal
    commit path (Algorithms A1–A3), replication, heartbeats and gap
    repair, which also forwards a suspected DC's stream by pull (A4),
    the stableVec/uniformVec metadata protocol (A5), uniform barriers
    and attach (§5.6), and the coordinator side of strong
    certification (A6–A7). Group-member certification lives in {!Cert}.
    Each algorithm lives in a private module of this library; this
    interface is the replica's only entry point.

    Replicas are built and wired by {!System}; tests and benches reach
    the accessors. *)

type t

(** Late-bound addresses provided by [System]. *)
type env = {
  e_lookup : int -> int -> Msg.addr;
      (** dc, partition -> replica; partition [Config.partitions] (the
          REDBLUE pseudo-group) -> the DC's service node *)
  e_dc_pending : int -> int;
      (** dc -> in-flight strong certifications DC-wide; drives admission
          control ([Config.admission_max_pending]) *)
}

val create :
  Config.t ->
  Sim.Engine.t ->
  Msg.t Net.Network.t ->
  dc:int ->
  part:int ->
  uid:int ->
  skew:int ->
  tick_origin:int ->
  history:History.t ->
  trace:Sim.Trace.t ->
  metrics:Sim.Metrics.t ->
  t

val dc_of : t -> int
val set_addr : t -> Msg.addr -> unit
val set_env : t -> env -> unit

(** Instantiate this replica's per-partition certification group
    membership (not used under REDBLUE). *)
val make_cert : t -> unit

(** Hold [c] as this replica's certification member: under REDBLUE,
    partition 0 of each DC holds the DC's service member, which runs on
    its own node but is driven (heartbeats, housekeeping, Ω, RETRY) as
    any group member is. *)
val host_cert : t -> Cert.t -> unit

val cert : t -> Cert.t option

(** Start the periodic protocol tasks: PROPAGATE_LOCAL_TXS,
    BROADCAST_VECS (leaves of the in-DC tree only), and, on a replica
    holding a certification member, strong heartbeats and certification
    housekeeping, phased from the DC's [tick_origin] (the
    offset of its schedule within the period, shared by every replica
    of the DC). *)
val start_timers : t -> unit

(** Process one protocol message (registered as the network handler). *)
val handle : t -> Msg.t -> unit

(** Ω notification: [failed_dc] is believed to have crashed — re-point
    leaders led by it and pull its stream from siblings (§5.5). *)
val suspect : t -> int -> unit

(** Ω rehabilitation: heartbeats from [dc] resumed (partition heal or
    false suspicion); stop pulling its stream and recompute trust, which
    can hand leadership back to the preferred DC. *)
val unsuspect : t -> int -> unit

(** Coordinator-side certification (Algorithm A7): submit to every
    involved group leader, collect quorums of ACCEPT_ACKs, broadcast the
    decision, pass the result to [k]. *)
val certify :
  t ->
  caller:Msg.cert_caller ->
  Msg.strong_tx ->
  lc:int ->
  k:(Cert.cert_result -> unit) ->
  unit

(** {2 DC crash recovery} *)

(** Re-enter the system after this replica's DC recovered from a crash:
    wipe the state the crash destroyed and install a snapshot of the
    materialized store from a live sibling of the partition. From the
    snapshot's cut on, the replication stream is applied as usual and
    gap repair fills every origin's window above the frontier. The
    replica is caught up once its certification member re-entered the
    group ([State_request]/[New_state]) and it holds again every
    transaction of its own stream that a live, unsuspected sibling
    reports holding. Client requests are refused throughout; the
    periodic tasks restart and [on_done] runs once caught up. *)
val begin_rejoin : t -> on_done:(unit -> unit) -> unit

(** Whether this replica is still catching up after a rejoin or a node
    restart. *)
val is_syncing : t -> bool

(** A peer DC rejoined with empty state: zero its rows of the gossip
    matrices so the GC floors (stream logs, decided logs) hold until
    its fresh vectors arrive. *)
val reset_peer_view : t -> dc:int -> unit

(** {2 Replication-continuity inspection (tests and debugging)} *)

(** Whether an origin-scoped repair pull for [origin]'s stream is in
    flight. *)
val repair_active : t -> origin:int -> bool

(** {2 Stream logs and snapshots (tests)} *)

(** What this replica keeps of [origin]'s stream to serve repair
    pulls; its own slot holds what it shipped. *)
val stream_log : t -> origin:int -> Stream_log.t

(** This replica's commits not yet shipped. *)
val unshipped : t -> Stream_log.t

(** Bytes the replica's snapshot would write now, as the disk charges
    them. *)
val snapshot_bytes : t -> int

(** {2 Node-level persistence ([Config.persistence])}

    Each replica process owns a simulated disk ({!Store.Wal}): a
    checksummed write-ahead log plus periodic snapshots. Externally
    visible promises (PREPARE_ACK, the 2PC commit decision, the
    certification acks) gate on their record's fsync; applied state is
    logged asynchronously and a crash loses only what a peer still
    holds. See DESIGN.md §4g. *)

(** Attach the simulated disk (call after {!make_cert} or {!host_cert};
    [System] does this when [Config.persistence] is set). *)
val enable_persistence : t -> unit

(** Node-level process crash: retire the timers, abandon any running
    catch-up, power-cut the disk (un-fsynced appends lost, the in-flight
    head may tear). Pair with [Net.Network.fail_node]. *)
val crash_node : t -> unit

(** Restart after {!crash_node}: recover snapshot + WAL tail from the
    node's own disk (truncating a torn suffix), restore certification's
    durable promises, then catch up what was missed while down as
    {!begin_rejoin} does past its snapshot — no WAN snapshot transfer.
    Falls back to the WAN rejoin if the disk is empty. [on_done] runs
    once caught up. *)
val restart_from_disk : t -> on_done:(unit -> unit) -> unit

(** Destroy the disk (whole-DC failure domain: the machine is lost). *)
val scrub_disk : t -> unit

(** Gray-disk fault: multiply fsync latency / divide bandwidth by
    [factor]; restore with [factor:1]. *)
val set_disk_slow : t -> factor:int -> unit

(** Arm a deterministic torn tail for the next crash (tests/benches). *)
val tear_disk_next : t -> unit

(** {2 State accessors (tests, benches, convergence checks)} *)

val oplog : t -> Store.Oplog.t

(** Strong certifications this replica coordinates that are still
    awaiting a decision (dummy heartbeats excluded). *)
val pending_strong : t -> int

val known_vec : t -> Vclock.Vc.t
val stable_vec : t -> Vclock.Vc.t
val uniform_vec : t -> Vclock.Vc.t
