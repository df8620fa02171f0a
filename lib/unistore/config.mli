(** Deployment and protocol configuration.

    One configuration drives the whole code base; the systems evaluated
    in the paper (§8) are modes of the same protocol. *)

(** The evaluated systems: [Unistore] (full protocol), [Causal_only]
    (CAUSAL), [Strong] (serializability: all transactions strong, reads
    conflict with writes), [Red_blue] (every strong transaction
    certified by one centralized service, which aborts on data
    conflicts only), [Cure_ft] (Cure plus
    transaction forwarding by pull, no uniformity tracking), [Uniform_only]
    (UniStore minus strong transactions). *)
type mode =
  | Unistore
  | Causal_only
  | Strong
  | Red_blue
  | Cure_ft
  | Uniform_only

val mode_name : mode -> string

(** The conflict relation ⋈ on operations (§3), lifted to transactions:
    two strong transactions conflict iff they perform conflicting
    operations on the same data item. *)
type conflict_spec =
  | Serializable  (** same key, at least one side writes *)
  | Classes of (int * int) list
      (** symmetric pairs of conflicting operation classes *)

(** Conflict between two operation descriptors. *)
val ops_conflict : conflict_spec -> Types.opdesc -> Types.opdesc -> bool

(** Conflict between two transactions' operation lists. *)
val txs_conflict :
  conflict_spec -> Types.opdesc list -> Types.opdesc list -> bool

(** CPU service costs (microseconds per message) charged to the node
    processing each message; they determine where each system saturates
    and hence the shape of every throughput curve. *)
type costs = {
  c_base : int;
  c_get_version : int;
  c_prepare : int;
  c_commit : int;
  c_replicate_tx : int;
  c_vec : int;
  c_stablevec : int;
  c_cert : int;
  c_cert_ro : int;
  c_cert_centralized : int;
  c_accept : int;
  c_deliver_tx : int;
  c_client : int;
}

(** Calibrated against the paper's measured ratios; see DESIGN.md. *)
val default_costs : costs

type t = {
  topo : Net.Topology.t;
  partitions : int;  (** logical partitions, replicated at every DC *)
  f : int;  (** tolerated data-center failures *)
  mode : mode;
  conflict : conflict_spec;
  broadcast_period_us : int;
      (** BROADCAST_VECS period (5 ms in §8): the in-DC stableVec tree
          step. A sibling's stableVec rides its next stream message after
          the step advances it, so sibling exchange runs at this period,
          capped below by {!propagate_period_us}. *)
  clock_skew_us : int;  (** max absolute per-replica clock skew *)
  link_faults : Net.Faults.spec option;
      (** install lossy inter-DC links with these rates (nemesis runs);
          [None] keeps the network perfectly reliable *)
  client_failover_us : int;
      (** client-side request timeout before the session fails over to
          another live DC; [0] disables failover (calls block forever on
          a crashed DC, the pre-recovery behaviour) *)
  admission_max_pending : int;
      (** admission control: when a DC's in-flight strong certifications
          (the [pending_certifications] gauge) reach this bound, its
          coordinators shed new COMMIT_STRONG requests with a retryable
          {!Msg.t.R_overloaded} reply instead of queueing them; [0]
          disables shedding (the pre-overload-harness behaviour) *)
  persistence : bool;
      (** give every replica node a simulated disk (WAL + snapshots,
          {!Store.Wal}): acks wait for fsync, nodes survive node-level
          crash/restart by local replay; [false] keeps the memory-only
          model where any crash is total state loss *)
  snapshot_interval_us : int;
      (** period of each node's snapshot+truncate compaction; bounds WAL
          replay after a restart by the snapshot interval's worth of
          traffic instead of the run length *)
  costs : costs;
  seed : int;
  use_hlc : bool;
      (** use hybrid logical clocks: replicas merge received timestamps
          into their clock instead of physically waiting for it to catch
          up, removing the protocol's sensitivity to clock skew (the
          integration §9 suggests) *)
  trace_enabled : bool;
      (** record a structured event trace ({!Sim.Trace}) of commits,
          replication, deliveries and leadership changes *)
  record_history : bool;  (** keep full transaction records (checker) *)
  measure_visibility : bool;  (** record remote-visibility delays (Fig 6) *)
  profile : bool;
      (** enable the engine's self-profiler ({!Sim.Prof}): per-label
          event counts, allocation deltas and sampled wall time for
          every event the run executes *)
  profile_sample_every : int;
      (** wall-clock sampling stride of the profiler: every Nth event is
          timed with the monotonic clock (1 = every event; counts and
          allocation words are always exact) *)
}

(** Build a configuration; every argument has a sensible default matching
    the paper's setup (3 DCs, f = 1, 5 ms metadata periods, ±1 ms clock
    skew). *)
val default :
  ?topo:Net.Topology.t ->
  ?partitions:int ->
  ?f:int ->
  ?mode:mode ->
  ?conflict:conflict_spec ->
  ?broadcast_period_us:int ->
  ?clock_skew_us:int ->
  ?link_faults:Net.Faults.spec ->
  ?client_failover_us:int ->
  ?admission_max_pending:int ->
  ?persistence:bool ->
  ?snapshot_interval_us:int ->
  ?costs:costs ->
  ?seed:int ->
  ?use_hlc:bool ->
  ?trace_enabled:bool ->
  ?record_history:bool ->
  ?measure_visibility:bool ->
  ?profile:bool ->
  ?profile_sample_every:int ->
  unit ->
  t

(** Initial Paxos leader DC of every certification group: dc0 (Virginia
    in §8). *)
val leader_dc : int

(** How long a crashed DC keeps holding the causal-log and decided-log
    GC floors, so it can rejoin by log catch-up: 10 s. After expiry the
    floors advance and a rejoiner needs a full snapshot. *)
val gc_grace_us : int

(** PROPAGATE_LOCAL_TXS period: 5 ms, as in §8. *)
val propagate_period_us : int

(** Ω heartbeat broadcast / check period: 100 ms. *)
val fd_period_us : int

(** Ω suspicion timeout: a DC silent for this long is suspected; 500 ms. *)
val detection_delay_us : int

(** Period of the leader's dummy strong transaction: 10 ms. *)
val strong_heartbeat_us : int

(** Period of the metrics probes (uniformity lag, pending-certification
    queue depth): 10 ms. *)
val metrics_probe_us : int

val dcs : t -> int

(** [f + 1]: both the uniformity threshold and the Paxos quorum. *)
val quorum : t -> int

(** Derived ceiling of the reliable transport's retransmission backoff:
    the Ω suspicion timeout ({!detection_delay_us}) plus the topology's
    worst-case RTT. Installed into the network by {!System.create}. *)
val rto_cap_us : t -> int

(** Derived debounce of {!Cert.reclaim} leadership bids: one Ω reaction
    period ({!fd_period_us}) plus the topology's worst-case RTT — long
    enough for an in-flight election round to settle, and much tighter
    than the former fixed 1 s on typical deployments. *)
val reclaim_debounce_us : t -> int

(** Derived base of the randomized client backoff after an
    [R_overloaded] shed: two broadcast periods, enough for the
    pending-certification queue to drain measurably before the retry
    (the client adds equal-magnitude uniform jitter, giving the 10–20 ms
    window at the default 5 ms period). *)
val overload_backoff_us : t -> int

(** Whether the mode sends stableVec in the sibling gossip and exposes
    remote transactions only when uniform (all modes except [Cure_ft]). *)
val tracks_uniformity : t -> bool

(** Whether the strong-transaction machinery runs at all. *)
val has_strong : t -> bool

(** REDBLUE's single logical certification service. *)
val centralized_cert : t -> bool

(** What a transaction requested as [strong] resolves to under this mode
    ([Strong] forces true; pure-causal modes force false). *)
val effective_strong : t -> requested:bool -> bool
