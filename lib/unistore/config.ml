(* Deployment and protocol configuration.

   One configuration drives the whole codebase; the evaluation's systems
   (§8.1, §8.3) are modes of the same protocol, exactly as in the paper's
   single 10.3K-SLOC codebase:

   - [Unistore]       the full protocol (causal + strong, uniformity);
   - [Causal_only]    transactional causal consistency only (CAUSAL);
   - [Strong]         serializability: every transaction is strong and all
                      operations on the same key conflict (STRONG);
   - [Red_blue]       causal + strong with every strong transaction
                      certified by one centralized replicated service,
                      which aborts on data conflicts only (REDBLUE);
   - [Cure_ft]        Cure plus transaction forwarding (by pull): no
                      uniformity tracking, remote transactions visible at
                      stability (CUREFT);
   - [Uniform_only]   UniStore minus strong transactions (UNIFORM). *)

type mode =
  | Unistore
  | Causal_only
  | Strong
  | Red_blue
  | Cure_ft
  | Uniform_only

let mode_name = function
  | Unistore -> "unistore"
  | Causal_only -> "causal"
  | Strong -> "strong"
  | Red_blue -> "redblue"
  | Cure_ft -> "cureft"
  | Uniform_only -> "uniform"

(* The conflict relation ⋈ on operations (§3), lifted to transactions:
   two strong transactions conflict if they perform conflicting
   operations on the same data item. *)
type conflict_spec =
  | Serializable  (* same key, at least one side writes *)
  | Classes of (int * int) list  (* symmetric conflicting class pairs *)

let ops_conflict spec (o1 : Types.opdesc) (o2 : Types.opdesc) =
  match spec with
  | Serializable -> o1.key = o2.key && (o1.write || o2.write)
  | Classes pairs ->
      o1.key = o2.key
      && List.exists
           (fun (a, b) ->
             (a = o1.cls && b = o2.cls) || (a = o2.cls && b = o1.cls))
           pairs

(* Lift to transactions: [ops1] are the operations of the transaction
   under certification, [ops2] those of a previously prepared/decided
   one (both restricted to one partition by the caller). *)
let txs_conflict spec ops1 ops2 =
  List.exists
    (fun o1 -> List.exists (fun o2 -> ops_conflict spec o1 o2) ops2)
    ops1

(* CPU service costs, microseconds per message, charged to the node that
   processes the message. These model the m4.2xlarge cores of §8: they
   determine where each system saturates, hence the shape of every
   throughput curve. *)
type costs = {
  c_base : int;  (* any message not singled out below *)
  c_get_version : int;  (* snapshot read at a partition *)
  c_prepare : int;  (* 2PC prepare of a causal transaction *)
  c_commit : int;  (* 2PC commit record *)
  c_replicate_tx : int;  (* per transaction in a REPLICATE batch *)
  c_vec : int;  (* metadata broadcast handling *)
  c_stablevec : int;  (* stableVec in the sibling gossip: uniformVec
                         recomputation, on top of c_vec *)
  c_cert : int;  (* leader certification check (update transactions) *)
  c_cert_ro : int;  (* certifying a read-only transaction: no write
                       propagation, read-set check only *)
  c_cert_centralized : int;  (* REDBLUE: the single service certifies all *)
  c_accept : int;  (* Paxos accept processing *)
  c_deliver_tx : int;  (* applying one delivered strong transaction *)
  c_client : int;  (* client-side processing of a reply *)
}

(* Calibrated so that relative costs match the paper's measurements: a
   strong transaction costs several times a causal one (Â§8.2 reports a
   ~26% throughput drop at 10% strong transactions), uniformity tracking
   costs a few percent of a replica's CPU (Â§8.3: ~8%), and the REDBLUE
   centralized service saturates well before UniStore's distributed one
   (Â§8.1: 72% throughput difference at saturation). *)
let default_costs =
  {
    c_base = 10;
    c_get_version = 25;
    c_prepare = 20;
    c_commit = 15;
    c_replicate_tx = 12;
    c_vec = 6;
    c_stablevec = 100;
    c_cert = 150;
    c_cert_ro = 50;
    c_cert_centralized = 100;
    c_accept = 30;
    c_deliver_tx = 12;
    c_client = 5;
  }

type t = {
  topo : Net.Topology.t;
  partitions : int;  (* logical partitions, replicated at every DC *)
  f : int;  (* tolerated data-center failures *)
  mode : mode;
  conflict : conflict_spec;
  (* BROADCAST_VECS period (5 ms in §8): the in-DC stableVec tree step.
     A sibling's stableVec rides its next stream message after the step
     advances it, so sibling exchange runs at this period, capped below
     by [propagate_period_us]. *)
  broadcast_period_us : int;
  clock_skew_us : int;  (* max absolute per-replica clock skew *)
  link_faults : Net.Faults.spec option;  (* lossy inter-DC links (nemesis) *)
  client_failover_us : int;  (* client request timeout before DC failover;
                                0 disables failover (calls block forever) *)
  admission_max_pending : int;  (* per-DC bound on in-flight strong
                                   certifications before coordinators shed
                                   new COMMIT_STRONG requests (R_overloaded);
                                   0 disables admission control *)
  persistence : bool;  (* per-node WAL + snapshot disks: replicas fsync
                          before acking and survive node-level crashes;
                          off = the memory-only model *)
  snapshot_interval_us : int;  (* period of the snapshot+truncate
                                  compaction bounding WAL replay *)
  costs : costs;
  seed : int;
  use_hlc : bool;  (* hybrid logical clocks instead of physical waits (§9) *)
  trace_enabled : bool;  (* record a structured event trace (Sim.Trace) *)
  record_history : bool;  (* keep full transaction records (checker) *)
  measure_visibility : bool;  (* record remote-visibility delays (Fig 6) *)
  profile : bool;  (* enable the engine's self-profiler (Sim.Prof) *)
  profile_sample_every : int;  (* wall-clock sampling stride (1 = all) *)
}

let default ?(topo = Net.Topology.three_dcs ()) ?(partitions = 8) ?(f = 1)
    ?(mode = Unistore) ?(conflict = Serializable)
    ?(broadcast_period_us = 5_000) ?(clock_skew_us = 1_000) ?link_faults
    ?(client_failover_us = 0) ?(admission_max_pending = 0)
    ?(persistence = false) ?(snapshot_interval_us = 2_000_000)
    ?(costs = default_costs)
    ?(seed = 42)
    ?(use_hlc = false) ?(trace_enabled = false)
    ?(record_history = false) ?(measure_visibility = false)
    ?(profile = false) ?(profile_sample_every = 64) () =
  let dcs = Net.Topology.dcs topo in
  if f < 0 || f >= dcs then invalid_arg "Config.default: bad f";
  (* Certification quorums are f+1 members. Two quorums intersect only
     when dcs <= 2f+1; without intersection, a false suspicion can
     install a second leader whose quorum is disjoint from the old one,
     and the two decide independently (split brain). Crash-only runs
     never contest a live leader's ballot, so the tighter bound is
     required only when links can lie. *)
  if link_faults <> None && dcs > (2 * f) + 1 then
    invalid_arg
      "Config.default: with link faults, need dcs <= 2f+1 so that \
       certification quorums intersect under false suspicion";
  if partitions <= 0 then invalid_arg "Config.default: bad partitions";
  if client_failover_us < 0 then
    invalid_arg "Config.default: bad client_failover_us";
  if admission_max_pending < 0 then
    invalid_arg "Config.default: bad admission_max_pending";
  if snapshot_interval_us <= 0 then
    invalid_arg "Config.default: bad snapshot_interval_us";
  if profile_sample_every <= 0 then
    invalid_arg "Config.default: bad profile_sample_every";
  {
    topo;
    partitions;
    f;
    mode;
    conflict;
    broadcast_period_us;
    clock_skew_us;
    link_faults;
    client_failover_us;
    admission_max_pending;
    persistence;
    snapshot_interval_us;
    costs;
    seed;
    use_hlc;
    trace_enabled;
    record_history;
    measure_visibility;
    profile;
    profile_sample_every;
  }

(* Initial Paxos leader DC (Virginia in §8). *)
let leader_dc = 0

(* How long a crashed DC holds the GC floors, so it can rejoin by log
   catch-up. *)
let gc_grace_us = 10_000_000

(* Period of PROPAGATE_LOCAL_TXS (5 ms in §8). *)
let propagate_period_us = 5_000

(* Ω heartbeat broadcast / check period. *)
let fd_period_us = 100_000

(* Ω suspicion timeout: a DC silent for this long is suspected. *)
let detection_delay_us = 500_000

(* Period of the leader's dummy strong transaction, which keeps the
   strong vector advancing when no client commits a strong transaction. *)
let strong_heartbeat_us = 10_000

(* Period of the metrics probes: uniformity lag and pending-certification
   queue depth. *)
let metrics_probe_us = 10_000

let dcs t = Net.Topology.dcs t.topo
let quorum t = t.f + 1

(* Ceiling of the reliable transport's retransmission backoff, derived
   from the deployment: the Ω suspicion timeout ([detection_delay_us])
   plus the worst-case link RTT. A healed link's backlog then starts
   flowing again within one suspicion window however far the backoff
   had climbed. *)
let rto_cap_us t = detection_delay_us + Net.Topology.max_rtt_us t.topo

(* Debounce of the leadership-reclaim bids a rejoined leader-home group
   member issues while trust has converged back to it ([Cert.reclaim]):
   one Ω reaction period for the trust signal to settle plus a
   worst-case RTT for an in-flight election round to finish. Derived so
   the worst-case strong-commit stall after a leader-home rejoin scales
   with the deployment rather than a fixed 1 s. *)
let reclaim_debounce_us t = fd_period_us + Net.Topology.max_rtt_us t.topo

(* Base of the randomized backoff a client sleeps after an R_overloaded
   shed before resubmitting. The shed means the DC's
   pending-certification queue is at its admission bound; the queue
   drains at broadcast granularity (decisions and DELIVER advance with
   the metadata exchange), so wait two broadcast periods for meaningful
   drain before retrying. The client adds uniform jitter of the same
   magnitude to desynchronize retry storms, giving the 10-20 ms window
   of PR 5 at the default 5 ms broadcast period. *)
let overload_backoff_us t = 2 * t.broadcast_period_us

(* Does this mode track uniformity (send stableVec in the sibling gossip
   and expose remote transactions only when uniform)? *)
let tracks_uniformity t =
  match t.mode with
  | Unistore | Causal_only | Strong | Red_blue | Uniform_only -> true
  | Cure_ft -> false

(* Does this mode run the strong-transaction machinery at all? *)
let has_strong t =
  match t.mode with
  | Unistore | Strong | Red_blue -> true
  | Causal_only | Cure_ft | Uniform_only -> false

(* Centralized certification (REDBLUE): one logical service for all
   partitions instead of per-partition groups. *)
let centralized_cert t = t.mode = Red_blue

(* Under STRONG every transaction is strong; under pure-causal modes none
   is. [requested] is what the workload asked for. *)
let effective_strong t ~requested =
  match t.mode with
  | Strong -> true
  | Causal_only | Cure_ft | Uniform_only -> false
  | Unistore | Red_blue -> requested
