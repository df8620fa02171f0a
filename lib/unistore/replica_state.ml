(* Shared state of a partition replica p_d^m, and the helpers every
   algorithm module of the replica uses: clocks, sends, durable appends
   and the "wait until" queues. The algorithms themselves are plain
   functions over [t] in [Causal_txn], [Replication], [Stabilisation],
   [Strong_coord] and [Recovery]; [Replica] assembles them. *)

module Vc = Vclock.Vc
module Network = Net.Network
module Engine = Sim.Engine

(* Causal transaction prepared at this replica (preparedCausal). *)
type prepared_causal = {
  pc_tid : Types.tid;
  pc_writes : Types.write list;
  pc_ts : int;
  pc_from : Msg.addr;  (* coordinator, queried if the 2PC is orphaned *)
  pc_at : int;  (* when prepared; drives the orphan-query timer *)
}

(* State of a transaction this replica coordinates. *)
type coord_tx = {
  ct_tid : Types.tid;
  ct_client : Msg.addr;
  ct_client_id : int;
  ct_snap : Vc.t;
  ct_wbuff : (int, Types.write list ref) Hashtbl.t;  (* partition -> writes *)
  mutable ct_ops : Types.opdesc list;  (* read set incl. written keys *)
  mutable ct_read : (int * Store.Keyspace.key) option;  (* outstanding read: req, key *)
  mutable ct_pending : int;  (* outstanding PREPARE_ACKs *)
  mutable ct_acked : int list;  (* partitions whose ack arrived (dedup) *)
  mutable ct_max_ts : int;
  mutable ct_commit_req : int;
  mutable ct_lc : int;
  mutable ct_started : int;  (* when the 2PC began (PREPARE retry timer) *)
  mutable ct_deciding : bool;  (* decision logged, COMMITs not yet sent *)
}

(* ------------------------------------------------------------------ *)
(* Node-level persistence (Config.persistence): what the replica's
   write-ahead log records, and what its periodic snapshots capture.

   Externally visible promises gate on the fsync of their record
   (memory state runs ahead of the disk; a crash rebuilds it by
   replay): a PREPARE_ACK on [W_prepare], the coordinator's COMMITs and
   client reply on [W_decide], certification acks on [W_cert] (the Raft
   persistent-state contract — see [Cert.event]). Applied state is
   logged asynchronously ([W_commit]/[W_replicate]/[W_strong]): losing
   the un-fsynced suffix of those only loses state some peer still
   holds, which the post-restart gap repair re-fetches. *)
type wal_record =
  | W_genesis
      (* first record of a from-empty log: its presence proves the WAL
         covers the node's whole history. A log without it (and without
         a snapshot) started mid-life — after a scrub or during a WAN
         rejoin whose re-seeding snapshot never installed — and cannot
         rebuild the state alone; restart falls back to the WAN rejoin. *)
  | W_prepare of prepared_causal
  | W_commit of Types.tx_rec  (* own-origin causal commit applied *)
  | W_replicate of int * Types.tx_rec list * int
      (* origin, applied remote txs, stream-continuity [from_ts] of the
         batch (wire metadata; replay re-checks continuity with it) *)
  | W_strong of Types.tx_rec list * int  (* delivered strong batch, ts *)
  | W_decide of Types.tid * Vclock.Vc.t * int * int
      (* commit decision of a 2PC this replica coordinates: vec, lc,
         origin. Aborts are never logged (presumed abort). *)
  | W_cert of Cert.event

(* A snapshot bounds replay: everything the WAL records, materialized.
   Vectors other than knownVec are gossip-rebuilt; coordinator [txns]
   state is volatile (clients re-drive via failover, participants via
   COMMIT_QUERY against the durable decisions). *)
type node_snapshot = {
  ns_keys : Store.Keyspace.key array;
  ns_entries : Store.Oplog.entry list array;  (* per key, by reference *)
  ns_entry_count : int;
  ns_known : Vclock.Vc.t;
  ns_prepared : prepared_causal list;
  ns_unshipped : Types.tx_rec list;  (* stream logs, oldest first *)
  ns_retained : Types.tx_rec list array;
  ns_last_prep : int;
  ns_frontier_tids : Types.tid list array;
  ns_frontier_ts : int array;
  ns_decisions : (Types.tid * (Vclock.Vc.t * int * int)) list;
  ns_retained_from : int array;  (* per origin: the snapshot cut's floor *)
  ns_cert : (int * int * Msg.prepared_strong list) option;
      (* ballot, cballot, accepted log — [Cert.persistent_state] *)
}

(* Per-group progress of an outstanding certification request. *)
type cert_group = {
  mutable g_acks : int list;  (* member DCs that sent ACCEPT_ACK *)
  mutable g_unknown : int list;  (* member DCs that sent UNKNOWN_TX_ACK *)
  mutable g_ballot : int;
  mutable g_vote : bool;
  mutable g_ts : int;
  mutable g_lc : int;
  mutable g_done : bool;
}

type pending_cert = {
  p_rid : int;
  p_caller : Msg.cert_caller;
  p_tx : Msg.strong_tx;
  p_lc : int;
  p_groups : (int * cert_group) list;
  p_k : Cert.cert_result -> unit;
  p_submitted : int;  (* when CERTIFY registered it (queue-delay metric) *)
  mutable p_due : int;  (* next PREPARE_STRONG re-send: p_submitted + k × period *)
  mutable p_done : bool;
}

(* A "wait until" on one vector entry: [w_k] runs once the entry
   reaches [w_at]. [w_seq] breaks ties in registration order. *)
type wait = { w_at : int; w_seq : int; w_k : unit -> unit }

let wait_before a b = a.w_at < b.w_at || (a.w_at = b.w_at && a.w_seq < b.w_seq)

(* Maximum transactions per repair-reply message: bounds message size
   during catch-up. *)
let catchup_chunk = 256

(* Per-origin repair pull (gap repair of the causal replication stream).
   A detected continuity break records the claimed frontier in [r_upto]
   and drives rounds of [Repair_request]s — origin first, then rotating
   over live siblings — each armed with a deadline
   ([Replication.repair_round_us]). [r_sq] tags the
   current round so replies from an abandoned target are discarded;
   [r_stalled] counts consecutive fruitless rounds, after which the
   repair parks ([r_active = false], [r_upto] retained) until the next
   gap detection re-arms it — an origin that crashed for good cannot be
   repaired past what its survivors hold, and parking keeps the system
   quiescent instead of polling a void. *)
type repair_state = {
  mutable r_active : bool;
  mutable r_sq : int;  (* round tag echoed by [Repair_log] *)
  mutable r_upto : int;  (* highest claimed frontier seen for the origin *)
  mutable r_attempt : int;  (* rotates the source across rounds *)
  mutable r_stalled : int;  (* consecutive rounds without progress *)
  mutable r_mark : int;  (* our frontier when the current round started *)
}

(* Catch-up after a DC rejoin or a node restart. A replica of a freshly
   recovered data center first installs a snapshot of the materialized
   store from a live sibling of its partition (the cut: that sibling's
   knownVec); a restarted node starts from its own replayed disk
   instead. From there on the replication stream is dispatched as usual
   and gap repair fills every origin's window above the frontier. The
   replica stays out of service — no clients, no periodic tasks — until
   its certification member has re-entered the group and its own
   stream, which only its peers still hold, is back. *)
type sync_state = {
  s_wan : bool;  (* DC rejoin over the WAN, not a restart from disk *)
  mutable s_snapshot : bool;  (* waiting for the snapshot *)
  mutable s_asked : int;  (* DC the snapshot was last asked of; -1 before *)
  mutable s_asked_at : int;  (* when it was asked *)
  mutable s_heard : int list;  (* peers whose knownVec gossip arrived *)
  s_started : int;
  s_done : unit -> unit;  (* resumes service, then System's callback *)
}

(* Addresses the replica needs but cannot know at construction time;
   provided by [System] before the simulation starts. *)
type env = {
  (* dc, partition -> replica; the REDBLUE pseudo-group ([rb_group])
     maps to the DC's service node *)
  e_lookup : int -> int -> Msg.addr;
  (* DC-wide in-flight strong certifications (the level behind the
     pending_certifications gauge); drives admission control *)
  e_dc_pending : int -> int;
}

type t = {
  cfg : Config.t;
  eng : Engine.t;
  net : Msg.t Network.t;
  dc : int;
  part : int;
  uid : int;  (* globally unique replica number *)
  skew : int;  (* clock skew, microseconds *)
  mutable hlc : int;  (* hybrid logical clock (when Config.use_hlc) *)
  mutable addr : Msg.addr;
  mutable env : env;
  history : History.t;
  trace : Sim.Trace.t;
  trace_src : string;
  (* cached metrics handles: strong-transaction phase breakdown and
     outcomes (interned in the system-wide registry) *)
  metrics : Sim.Metrics.t;
  h_phase_uniform : Sim.Metrics.histogram;
  h_phase_certify : Sim.Metrics.histogram;
  c_strong_commit : Sim.Metrics.counter;
  c_strong_abort : Sim.Metrics.counter;
  oplog : Store.Oplog.t;
  (* --- §5.1 metadata ------------------------------------------------ *)
  known_vec : Vc.t;
  (* Durable subset of [known_vec]: advanced only when the WAL record
     carrying the corresponding entries has fsynced. The GC-driving
     cross-DC gossip sends this vector in persistence mode — peers must
     never prune log entries this node could still lose in a crash
     (memory runs ahead of disk; promises to others must not). *)
  durable_known : Vc.t;
  stable_vec : Vc.t;
  (* the last stableVec attached to our stream's sibling claim (a sent
     copy: replaced, never mutated); the next claim carries one only if
     [stable_vec] advanced past it *)
  mutable stable_sent : Vc.t;
  uniform_vec : Vc.t;
  local_agg : Vc.t array;  (* dissemination tree: child partition aggregates *)
  (* dissemination tree: bit [i] is set once child [2 * part + 1 + i]
     has reported since this node last forwarded *)
  mutable reported : int;
  (* this DC's tick origin: every leaf's tree step and every partition's
     propagate tick are phased from it ([Replica.start_timers]) *)
  tick_origin : int;
  stable_matrix : Vc.t array;  (* per DC *)
  global_matrix : Vc.t array;  (* per DC *)
  (* --- causal transactions ------------------------------------------ *)
  mutable prepared_causal : prepared_causal list;
  (* Stream logs: our commits not yet shipped, and what we keep of each
     origin's stream to serve repair pulls until the GC floors cover it
     (§5.5). Our own slot holds what we shipped: only we hold our
     history above our peers' view of it. *)
  unshipped : Stream_log.t;
  retained : Stream_log.t array;
  (* Per origin, the timestamp above which [retained] is complete: the
     snapshot cut after a WAN rejoin (the logs restart empty there).
     Kept in the node snapshot, so a later restart from disk keeps it. *)
  retained_from : int array;
  mutable last_prep_ts : int;
  (* Stream position of our own replication stream as receivers see it:
     the continuity boundary ([from_ts]) of the next outgoing batch. A
     [Replicate] batch advances a receiver to its last transaction's
     timestamp — not to our (clock-driven) frontier — and a heartbeat
     advances it to the claimed frontier, so this trails [known_vec]'s
     own entry accordingly. Always a timestamp we have shipped
     everything up to (never understated: a too-low value would let a
     receiver jump a window the batch does not cover). *)
  mutable propagated_upto : int;
  (* --- coordination -------------------------------------------------- *)
  txns : (Types.tid, coord_tx) Hashtbl.t;
  (* "wait until" queues, keyed by the threshold waited for, flushed when
     the corresponding vector entry advances; a list of (predicate,
     action) pairs, newest first, remains for the multi-entry attach *)
  wait_known_local : wait Sim.Heap.t;
  wait_known_strong : wait Sim.Heap.t;
  wait_uniform_local : wait Sim.Heap.t;
  mutable wait_seq : int;
  mutable waiters : ((unit -> bool) * (unit -> unit)) list;
  (* --- strong transactions ------------------------------------------- *)
  (* certification group member: this partition's, or under REDBLUE
     (partition 0 only) the DC's service member *)
  mutable cert : Cert.t option;
  mutable trusted : int;  (* leader DC Ω trusts, for every group *)
  pending_cert : (int, pending_cert) Hashtbl.t;
  mutable cert_armed : bool;  (* the certification-retry watchdog is pending *)
  mutable rid_ctr : int;
  mutable hb_ctr : int;
  (* --- failure handling ---------------------------------------------- *)
  mutable suspected : int list;  (* DCs believed to have failed *)
  mutable sync : sync_state option;  (* Some while rejoining after a crash *)
  mutable timer_gen : int;  (* invalidates periodic tasks across a rejoin *)
  (* Replication-frontier dedup: transactions of different partitions can
     share a local timestamp (commit vectors take maxima over
     per-partition prepare times), so the frontier timestamp alone cannot
     distinguish "already applied" from "new"; we remember the tids
     applied at the current frontier timestamp. *)
  frontier_tids : Types.tid list array;  (* per origin DC *)
  frontier_ts : int array;
  repair : repair_state array;  (* per origin: gap-repair pulls *)
  mutable repair_ctr : int;  (* replica-level monotone round tag source *)
  (* --- Fig. 6 measurement --------------------------------------------- *)
  pending_vis : (int * int) list ref array;  (* per origin: (local ts, arrival) *)
  (* --- node-level persistence ----------------------------------------- *)
  mutable disk : (wal_record, node_snapshot) Store.Wal.t option;
  (* committed decisions of 2PCs this replica coordinated, durable via
     [W_decide] and retained for presumed-abort resolution of orphaned
     prepares: tid -> (decided-at, vec, lc, origin); pruned by
     [resolve_orphans] once participants had ample time to query *)
  coord_decisions : (Types.tid, int * Vc.t * int * int) Hashtbl.t;
  mutable replaying : bool;  (* WAL replay in progress: do not re-log *)
}

let dcs t = Config.dcs t.cfg
let partitions t = t.cfg.Config.partitions

(* The REDBLUE pseudo-group sits after all real partitions. *)
let rb_group t = partitions t

(* Dead if the whole DC crashed or this one node did: either way the
   process is gone, so deferred continuations and timers must not run. *)
let alive t =
  (not (Network.dc_failed t.net t.dc))
  && (t.addr < 0 || not (Network.node_down t.net t.addr))

(* Local clock: physical (NTP-style, skewed) or hybrid — the hybrid
   clock is the physical clock merged with every timestamp the replica
   has had to respect, so "wait until clock >= ts" becomes a merge
   instead of a physical wait (Kulkarni et al. [35], suggested for
   UniStore in §9). *)
let clock t =
  let physical = Engine.now t.eng + t.skew in
  if t.cfg.Config.use_hlc then max physical t.hlc else physical

let observe_clock t ts =
  if t.cfg.Config.use_hlc && ts > t.hlc then t.hlc <- ts

let now t = Engine.now t.eng

let send t dst msg =
  if dst = t.addr then Network.send_self t.net ~node:dst msg
  else Network.send t.net ~src:t.addr ~dst msg

let sibling t dc = t.env.e_lookup dc t.part
let local_replica t part = t.env.e_lookup t.dc part

let is_syncing t = match t.sync with Some _ -> true | None -> false

let find_prepared t tid =
  List.find_opt (fun p -> Types.tid_equal p.pc_tid tid) t.prepared_causal

(* Drop [tid]'s entry from preparedCausal (committed, or presumed
   aborted). *)
let drop_prepared t tid =
  t.prepared_causal <-
    List.filter (fun p -> not (Types.tid_equal p.pc_tid tid)) t.prepared_causal

(* An origin's timestamp of a stream transaction: its [Stream_log] key. *)
let origin_ts origin tx = Vc.get tx.Types.tx_vec origin

(* Profiler label of a periodic task: per DC, not per partition —
   partitions of one DC do identical periodic work, and per-partition
   labels would explode the profile's cardinality without adding
   signal. *)
let task_label t task =
  let prof = Engine.prof t.eng in
  if Sim.Prof.is_on prof then
    Sim.Prof.label prof (Fmt.str "dc%d/replica/%s" t.dc task)
  else Sim.Prof.none

(* --- durable-append helpers (no-ops without a disk) ------------------- *)

let persistent t = t.disk <> None

(* State logging is off while the WAL replays (never re-log what is
   being replayed) and for a whole WAN rejoin: the scrubbed disk holds no
   base until [finish_sync] re-seeds it with a full snapshot, so a crash
   mid-rejoin must not leave a base-less log that looks replayable. *)
let logging t =
  (not t.replaying)
  && match t.sync with Some { s_wan = true; _ } -> false | _ -> true

(* Append [r] and run [k] once it is fsynced; inline in memory-only
   mode or while logging is off. *)
let log_durably t r k =
  match t.disk with
  | Some w when logging t -> ignore (Store.Wal.append w ~k r)
  | _ -> k ()

(* Applied-state records (replication, deliveries, local commits) need
   no ack gate, but they do carry [known_vec] advances: capture the
   vector at append time and fold it into [durable_known] at fsync, so
   the GC gossip only ever vouches for recoverable state. *)
let log_async t r =
  match t.disk with
  | Some w when logging t ->
      let at_append = Vc.copy t.known_vec in
      ignore
        (Store.Wal.append w
           ~k:(fun () -> Vc.merge_into t.durable_known at_append)
           r)
  | _ -> ()

(* The knownVec claim gossiped to siblings, who prune their catch-up
   logs below it: in persistence mode it only vouches for what a
   node-level crash cannot lose. A fresh copy — messages must carry
   value snapshots, not live references: the simulation is shared-memory
   and a receiver processes a message later, when the sender's vector
   has already advanced. *)
let gc_claim t =
  if persistent t then Vc.meet t.known_vec t.durable_known
  else Vc.copy t.known_vec

(* ------------------------------------------------------------------ *)
(* Waits. A "wait until" on one vector entry goes into a heap keyed by
   the threshold, popped when that entry advances; the multi-entry
   attach wait is a predicate re-checked whenever uniformVec changes.  *)

let push_wait t heap ~threshold k =
  t.wait_seq <- t.wait_seq + 1;
  Sim.Heap.push heap { w_at = threshold; w_seq = t.wait_seq; w_k = k }

let rec flush_wait heap ~frontier =
  if (not (Sim.Heap.is_empty heap)) && (Sim.Heap.top heap).w_at <= frontier
  then begin
    (Sim.Heap.pop heap).w_k ();
    flush_wait heap ~frontier
  end

(* Run [k] once knownVec[d] >= local and knownVec[strong] >= strong
   (Algorithm A3 line 4). *)
let wait_known t ~local ~strong k =
  let rec stage_strong () =
    if Vc.strong t.known_vec >= strong then k ()
    else push_wait t t.wait_known_strong ~threshold:strong stage_strong
  in
  if Vc.get t.known_vec t.dc >= local then stage_strong ()
  else push_wait t t.wait_known_local ~threshold:local stage_strong

(* Run [k] once uniformVec[d] >= threshold: the uniform barrier of §5.6
   and COMMIT_STRONG's precondition. *)
let wait_uniform_local t ~threshold k =
  if Vc.get t.uniform_vec t.dc >= threshold then k ()
  else push_wait t t.wait_uniform_local ~threshold k

(* After any uniformVec change: the local entry's waits, then the
   multi-entry waits whose predicate now holds, newest first. Their
   actions only send, so one pass suffices. *)
let flush_uniform t =
  flush_wait t.wait_uniform_local ~frontier:(Vc.get t.uniform_vec t.dc);
  if t.waiters <> [] then begin
    let ready, rest = List.partition (fun (pred, _) -> pred ()) t.waiters in
    t.waiters <- rest;
    List.iter (fun (_, action) -> action ()) ready
  end

(* Run [k] once the local clock reaches [ts]: a physical wait with real
   clocks, an instantaneous merge with hybrid clocks. *)
let at_clock t ts k =
  if t.cfg.Config.use_hlc then begin
    observe_clock t ts;
    k ()
  end
  else if clock t >= ts then k ()
  else
    Engine.schedule_at t.eng ~time:(ts - t.skew) (fun () ->
        if alive t then k ())
