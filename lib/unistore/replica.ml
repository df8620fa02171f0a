(* Partition replica p_d^m: the heart of UniStore.

   This module implements:
   - transaction coordination and the causal commit path (Algorithms
     A1–A3): snapshot computation, version reads, the intra-DC 2PC for
     causal transactions;
   - replication, heartbeats and transaction forwarding (Algorithm A4);
   - the metadata protocol computing stableVec and uniformVec
     (Algorithm A5), with the in-DC dissemination tree the paper
     mentions in §5.4;
   - uniform barriers and client attachment (§5.6);
   - the coordinator side of strong-transaction certification
     (Algorithms A6–A7); the group-member side lives in [Cert].

   Handlers execute atomically at a simulated timestamp, as the paper
   assumes. The pseudocode's "wait until" statements become either
   clock-waits (scheduled at the exact future instant) or state-waits
   (predicates re-checked whenever replica state changes). *)

module Vc = Vclock.Vc
module Network = Net.Network
module Engine = Sim.Engine

let src = Logs.Src.create "unistore.replica"

module Log = (val Logs.src_log src : Logs.LOG)

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
  ns_oplog : (Store.Keyspace.key * Store.Oplog.entry list) list;
  ns_known : Vclock.Vc.t;
  ns_prepared : prepared_causal list;
  ns_committed : Types.tx_rec list array;  (* per origin, newest first *)
  ns_propagated : Types.tx_rec list;
  ns_last_prep : int;
  ns_frontier_tids : Types.tid list array;
  ns_frontier_ts : int array;
  ns_decisions : (Types.tid * (Vclock.Vc.t * int * int)) list;
  ns_cert : (int * int * Msg.prepared_strong list) option;
      (* ballot, cballot, accepted log — [Cert.persistent_state] *)
}

(* On-disk record sizes (the disk's bandwidth charge), with the same
   per-element weights as the wire estimator in [Msg]. *)
let wal_record_bytes = function
  | W_genesis -> 8
  | W_prepare p -> 24 + Msg.writes_bytes p.pc_writes
  | W_commit tx -> 8 + Msg.tx_bytes tx
  | W_replicate (_, txs, _) ->
      List.fold_left (fun acc tx -> acc + Msg.tx_bytes tx) 24 txs
  | W_strong (txs, _) ->
      List.fold_left (fun acc tx -> acc + Msg.tx_bytes tx) 16 txs
  | W_decide (_, vec, _, _) -> 32 + Msg.vc_bytes vec
  | W_cert (Cert.E_ballot _) -> 24
  | W_cert (Cert.E_accept p) -> 8 + Msg.prepared_bytes p

let node_snapshot_bytes ns =
  let txs_bytes l = List.fold_left (fun acc tx -> acc + Msg.tx_bytes tx) 8 l in
  List.fold_left
    (fun acc (_, es) ->
      List.fold_left
        (fun acc (e : Store.Oplog.entry) -> acc + 24 + Msg.vc_bytes e.vec)
        (acc + 8) es)
    8 ns.ns_oplog
  + Msg.vc_bytes ns.ns_known
  + List.fold_left
      (fun acc p -> acc + 32 + Msg.writes_bytes p.pc_writes)
      8 ns.ns_prepared
  + Array.fold_left (fun acc l -> acc + txs_bytes l) 8 ns.ns_committed
  + txs_bytes ns.ns_propagated
  + Array.fold_left
      (fun acc l -> acc + 8 + (16 * List.length l))
      8 ns.ns_frontier_tids
  + (8 * Array.length ns.ns_frontier_ts)
  + 8
  + List.fold_left
      (fun acc (_, (vec, _, _)) -> acc + 32 + Msg.vc_bytes vec)
      8 ns.ns_decisions
  + (match ns.ns_cert with
    | None -> 8
    | Some (_, _, ps) ->
        List.fold_left (fun acc p -> acc + Msg.prepared_bytes p) 24 ps)

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
  p_tid : Types.tid;
  p_origin : int;
  p_wbuff : Types.wbuff;
  p_ops : Types.opsmap;
  p_snap : Vc.t;
  p_lc : int;
  p_groups : (int * cert_group) list;
  p_k : Cert.cert_result -> unit;
  p_submitted : int;  (* when CERTIFY registered it (queue-delay metric) *)
  mutable p_done : bool;
}

type waiter = { w_pred : unit -> bool; w_action : unit -> unit }

(* Deadline of one repair round: a source that has not answered within
   it is rotated away from, so a partitioned or gray-degraded peer
   cannot stall a repair, nor the catch-up of a rejoining or restarted
   replica. *)
let repair_round_us = 300_000

(* Maximum entries per snapshot-transfer or repair-reply message: bounds
   message size during catch-up. *)
let catchup_chunk = 256

(* Per-origin repair pull (gap repair of the causal replication stream).
   A detected continuity break records the claimed frontier in [r_upto]
   and drives rounds of [Repair_request]s — origin first, then rotating
   over live siblings — each armed with a deadline
   ([repair_round_us]). [r_sq] tags the
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
  mutable s_snapshot : bool;  (* waiting for the snapshot's last chunk *)
  mutable s_sq : int;  (* snapshot attempt tag echoed by [Sync_store] *)
  mutable s_progress : bool;  (* snapshot chunk seen since last tick *)
  mutable s_heard : int list;  (* peers whose knownVec gossip arrived *)
  s_started : int;
  s_done : unit -> unit;  (* System's completion callback *)
}

(* Addresses the replica needs but cannot know at construction time;
   provided by [System] before the simulation starts. *)
type env = {
  e_lookup : int -> int -> Msg.addr;  (* dc, partition -> replica *)
  e_rb_cert : (int -> Msg.addr) option;  (* dc -> REDBLUE service node *)
  (* DC-wide in-flight strong certifications (the level behind the
     pending_certifications gauge); drives admission control *)
  e_dc_pending : (int -> int) option;
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
     remote-visibility delay (interned in the system-wide registry) *)
  metrics : Sim.Metrics.t;
  h_phase_uniform : Sim.Metrics.histogram;
  h_phase_certify : Sim.Metrics.histogram;
  h_visibility : Sim.Metrics.histogram;
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
  uniform_vec : Vc.t;
  local_agg : Vc.t array;  (* dissemination tree: child partition aggregates *)
  stable_matrix : Vc.t array;  (* per DC *)
  global_matrix : Vc.t array;  (* per DC *)
  (* --- causal transactions ------------------------------------------ *)
  mutable prepared_causal : prepared_causal list;
  committed_causal : Types.tx_rec list ref array;  (* per origin DC, newest first *)
  (* Own transactions already shipped by [propagate_local_txs], newest
     first, retained under the same GC floors as the remote queues. A
     DC is the only holder of its own history above its peers' view of
     it, so rejoiners pull this log; without it a recovered DC could
     never cover a live origin's frontier (the pending queue drops
     transactions as soon as they are propagated). *)
  propagated_log : Types.tx_rec list ref;
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
     the corresponding vector entry advances; a generic list remains for
     the rare multi-entry waits (attach) *)
  wait_known_local : (unit -> unit) Sim.Heap.t;
  wait_known_strong : (unit -> unit) Sim.Heap.t;
  wait_uniform_local : (unit -> unit) Sim.Heap.t;
  mutable wait_seq : int;
  mutable waiters : waiter list;
  mutable checking : bool;
  (* --- strong transactions ------------------------------------------- *)
  mutable cert : Cert.t option;  (* per-partition group member (not REDBLUE) *)
  trusted_view : int array;  (* group -> trusted leader DC (Ω view) *)
  pending_cert : (int, pending_cert) Hashtbl.t;
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

let create cfg eng net ~dc ~part ~uid ~skew ~history ~trace ~metrics =
  let d = Config.dcs cfg in
  {
    cfg;
    eng;
    net;
    dc;
    part;
    uid;
    skew;
    hlc = 0;
    addr = -1;
    env = { e_lookup = (fun _ _ -> -1); e_rb_cert = None; e_dc_pending = None };
    history;
    trace;
    trace_src = Fmt.str "replica %d.%d" dc part;
    metrics;
    h_phase_uniform =
      Sim.Metrics.histogram metrics
        ~labels:[ ("phase", "uniform_wait") ]
        "strong_phase_us";
    h_phase_certify =
      Sim.Metrics.histogram metrics
        ~labels:[ ("phase", "certify") ]
        "strong_phase_us";
    h_visibility = Sim.Metrics.histogram metrics "visibility_delay_us";
    c_strong_commit = Sim.Metrics.counter metrics "strong_committed_total";
    c_strong_abort = Sim.Metrics.counter metrics "strong_aborted_total";
    oplog = Store.Oplog.create ();
    known_vec = Vc.create ~dcs:d;
    durable_known = Vc.create ~dcs:d;
    stable_vec = Vc.create ~dcs:d;
    uniform_vec = Vc.create ~dcs:d;
    local_agg = Array.init cfg.Config.partitions (fun _ -> Vc.create ~dcs:d);
    stable_matrix = Array.init d (fun _ -> Vc.create ~dcs:d);
    global_matrix = Array.init d (fun _ -> Vc.create ~dcs:d);
    prepared_causal = [];
    committed_causal = Array.init d (fun _ -> ref []);
    propagated_log = ref [];
    last_prep_ts = 0;
    propagated_upto = 0;
    txns = Hashtbl.create 64;
    wait_known_local = Sim.Heap.create (fun () -> ());
    wait_known_strong = Sim.Heap.create (fun () -> ());
    wait_uniform_local = Sim.Heap.create (fun () -> ());
    wait_seq = 0;
    waiters = [];
    checking = false;
    cert = None;
    trusted_view = Array.make (cfg.Config.partitions + 1) cfg.Config.leader_dc;
    pending_cert = Hashtbl.create 16;
    rid_ctr = 0;
    hb_ctr = 0;
    suspected = [];
    sync = None;
    timer_gen = 0;
    frontier_tids = Array.make d [];
    frontier_ts = Array.make d (-1);
    repair =
      Array.init d (fun _ ->
          {
            r_active = false;
            r_sq = 0;
            r_upto = 0;
            r_attempt = 0;
            r_stalled = 0;
            r_mark = 0;
          });
    repair_ctr = 0;
    pending_vis = Array.init d (fun _ -> ref []);
    disk = None;
    coord_decisions = Hashtbl.create 16;
    replaying = false;
  }

let dc_of t = t.dc
let part_of t = t.part
let set_addr t addr = t.addr <- addr
let set_env t env = t.env <- env
let addr t = t.addr
let oplog t = t.oplog
let known_vec t = t.known_vec

(* Coordinator-side strong certifications still awaiting a decision,
   dummy strong heartbeats (origin = -1) excluded. *)
let pending_strong t =
  Hashtbl.fold
    (fun _ pc acc -> if pc.p_done || pc.p_origin = -1 then acc else acc + 1)
    t.pending_cert 0
let stable_vec t = t.stable_vec
let stable_matrix_dbg t = t.stable_matrix
let uniform_vec t = t.uniform_vec

let send t dst msg =
  if dst = t.addr then Network.send_self t.net ~node:dst msg
  else Network.send t.net ~src:t.addr ~dst msg

let sibling t dc = t.env.e_lookup dc t.part
let local_replica t part = t.env.e_lookup t.dc part

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

(* ------------------------------------------------------------------ *)
(* Waits. Threshold waits go into per-vector heaps popped when the
   vector advances; predicate waits (attach) stay in a small list.       *)

let check_waiters t =
  if not t.checking then begin
    t.checking <- true;
    let progressed = ref true in
    while !progressed do
      let ready, rest = List.partition (fun w -> w.w_pred ()) t.waiters in
      t.waiters <- rest;
      progressed := ready <> [];
      List.iter (fun w -> w.w_action ()) ready
    done;
    t.checking <- false
  end

let wait_until t pred action =
  if pred () then action ()
  else t.waiters <- { w_pred = pred; w_action = action } :: t.waiters

let push_wait t heap ~threshold k =
  t.wait_seq <- t.wait_seq + 1;
  Sim.Heap.push heap ~time:threshold ~seq:t.wait_seq k

let rec flush_wait heap ~frontier =
  match Sim.Heap.peek heap with
  | Some e when e.Sim.Heap.time <= frontier ->
      ignore (Sim.Heap.pop heap);
      e.Sim.Heap.value ();
      flush_wait heap ~frontier
  | _ -> ()

(* Run [k] once knownVec[d] >= local and knownVec[strong] >= strong
   (Algorithm A3 line 4). *)
let wait_known t ~local ~strong k =
  let rec stage_strong () =
    if Vc.strong t.known_vec >= strong then k ()
    else push_wait t t.wait_known_strong ~threshold:strong stage_strong
  in
  if Vc.get t.known_vec t.dc >= local then stage_strong ()
  else push_wait t t.wait_known_local ~threshold:local stage_strong

(* Run [k] once uniformVec[d] >= threshold (uniform barrier). *)
let wait_uniform_local t ~threshold k =
  if Vc.get t.uniform_vec t.dc >= threshold then k ()
  else push_wait t t.wait_uniform_local ~threshold k

let flush_known_local t =
  flush_wait t.wait_known_local ~frontier:(Vc.get t.known_vec t.dc)

let flush_known_strong t =
  flush_wait t.wait_known_strong ~frontier:(Vc.strong t.known_vec)

let flush_uniform_local t =
  flush_wait t.wait_uniform_local ~frontier:(Vc.get t.uniform_vec t.dc);
  check_waiters t

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

(* ------------------------------------------------------------------ *)
(* uniformVec / stableVec bookkeeping.                                  *)

(* Visibility of a remote transaction for clients of this DC depends on
   the mode: uniformity (UniStore) or stability (Cure). *)
let remote_snapshot_vec t =
  if Config.tracks_uniformity t.cfg then t.uniform_vec else t.stable_vec

(* Record Fig. 6 samples: remote transactions become visible when the
   mode's snapshot vector covers them. *)
let flush_visibility t =
  if t.cfg.Config.measure_visibility && t.part = 0 then begin
    let vis = remote_snapshot_vec t in
    for origin = 0 to dcs t - 1 do
      if origin <> t.dc then begin
        let pending = t.pending_vis.(origin) in
        let visible, waiting =
          List.partition (fun (ts, _) -> ts <= Vc.get vis origin) !pending
        in
        pending := waiting;
        List.iter
          (fun (_, arrival) ->
            let delay_us = now t - arrival in
            Sim.Metrics.observe t.h_visibility delay_us;
            History.visibility_delay t.history ~observer:t.dc ~origin
              ~delay_us)
          visible
      end
    done
  end

(* uniformVec[j] := max over groups of f+1 DCs containing d of the
   minimum stableVec[j] within the group (Algorithm A5 lines 10–15).
   The best group keeps d and the f other DCs with the largest values. *)
let recompute_uniform t =
  let d = dcs t and f = t.cfg.Config.f in
  for j = 0 to d - 1 do
    let own = Vc.get t.stable_matrix.(t.dc) j in
    let cand =
      if f = 0 then own
      else begin
        let others = ref [] in
        for h = 0 to d - 1 do
          if h <> t.dc then others := Vc.get t.stable_matrix.(h) j :: !others
        done;
        let sorted = List.sort (fun a b -> compare b a) !others in
        let fth = List.nth sorted (f - 1) in
        min own fth
      end
    in
    Vc.bump t.uniform_vec j cand
  done;
  flush_visibility t

let bump_uniform_remote t vec =
  for i = 0 to dcs t - 1 do
    if i <> t.dc then Vc.bump t.uniform_vec i (Vc.get vec i)
  done;
  flush_visibility t;
  check_waiters t

(* In Cure mode client pasts reference stable rather than uniform remote
   transactions; the analogous bump keeps snapshots monotone. *)
let bump_snapshot_source t vec =
  if Config.tracks_uniformity t.cfg then bump_uniform_remote t vec
  else begin
    for i = 0 to dcs t - 1 do
      if i <> t.dc then Vc.bump t.stable_vec i (Vc.get vec i)
    done;
    flush_visibility t
  end

(* ------------------------------------------------------------------ *)
(* Transaction coordination (Algorithm A2).                             *)

(* START_TX (Algorithm A2 lines 1–8). The client allocates the tid. *)
let start_tx t ~client ~client_id ~req ~tid ~past =
  bump_snapshot_source t past;
  let base = remote_snapshot_vec t in
  let snap = Vc.copy base in
  Vc.set snap t.dc (max (Vc.get past t.dc) (Vc.get base t.dc));
  Vc.set_strong snap (max (Vc.strong past) (Vc.strong t.stable_vec));
  let ct =
    {
      ct_tid = tid;
      ct_client = client;
      ct_client_id = client_id;
      ct_snap = snap;
      ct_wbuff = Hashtbl.create 4;
      ct_ops = [];
      ct_read = None;
      ct_pending = 0;
      ct_acked = [];
      ct_max_ts = 0;
      ct_commit_req = -1;
      ct_lc = 0;
      ct_started = 0;
      ct_deciding = false;
    }
  in
  Hashtbl.replace t.txns tid ct;
  send t client (Msg.R_started { req; tid; snap })

let own_writes ct key =
  Hashtbl.fold
    (fun _ ws acc ->
      List.fold_left
        (fun acc w -> if w.Types.wkey = key then w :: acc else acc)
        acc (List.rev !ws))
    ct.ct_wbuff []
  |> List.rev

let handle_read t ~client ~req ~tid ~key ~cls =
  match Hashtbl.find_opt t.txns tid with
  | None -> send t client (Msg.R_value { req; value = Crdt.V_none; lc = None })
  | Some ct ->
      ct.ct_ops <- { Types.key; cls; write = false } :: ct.ct_ops;
      ct.ct_read <- Some (req, key);
      let l = Store.Keyspace.partition ~partitions:(partitions t) key in
      send t (local_replica t l)
        (Msg.Get_version { from = t.addr; tid; key; snap = ct.ct_snap })

let handle_version t ~tid ~key ~value ~lc =
  match Hashtbl.find_opt t.txns tid with
  | None -> ()
  | Some ct -> (
      match ct.ct_read with
      | Some (req, k) when k = key ->
          ct.ct_read <- None;
          (* overlay the transaction's own writes (read your writes) *)
          let value =
            List.fold_left
              (fun v w -> Crdt.apply_to_value v w.Types.wop)
              value (own_writes ct key)
          in
          send t ct.ct_client (Msg.R_value { req; value; lc })
      | _ -> ())

let handle_update t ~client ~req ~tid ~key ~op ~cls =
  match Hashtbl.find_opt t.txns tid with
  | None -> send t client (Msg.R_ok { req })
  | Some ct ->
      let l = Store.Keyspace.partition ~partitions:(partitions t) key in
      let ws =
        match Hashtbl.find_opt ct.ct_wbuff l with
        | Some ws -> ws
        | None ->
            let ws = ref [] in
            Hashtbl.replace ct.ct_wbuff l ws;
            ws
      in
      ws := { Types.wkey = key; wop = op; wcls = cls } :: !ws;
      ct.ct_ops <- { Types.key; cls; write = true } :: ct.ct_ops;
      send t client (Msg.R_ok { req })

(* COMMIT_CAUSAL (Algorithm A2 lines 21–31). *)
let handle_commit_causal t ~client ~req ~tid ~lc =
  match Hashtbl.find_opt t.txns tid with
  | None -> ()
  | Some ct ->
      let parts = Hashtbl.fold (fun l _ acc -> l :: acc) ct.ct_wbuff [] in
      if parts = [] then begin
        Hashtbl.remove t.txns tid;
        send t client (Msg.R_committed { req; vec = ct.ct_snap })
      end
      else begin
        ct.ct_pending <- List.length parts;
        ct.ct_commit_req <- req;
        ct.ct_lc <- lc;
        ct.ct_started <- now t;
        List.iter
          (fun l ->
            let writes = List.rev !(Hashtbl.find ct.ct_wbuff l) in
            send t (local_replica t l)
              (Msg.Prepare { from = t.addr; tid; writes; snap = ct.ct_snap }))
          parts
      end

let handle_prepare_ack t ~tid ~part ~ts =
  match Hashtbl.find_opt t.txns tid with
  | None -> ()
  | Some ct when ct.ct_deciding || List.mem part ct.ct_acked ->
      ()  (* duplicate ack (PREPARE retried after a participant restart) *)
  | Some ct ->
      ct.ct_acked <- part :: ct.ct_acked;
      ct.ct_max_ts <- max ct.ct_max_ts ts;
      ct.ct_pending <- ct.ct_pending - 1;
      if ct.ct_pending = 0 then begin
        ct.ct_deciding <- true;
        let vec = Vc.copy ct.ct_snap in
        Vc.set vec t.dc (max (Vc.get vec t.dc) ct.ct_max_ts);
        let parts = Hashtbl.fold (fun l _ acc -> l :: acc) ct.ct_wbuff [] in
        (* Persistence: the commit decision must be on disk before any
           COMMIT leaves — otherwise a coordinator crash between the
           sends would presume abort for a transaction some participant
           already applied. While the fsync is in flight the entry stays
           in [txns], so a COMMIT_QUERY gets no answer and retries. *)
        log_durably t
          (W_decide (tid, vec, ct.ct_lc, ct.ct_client_id))
          (fun () ->
            if persistent t then
              Hashtbl.replace t.coord_decisions tid
                (now t, vec, ct.ct_lc, ct.ct_client_id);
            List.iter
              (fun l ->
                send t (local_replica t l)
                  (Msg.Commit
                     { tid; vec; lc = ct.ct_lc; origin = ct.ct_client_id }))
              parts;
            Hashtbl.remove t.txns tid;
            send t ct.ct_client (Msg.R_committed { req = ct.ct_commit_req; vec }))
      end

(* ------------------------------------------------------------------ *)
(* Partition-side causal handlers (Algorithm A3).                       *)

let handle_get_version t ~from ~tid ~key ~snap =
  bump_uniform_remote t snap;
  wait_known t ~local:(Vc.get snap t.dc) ~strong:(Vc.strong snap) (fun () ->
      let value, lc = Store.Oplog.read t.oplog key ~snap in
      send t from (Msg.Version { tid; key; value; lc }))

let handle_prepare t ~from ~tid ~writes ~snap =
  bump_uniform_remote t snap;
  match
    List.find_opt (fun p -> Types.tid_equal p.pc_tid tid) t.prepared_causal
  with
  | Some p ->
      (* duplicate PREPARE (the coordinator retried after a restart or a
         lost ack): re-ack at the recorded — already durable — timestamp
         instead of preparing twice *)
      send t from (Msg.Prepare_ack { tid; part = t.part; ts = p.pc_ts })
  | None ->
      (* The prepare time exceeds the clock (as in the paper), this
         replica's replication frontier (preserving Property 1),
         previously issued prepare times (distinct local timestamps per
         partition), and the snapshot's local entry (so a commit vector
         strictly dominates its snapshot and per-client local timestamps
         strictly increase). *)
      let ts =
        max (clock t)
          (max (Vc.get snap t.dc)
             (max (Vc.get t.known_vec t.dc) t.last_prep_ts)
          + 1)
      in
      t.last_prep_ts <- ts;
      observe_clock t ts;
      let p =
        { pc_tid = tid; pc_writes = writes; pc_ts = ts; pc_from = from;
          pc_at = now t }
      in
      t.prepared_causal <- p :: t.prepared_causal;
      (* the ack promises the entry survives a node crash: fsync first *)
      log_durably t (W_prepare p) (fun () ->
          send t from (Msg.Prepare_ack { tid; part = t.part; ts }))

let handle_commit t ~tid ~vec ~lc ~origin =
  at_clock t (Vc.get vec t.dc) (fun () ->
      match
        List.find_opt
          (fun p -> Types.tid_equal p.pc_tid tid)
          t.prepared_causal
      with
      | None -> ()
      | Some p ->
          t.prepared_causal <-
            List.filter
              (fun q -> not (Types.tid_equal q.pc_tid tid))
              t.prepared_causal;
          let tag = { Crdt.lc; origin } in
          List.iter
            (fun w -> Store.Oplog.append t.oplog w.Types.wkey ~op:w.Types.wop ~vec ~tag)
            p.pc_writes;
          let tx =
            {
              Types.tx_tid = tid;
              tx_writes = p.pc_writes;
              tx_vec = vec;
              tx_lc = lc;
              tx_origin = origin;
            }
          in
          let q = t.committed_causal.(t.dc) in
          q := tx :: !q;
          log_async t (W_commit tx);
          History.system_commit t.history ~tid ~writes:p.pc_writes ~vec ~lc
            ~origin ~accumulate:true;
          Sim.Trace.emitf t.trace ~source:t.trace_src ~kind:"commit"
            "%a local-ts=%d writes=%d" Types.tid_pp tid (Vc.get vec t.dc)
            (List.length p.pc_writes))

(* ------------------------------------------------------------------ *)
(* Presumed-abort resolution of orphaned causal 2PCs (persistence
   mode). A node crash can strand either side of the intra-DC 2PC: a
   participant holding a durable prepared entry whose coordinator died
   (the entry's timestamp blocks the replication frontier forever), or
   a coordinator whose participant died before acking. The participant
   asks the coordinator for the outcome; the coordinator answers from
   its durable decision log. "No record" means abort — safe, because no
   COMMIT ever leaves before the decision is fsynced ([W_decide]). *)

let handle_commit_query t ~from ~tid =
  if Hashtbl.mem t.txns tid then ()  (* still deciding; asked again later *)
  else
    match Hashtbl.find_opt t.coord_decisions tid with
    | Some (_, vec, lc, origin) ->
        send t from (Msg.Commit { tid; vec; lc; origin })
    | None -> send t from (Msg.Commit_abort { tid })

let handle_commit_abort t ~tid =
  if List.exists (fun p -> Types.tid_equal p.pc_tid tid) t.prepared_causal
  then begin
    Sim.Metrics.incr
      (Sim.Metrics.counter t.metrics "causal_presumed_aborts_total");
    Sim.Trace.emitf t.trace ~source:t.trace_src ~kind:"presumed-abort"
      "%a dropped (coordinator holds no decision)" Types.tid_pp tid;
    t.prepared_causal <-
      List.filter
        (fun p -> not (Types.tid_equal p.pc_tid tid))
        t.prepared_causal
  end

(* ------------------------------------------------------------------ *)
(* Replication, heartbeats, forwarding (Algorithm A4), and the
   stream-continuity machinery that makes them gap-detecting: every
   frontier-advancing message carries [from_ts], the boundary its sender
   vouches contiguity from, and a receiver whose frontier sits below
   the boundary refuses the jump and pulls the missing window
   through [Repair_request]/[Repair_log] instead.                       *)

let is_syncing t = match t.sync with Some _ -> true | None -> false

let live_peers t =
  let rec go i acc =
    if i < 0 then acc
    else if i <> t.dc && not (Network.dc_failed t.net i) then go (i - 1) (i :: acc)
    else go (i - 1) acc
  in
  go (dcs t - 1) []

(* Live siblings not suspected by Ω — all live ones when Ω suspects
   every sibling (a total partition of this replica): the deadline that
   rotates the choice keeps probing, and whichever peer heals first
   answers. *)
let eligible_peers t =
  let live = live_peers t in
  match List.filter (fun i -> not (List.mem i t.suspected)) live with
  | [] -> live
  | l -> l

(* Start (or rotate) a repair pull round for [origin]'s stream: ask the
   origin itself first — it always holds its own history — then rotate
   over live siblings (GC floors pin retention above our own gossiped
   claim, so any sibling holds the window it vouches for). *)
let rec start_repair_round t origin =
  let r = t.repair.(origin) in
  let eligible = eligible_peers t in
  let candidates =
    if List.mem origin eligible then
      origin :: List.filter (fun i -> i <> origin) eligible
    else eligible
  in
  match candidates with
  | [] -> r.r_active <- false  (* nobody to ask; re-armed on the next gap *)
  | cs ->
      r.r_active <- true;
      t.repair_ctr <- t.repair_ctr + 1;
      r.r_sq <- t.repair_ctr;
      r.r_attempt <- r.r_attempt + 1;
      r.r_mark <- Vc.get t.known_vec origin;
      Sim.Metrics.incr
        (Sim.Metrics.counter t.metrics "repair_pull_rounds_total");
      let target = List.nth cs ((r.r_attempt - 1) mod List.length cs) in
      let vec_from = Vc.get t.known_vec origin in
      Sim.Trace.emitf t.trace ~source:t.trace_src ~kind:"repair-round"
        "pull dc%d's stream (%d, %d] from dc%d (round %d)" origin vec_from
        r.r_upto target r.r_sq;
      send t (sibling t target)
        (Msg.Repair_request
           { from = t.addr; origin; vec_from; upto = r.r_upto; sq = r.r_sq });
      let sq = r.r_sq in
      Engine.schedule t.eng ~delay:repair_round_us
        (fun () ->
          (* round still open at the deadline: the target is lossy,
             partitioned or gone — count a stall and rotate, or park
             after every candidate had a fair shot *)
          if alive t && r.r_active && r.r_sq = sq then begin
            r.r_stalled <- r.r_stalled + 1;
            if r.r_stalled > 2 * max 1 (List.length (live_peers t)) then begin
              r.r_active <- false;
              Sim.Trace.emitf t.trace ~source:t.trace_src ~kind:"repair-park"
                "repair of dc%d's stream parked at %d (upto %d): no source \
                 can serve the window"
                origin
                (Vc.get t.known_vec origin)
                r.r_upto
            end
            else start_repair_round t origin
          end)

(* A continuity break in [origin]'s stream: refuse the jump, account it,
   remember the claimed frontier and (outside WAL replay) start the
   repair. Detections while a repair is already in flight only raise the
   target. *)
let note_gap t ~origin ~floor ~from_ts ~claimed =
  Sim.Metrics.incr
    (Sim.Metrics.counter t.metrics "replicate_gap_detected_total");
  Sim.Trace.emitf t.trace ~source:t.trace_src ~kind:"replicate-gap"
    "dc%d's stream jumps (%d, %d] but our floor is %d: repairing instead \
     of trusting"
    origin from_ts claimed floor;
  let r = t.repair.(origin) in
  if claimed > r.r_upto then r.r_upto <- claimed;
  if (not r.r_active) && (not t.replaying) && alive t then begin
    r.r_attempt <- 0;
    r.r_stalled <- 0;
    start_repair_round t origin
  end

let propagate_local_txs t =
  (* the batch below carries exactly our stream window
     (propagated_upto, new]: every queued commit's timestamp exceeds the
     position shipped last tick (prepare timestamps exceed the frontier
     at prepare time and earlier propagations shipped everything at or
     below it), so [propagated_upto] is an honest continuity boundary
     for every destination — and it is also exactly the frontier a
     receiver of the previous message holds (last batch timestamp after
     a [Replicate], claimed frontier after a [Heartbeat]), so a
     contiguous stream never trips the gap check *)
  let prev = t.propagated_upto in
  (match t.prepared_causal with
  | [] -> Vc.bump t.known_vec t.dc (clock t)
  | ps ->
      let min_ts =
        List.fold_left (fun acc p -> min acc p.pc_ts) max_int ps
      in
      Vc.bump t.known_vec t.dc (min_ts - 1));
  let q = t.committed_causal.(t.dc) in
  let ready, keep =
    List.partition
      (fun tx -> Vc.get tx.Types.tx_vec t.dc <= Vc.get t.known_vec t.dc)
      !q
  in
  q := keep;
  let ready =
    List.sort
      (fun a b ->
        compare (Vc.get a.Types.tx_vec t.dc) (Vc.get b.Types.tx_vec t.dc))
      ready
  in
  for i = 0 to dcs t - 1 do
    if i <> t.dc then
      if ready <> [] then
        send t (sibling t i)
          (Msg.Replicate { origin = t.dc; txs = ready; from_ts = prev })
      else
        send t (sibling t i)
          (Msg.Heartbeat
             { origin = t.dc; ts = Vc.get t.known_vec t.dc; from_ts = prev })
  done;
  (* advance the stream position to what receivers will now hold — and
     never move it back: WAL replay re-queues every tail commit, even
     ones the previous incarnation already propagated (peers prune fully
     covered entries from their relay buffers, so the rejoin pull cannot
     redeliver and dequeue them), and re-shipping such a batch must not
     regress the boundary below commits the receivers provably hold, or
     the next heartbeat claims their window empty and receivers jump
     clean over them *)
  t.propagated_upto <-
    max t.propagated_upto
      (match List.rev ready with
      | last :: _ -> Vc.get last.Types.tx_vec t.dc
      | [] -> Vc.get t.known_vec t.dc);
  (* retain what was just shipped: rejoiners catch up on our history
     from this log (nobody else may hold our full frontier) *)
  if ready <> [] then
    t.propagated_log := List.rev_append ready !(t.propagated_log);
  flush_known_local t

(* Apply a sorted batch of [origin]'s stream: dedup against the
   frontier, materialize the writes, queue for forwarding (or re-retain
   own history), advance the frontier. Shared by the direct stream
   ([handle_replicate]) and the repair path ([handle_repair_log]) —
   idempotence comes from the tid-at-frontier dedup, so overlapping
   deliveries are safe. *)
let apply_replicate_txs t ~origin txs =
  List.iter
    (fun tx ->
      let ts = Vc.get tx.Types.tx_vec origin in
      (* An own-origin transaction still sitting in the pending
         propagation queue was restored there by WAL replay
         ([W_commit]) — already applied to the store, but below nothing
         the frontier records, because replay cannot know how far the
         previous incarnation propagated. A repair of our own stream
         redelivering it proves a peer holds it: move it to the
         propagated log (it must be servable to repair pulls) instead of
         applying it twice. *)
      let restored_own =
        origin = t.dc
        &&
        let q = t.committed_causal.(t.dc) in
        match
          List.partition
            (fun r -> Types.tid_equal r.Types.tx_tid tx.Types.tx_tid)
            !q
        with
        | [], _ -> false
        | _, rest ->
            q := rest;
            true
      in
      (* below the frontier = duplicate; equal-timestamp siblings of the
         last applied transaction dedup by tid *)
      let fresh =
        (not restored_own)
        && (ts > Vc.get t.known_vec origin
           || (ts = t.frontier_ts.(origin)
              && not
                   (List.exists
                      (Types.tid_equal tx.Types.tx_tid)
                      t.frontier_tids.(origin))))
      in
      if restored_own then begin
        t.propagated_log := tx :: !(t.propagated_log);
        t.last_prep_ts <- max t.last_prep_ts ts;
        observe_clock t ts;
        if ts > t.frontier_ts.(origin) then begin
          t.frontier_ts.(origin) <- ts;
          t.frontier_tids.(origin) <- []
        end;
        if ts >= t.frontier_ts.(origin) then
          t.frontier_tids.(origin) <-
            tx.Types.tx_tid :: t.frontier_tids.(origin);
        if ts > Vc.get t.known_vec origin then Vc.set t.known_vec origin ts
      end;
      if fresh then begin
        (* [frontier_ts]/[frontier_tids] track the highest applied
           timestamp; backfill below it must not clobber the tracking *)
        if ts > t.frontier_ts.(origin) then begin
          t.frontier_ts.(origin) <- ts;
          t.frontier_tids.(origin) <- []
        end;
        if ts >= t.frontier_ts.(origin) then
          t.frontier_tids.(origin) <-
            tx.Types.tx_tid :: t.frontier_tids.(origin);
        let tag = Types.tx_tag tx in
        List.iter
          (fun w ->
            Store.Oplog.append t.oplog w.Types.wkey ~op:w.Types.wop
              ~vec:tx.Types.tx_vec ~tag)
          tx.Types.tx_writes;
        (* own-origin transactions only arrive here through a repair of
           our own stream after a crash: they are our pre-crash history,
           already propagated by our previous incarnation — retain them
           without re-propagating, keep new prepare timestamps above them
           (Property 1), and settle a replayed prepare whose commit
           record the crash lost (the coordinator's answer to the orphan
           query must not apply it a second time) *)
        if origin = t.dc then begin
          t.prepared_causal <-
            List.filter
              (fun p -> not (Types.tid_equal p.pc_tid tx.Types.tx_tid))
              t.prepared_causal;
          t.propagated_log := tx :: !(t.propagated_log);
          t.last_prep_ts <- max t.last_prep_ts ts;
          observe_clock t ts
        end
        else begin
          let q = t.committed_causal.(origin) in
          q := tx :: !q
        end;
        (* backfill below the frontier must not regress it *)
        if ts > Vc.get t.known_vec origin then Vc.set t.known_vec origin ts;
        if
          t.cfg.Config.measure_visibility && t.part = 0 && origin <> t.dc
          && (not t.replaying) && not (is_syncing t)
        then begin
          let pv = t.pending_vis.(origin) in
          pv := (ts, now t) :: !pv
        end
      end)
    txs

let handle_replicate t ~origin ~txs ~from_ts =
  Sim.Trace.emitf t.trace ~source:t.trace_src ~kind:"replicate"
    "from dc%d: %d txs" origin (List.length txs);
  let txs =
    List.sort
      (fun a b ->
        compare (Vc.get a.Types.tx_vec origin) (Vc.get b.Types.tx_vec origin))
      txs
  in
  let last =
    List.fold_left
      (fun acc tx -> max acc (Vc.get tx.Types.tx_vec origin))
      from_ts txs
  in
  let floor = Vc.get t.known_vec origin in
  if from_ts > floor && not t.replaying then
    (* the batch starts above what we trust: applying it would jump the
       frontier over entries we never saw (or never verified). Refuse it
       wholesale — the repair pull re-fetches the whole window including
       this batch, and applying without advancing would double-apply on
       the overlap. WAL replay is exempt: every record was gap-checked when
       it was accepted live, and heartbeat frontier jumps between
       records are deliberately not logged, so the replayed frontier
       legitimately trails the logged [from_ts] chain across windows
       that were verified empty at acceptance time. *)
    note_gap t ~origin ~floor ~from_ts ~claimed:last
  else begin
    apply_replicate_txs t ~origin txs;
    if txs <> [] then log_async t (W_replicate (origin, txs, from_ts))
  end

let handle_heartbeat t ~origin ~ts ~from_ts =
  let floor = Vc.get t.known_vec origin in
  if from_ts > floor then
    (* heartbeats jump frontiers exactly like batches do (claiming the
       window (from_ts, ts] holds no transactions): the same continuity
       check applies, or a heartbeat racing ahead of a lost batch would
       paper over the gap *)
    note_gap t ~origin ~floor ~from_ts ~claimed:ts
  else if ts > Vc.get t.known_vec origin then Vc.set t.known_vec origin ts

(* Serve an origin-scoped repair pull: the retained transactions of
   [origin]'s stream in (vec_from, upto], chunked with chained [from_ts]
   boundaries, then a final chunk whose [covered] says how far our own
   first-hand frontier vouches the window (the requester may jump there
   even if the window held no transactions). GC floors guarantee
   completeness: nothing above the requester's own gossiped claim — and
   [vec_from] never exceeds it — is ever pruned. A replica that is
   itself catching up must not serve (its log is still partial); the
   requester's deadline rotates past us. *)
let handle_repair_request t ~from ~origin ~vec_from ~upto ~sq =
  ignore upto;
  if not (is_syncing t) then begin
    let source =
      if origin = t.dc then !(t.propagated_log) else !(t.committed_causal.(origin))
    in
    let vouch = Vc.get t.known_vec origin in
    (* Serve everything we can vouch for above [vec_from] — deliberately
       NOT capped at the requester's [upto]. The claim behind [upto] is
       stale by at least the request's flight time, and while the origin
       keeps producing, a repair capped there lands [covered] behind the
       [from_ts] of the next in-FIFO stream message: the requester
       refuses it, detects a fresh gap and pulls again — a perpetual
       chase one round-trip behind the live edge. Serving to our current
       frontier instead puts [covered] at or ahead of every
       stream boundary the origin stamped before we served (its
       [propagated_upto] never exceeds its frontier), so the next stream
       message behind the reply on the same FIFO channel chains cleanly
       and the stream re-links. [upto] still matters to the requester
       (its done-check target); here it is only a hint. *)
    let txs =
      List.filter
        (fun tx ->
          let ts = Vc.get tx.Types.tx_vec origin in
          ts > vec_from && ts <= vouch)
        source
    in
    let txs =
      List.sort
        (fun a b ->
          compare (Vc.get a.Types.tx_vec origin) (Vc.get b.Types.tx_vec origin))
        txs
    in
    let covered = if vouch >= vec_from then vouch else vec_from in
    let rec split n acc = function
      | rest when n = 0 -> (List.rev acc, rest)
      | [] -> (List.rev acc, [])
      | tx :: rest -> split (n - 1) (tx :: acc) rest
    in
    let rec ship from_ts = function
      | [] ->
          send t from
            (Msg.Repair_log
               { origin; txs = []; from_ts; covered; last = true; sq })
      | txs ->
          let batch, rest = split catchup_chunk [] txs in
          let batch_last =
            List.fold_left
              (fun acc tx -> max acc (Vc.get tx.Types.tx_vec origin))
              from_ts batch
          in
          if rest = [] then
            send t from
              (Msg.Repair_log
                 { origin; txs = batch; from_ts; covered; last = true; sq })
          else begin
            send t from
              (Msg.Repair_log
                 {
                   origin;
                   txs = batch;
                   from_ts;
                   covered = batch_last;
                   last = false;
                   sq;
                 });
            ship batch_last rest
          end
    in
    ship vec_from txs
  end

(* Apply a repair reply chunk. This is the below-frontier entry point
   [handle_replicate] deliberately refuses to be: a chunk chaining from
   at or below our frontier covers its window contiguously, so applying
   it can only fill, never jump — and the tid-at-frontier dedup makes
   re-delivered overlap idempotent. The final chunk's [covered] is a
   first-hand assertion by the server, so the frontier may jump there.
   That holds for a chunk of an abandoned round too: a slow source's late
   answer still fills the window (on a lossy link it may never beat the
   round deadline), and only the round bookkeeping is tied to [sq]. *)
let handle_repair_log t ~origin ~txs ~from_ts ~covered ~last ~sq =
  let r = t.repair.(origin) in
  if from_ts <= Vc.get t.known_vec origin then begin
    let txs =
      List.sort
        (fun a b ->
          compare (Vc.get a.Types.tx_vec origin) (Vc.get b.Types.tx_vec origin))
        txs
    in
    apply_replicate_txs t ~origin txs;
    if txs <> [] then log_async t (W_replicate (origin, txs, from_ts));
    (* the covered jump stays volatile (not WAL-logged): recovering
       with a lower frontier is always safe — the stream or a fresh
       repair re-covers it *)
    if last && covered > Vc.get t.known_vec origin then
      Vc.set t.known_vec origin covered
  end;
  let after = Vc.get t.known_vec origin in
  if r.r_active && after >= r.r_upto then begin
    r.r_active <- false;
    r.r_attempt <- 0;
    r.r_stalled <- 0;
    Sim.Trace.emitf t.trace ~source:t.trace_src ~kind:"repair-done"
      "dc%d's stream repaired to %d" origin after
  end
  else if r.r_active && last && r.r_sq = sq && after > r.r_mark then begin
    (* progress but not done (the server's own frontier stopped short of
       the claim): next round immediately — rotation finds a source that
       can go further. Without progress the armed deadline rotates or
       parks, so a useless source is not re-polled in a hot loop. *)
    r.r_stalled <- 0;
    start_repair_round t origin
  end

(* FORWARD_REMOTE_TXS(i, j): forward transactions that originated at the
   (suspected) DC j to DC i, skipping what i already stores according to
   globalMatrix (Algorithm A4 lines 22–27). *)
let forward_remote_txs t ~dst ~origin =
  (* include transactions at the threshold itself: distinct transactions
     may share the frontier timestamp and the receiver dedups by tid.
     [threshold] is an honest continuity boundary: it is [dst]'s own
     gossiped claim (never above its frontier, so no false gap there)
     and the GC floor pins our retention above it (so we hold — and ship
     — everything in between) *)
  let threshold = Vc.get t.global_matrix.(dst) origin in
  let vouch = Vc.get t.known_vec origin in
  let txs =
    List.filter
      (fun tx ->
        let ts = Vc.get tx.Types.tx_vec origin in
        ts >= threshold && ts <= vouch)
      !(t.committed_causal.(origin))
  in
  if txs <> [] then
    send t (sibling t dst) (Msg.Replicate { origin; txs; from_ts = threshold })
  else if vouch > threshold then
    send t (sibling t dst)
      (Msg.Heartbeat { origin; ts = vouch; from_ts = threshold })

let run_forwarding t =
  List.iter
    (fun j ->
      if j <> t.dc then
        for i = 0 to dcs t - 1 do
          if i <> t.dc && i <> j && not (Network.dc_failed t.net i) then
            forward_remote_txs t ~dst:i ~origin:j
        done)
    t.suspected

(* Does DC [i] still hold the garbage-collection floors? Live DCs always
   do. A crashed DC keeps holding them — frozen at its last gossiped
   coverage — for [gc_grace_us], so that it can rejoin and catch up from
   the retained logs; past the grace period the floors advance and a late
   rejoiner relies on the full snapshot transfer instead. *)
let holds_floor t i =
  match Network.dc_failed_at t.net i with
  | None -> true
  | Some at -> now t - at < t.cfg.Config.gc_grace_us

(* Drop forwarded buffers — and our own propagated log — once every live
   DC and every crashed DC still within its rejoin grace period stores
   them (§5.5). The origin's own claim counts too: a DC that lost its
   history in a crash gets it back only from these buffers, and until
   its fresh claim arrives its row is pinned at zero
   ([reset_peer_view]). *)
let prune_committed t =
  for j = 0 to dcs t - 1 do
    (* an entry is covered iff its timestamp is at or below every
       floor-holder's claim about origin [j] *)
    let floor = ref max_int in
    for i = 0 to dcs t - 1 do
      if i <> t.dc && holds_floor t i then
        floor := min !floor (Vc.get t.global_matrix.(i) j)
    done;
    let floor = !floor in
    let covered tx = Vc.get tx.Types.tx_vec j <= floor in
    let q = if j = t.dc then t.propagated_log else t.committed_causal.(j) in
    (* runs every broadcast tick: rebuild the list only when something
       is actually dropped *)
    if List.exists covered !q then
      q := List.filter (fun tx -> not (covered tx)) !q
  done

(* ------------------------------------------------------------------ *)
(* Metadata exchange (Algorithm A5) with an in-DC dissemination tree.   *)

let tree_parent part = (part - 1) / 2
let tree_children t part =
  let c1 = (2 * part) + 1 and c2 = (2 * part) + 2 in
  List.filter (fun c -> c < partitions t) [ c1; c2 ]

let subtree_agg t =
  let agg = Vc.copy t.known_vec in
  List.iter
    (fun c ->
      let v = t.local_agg.(c) in
      for i = 0 to Array.length agg - 1 do
        if Vc.get v i < Vc.get agg i then Vc.set agg i (Vc.get v i)
      done)
    (tree_children t t.part);
  agg

let update_stable t vec =
  Vc.merge_into t.stable_vec vec;
  Vc.merge_into t.stable_matrix.(t.dc) t.stable_vec;
  recompute_uniform t;
  flush_uniform_local t

(* The knownVec claim gossiped to siblings, who prune their catch-up
   logs below it: in persistence mode it only vouches for what a
   node-level crash cannot lose. A fresh copy — messages must carry
   value snapshots, not live references: the simulation is shared-memory
   and a receiver processes a message later, when the sender's vector
   has already advanced. *)
let gc_claim t =
  let v = Vc.copy t.known_vec in
  if persistent t then begin
    for o = 0 to dcs t - 1 do
      if Vc.get t.durable_known o < Vc.get v o then
        Vc.set v o (Vc.get t.durable_known o)
    done;
    if Vc.strong t.durable_known < Vc.strong v then
      Vc.set_strong v (Vc.strong t.durable_known)
  end;
  v

let broadcast_vecs t =
  let agg = subtree_agg t in
  if t.part = 0 then begin
    (* root of the dissemination tree: agg is the DC-wide minimum; the
       result is pushed directly to every partition (aggregation is a
       tree, dissemination one hop, keeping stabilisation latency low) *)
    update_stable t agg;
    for p = 1 to partitions t - 1 do
      send t (local_replica t p)
        (Msg.Stable_down { vec = Vc.copy t.stable_vec })
    done
  end
  else
    send t
      (local_replica t (tree_parent t.part))
      (Msg.Kv_up { part = t.part; vec = agg });
  (* sibling exchange across DCs *)
  for i = 0 to dcs t - 1 do
    if i <> t.dc then begin
      if Config.tracks_uniformity t.cfg && dcs t > 1 then
        send t (sibling t i)
          (Msg.Stablevec { dc = t.dc; vec = Vc.copy t.stable_vec });
      send t (sibling t i) (Msg.Knownvec_global { dc = t.dc; vec = gc_claim t })
    end
  done;
  prune_committed t

let handle_kv_up t ~part ~vec =
  (* partial minima only grow; keep the freshest report per child *)
  Vc.merge_into t.local_agg.(part) vec

let handle_stable_down t ~vec = update_stable t vec

let handle_stablevec t ~dc ~vec =
  Vc.merge_into t.stable_matrix.(dc) vec;
  recompute_uniform t;
  flush_uniform_local t

(* While catching up, the gossip is also how the replica learns which of
   its own pre-crash transactions a sibling holds: nobody else ever sends
   a DC its own stream back, so a claim above our own frontier is a gap
   in our own history, repaired from the siblings' forwarding buffers
   (the GC floors retain it for us, see [prune_committed]). *)
let handle_knownvec_global t ~dc ~vec =
  Vc.merge_into t.global_matrix.(dc) vec;
  match t.sync with
  | None -> ()
  | Some s ->
      if not (List.mem dc s.s_heard) then s.s_heard <- dc :: s.s_heard;
      let own = Vc.get t.known_vec t.dc and claimed = Vc.get vec t.dc in
      let r = t.repair.(t.dc) in
      if claimed > own && (claimed > r.r_upto || not r.r_active) then
        note_gap t ~origin:t.dc ~floor:own ~from_ts:own ~claimed

(* ------------------------------------------------------------------ *)
(* Uniform barrier and attach (§5.6).                                   *)

let handle_uniform_barrier t ~client ~req ~past =
  wait_uniform_local t ~threshold:(Vc.get past t.dc) (fun () ->
      send t client (Msg.R_ok { req }))

let handle_attach t ~client ~req ~past =
  wait_until t
    (fun () ->
      let ok = ref true in
      for i = 0 to dcs t - 1 do
        if i <> t.dc && Vc.get t.uniform_vec i < Vc.get past i then
          ok := false
      done;
      !ok)
    (fun () -> send t client (Msg.R_ok { req }))

(* ------------------------------------------------------------------ *)
(* Strong transactions: coordinator side (Algorithms A6–A7).            *)

let group_leader_addr t g =
  let leader = t.trusted_view.(g) in
  if g = rb_group t then
    match t.env.e_rb_cert with
    | Some f -> f leader
    | None -> invalid_arg "Replica: REDBLUE group without service nodes"
  else t.env.e_lookup leader g

let groups_of t ~wbuff ~ops =
  if Config.centralized_cert t.cfg then [ rb_group t ]
  else
    List.sort_uniq compare
      (Types.wbuff_partitions wbuff @ Types.opsmap_partitions ops)

(* Re-send PREPARE_STRONG if certification has not concluded: covers
   leader failures. Far above worst-case queueing delays so an overloaded
   (but live) service is not hit with duplicate certification work. *)
let cert_retry_us = 2_000_000

let send_prepare_strong t pc =
  List.iter
    (fun (g, _) ->
      send t (group_leader_addr t g)
        (Msg.Prepare_strong
           {
             rid = pc.p_rid;
             caller = pc.p_caller;
             coord = t.addr;
             tid = pc.p_tid;
             origin = pc.p_origin;
             wbuff = pc.p_wbuff;
             ops = pc.p_ops;
             snap = pc.p_snap;
             lc = pc.p_lc;
           }))
    (List.filter (fun (_, g) -> not g.g_done) pc.p_groups)

let rec schedule_cert_retry t pc =
  Engine.schedule t.eng ~delay:cert_retry_us (fun () ->
      if alive t && (not pc.p_done) && Hashtbl.mem t.pending_cert pc.p_rid
      then begin
        send_prepare_strong t pc;
        schedule_cert_retry t pc
      end)

(* CERTIFY (Algorithm A7): submit to every involved group's leader and
   collect quorums of ACCEPT_ACKs. *)
let rec certify t ~caller ~tid ~origin ~wbuff ~ops ~snap ~lc ~k =
  t.rid_ctr <- t.rid_ctr + 1;
  let rid = (t.uid * 1_000_000) + t.rid_ctr in
  let groups = groups_of t ~wbuff ~ops in
  let groups =
    List.map
      (fun g ->
        ( g,
          {
            g_acks = [];
            g_unknown = [];
            g_ballot = -1;
            g_vote = true;
            g_ts = 0;
            g_lc = 0;
            g_done = false;
          } ))
      groups
  in
  let pc =
    {
      p_rid = rid;
      p_caller = caller;
      p_tid = tid;
      p_origin = origin;
      p_wbuff = wbuff;
      p_ops = ops;
      p_snap = snap;
      p_lc = lc;
      p_groups = groups;
      p_k = k;
      p_submitted = now t;
      p_done = false;
    }
  in
  Hashtbl.replace t.pending_cert rid pc;
  send_prepare_strong t pc;
  schedule_cert_retry t pc;
  (* A strong transaction with an empty footprint (no reads, no writes)
     involves no certification group at all: nothing conflicts with it
     and no ACCEPT_ACK will ever arrive, so deciding it here is the only
     exit. Without this, the pending_cert entry leaked forever — the
     pending_certifications gauge never drained and the retry timer
     spun — which admission control would turn into a permanent wedge. *)
  if pc.p_groups = [] then complete_cert_if_ready t pc

and finish_cert t pc result =
  if not pc.p_done then begin
    pc.p_done <- true;
    Hashtbl.remove t.pending_cert pc.p_rid;
    (* submission-to-decision delay of real certifications (the queue
       behind the pending_certifications gauge); interned on the first
       strong decision so runs without strong transactions keep their
       metric snapshots unchanged *)
    if pc.p_origin <> -1 then
      Sim.Metrics.observe
        (Sim.Metrics.histogram t.metrics "cert_queue_delay_us")
        (now t - pc.p_submitted);
    pc.p_k result
  end

and complete_cert_if_ready t pc =
  if (not pc.p_done) && List.for_all (fun (_, g) -> g.g_done) pc.p_groups
  then begin
    let dec = List.for_all (fun (_, g) -> g.g_vote) pc.p_groups in
    let vec = Vc.copy pc.p_snap in
    (* seeded at the snapshot's strong entry so a group-less (empty
       footprint) decision cannot move the commit vector backwards *)
    let ts =
      List.fold_left
        (fun acc (_, g) -> max acc g.g_ts)
        (Vc.strong pc.p_snap) pc.p_groups
    in
    Vc.set_strong vec ts;
    let lc =
      List.fold_left (fun acc (_, g) -> max acc g.g_lc) pc.p_lc pc.p_groups
    in
    List.iter
      (fun (g, gs) ->
        send t (group_leader_addr t g)
          (Msg.Decision { b = gs.g_ballot; tid = pc.p_tid; dec; vec; lc }))
      pc.p_groups;
    if dec then
      History.system_commit t.history ~tid:pc.p_tid
        ~writes:(List.concat_map snd pc.p_wbuff)
        ~vec ~lc ~origin:pc.p_origin ~accumulate:false;
    finish_cert t pc (Cert.Decided (dec, vec, lc))
  end

let handle_accept_ack t ~part ~b ~rid ~tid ~vote ~ts ~lc ~from_dc =
  match Hashtbl.find_opt t.pending_cert rid with
  | None -> ()
  | Some pc -> (
      if Types.tid_equal pc.p_tid tid then
        match List.assoc_opt part pc.p_groups with
        | None -> ()
        | Some g ->
            if not g.g_done then begin
              if b > g.g_ballot then begin
                (* a new ballot supersedes acks from older ones *)
                g.g_ballot <- b;
                g.g_acks <- []
              end;
              if b = g.g_ballot && not (List.mem from_dc g.g_acks) then begin
                g.g_acks <- from_dc :: g.g_acks;
                g.g_vote <- vote;
                g.g_ts <- ts;
                g.g_lc <- lc;
                if List.length g.g_acks >= Config.quorum t.cfg then begin
                  g.g_done <- true;
                  complete_cert_if_ready t pc
                end
              end
            end)

let handle_already_decided t ~rid ~tid ~dec ~vec ~lc =
  match Hashtbl.find_opt t.pending_cert rid with
  | None -> ()
  | Some pc ->
      if Types.tid_equal pc.p_tid tid then begin
        (* Propagate the decision to every involved group — including
           those that never acked us (ballot still unknown): a Restoring
           leader re-certifying its prepared table depends on this reply
           to clear the entry, and its own RETRY task is off while it
           restores. Leaders accept decisions from any older ballot, so
           0 is a safe stand-in when none was learned. *)
        List.iter
          (fun (g, gs) ->
            send t (group_leader_addr t g)
              (Msg.Decision { b = max gs.g_ballot 0; tid; dec; vec; lc }))
          pc.p_groups;
        finish_cert t pc (Cert.Decided (dec, vec, lc))
      end

let handle_unknown_tx_ack t ~part ~rid ~tid ~from_dc =
  match Hashtbl.find_opt t.pending_cert rid with
  | None -> ()
  | Some pc -> (
      if Types.tid_equal pc.p_tid tid then
        match List.assoc_opt part pc.p_groups with
        | None -> ()
        | Some g ->
            if not (List.mem from_dc g.g_unknown) then begin
              g.g_unknown <- from_dc :: g.g_unknown;
              if List.length g.g_unknown >= Config.quorum t.cfg then
                finish_cert t pc Cert.Unknown
            end)

(* Admission control: when the DC's in-flight strong certifications have
   reached the configured bound, new COMMIT_STRONG requests are shed with
   a retryable R_overloaded instead of joining the queue, so queueing
   delay at the certification path stays bounded under open-loop
   overload. Only fresh commits are shed: C_resubmit_strong carries a
   possibly already-decided tid whose exactly-once recovery depends on
   re-entering certification, and dummy heartbeats keep the strong
   frontier moving. *)
let admission_shed t =
  let bound = t.cfg.Config.admission_max_pending in
  bound > 0
  &&
  match t.env.e_dc_pending with
  | Some pending_of_dc -> pending_of_dc t.dc >= bound
  | None -> false

let shed_commit t ~client ~req ~tid =
  (* interned on the first shed so runs that never overload keep their
     metric snapshots (and golden artifacts) unchanged *)
  Sim.Metrics.incr
    (Sim.Metrics.counter t.metrics
       ~labels:[ ("dc", string_of_int t.dc) ]
       "admission_rejects_total");
  Sim.Trace.emitf t.trace ~source:t.trace_src ~kind:"shed" "%a"
    Types.tid_pp tid;
  send t client (Msg.R_overloaded { req })

(* COMMIT_STRONG (Algorithm A6): make the snapshot uniform, then certify. *)
let handle_commit_strong t ~client ~req ~tid ~lc =
  match Hashtbl.find_opt t.txns tid with
  | None -> ()
  | Some _ when admission_shed t ->
      Hashtbl.remove t.txns tid;
      shed_commit t ~client ~req ~tid
  | Some ct ->
      let wbuff =
        Hashtbl.fold
          (fun l ws acc -> (l, List.rev !ws) :: acc)
          ct.ct_wbuff []
      in
      let ops_by_part = Hashtbl.create 4 in
      List.iter
        (fun (o : Types.opdesc) ->
          let l = Store.Keyspace.partition ~partitions:(partitions t) o.key in
          let cur =
            match Hashtbl.find_opt ops_by_part l with
            | Some os -> os
            | None -> []
          in
          Hashtbl.replace ops_by_part l (o :: cur))
        ct.ct_ops;
      let ops = Hashtbl.fold (fun l os acc -> (l, os) :: acc) ops_by_part [] in
      Hashtbl.remove t.txns tid;
      (* phase instrumentation: uniformity wait (arrival of the commit
         request until the local snapshot is uniform), then certification
         (submission until the decision lands back here) *)
      let arrived_us = now t in
      wait_uniform_local t ~threshold:(Vc.get ct.ct_snap t.dc) (fun () ->
          let uniform_us = now t in
          Sim.Metrics.observe t.h_phase_uniform (uniform_us - arrived_us);
          if Sim.Trace.enabled t.trace then
            Sim.Trace.emit_span t.trace ~source:t.trace_src
              ~kind:"uniform-wait" ~start:arrived_us
              (Fmt.str "%a" Types.tid_pp tid);
          certify t ~caller:Msg.Normal ~tid ~origin:ct.ct_client_id ~wbuff
            ~ops ~snap:ct.ct_snap ~lc ~k:(fun result ->
              Sim.Metrics.observe t.h_phase_certify (now t - uniform_us);
              if Sim.Trace.enabled t.trace then
                Sim.Trace.emit_span t.trace ~source:t.trace_src
                  ~kind:"certify" ~start:uniform_us
                  (Fmt.str "%a" Types.tid_pp tid);
              match result with
              | Cert.Decided (dec, vec, lc) ->
                  Sim.Metrics.incr
                    (if dec then t.c_strong_commit else t.c_strong_abort);
                  send t client (Msg.R_strong { req; dec; vec; lc })
              | Cert.Unknown ->
                  (* cannot happen for NORMAL callers; fail the commit *)
                  Sim.Metrics.incr t.c_strong_abort;
                  send t client
                    (Msg.R_strong
                       { req; dec = false; vec = ct.ct_snap; lc })))

(* DELIVER_UPDATES (Algorithm A6 lines 5–9): apply this partition's slice
   of each committed strong transaction, in strong-timestamp order. *)
let deliver_strong t txs ~strong_ts =
  List.iter
    (fun tx ->
      let tag = Types.tx_tag tx in
      List.iter
        (fun w ->
          if
            Store.Keyspace.partition ~partitions:(partitions t) w.Types.wkey
            = t.part
          then
            Store.Oplog.append t.oplog w.Types.wkey ~op:w.Types.wop
              ~vec:tx.Types.tx_vec ~tag)
        tx.Types.tx_writes)
    txs;
  (* logged including empty (heartbeat) batches: the replayed strong
     frontier seeds [Cert.restart ~delivered], and an understated
     frontier would re-deliver — and re-apply — decided transactions *)
  log_async t (W_strong (txs, strong_ts));
  if strong_ts > Vc.strong t.known_vec then Vc.set_strong t.known_vec strong_ts;
  (* dummy heartbeats deliver empty write sets; only real updates are
     worth tracing *)
  if List.exists (fun tx -> tx.Types.tx_writes <> []) txs then
    Sim.Trace.emitf t.trace ~source:t.trace_src ~kind:"deliver-strong"
      "ts=%d txs=%d" strong_ts (List.length txs);
  flush_known_strong t

(* REDBLUE: updates pushed by the DC's certification service node. *)
let handle_push_updates t ~txs ~strong_ts = deliver_strong t txs ~strong_ts

(* Dummy strong transaction acting as a heartbeat (Algorithm A6 line 10). *)
let strong_heartbeat t =
  t.hb_ctr <- t.hb_ctr + 1;
  let tid = { Types.cl = -(t.uid + 2); sq = t.hb_ctr } in
  let g = if Config.centralized_cert t.cfg then rb_group t else t.part in
  certify t ~caller:Msg.Normal ~tid ~origin:(-1) ~wbuff:[ (g, []) ]
    ~ops:[ (g, []) ]
    ~snap:(Vc.create ~dcs:(dcs t))
    ~lc:0
    ~k:(fun _ -> ())

(* ------------------------------------------------------------------ *)
(* Failure handling: Ω updates and forwarding activation.               *)

(* Ω's leader choice: the first non-suspected DC in the fixed order
   starting from the configured home leader. Every replica applies the
   same rule, so once suspicions agree, trust agrees — and when a falsely
   suspected preferred DC is rehabilitated, everyone re-trusts it, which
   (via Nack / recover at a higher ballot) converges leadership back. *)
let preferred_leader t =
  let n = dcs t in
  let home = t.cfg.Config.leader_dc in
  let rec go k =
    if k >= n then home  (* everything suspected: keep Ω pointed home *)
    else
      let dc = (home + k) mod n in
      if List.mem dc t.suspected then go (k + 1) else dc
  in
  go 0

let retarget_trust t =
  let preferred = preferred_leader t in
  Array.fill t.trusted_view 0 (Array.length t.trusted_view) preferred;
  match t.cert with
  | Some c when Cert.trusted c <> preferred -> Cert.set_trusted c preferred
  | _ -> ()

let suspect t failed_dc =
  if failed_dc <> t.dc && not (List.mem failed_dc t.suspected) then begin
    t.suspected <- failed_dc :: t.suspected;
    Sim.Trace.emitf t.trace ~source:t.trace_src ~kind:"suspect"
      "dc%d suspected; forwarding its transactions" failed_dc;
    (* While catching up after a crash, still retarget certification
       trust — when the crashed leader DC is the one being suspected,
       the group's election needs this member's ack, and deferring the
       retarget until the catch-up completes deadlocks against
       [cert_caught_up]. The one thing a half-synced member must never
       do is bid for leadership itself (electing on stale state could
       lose decisions), so the retarget is skipped exactly when Ω would
       point at our own DC; [finish_sync] recomputes trust in full. *)
    match t.sync with
    | Some _ -> if preferred_leader t <> t.dc then retarget_trust t
    | None -> (
        retarget_trust t;
        (* eagerly finish 2PCs the suspected DC was coordinating: an
           orphaned accepted-but-undecided transaction blocks delivery of
           every later strong timestamp in its group *)
        match t.cert with
        | Some c when Cert.is_leader c -> Cert.retry_suspected c ~dc:failed_dc
        | _ -> ())
  end

(* Rehabilitation: Ω stopped suspecting [dc] (heartbeats resumed after a
   partition heal or a false suspicion). Forwarding on its behalf stops
   and trust is recomputed, possibly handing leadership back. *)
let unsuspect t dc =
  if List.mem dc t.suspected then begin
    t.suspected <- List.filter (fun d -> d <> dc) t.suspected;
    Sim.Trace.emitf t.trace ~source:t.trace_src ~kind:"unsuspect"
      "dc%d rehabilitated" dc;
    (* the trust retarget follows the same no-self-bid rule as above *)
    match t.sync with
    | Some _ -> if preferred_leader t <> t.dc then retarget_trust t
    | None -> retarget_trust t
  end

(* ------------------------------------------------------------------ *)
(* Assembly: cert context and message dispatch.                         *)

let make_cert t =
  let ctx =
    {
      Cert.x_dc = t.dc;
      x_group = t.part;
      x_dcs = dcs t;
      x_quorum = Config.quorum t.cfg;
      x_conflict_ops = Config.ops_conflict t.cfg.Config.conflict;
      x_all_conflict = (t.cfg.Config.conflict = Config.All_strong);
      x_ops_slice = (fun ops -> Types.opsmap_find ops t.part);
      x_clock = (fun () -> clock t);
      x_now = (fun () -> now t);
      x_send = (fun dst msg -> send t dst msg);
      x_self = (fun () -> t.addr);
      x_member = (fun dc -> sibling t dc);
      x_dc_of = (fun a -> Network.dc_of t.net a);
      x_deliver = (fun txs ~strong_ts -> deliver_strong t txs ~strong_ts);
      x_at_clock = (fun ts k -> at_clock t ts k);
      x_certify =
        (fun ~caller ~tid ~origin ~wbuff ~ops ~snap ~lc ~k ->
          certify t ~caller ~tid ~origin ~wbuff ~ops ~snap ~lc ~k);
      x_alive = (fun () -> alive t);
    }
  in
  t.cert <-
    Some
      (Cert.create
         ~bid_interval_us:(Config.reclaim_debounce_us t.cfg)
         ctx ~leader_dc:t.cfg.Config.leader_dc)

let cert t = t.cert

(* ------------------------------------------------------------------ *)
(* Node-level persistence: the simulated disk, periodic snapshots, and
   orphan resolution (see DESIGN.md §4g).                               *)

(* Attach the simulated disk and route certification's durable events
   ([Cert.set_log]) into it. [System] calls this — after [make_cert] —
   when [Config.persistence] is set. *)
let enable_persistence t =
  let w =
    Store.Wal.create ~eng:t.eng
      ~metrics:
        ( t.metrics,
          [ ("dc", string_of_int t.dc); ("part", string_of_int t.part) ] )
      ~size:wal_record_bytes
      ~snap_size:node_snapshot_bytes ()
  in
  t.disk <- Some w;
  (* the node boots with empty state, so a from-scratch log is complete *)
  ignore (Store.Wal.append w W_genesis);
  match t.cert with
  | Some c ->
      Cert.set_log c (fun ev ~k -> ignore (Store.Wal.append w ~k (W_cert ev)))
  | None -> ()

let set_disk_slow t ~factor =
  match t.disk with Some w -> Store.Wal.set_slow w ~factor | None -> ()

let scrub_disk t =
  match t.disk with Some w -> Store.Wal.scrub w | None -> ()

let tear_disk_next t =
  match t.disk with Some w -> Store.Wal.tear_next w | None -> ()

(* Copy-out of everything a restart needs. Shared immutable structure
   (tx records, oplog entries and their commit vectors) is retained by
   reference — in particular a transaction's oplog entries keep sharing
   its record's vector array, which [handle_sync_request] relies on to
   recognise unpropagated commits physically. *)
let snapshot_of t =
  {
    ns_oplog =
      List.map
        (fun key -> (key, Store.Oplog.entries t.oplog key))
        (Store.Oplog.keys t.oplog);
    ns_known = Vc.copy t.known_vec;
    ns_prepared = t.prepared_causal;
    ns_committed = Array.map (fun q -> !q) t.committed_causal;
    ns_propagated = !(t.propagated_log);
    ns_last_prep = t.last_prep_ts;
    ns_frontier_tids = Array.copy t.frontier_tids;
    ns_frontier_ts = Array.copy t.frontier_ts;
    ns_decisions =
      Hashtbl.fold
        (fun tid (_, vec, lc, origin) acc -> (tid, (vec, lc, origin)) :: acc)
        t.coord_decisions [];
    ns_cert =
      (match t.cert with Some c -> Some (Cert.persistent_state c) | None -> None);
  }

(* Snapshot the state as of every append issued so far: memory runs
   ahead of the disk, so the image covers all records below the current
   sequence — the WAL truncates there once the write lands. *)
let take_snapshot t =
  match t.disk with
  | None -> ()
  | Some w -> Store.Wal.snapshot w ~seq:(Store.Wal.next_seq w - 1) (snapshot_of t)

(* How long either side of the intra-DC 2PC stays quiet before probing:
   well above a prepare round trip plus an fsync, well below a rolling
   restart's dwell time, so orphans resolve while the roll proceeds. *)
let orphan_age_us = 1_000_000

(* Periodic persistence housekeeping: participants query the outcome of
   stale prepares (presumed abort), coordinators re-send PREPAREs that a
   participant crash swallowed (participants dedup by tid), and old
   decisions are pruned once every participant had ample time to ask. *)
let resolve_orphans t =
  let cutoff = now t - orphan_age_us in
  List.iter
    (fun p ->
      if p.pc_at <= cutoff then
        send t p.pc_from
          (Msg.Commit_query { from = t.addr; tid = p.pc_tid; part = t.part }))
    t.prepared_causal;
  Hashtbl.iter
    (fun tid ct ->
      if ct.ct_pending > 0 && not ct.ct_deciding && ct.ct_started <= cutoff
      then begin
        ct.ct_started <- now t;
        Hashtbl.iter
          (fun l ws ->
            if not (List.mem l ct.ct_acked) then
              send t (local_replica t l)
                (Msg.Prepare
                   { from = t.addr; tid; writes = List.rev !ws;
                     snap = ct.ct_snap }))
          ct.ct_wbuff
      end)
    t.txns;
  let prune_below = now t - (10 * orphan_age_us) in
  Hashtbl.filter_map_inplace
    (fun _ ((at, _, _, _) as d) -> if at < prune_below then None else Some d)
    t.coord_decisions

(* Start the periodic tasks (Algorithm A4 line 1, Algorithm A5 line 1,
   heartbeats for strong transactions). [phase] staggers replicas.
   The generation check retires a previous incarnation's tasks across a
   crash/rejoin cycle: a task from before the crash must not resume just
   because the DC is alive again (the rejoin arms fresh ones). *)
let start_timers t ~phase =
  let cfg = t.cfg in
  t.timer_gen <- t.timer_gen + 1;
  let gen = t.timer_gen in
  let live () = t.timer_gen = gen && alive t in
  (* timer labels are per-DC (not per-partition): partitions of one DC
     do identical periodic work, and per-partition labels would explode
     the profile's cardinality without adding signal *)
  let lab task =
    if Sim.Prof.is_on (Engine.prof t.eng) then
      Sim.Prof.label (Engine.prof t.eng) (Fmt.str "dc%d/replica/%s" t.dc task)
    else Sim.Prof.none
  in
  Engine.every t.eng
    ~label:(lab "propagate")
    ~period:Config.propagate_period_us ~phase (fun () ->
      if live () then begin
        propagate_local_txs t;
        run_forwarding t;
        true
      end
      else false);
  Engine.every t.eng
    ~label:(lab "broadcast")
    ~period:cfg.Config.broadcast_period_us
    ~phase:(phase + 1) (fun () ->
      if live () then begin
        broadcast_vecs t;
        true
      end
      else false);
  if Config.has_strong cfg && not (Config.centralized_cert cfg) then begin
    Engine.every t.eng
      ~label:(lab "strong_heartbeat")
      ~period:Config.strong_heartbeat_us
      ~phase:(phase + 2) (fun () ->
        if live () then begin
          (match t.cert with
          | Some c ->
              if
                Cert.is_leader c
                && now t - Cert.idle_since c >= Config.strong_heartbeat_us
              then strong_heartbeat t
          | None -> ());
          true
        end
        else false);
    (* housekeeping runs far less often than heartbeats: it walks the
       whole decided table *)
    Engine.every t.eng
      ~label:(lab "housekeeping")
      ~period:500_000 ~phase:(phase + 3) (fun () ->
        if live () then begin
          (match t.cert with
          | Some c ->
              Cert.retry_stale c ~older_than_us:(4 * cert_retry_us);
              (* Prune only below every sibling's delivered strong
                 frontier (the strong slot of its gossiped knownVec): a
                 member cut off by a partition — even one falsely
                 suspected — must still find the decisions it missed in
                 the group's decided logs when it rejoins, and NEW_STATE
                 cannot resurrect a pruned entry. A crashed DC holds the
                 floor too while its rejoin grace period lasts — frozen
                 at its pre-crash frontier until it recovers, then pinned
                 at zero by [reset_peer_view] until its member has caught
                 up — and releases it only once the grace period expires
                 without a rejoin. *)
              let floor = ref (Cert.last_delivered c) in
              for i = 0 to dcs t - 1 do
                if i <> t.dc && holds_floor t i then
                  floor := min !floor (Vc.strong t.global_matrix.(i))
              done;
              Cert.prune_decided c ~keep_after:(!floor - 1_500_000)
          | None -> ());
          true
        end
        else false)
  end;
  if persistent t then begin
    (* periodic snapshot + truncate bounds WAL replay after a crash *)
    Engine.every t.eng
      ~label:(lab "snapshot")
      ~period:cfg.Config.snapshot_interval_us
      ~phase:(phase + 4) (fun () ->
        if live () then begin
          take_snapshot t;
          true
        end
        else false);
    Engine.every t.eng
      ~label:(lab "orphans")
      ~period:500_000 ~phase:(phase + 5) (fun () ->
        if live () then begin
          resolve_orphans t;
          true
        end
        else false)
  end

(* ------------------------------------------------------------------ *)
(* Client DC failover (crash recovery satellite of §5.6).               *)

(* A client whose session DC crashed migrates here carrying its causal
   past; like ATTACH, the reply is held until this DC's uniformVec covers
   the past's remote entries, so the first snapshot started afterwards
   includes everything the client has observed. *)
let handle_failover t ~client ~req ~past =
  Sim.Metrics.incr (Sim.Metrics.counter t.metrics "client_failovers_total");
  Sim.Trace.emitf t.trace ~source:t.trace_src ~kind:"failover"
    "client %d attached after failover" client;
  handle_attach t ~client ~req ~past

(* Idempotent re-submission of a strong transaction whose coordinator
   crashed before replying. The client re-sends the same tid with the
   write buffer and read set it accumulated; certification deduplicates
   by tid (an already-decided transaction yields its original decision
   via ALREADY_DECIDED; a prepared one re-accepts at its recorded
   timestamp), so the transaction takes effect exactly once no matter
   where the old coordinator stopped. *)
let handle_resubmit_strong t ~client ~client_id ~req ~tid ~wbuff ~ops ~snap
    ~lc =
  (* the snapshot was computed at the old session DC, so its "local"
     entry references that DC: bump the remote uniform entries from the
     client's evidence as START_TX does, then apply the usual
     COMMIT_STRONG precondition against our own local entry *)
  bump_snapshot_source t snap;
  let arrived_us = now t in
  wait_uniform_local t ~threshold:(Vc.get snap t.dc) (fun () ->
      let uniform_us = now t in
      Sim.Metrics.observe t.h_phase_uniform (uniform_us - arrived_us);
      certify t ~caller:Msg.Normal ~tid ~origin:client_id ~wbuff ~ops ~snap
        ~lc ~k:(fun result ->
          Sim.Metrics.observe t.h_phase_certify (now t - uniform_us);
          match result with
          | Cert.Decided (dec, vec, lc) ->
              Sim.Metrics.incr
                (if dec then t.c_strong_commit else t.c_strong_abort);
              send t client (Msg.R_strong { req; dec; vec; lc })
          | Cert.Unknown ->
              Sim.Metrics.incr t.c_strong_abort;
              send t client (Msg.R_strong { req; dec = false; vec = snap; lc })))

(* ------------------------------------------------------------------ *)
(* Catch-up after a DC rejoin or a node restart: the snapshot transfer,
   then the ordinary replication stream and gap repair (tentpole of the
   crash-recovery subsystem; see DESIGN.md §4e).                        *)

(* Causal-log backlog retained for [origin] (GC grace-window tests):
   the forwarded buffer for remote origins, the propagated log for our
   own. *)
let committed_backlog t ~origin =
  if origin = t.dc then List.length !(t.propagated_log)
  else List.length !(t.committed_causal.(origin))

let repair_active t ~origin = t.repair.(origin).r_active
let propagated_upto t = t.propagated_upto

(* A peer DC rejoined with empty state: forget everything its pre-crash
   gossip claimed it stored, so the causal buffers and decided logs are
   retained for it until its fresh vectors arrive. *)
let reset_peer_view t ~dc =
  if dc <> t.dc then begin
    let zero v =
      for i = 0 to dcs t - 1 do
        Vc.set v i 0
      done;
      Vc.set_strong v 0
    in
    zero t.global_matrix.(dc);
    zero t.stable_matrix.(dc)
  end

(* Everything a crash destroys. The clocks, rid/heartbeat counters and
   the lifetime metrics survive (restarted processes keep their
   identity); everything else restarts empty and is rebuilt by the
   catch-up. Ω's suspicions are reset once per recovery by the callers,
   not on every snapshot attempt. *)
let wipe_state t =
  Store.Oplog.clear t.oplog;
  let zero v =
    for i = 0 to dcs t - 1 do
      Vc.set v i 0
    done;
    Vc.set_strong v 0
  in
  zero t.known_vec;
  zero t.durable_known;
  zero t.stable_vec;
  zero t.uniform_vec;
  Array.iter zero t.local_agg;
  Array.iter zero t.stable_matrix;
  Array.iter zero t.global_matrix;
  t.prepared_causal <- [];
  t.propagated_log := [];
  t.last_prep_ts <- 0;
  t.propagated_upto <- 0;
  for i = 0 to dcs t - 1 do
    t.committed_causal.(i) := [];
    t.frontier_tids.(i) <- [];
    t.frontier_ts.(i) <- -1;
    t.pending_vis.(i) := [];
    (let r = t.repair.(i) in
     r.r_active <- false;
     r.r_upto <- 0;
     r.r_attempt <- 0;
     r.r_stalled <- 0;
     r.r_mark <- 0)
  done;
  Hashtbl.reset t.txns;
  Hashtbl.reset t.pending_cert;
  Sim.Heap.clear t.wait_known_local;
  Sim.Heap.clear t.wait_known_strong;
  Sim.Heap.clear t.wait_uniform_local;
  t.waiters <- []

(* Ask an eligible sibling for the snapshot, rotating the peer across
   attempts. Any partially applied chunks from an abandoned attempt are
   discarded by re-wiping; stale chunks still in flight are dropped by
   the [sq] check. *)
let request_snapshot t s =
  s.s_sq <- s.s_sq + 1;
  s.s_progress <- false;
  wipe_state t;
  match eligible_peers t with
  | [] -> ()  (* nobody to sync from; the retry tick keeps looking *)
  | peers ->
      let peer = List.nth peers (s.s_sq mod List.length peers) in
      Sim.Trace.emitf t.trace ~source:t.trace_src ~kind:"sync-request"
        "snapshot from dc%d (attempt %d)" peer s.s_sq;
      send t (sibling t peer)
        (Msg.Sync_request { from = t.addr; part = t.part; sq = s.s_sq })

let request_cert_state t =
  match t.cert with
  | None -> ()
  | Some c ->
      (* broadcast: only the group leader answers, and a stale trust view
         cannot say who that is right now. Carry our durable ballot so a
         leader still working below it (we crashed mid-election and our
         WAL kept the higher promise) knows to re-elect above it rather
         than answer with a [New_state] we are bound to refuse. *)
      let ballot = Cert.ballot c in
      List.iter
        (fun i ->
          send t (sibling t i) (Msg.State_request { from = t.addr; ballot }))
        (live_peers t)

(* Tell every live sibling how far we hold each stream. Besides pinning
   their GC floors, this is our answer to a sibling that is catching up
   itself (see [sync_complete]): our periodic gossip is down until we
   finish, so the retry tick re-sends it. *)
let gossip_known t =
  List.iter
    (fun i ->
      send t (sibling t i) (Msg.Knownvec_global { dc = t.dc; vec = gc_claim t }))
    (live_peers t)

let cert_caught_up t =
  match t.cert with
  | None -> true
  | Some c -> (
      match Cert.status c with
      | Cert.Leader | Cert.Follower -> true
      | Cert.Recovering | Cert.Restoring -> false)

(* Caught up once the snapshot is installed, the certification member
   re-entered its group, and every live sibling has told us how far it
   holds our own stream — and we hold that much again
   ([handle_knownvec_global] repairs the difference). A sibling that Ω
   suspects before it told us is not waited for: a partitioned sibling
   must not stall the rejoin. One that told us is waited for even when
   suspected, since it holds commits of ours: finishing without them
   would restart our stream below them, and our first heartbeat would
   tell every sibling lacking them that the window was empty. Nothing
   else is waited for: the other origins' windows above the frontier
   are filled by gap repair as soon as their stream shows them, and
   waiting for a third party's view of some origin livelocks against
   frontiers that heartbeats keep advancing. The claims about our own
   stream stand still while we are out of service, so they cannot run
   away. *)
let sync_complete t s =
  let own = Vc.get t.known_vec t.dc in
  (not s.s_snapshot)
  && cert_caught_up t
  && List.for_all
       (fun i ->
         if List.mem i s.s_heard then Vc.get t.global_matrix.(i) t.dc <= own
         else List.mem i t.suspected)
       (live_peers t)

(* Leave the catch-up and resume normal operation. *)
let finish_sync t s =
  t.sync <- None;
  let took = now t - s.s_started in
  Sim.Metrics.observe (Sim.Metrics.histogram t.metrics "dc_catchup_us") took;
  Sim.Trace.emitf t.trace ~source:t.trace_src ~kind:"sync-done"
    "caught up in %d us" took;
  (* re-seed the disk: a full snapshot makes the log replayable again
     (after a WAN rejoin the installed base never hit the WAL), and
     marks everything recovered as durable *)
  if persistent t then begin
    take_snapshot t;
    Vc.merge_into t.durable_known t.known_vec
  end;
  (* Re-seed the outgoing stream position at the recovered frontier:
     everything at or below it is held first-hand (snapshot, WAL replay
     or repaired into [propagated_log]), and every commit above it is
     still queued, so the first post-recovery batch honestly covers
     (frontier, batch-last]. Receivers ahead of the boundary dedup;
     receivers behind it trip the gap check and repair from us. *)
  t.propagated_upto <- Vc.get t.known_vec t.dc;
  (* resume normal operation: fresh periodic tasks, immediate metadata
     broadcast so siblings unpin the GC floors, and trust recomputed from
     the suspicions recorded while catching up (possibly reclaiming
     leadership through the ordinary recovery protocol) *)
  start_timers t ~phase:(t.uid * 7 mod 1_000);
  broadcast_vecs t;
  retarget_trust t;
  s.s_done ()

(* Serve a snapshot to a rejoining sibling: every oplog entry except the
   writes of our own not-yet-propagated commits, which sit above the cut
   (our knownVec) and reach the rejoiner through ordinary replication.
   Those entries are recognised physically: a pending transaction's oplog
   entries share its record's commit-vector array. *)
let handle_sync_request t ~from ~part ~sq =
  if part = t.part && not (is_syncing t) then begin
    let cut = Vc.copy t.known_vec in
    let pending = !(t.committed_causal.(t.dc)) in
    let unpropagated vec =
      List.exists (fun tx -> tx.Types.tx_vec == vec) pending
    in
    let chunk = ref [] and n = ref 0 in
    let flush ~last =
      send t from
        (Msg.Sync_store
           { sq; entries = List.rev !chunk; last; cut = Vc.copy cut });
      chunk := [];
      n := 0
    in
    List.iter
      (fun key ->
        List.iter
          (fun (e : Store.Oplog.entry) ->
            if not (unpropagated e.vec) then begin
              chunk := (key, e.op, e.vec, e.tag) :: !chunk;
              incr n;
              if !n >= catchup_chunk then flush ~last:false
            end)
          (Store.Oplog.entries t.oplog key))
      (Store.Oplog.keys t.oplog);
    flush ~last:true
  end

let handle_sync_store t ~sq ~entries ~last ~cut =
  match t.sync with
  | Some s when s.s_snapshot && s.s_sq = sq ->
      s.s_progress <- true;
      List.iter
        (fun (key, op, vec, tag) -> Store.Oplog.append t.oplog key ~op ~vec ~tag)
        entries;
      if last then begin
        (* install the cut: the store now materialises everything below
           it, so it becomes the replication frontier, the floor for new
           prepare timestamps and the delivery frontier of the
           certification member *)
        Vc.merge_into t.known_vec cut;
        t.last_prep_ts <- Vc.get cut t.dc;
        observe_clock t (Vc.get cut t.dc);
        observe_clock t (Vc.strong cut);
        (match t.cert with
        | Some c -> Cert.begin_rejoin c ~delivered:(Vc.strong cut)
        | None -> ());
        s.s_snapshot <- false;
        Sim.Trace.emitf t.trace ~source:t.trace_src ~kind:"sync-snapshot"
          "installed cut %a" Vc.pp cut;
        request_cert_state t;
        gossip_known t
      end
  | _ -> ()  (* stale chunk from an abandoned attempt *)

(* What a replica admits while catching up. The snapshot phase admits
   snapshot chunks only. The replication stream is dropped there, not
   buffered: the cut covers everything the stream carried up to it, and
   the first message whose window starts above the cut trips the
   continuity check and is repaired. After the snapshot everything
   needed to converge is admitted — the stream, repair replies, gossip,
   certification — but no client requests (the client's failover
   handles those) and no intra-DC transaction traffic. *)
let sync_admits s msg =
  match msg with
  | Msg.Sync_store _ -> true
  | _ when s.s_snapshot -> false
  | Msg.C_start _ | Msg.C_read _ | Msg.C_update _ | Msg.C_commit_causal _
  | Msg.C_commit_strong _ | Msg.C_uniform_barrier _ | Msg.C_attach _
  | Msg.C_failover _ | Msg.C_resubmit_strong _ | Msg.Get_version _
  | Msg.Version _ | Msg.Prepare _ | Msg.Prepare_ack _ | Msg.Commit _ ->
      false
  | _ -> true

let dispatch t msg =
  (match msg with
  | Msg.C_start { client; client_id; req; tid; past } ->
      start_tx t ~client ~client_id ~req ~tid ~past
  | Msg.C_read { client; req; tid; key; cls } ->
      handle_read t ~client ~req ~tid ~key ~cls
  | Msg.C_update { client; req; tid; key; op; cls } ->
      handle_update t ~client ~req ~tid ~key ~op ~cls
  | Msg.C_commit_causal { client; req; tid; lc } ->
      handle_commit_causal t ~client ~req ~tid ~lc
  | Msg.C_commit_strong { client; req; tid; lc } ->
      handle_commit_strong t ~client ~req ~tid ~lc
  | Msg.C_uniform_barrier { client; req; past } ->
      handle_uniform_barrier t ~client ~req ~past
  | Msg.C_attach { client; req; past } -> handle_attach t ~client ~req ~past
  | Msg.C_failover { client; req; past } -> handle_failover t ~client ~req ~past
  | Msg.C_resubmit_strong { client; client_id; req; tid; wbuff; ops; snap; lc }
    ->
      handle_resubmit_strong t ~client ~client_id ~req ~tid ~wbuff ~ops ~snap
        ~lc
  | Msg.Sync_request { from; part; sq } -> handle_sync_request t ~from ~part ~sq
  | Msg.Sync_store { sq; entries; last; cut } ->
      handle_sync_store t ~sq ~entries ~last ~cut
  | Msg.Get_version { from; tid; key; snap } ->
      handle_get_version t ~from ~tid ~key ~snap
  | Msg.Version { tid; key; value; lc } -> handle_version t ~tid ~key ~value ~lc
  | Msg.Prepare { from; tid; writes; snap } ->
      handle_prepare t ~from ~tid ~writes ~snap
  | Msg.Prepare_ack { tid; part; ts } -> handle_prepare_ack t ~tid ~part ~ts
  | Msg.Commit { tid; vec; lc; origin } -> handle_commit t ~tid ~vec ~lc ~origin
  | Msg.Commit_query { from; tid; part = _ } -> handle_commit_query t ~from ~tid
  | Msg.Commit_abort { tid } -> handle_commit_abort t ~tid
  | Msg.Replicate { origin; txs; from_ts } ->
      handle_replicate t ~origin ~txs ~from_ts
  | Msg.Heartbeat { origin; ts; from_ts } ->
      handle_heartbeat t ~origin ~ts ~from_ts
  | Msg.Repair_request { from; origin; vec_from; upto; sq } ->
      handle_repair_request t ~from ~origin ~vec_from ~upto ~sq
  | Msg.Repair_log { origin; txs; from_ts; covered; last; sq } as m ->
      Sim.Metrics.incr
        ~by:(Msg.size_bytes m)
        (Sim.Metrics.counter t.metrics "repair_log_bytes_total");
      handle_repair_log t ~origin ~txs ~from_ts ~covered ~last ~sq
  | Msg.Kv_up { part; vec } -> handle_kv_up t ~part ~vec
  | Msg.Stable_down { vec } -> handle_stable_down t ~vec
  | Msg.Stablevec { dc; vec } -> handle_stablevec t ~dc ~vec
  | Msg.Knownvec_global { dc; vec } -> handle_knownvec_global t ~dc ~vec
  | Msg.Accept_ack { part; b; rid; tid; vote; ts; lc; from_dc } ->
      handle_accept_ack t ~part ~b ~rid ~tid ~vote ~ts ~lc ~from_dc
  | Msg.Already_decided { rid; tid; dec; vec; lc } ->
      handle_already_decided t ~rid ~tid ~dec ~vec ~lc
  | Msg.Unknown_tx_ack { part; rid; tid; from_dc } ->
      handle_unknown_tx_ack t ~part ~rid ~tid ~from_dc
  | Msg.Push_updates { txs; strong_ts } ->
      handle_push_updates t ~txs ~strong_ts
  | Msg.R_started _ | Msg.R_value _ | Msg.R_committed _ | Msg.R_strong _
  | Msg.R_ok _ | Msg.R_overloaded _ ->
      ()  (* client-bound replies never reach replicas *)
  | Msg.Fd_ping _ -> ()  (* heartbeats are handled by Detector nodes *)
  | ( Msg.Prepare_strong _ | Msg.Accept _ | Msg.Decision _
    | Msg.Learn_decision _ | Msg.Deliver _ | Msg.Unknown_tx _ | Msg.Nack _
    | Msg.New_leader _ | Msg.New_leader_ack _ | Msg.New_state _
    | Msg.New_state_ack _ | Msg.State_request _ ) as m -> (
      match t.cert with
      | Some c -> ignore (Cert.handle c m)
      | None ->
          Log.debug (fun k ->
              k "replica %d.%d dropped %s (no certification group)" t.dc
                t.part (Msg.kind m))))

let make_sync t ~wan ~on_done =
  let s =
    {
      s_wan = wan;
      s_snapshot = wan;
      s_sq = 0;
      s_progress = false;
      s_heard = [];
      s_started = now t;
      s_done = on_done;
    }
  in
  t.sync <- Some s;
  s

(* The retry tick driving the catch-up until it completes: rotate a
   snapshot source that sent nothing since the last tick, re-ask for the
   certification state, re-send our claims to siblings that are
   catching up too. *)
let arm_sync_retry t s =
  let period = 500_000 in
  let label =
    if Sim.Prof.is_on (Engine.prof t.eng) then
      Sim.Prof.label (Engine.prof t.eng) (Fmt.str "dc%d/replica/sync" t.dc)
    else Sim.Prof.none
  in
  Engine.every t.eng ~label ~period ~phase:(t.uid * 13 mod period) (fun () ->
      match t.sync with
      | Some s' when s' == s && alive t -> (
          (if s.s_snapshot then begin
             (* no chunk since the last tick: the peer died, refused, or
                sits behind a partition; rotate to the next one *)
             if s.s_progress then s.s_progress <- false
             else request_snapshot t s
           end
           else if sync_complete t s then finish_sync t s
           else begin
             if not (cert_caught_up t) then request_cert_state t;
             gossip_known t
           end);
          match t.sync with Some s' when s' == s -> true | _ -> false)
      | _ -> false)

(* Re-enter the system after the DC recovered: wipe what the crash
   destroyed, park the certification member in Recovering, and fetch a
   snapshot off the retry tick. The periodic tasks stay down until
   [finish_sync] re-arms them. *)
let begin_rejoin t ~on_done =
  t.timer_gen <- t.timer_gen + 1;
  t.suspected <- [];
  let s = make_sync t ~wan:true ~on_done in
  (match t.cert with
  | Some c -> Cert.begin_rejoin c ~delivered:0
  | None -> ());
  request_snapshot t s;
  arm_sync_retry t s

(* ------------------------------------------------------------------ *)
(* Node-level crash/restart: recover from the replica's own disk, then
   catch up like a rejoiner past its snapshot (tentpole of the
   persistence subsystem; DESIGN.md §4g). Distinct from the whole-DC
   path above: the disk survives, so no WAN snapshot transfer is
   needed.                                                              *)

(* The process dies: timers retire, a running catch-up is abandoned, and
   un-fsynced WAL appends are lost (the in-flight head may tear). The
   network side ([Network.fail_node]) is driven by [System].            *)
let crash_node t =
  t.timer_gen <- t.timer_gen + 1;
  t.sync <- None;
  Sim.Trace.emitf t.trace ~source:t.trace_src ~kind:"node-crash" "process down";
  match t.disk with Some w -> Store.Wal.crash w | None -> ()

let install_snapshot t ns =
  List.iter
    (fun (key, es) ->
      (* [Oplog.entries] lists newest first; re-append oldest first *)
      List.iter
        (fun (e : Store.Oplog.entry) ->
          Store.Oplog.append t.oplog key ~op:e.op ~vec:e.vec ~tag:e.tag)
        (List.rev es))
    ns.ns_oplog;
  Vc.merge_into t.known_vec ns.ns_known;
  t.prepared_causal <-
    List.map (fun p -> { p with pc_at = now t }) ns.ns_prepared;
  Array.iteri (fun i l -> t.committed_causal.(i) := l) ns.ns_committed;
  t.propagated_log := ns.ns_propagated;
  t.last_prep_ts <- ns.ns_last_prep;
  Array.iteri (fun i l -> t.frontier_tids.(i) <- l) ns.ns_frontier_tids;
  Array.iteri (fun i v -> t.frontier_ts.(i) <- v) ns.ns_frontier_ts;
  List.iter
    (fun (tid, (vec, lc, origin)) ->
      Hashtbl.replace t.coord_decisions tid (now t, vec, lc, origin))
    ns.ns_decisions

(* Replay one WAL record on top of the snapshot. Applied-state records
   re-run the ordinary apply paths (their dedup makes replay idempotent
   against the snapshot); certification events fold into [cert_acc] for
   a single [Cert.restart] at the end. History is not re-recorded — the
   checker's log survives the process. *)
let replay_record t cert_acc = function
  | W_genesis -> ()
  | W_prepare p ->
      t.prepared_causal <- { p with pc_at = now t } :: t.prepared_causal;
      t.last_prep_ts <- max t.last_prep_ts p.pc_ts;
      observe_clock t p.pc_ts
  | W_commit tx ->
      t.prepared_causal <-
        List.filter
          (fun q -> not (Types.tid_equal q.pc_tid tx.Types.tx_tid))
          t.prepared_causal;
      let tag = Types.tx_tag tx in
      List.iter
        (fun w ->
          Store.Oplog.append t.oplog w.Types.wkey ~op:w.Types.wop
            ~vec:tx.Types.tx_vec ~tag)
        tx.Types.tx_writes;
      let q = t.committed_causal.(t.dc) in
      q := tx :: !q
  | W_replicate (origin, txs, from_ts) -> handle_replicate t ~origin ~txs ~from_ts
  | W_strong (txs, strong_ts) -> deliver_strong t txs ~strong_ts
  | W_decide (tid, vec, lc, origin) ->
      Hashtbl.replace t.coord_decisions tid (now t, vec, lc, origin)
  | W_cert (Cert.E_ballot { b; cb }) ->
      let bal, cbal, prepared = !cert_acc in
      cert_acc := (max bal b, max cbal cb, prepared)
  | W_cert (Cert.E_accept p) ->
      let bal, cbal, prepared = !cert_acc in
      let prepared =
        p
        :: List.filter
             (fun (q : Msg.prepared_strong) ->
               not (Types.tid_equal q.Msg.ps_tid p.Msg.ps_tid))
             prepared
      in
      cert_acc := (bal, cbal, prepared)

(* Restart from the node's own disk: replay snapshot + WAL tail, hand
   certification its durable promises back, then catch up what was
   missed while down exactly as a rejoiner does past its snapshot — a
   clean node restart ships zero WAN snapshot bytes. Falls back to the
   WAN rejoin when the disk holds nothing (first boot after a scrub).
   Like a rejoiner, the restarted process starts with no suspicions. *)
let restart_from_disk t ~on_done =
  Sim.Metrics.incr (Sim.Metrics.counter t.metrics "node_restarts_total");
  t.suspected <- [];
  match t.disk with
  | None -> begin_rejoin t ~on_done
  | Some w -> (
      match Store.Wal.recover w with
      | None, [] ->
          Sim.Trace.emitf t.trace ~source:t.trace_src ~kind:"node-restart"
            "disk empty; falling back to WAN rejoin";
          begin_rejoin t ~on_done
      | None, tail when not (List.exists (function W_genesis -> true | _ -> false) tail) ->
          (* a base-less log: the re-seeding snapshot after a scrub or
             WAN rejoin never installed, so the tail alone cannot
             rebuild the state *)
          Sim.Trace.emitf t.trace ~source:t.trace_src ~kind:"node-restart"
            "disk has no recoverable base; falling back to WAN rejoin";
          Store.Wal.scrub w;
          begin_rejoin t ~on_done
      | snap, tail ->
          t.timer_gen <- t.timer_gen + 1;
          wipe_state t;
          Hashtbl.reset t.coord_decisions;
          t.replaying <- true;
          let local_bytes = ref 0 in
          (match snap with
          | Some ns ->
              local_bytes := node_snapshot_bytes ns;
              install_snapshot t ns
          | None -> ());
          let cert_acc =
            ref
              (match snap with
              | Some { ns_cert = Some st; _ } -> st
              | _ -> (0, 0, []))
          in
          List.iter
            (fun r ->
              local_bytes := !local_bytes + wal_record_bytes r;
              replay_record t cert_acc r)
            tail;
          t.replaying <- false;
          (* everything recovered is on disk by definition *)
          Vc.merge_into t.durable_known t.known_vec;
          Sim.Metrics.incr
            ~by:(List.length tail)
            (Sim.Metrics.counter t.metrics "replay_entries_total");
          Sim.Metrics.incr ~by:!local_bytes
            (Sim.Metrics.counter t.metrics "local_catchup_bytes_total");
          observe_clock t (Vc.get t.known_vec t.dc);
          observe_clock t (Vc.strong t.known_vec);
          Sim.Trace.emitf t.trace ~source:t.trace_src ~kind:"node-restart"
            "replayed %d entries on top of %s; catching up"
            (List.length tail)
            (match snap with Some _ -> "a snapshot" | None -> "an empty disk");
          (match t.cert with
          | Some c ->
              let ballot, cballot, prepared = !cert_acc in
              Cert.restart c ~ballot ~cballot ~prepared
                ~delivered:(Vc.strong t.known_vec)
          | None -> ());
          let s = make_sync t ~wan:false ~on_done in
          request_cert_state t;
          gossip_known t;
          arm_sync_retry t s)

let handle t msg =
  match t.sync with
  | None -> dispatch t msg
  | Some s ->
      if sync_admits s msg then begin
        (match msg with
        | Msg.Sync_store _ when s.s_snapshot ->
            Sim.Metrics.incr
              ~by:(Msg.size_bytes msg)
              (Sim.Metrics.counter t.metrics "sync_snapshot_bytes_total")
        | _ -> ());
        dispatch t msg;
        (* the message may have been the one completing the catch-up *)
        match t.sync with
        | Some s' when s' == s && sync_complete t s -> finish_sync t s
        | _ -> ()
      end
