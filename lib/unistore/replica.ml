(* Partition replica p_d^m: the heart of UniStore.

   The replica's state lives in [Replica_state]; its algorithms are
   plain functions over that state, one module per part of the paper:
   - [Causal_txn]: transaction coordination and the causal commit path
     (Algorithms A2–A3), with presumed-abort resolution of orphaned
     intra-DC 2PCs;
   - [Replication]: replication and heartbeats (A4), with
     stream-continuity checks and gap repair, which also forwards (A4);
   - [Stabilisation]: the metadata protocol computing stableVec and
     uniformVec (A5) over the in-DC dissemination tree of §5.4, uniform
     barriers and client attachment (§5.6);
   - [Strong_coord]: the coordinator side of strong-transaction
     certification (A6–A7) and Ω's leader trust; the group-member side
     lives in [Cert];
   - [Recovery]: the write-ahead log and snapshots, the WAN rejoin of a
     recovered DC and the restart of a node from its own disk.
   This module assembles them: construction, the certification context,
   the periodic tasks, and message dispatch.

   Handlers execute atomically at a simulated timestamp, as the paper
   assumes. The pseudocode's "wait until" statements become either
   clock-waits (scheduled at the exact future instant) or state-waits:
   threshold waits on one vector entry, run when that entry advances,
   and for attach a predicate re-checked when uniformVec changes. *)

open Replica_state

let src = Logs.Src.create "unistore.replica"

module Log = (val Logs.src_log src : Logs.LOG)

type nonrec t = t

type env = Replica_state.env = {
  e_lookup : int -> int -> Msg.addr;
  e_dc_pending : int -> int;
}

let create cfg eng net ~dc ~part ~uid ~skew ~tick_origin ~history ~trace
    ~metrics =
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
    env = { e_lookup = (fun _ _ -> -1); e_dc_pending = (fun _ -> 0) };
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
    c_strong_commit = Sim.Metrics.counter metrics "strong_committed_total";
    c_strong_abort = Sim.Metrics.counter metrics "strong_aborted_total";
    oplog = Store.Oplog.create ();
    known_vec = Vc.create ~dcs:d;
    durable_known = Vc.create ~dcs:d;
    stable_vec = Vc.create ~dcs:d;
    stable_sent = Vc.create ~dcs:d;
    uniform_vec = Vc.create ~dcs:d;
    local_agg = Array.init cfg.Config.partitions (fun _ -> Vc.create ~dcs:d);
    reported = 0;
    tick_origin;
    stable_matrix = Array.init d (fun _ -> Vc.create ~dcs:d);
    global_matrix = Array.init d (fun _ -> Vc.create ~dcs:d);
    prepared_causal = [];
    unshipped = Stream_log.create ~origin:dc;
    retained = Array.init d (fun origin -> Stream_log.create ~origin);
    retained_from = Array.make d 0;
    last_prep_ts = 0;
    propagated_upto = 0;
    txns = Hashtbl.create 64;
    wait_known_local = Sim.Heap.create ~less:wait_before;
    wait_known_strong = Sim.Heap.create ~less:wait_before;
    wait_uniform_local = Sim.Heap.create ~less:wait_before;
    wait_seq = 0;
    waiters = [];
    cert = None;
    trusted = Config.leader_dc;
    pending_cert = Hashtbl.create 16;
    cert_armed = false;
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
let set_addr t addr = t.addr <- addr
let set_env t env = t.env <- env
let oplog t = t.oplog
let known_vec t = t.known_vec
let stable_vec t = t.stable_vec
let uniform_vec t = t.uniform_vec
let cert t = t.cert
let is_syncing = is_syncing
let suspect = Strong_coord.suspect
let unsuspect = Strong_coord.unsuspect
let certify = Strong_coord.certify
let reset_peer_view = Recovery.reset_peer_view
let enable_persistence = Recovery.enable_persistence
let crash_node = Recovery.crash_node

(* Coordinator-side strong certifications still awaiting a decision,
   dummy strong heartbeats (origin = -1) excluded. *)
let pending_strong t =
  Hashtbl.fold
    (fun _ pc acc ->
      if pc.p_done || pc.p_tx.st_origin = -1 then acc else acc + 1)
    t.pending_cert 0

let stream_log t ~origin = t.retained.(origin)
let unshipped t = t.unshipped
let snapshot_bytes = Recovery.snapshot_bytes
let repair_active t ~origin = t.repair.(origin).r_active

let set_disk_slow t ~factor = Option.iter (Store.Wal.set_slow ~factor) t.disk
let scrub_disk t = Option.iter Store.Wal.scrub t.disk
let tear_disk_next t = Option.iter Store.Wal.tear_next t.disk

(* ------------------------------------------------------------------ *)
(* Assembly: cert context, periodic tasks and message dispatch.         *)

let make_cert t =
  let ctx =
    {
      Cert.x_dc = t.dc;
      x_group = t.part;
      x_dcs = dcs t;
      x_quorum = Config.quorum t.cfg;
      x_conflict = t.cfg.Config.conflict;
      x_ops_slice = (fun ops -> Types.opsmap_find ops t.part);
      x_clock = (fun () -> clock t);
      x_now = (fun () -> now t);
      x_send = (fun dst msg -> send t dst msg);
      x_self = (fun () -> t.addr);
      x_member = (fun dc -> sibling t dc);
      x_dc_of = (fun a -> Network.dc_of t.net a);
      x_deliver =
        (fun txs ~strong_ts -> Strong_coord.deliver_strong t txs ~strong_ts);
      x_at_clock = (fun ts k -> at_clock t ts k);
      x_certify = Strong_coord.certify t;
      x_alive = (fun () -> alive t);
    }
  in
  t.cert <-
    Some
      (Cert.create
         ~bid_interval_us:(Config.reclaim_debounce_us t.cfg)
         ctx ~leader_dc:Config.leader_dc)

let host_cert t c = t.cert <- Some c

(* Delay from now to the next instant congruent to [at] modulo
   [period]: a task armed with it keeps its DC's schedule whenever it is
   (re)started. *)
let next_phase t ~period at =
  let d = (at - now t) mod period in
  if d <= 0 then d + period else d

(* Start the periodic tasks (Algorithm A4 line 1, Algorithm A5 line 1,
   heartbeats for strong transactions), on the DC's schedule: a leaf's
   tree step at the DC's tick origin, every partition's propagate tick
   [Stabilisation.stable_lead_us] later, so the stableVec the round
   computes rides that period's stream, and the other tasks just after.
   Internal tree nodes have no tree-step timer: they forward when their
   children report ([Stabilisation.handle_kv_up]).
   The generation check retires a previous incarnation's tasks across a
   crash/rejoin cycle: a task from before the crash must not resume just
   because the DC is alive again (the rejoin arms fresh ones). *)
let start_timers t =
  let cfg = t.cfg in
  t.timer_gen <- t.timer_gen + 1;
  let gen = t.timer_gen in
  (* [f] every [period], at the instants congruent to [at], for as long
     as this incarnation lives *)
  let every task ~period ~at f =
    Engine.every t.eng ~label:(task_label t task) ~period
      ~phase:(next_phase t ~period at) (fun () ->
        if t.timer_gen = gen && alive t then begin
          f ();
          true
        end
        else false)
  in
  let prop = t.tick_origin + Stabilisation.stable_lead_us t in
  if Stabilisation.is_leaf t then
    every "broadcast" ~period:cfg.Config.broadcast_period_us
      ~at:t.tick_origin (fun () -> Stabilisation.broadcast_vecs t);
  every "propagate" ~period:Config.propagate_period_us ~at:prop (fun () ->
      Replication.prune_committed t;
      Replication.propagate_local_txs t;
      Replication.pull_suspected t);
  (match t.cert with
  | Some c ->
      every "strong_heartbeat" ~period:Config.strong_heartbeat_us
        ~at:(prop + 1) (fun () ->
          if
            Cert.is_leader c
            && now t - Cert.idle_since c >= Config.strong_heartbeat_us
          then Strong_coord.strong_heartbeat t);
      (* housekeeping runs far less often than heartbeats: it walks the
         whole decided table *)
      every "housekeeping" ~period:500_000 ~at:(prop + 2) (fun () ->
          Cert.retry_stale c ~older_than_us:(4 * Strong_coord.cert_retry_us);
          (* Prune only below every sibling's delivered strong frontier
             (the strong slot of its gossiped knownVec): a member cut
             off by a partition — even one falsely suspected — must
             still find the decisions it missed in the group's decided
             logs when it rejoins, and NEW_STATE cannot resurrect a
             pruned entry. A crashed DC holds the floor too while its
             rejoin grace period lasts — frozen at its pre-crash
             frontier until it recovers, then pinned at zero by
             [reset_peer_view] until its member has caught up — and
             releases it only once the grace period expires without a
             rejoin. An entry must also be stable at every floor
             holder, whole vector: a snapshot whose strong entry passed
             the floor may still miss it through the entry of a DC cut
             off by a partition. *)
          let floor =
            Replication.holders_floor t ~init:(Cert.last_delivered c) (dcs t)
          in
          Cert.prune_decided c ~covered:(Replication.stable_at_holders t) ~floor)
  | None -> ());
  (* periodic snapshot + truncate bounds WAL replay after a crash *)
  if persistent t then
    every "snapshot" ~period:cfg.Config.snapshot_interval_us ~at:(prop + 3)
      (fun () -> Recovery.take_snapshot t);
  (* in every mode: a partition still catching up drops the PREPAREs
     that reach it ([Recovery.sync_admits]), and only this re-send
     settles their 2PCs *)
  every "orphans" ~period:500_000 ~at:(prop + 4) (fun () ->
      Causal_txn.resolve_orphans t)

(* Once a catch-up completes: fresh periodic tasks on the DC's
   schedule, an immediate tree step and sibling claim so siblings unpin
   the GC floors, and trust recomputed from the suspicions recorded
   while catching up (possibly reclaiming leadership through the
   ordinary recovery protocol). *)
let resume t ~on_done () =
  start_timers t;
  Stabilisation.broadcast_vecs t;
  Recovery.gossip t (Replication.sibling_claim t);
  Strong_coord.retarget_trust t;
  on_done ()

let begin_rejoin t ~on_done =
  Recovery.begin_rejoin t ~resume:(resume t ~on_done)

let restart_from_disk t ~on_done =
  Recovery.restart_from_disk t ~resume:(resume t ~on_done)

let dispatch t msg =
  match msg with
  | Msg.C_start { client; client_id; req; tid; past } ->
      Causal_txn.start_tx t ~client ~client_id ~req ~tid ~past
  | Msg.C_read { client; req; tid; key; cls } ->
      Causal_txn.handle_read t ~client ~req ~tid ~key ~cls
  | Msg.C_update { client; req; tid; key; op; cls } ->
      Causal_txn.handle_update t ~client ~req ~tid ~key ~op ~cls
  | Msg.C_commit_causal { client; req; tid; lc } ->
      Causal_txn.handle_commit_causal t ~client ~req ~tid ~lc
  | Msg.C_commit_strong { client; req; tid; lc } ->
      Strong_coord.handle_commit_strong t ~client ~req ~tid ~lc
  | Msg.C_uniform_barrier { client; req; past } ->
      Stabilisation.handle_uniform_barrier t ~client ~req ~past
  | Msg.C_attach { client; req; past } ->
      Stabilisation.handle_attach t ~client ~req ~past
  | Msg.C_resubmit_strong { client; req; tx; lc } ->
      Strong_coord.handle_resubmit_strong t ~client ~req tx ~lc
  | Msg.Sync_request { from } -> Recovery.handle_sync_request t ~from
  | Msg.Sync_store { entries; cut } ->
      Recovery.handle_sync_store t ~entries ~cut
  | Msg.Get_version { from; tid; key; snap } ->
      Causal_txn.handle_get_version t ~from ~tid ~key ~snap
  | Msg.Version { tid; key; value; lc } ->
      Causal_txn.handle_version t ~tid ~key ~value ~lc
  | Msg.Prepare { from; tid; writes; snap } ->
      Causal_txn.handle_prepare t ~from ~tid ~writes ~snap
  | Msg.Prepare_ack { tid; part; ts } ->
      Causal_txn.handle_prepare_ack t ~tid ~part ~ts
  | Msg.Commit { tid; vec; lc; origin } ->
      Causal_txn.handle_commit t ~tid ~vec ~lc ~origin
  | Msg.Commit_query { from; tid; part = _ } ->
      Causal_txn.handle_commit_query t ~from ~tid
  | Msg.Commit_abort { tid } -> Causal_txn.handle_commit_abort t ~tid
  (* the sibling gossip riding an own-stream message is handled after
     the stream part, exactly as a standalone KNOWNVEC_GLOBAL *)
  | Msg.Replicate { origin; txs; from_ts; claim } ->
      Replication.handle_replicate t ~origin ~txs ~from_ts;
      Stabilisation.handle_knownvec_global t ~dc:origin claim
  | Msg.Heartbeat { origin; ts; from_ts; claim } ->
      Replication.handle_heartbeat t ~origin ~ts ~from_ts;
      Stabilisation.handle_knownvec_global t ~dc:origin claim
  | Msg.Repair_request { from; origin; vec_from; upto = _; sq } ->
      Replication.handle_repair_request t ~from ~origin ~vec_from ~sq
  | Msg.Repair_log { origin; txs; from_ts; covered; last; sq } as m ->
      Sim.Metrics.add
        (Sim.Metrics.counter t.metrics "repair_log_bytes_total")
        (Msg.size_bytes m);
      Replication.handle_repair_log t ~origin ~txs ~from_ts ~covered ~last ~sq
  | Msg.Kv_up { part; vec } -> Stabilisation.handle_kv_up t ~part ~vec
  | Msg.Stable_down { vec } -> Stabilisation.update_stable t vec
  | Msg.Knownvec_global { dc; claim } ->
      Stabilisation.handle_knownvec_global t ~dc claim
  | Msg.Accept_ack { part; b; rid; tid; vote; ts; lc; from_dc } ->
      Strong_coord.handle_accept_ack t ~part ~b ~rid ~tid ~vote ~ts ~lc
        ~from_dc
  | Msg.Already_decided { rid; dec; record } ->
      Strong_coord.handle_already_decided t ~rid ~dec ~record
  | Msg.Unknown_tx_ack { part; rid; tid; from_dc } ->
      Strong_coord.handle_unknown_tx_ack t ~part ~rid ~tid ~from_dc
  | Msg.Push_updates { txs; strong_ts } ->
      (* REDBLUE: updates pushed by the DC's certification service node *)
      Strong_coord.deliver_strong t txs ~strong_ts
  | Msg.R_started _ | Msg.R_value _ | Msg.R_committed _ | Msg.R_strong _
  | Msg.R_ok _ | Msg.R_overloaded _ ->
      ()  (* client-bound replies never reach replicas *)
  | Msg.Fd_ping _ -> ()  (* heartbeats are handled by Detector nodes *)
  | ( Msg.Prepare_strong _ | Msg.Accept _ | Msg.Decision _
    | Msg.Learn_decision _ | Msg.Deliver _ | Msg.Unknown_tx _ | Msg.Nack _
    | Msg.New_leader _ | Msg.New_leader_ack _ | Msg.New_state _
    | Msg.New_state_ack _ | Msg.State_request _ ) as m -> (
      match t.cert with
      | Some c -> Cert.handle c m
      | None ->
          Log.debug (fun k ->
              k "replica %d.%d dropped %s (no certification group)" t.dc
                t.part (Msg.kind m)))

let handle t msg =
  match t.sync with
  | None -> dispatch t msg
  | Some s ->
      if Recovery.sync_admits s msg then begin
        (match msg with
        | Msg.Sync_store _ when s.s_snapshot ->
            Sim.Metrics.add
              (Sim.Metrics.counter t.metrics "sync_snapshot_bytes_total")
              (Msg.size_bytes msg)
        | _ -> ());
        dispatch t msg;
        (* the message may have been the one completing the catch-up *)
        match t.sync with
        | Some s' when s' == s && Recovery.sync_complete t s ->
            Recovery.finish_sync t s
        | _ -> ()
      end
