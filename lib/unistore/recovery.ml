(* Recovery: the replica's write-ahead log and snapshots (node-level
   persistence, DESIGN.md §4g), the catch-up after a DC rejoin over the
   WAN (§4e), and the restart of one node from its own disk. Both
   catch-ups end the same way: the ordinary replication stream plus gap
   repair, until [sync_complete].                                       *)

open Replica_state

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
  | W_cert (Cert.E_abort r) -> 24 + Msg.vc_bytes r.tx_vec

(* The oplog term comes from the key and entry counts: 8 bytes a key,
   and per entry 24 plus its commit vector, which has the width of every
   vector of the deployment. *)
let node_snapshot_bytes ns =
  let txs_bytes l = List.fold_left (fun acc tx -> acc + Msg.tx_bytes tx) 8 l in
  8
  + (8 * Array.length ns.ns_keys)
  + (ns.ns_entry_count * (24 + Msg.vc_bytes ns.ns_known))
  + Msg.vc_bytes ns.ns_known
  + List.fold_left
      (fun acc p -> acc + 32 + Msg.writes_bytes p.pc_writes)
      8 ns.ns_prepared
  + Array.fold_left (fun acc l -> acc + txs_bytes l) 8 ns.ns_retained
  + txs_bytes ns.ns_unshipped
  + Array.fold_left
      (fun acc l -> acc + 8 + (16 * List.length l))
      8 ns.ns_frontier_tids
  + (8 * Array.length ns.ns_frontier_ts)
  + 8
  + List.fold_left
      (fun acc (_, (vec, _, _)) -> acc + 32 + Msg.vc_bytes vec)
      8 ns.ns_decisions
  + (8 * Array.length ns.ns_retained_from)
  + (match ns.ns_cert with
    | None -> 8
    | Some (_, _, ps) ->
        List.fold_left (fun acc p -> acc + Msg.prepared_bytes p) 24 ps)

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

(* Copy-out of everything a restart needs. Shared immutable structure
   (each key's entry list, tx records, commit vectors) is retained by
   reference — in particular a transaction's oplog entries keep sharing
   its record's vector array, which [handle_sync_request] relies on to
   recognise unpropagated commits physically. *)
let snapshot_of t =
  let keys, entries = Store.Oplog.snapshot t.oplog in
  {
    ns_keys = keys;
    ns_entries = entries;
    ns_entry_count = Store.Oplog.length t.oplog;
    ns_known = Vc.copy t.known_vec;
    ns_prepared = t.prepared_causal;
    ns_unshipped = Stream_log.to_list t.unshipped;
    ns_retained = Array.map Stream_log.to_list t.retained;
    ns_last_prep = t.last_prep_ts;
    ns_frontier_tids = Array.copy t.frontier_tids;
    ns_frontier_ts = Array.copy t.frontier_ts;
    ns_decisions =
      Hashtbl.fold
        (fun tid (_, vec, lc, origin) acc -> (tid, (vec, lc, origin)) :: acc)
        t.coord_decisions [];
    ns_retained_from = Array.copy t.retained_from;
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

let snapshot_bytes t = node_snapshot_bytes (snapshot_of t)

(* ------------------------------------------------------------------ *)
(* Catch-up after a DC rejoin or a node restart: the snapshot transfer,
   then the ordinary replication stream and gap repair (tentpole of the
   crash-recovery subsystem; see DESIGN.md §4e).                        *)

let zero_vec t v =
  for i = 0 to dcs t - 1 do
    Vc.set v i 0
  done;
  Vc.set_strong v 0

(* A peer DC rejoined with empty state: forget everything its pre-crash
   gossip claimed it stored, so the stream logs and decided logs are
   kept for it until its fresh vectors arrive. *)
let reset_peer_view t ~dc =
  if dc <> t.dc then begin
    zero_vec t t.global_matrix.(dc);
    zero_vec t t.stable_matrix.(dc)
  end

(* Everything a crash destroys. The clocks, rid/heartbeat counters and
   the lifetime metrics survive (restarted processes keep their
   identity); everything else restarts empty and is rebuilt by the
   catch-up. Ω's suspicions are reset once per recovery by the callers. *)
let wipe_state t =
  Store.Oplog.clear t.oplog;
  List.iter (zero_vec t)
    [ t.known_vec; t.durable_known; t.stable_vec; t.uniform_vec ];
  t.stable_sent <- Vc.create ~dcs:(dcs t);
  Array.iter (zero_vec t) t.local_agg;
  t.reported <- 0;
  Array.iter (zero_vec t) t.stable_matrix;
  Array.iter (zero_vec t) t.global_matrix;
  t.prepared_causal <- [];
  Stream_log.clear t.unshipped;
  t.last_prep_ts <- 0;
  t.propagated_upto <- 0;
  for i = 0 to dcs t - 1 do
    Stream_log.clear t.retained.(i);
    t.retained_from.(i) <- 0;
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

(* How long an unsuspected snapshot source may stay silent before the
   request goes to another sibling: one catching up itself refuses
   without a word ([handle_sync_request]), and a node crash can lose the
   request. Far above an answer's round trip and apply time, so a slow
   but live source is not asked twice. *)
let snapshot_silence_us = 2_000_000

(* Ask one eligible sibling for the snapshot: the next one below the
   sibling asked last in cyclic DC order, starting below our own DC. The
   transport is reliable and FIFO, so the answer comes unless the
   sibling dies, is cut off, or refuses; the retry tick re-asks only
   then ([snapshot_overdue]). An earlier request is not cancelled:
   whichever answer arrives first is installed. *)
let request_snapshot t s =
  match Replication.eligible_peers t with
  | [] -> ()  (* nobody to sync from; the retry tick keeps looking *)
  | peers ->
      let n = dcs t in
      let from = if s.s_asked < 0 then t.dc else s.s_asked in
      (* ends by [k = n] at the latest: [peers] is not empty *)
      let rec pick k =
        let i = (from - k + n) mod n in
        if List.mem i peers then i else pick (k + 1)
      in
      let peer = pick 1 in
      s.s_asked <- peer;
      s.s_asked_at <- now t;
      Sim.Trace.emitf t.trace ~source:t.trace_src ~kind:"sync-request"
        "snapshot from dc%d" peer;
      send t (sibling t peer) (Msg.Sync_request { from = t.addr })

(* Evidence that the asked sibling will not answer: nobody was asked
   yet, its DC failed, Ω suspects it, or it stayed silent past
   [snapshot_silence_us]. *)
let snapshot_overdue t s =
  s.s_asked < 0
  || Network.dc_failed t.net s.s_asked
  || List.mem s.s_asked t.suspected
  || now t - s.s_asked_at >= snapshot_silence_us

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
        (Replication.live_peers t)

(* Send [claim] to every live sibling outside the propagate tick, whose
   stream messages carry it otherwise. *)
let gossip t claim =
  List.iter
    (fun i -> send t (sibling t i) (Msg.Knownvec_global { dc = t.dc; claim }))
    (Replication.live_peers t)

(* Tell every live sibling how far we hold each stream. Besides pinning
   their GC floors, this is our answer to a sibling that is catching up
   itself (see [sync_complete]): our stream is down until we finish, so
   the retry tick re-sends it. It carries no stableVec: a replica still
   catching up does not vouch for stability. *)
let gossip_known t = gossip t { vec = gc_claim t; stable = None }

let cert_caught_up t =
  match t.cert with
  | None -> true
  | Some c -> (
      match Cert.status c with
      | Cert.Leader | Cert.Follower -> true
      | Cert.Recovering | Cert.Restoring -> false)

(* DC [i] does not hold up our catch-up: it is us, crashed, or it told
   us how far it holds our own stream and we hold that much again, or
   it never told us and Ω suspects it ([sync_complete]). *)
let peer_settled t s ~own i =
  i = t.dc
  || Network.dc_failed t.net i
  ||
  if List.mem i s.s_heard then Vc.get t.global_matrix.(i) t.dc <= own
  else List.mem i t.suspected

let rec peers_settled t s ~own i =
  i >= dcs t || (peer_settled t s ~own i && peers_settled t s ~own (i + 1))

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
  (not s.s_snapshot)
  && cert_caught_up t
  && peers_settled t s ~own:(Vc.get t.known_vec t.dc) 0

(* Leave the catch-up; [s_done] then resumes normal operation. *)
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
     or repaired into our retained log), and every commit above it is
     still queued, so the first post-recovery batch honestly covers
     (frontier, batch-last]. Receivers ahead of the boundary dedup;
     receivers behind it trip the gap check and repair from us. *)
  t.propagated_upto <- Vc.get t.known_vec t.dc;
  s.s_done ()

(* Serve a snapshot to a rejoining sibling: each key's oplog entry list,
   by reference, except the writes of our own not-yet-propagated
   commits, which sit above the cut (our knownVec) and reach the
   rejoiner through ordinary replication. Those entries are recognised
   physically: a pending transaction's oplog entries share its record's
   commit-vector array. Only a key holding one is filtered, into a list
   of its own; every other list — the t0 list of a never-written key
   among them — is shipped, and installed, as it is. *)
let handle_sync_request t ~from =
  if not (is_syncing t) then begin
    let keys, lists = Store.Oplog.snapshot t.oplog in
    let unshipped (e : Store.Oplog.entry) =
      Stream_log.mem_vec t.unshipped e.vec
    in
    let acc = ref [] in
    for i = Array.length keys - 1 downto 0 do
      let l = lists.(i) in
      let l =
        if List.exists unshipped l then
          List.filter (fun e -> not (unshipped e)) l
        else l
      in
      if l <> [] then acc := (keys.(i), l) :: !acc
    done;
    send t from (Msg.Sync_store { entries = !acc; cut = Vc.copy t.known_vec })
  end

(* Install the first snapshot that arrives, whichever request drew it:
   the replica admitted nothing else since the wipe, so any sibling's
   complete snapshot is a valid cut, and gap repair fills everything
   above it. *)
let handle_sync_store t ~entries ~cut =
  match t.sync with
  | Some s when s.s_snapshot ->
      List.iter (fun (key, l) -> Store.Oplog.install t.oplog key l) entries;
      (* install the cut: the store now materialises everything below
         it, so it becomes the replication frontier (and our stream
         logs' [retained_from]), the floor for new prepare timestamps
         and the delivery frontier of the certification member *)
      Vc.merge_into t.known_vec cut;
      Array.blit cut 0 t.retained_from 0 (dcs t);
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
  | _ -> ()  (* a later answer, after the install *)

(* What a replica admits while catching up. The snapshot phase admits
   the snapshot only. The replication stream is dropped there, not
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
  | Msg.C_resubmit_strong _ | Msg.Get_version _
  | Msg.Version _ | Msg.Prepare _ | Msg.Prepare_ack _ | Msg.Commit _ ->
      false
  | _ -> true

let make_sync t ~wan ~resume =
  let s =
    {
      s_wan = wan;
      s_snapshot = wan;
      s_asked = -1;
      s_asked_at = 0;
      s_heard = [];
      s_started = now t;
      s_done = resume;
    }
  in
  t.sync <- Some s;
  s

(* The retry tick driving the catch-up until it completes: ask another
   snapshot source while none is installed and the asked one will not
   answer, re-ask for the certification state, re-send our claims to
   siblings that are catching up too. *)
let arm_sync_retry t s =
  let period = 500_000 in
  Engine.every t.eng ~label:(task_label t "sync") ~period ~phase:(t.uid * 13 mod period) (fun () ->
      match t.sync with
      | Some s' when s' == s && alive t -> (
          (if s.s_snapshot then begin
             if snapshot_overdue t s then request_snapshot t s
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
   [resume] re-arms them. *)
let begin_rejoin t ~resume =
  t.timer_gen <- t.timer_gen + 1;
  t.suspected <- [];
  let s = make_sync t ~wan:true ~resume in
  (match t.cert with
  | Some c -> Cert.begin_rejoin c ~delivered:0
  | None -> ());
  wipe_state t;
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
  Array.iteri
    (fun i key -> Store.Oplog.install t.oplog key ns.ns_entries.(i))
    ns.ns_keys;
  Vc.merge_into t.known_vec ns.ns_known;
  t.prepared_causal <-
    List.map (fun p -> { p with pc_at = now t }) ns.ns_prepared;
  Stream_log.push_list t.unshipped ns.ns_unshipped;
  Array.iteri (fun i l -> Stream_log.push_list t.retained.(i) l) ns.ns_retained;
  t.last_prep_ts <- ns.ns_last_prep;
  Array.iteri (fun i l -> t.frontier_tids.(i) <- l) ns.ns_frontier_tids;
  Array.iteri (fun i v -> t.frontier_ts.(i) <- v) ns.ns_frontier_ts;
  List.iter
    (fun (tid, (vec, lc, origin)) ->
      Hashtbl.replace t.coord_decisions tid (now t, vec, lc, origin))
    ns.ns_decisions;
  Array.blit ns.ns_retained_from 0 t.retained_from 0 (dcs t)

(* Replay one WAL record on top of the snapshot. Applied-state records
   re-run the ordinary apply paths (their dedup makes replay idempotent
   against the snapshot); certification events fold into [cert_acc] for
   a single [Cert.restart] at the end, and [fates] collects the
   decisions the log names — every delivered strong transaction
   committed, every logged abort aborted. History is not re-recorded —
   the checker's log survives the process. *)
let replay_record t cert_acc fates = function
  | W_genesis -> ()
  | W_prepare p ->
      t.prepared_causal <- { p with pc_at = now t } :: t.prepared_causal;
      t.last_prep_ts <- max t.last_prep_ts p.pc_ts;
      observe_clock t p.pc_ts
  | W_commit tx -> Causal_txn.apply_commit t tx
  | W_replicate (origin, txs, from_ts) ->
      Replication.handle_replicate t ~origin ~txs ~from_ts
  | W_strong (txs, strong_ts) ->
      List.iter
        (fun (tx : Types.tx_rec) -> Hashtbl.replace fates tx.tx_tid (true, tx))
        txs;
      Strong_coord.deliver_strong t txs ~strong_ts
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
               not (Types.tid_equal q.ps_tx.st_tid p.ps_tx.st_tid))
             prepared
      in
      cert_acc := (bal, cbal, prepared)
  | W_cert (Cert.E_abort r) -> Hashtbl.replace fates r.tx_tid (false, r)

(* Restart from the node's own disk: replay snapshot + WAL tail, hand
   certification its durable promises back, then catch up what was
   missed while down exactly as a rejoiner does past its snapshot — a
   clean node restart ships zero WAN snapshot bytes. Falls back to the
   WAN rejoin when the disk holds nothing (first boot after a scrub).
   Like a rejoiner, the restarted process starts with no suspicions. *)
let restart_from_disk t ~resume =
  Sim.Metrics.incr (Sim.Metrics.counter t.metrics "node_restarts_total");
  t.suspected <- [];
  match t.disk with
  | None -> begin_rejoin t ~resume
  | Some w -> (
      match Store.Wal.recover w with
      | None, [] ->
          Sim.Trace.emitf t.trace ~source:t.trace_src ~kind:"node-restart"
            "disk empty; falling back to WAN rejoin";
          begin_rejoin t ~resume
      | None, tail when not (List.mem W_genesis tail) ->
          (* a base-less log: the re-seeding snapshot after a scrub or
             WAN rejoin never installed, so the tail alone cannot
             rebuild the state *)
          Sim.Trace.emitf t.trace ~source:t.trace_src ~kind:"node-restart"
            "disk has no recoverable base; falling back to WAN rejoin";
          Store.Wal.scrub w;
          begin_rejoin t ~resume
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
          let fates = Hashtbl.create 64 in
          List.iter
            (fun r ->
              local_bytes := !local_bytes + wal_record_bytes r;
              replay_record t cert_acc fates r)
            tail;
          t.replaying <- false;
          (* everything recovered is on disk by definition *)
          Vc.merge_into t.durable_known t.known_vec;
          Sim.Metrics.add
            (Sim.Metrics.counter t.metrics "replay_entries_total")
            (List.length tail);
          Sim.Metrics.add
            (Sim.Metrics.counter t.metrics "local_catchup_bytes_total")
            !local_bytes;
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
                ~decision:(Hashtbl.find_opt fates)
                ~delivered:(Vc.strong t.known_vec)
          | None -> ());
          let s = make_sync t ~wan:false ~resume in
          request_cert_state t;
          gossip_known t;
          arm_sync_retry t s)
