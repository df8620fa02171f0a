(* Strong transactions, coordinator side (Algorithms A6–A7): COMMIT_STRONG,
   CERTIFY over the involved groups' leaders, delivery of decided
   updates, strong heartbeats, admission control; and Ω's leader trust.
   The group-member side lives in [Cert].                               *)

open Replica_state

let group_leader_addr t g = t.env.e_lookup t.trusted g

(* The partitions a transaction writes or reads, ascending, each once;
   built without intermediate lists, since every strong heartbeat runs
   it. *)
let groups_of t (tx : Msg.strong_tx) =
  if Config.centralized_cert t.cfg then [ rb_group t ]
  else
    let add acc (p, _) = if List.mem p acc then acc else p :: acc in
    List.sort compare
      (List.fold_left add (List.fold_left add [] tx.st_wbuff) tx.st_ops)

(* Re-send PREPARE_STRONG if certification has not concluded: covers
   leader failures. Far above worst-case queueing delays so an overloaded
   (but live) service is not hit with duplicate certification work. *)
let cert_retry_us = 2_000_000

let send_prepare_strong t pc =
  List.iter
    (fun (g, gs) ->
      if not gs.g_done then
        send t (group_leader_addr t g)
          (Msg.Prepare_strong
             {
               rid = pc.p_rid;
               caller = pc.p_caller;
               coord = t.addr;
               tx = pc.p_tx;
               lc = pc.p_lc;
             }))
    pc.p_groups

(* Certification-retry watchdog: one engine timer per replica, not one
   per certification. A pending certification is due for a re-send at
   its submit time plus k × [cert_retry_us] ([p_due]), and the timer is
   armed at the earliest due time of any pending one; a certification
   submitted later is due no earlier, so it needs no timer of its own.
   When the timer fires, every certification due re-sends, in
   submission order, and the timer re-arms at the next due time — or
   stays idle once nothing is pending. A finished certification leaves
   [pending_cert] and so holds no timer. *)
let rec cert_watchdog t =
  t.cert_armed <- false;
  if alive t then begin
    let at = now t in
    let due =
      Hashtbl.fold
        (fun _ pc acc -> if pc.p_due <= at then pc :: acc else acc)
        t.pending_cert []
    in
    List.iter
      (fun pc ->
        send_prepare_strong t pc;
        pc.p_due <- pc.p_due + cert_retry_us)
      (List.sort (fun a b -> compare a.p_rid b.p_rid) due);
    arm_cert_watchdog t
  end

and arm_cert_watchdog t =
  let next =
    Hashtbl.fold (fun _ pc acc -> Int.min pc.p_due acc) t.pending_cert max_int
  in
  if next < max_int then begin
    t.cert_armed <- true;
    Engine.schedule_call t.eng ~time:next cert_watchdog t
  end

(* CERTIFY (Algorithm A7): submit to every involved group's leader and
   collect quorums of ACCEPT_ACKs. *)
let rec certify t ~caller tx ~lc ~k =
  t.rid_ctr <- t.rid_ctr + 1;
  let rid = (t.uid * 1_000_000) + t.rid_ctr in
  let groups = groups_of t tx in
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
      p_tx = tx;
      p_lc = lc;
      p_groups = groups;
      p_k = k;
      p_submitted = now t;
      p_due = now t + cert_retry_us;
      p_done = false;
    }
  in
  Hashtbl.replace t.pending_cert rid pc;
  send_prepare_strong t pc;
  if not t.cert_armed then arm_cert_watchdog t;
  (* A strong transaction with an empty footprint (no reads, no writes)
     involves no certification group at all: nothing conflicts with it
     and no ACCEPT_ACK will ever arrive, so deciding it here is the only
     exit. Without this, the pending_cert entry leaked forever — the
     pending_certifications gauge never drained and the retry watchdog
     kept re-arming — which admission control would turn into a
     permanent wedge. *)
  if pc.p_groups = [] then complete_cert_if_ready t pc

and finish_cert t pc result =
  if not pc.p_done then begin
    pc.p_done <- true;
    Hashtbl.remove t.pending_cert pc.p_rid;
    (* submission-to-decision delay of real certifications (the queue
       behind the pending_certifications gauge); interned on the first
       strong decision so runs without strong transactions keep their
       metric snapshots unchanged *)
    if pc.p_tx.st_origin <> -1 then
      Sim.Metrics.observe
        (Sim.Metrics.histogram t.metrics "cert_queue_delay_us")
        (now t - pc.p_submitted);
    pc.p_k result
  end

and complete_cert_if_ready t pc =
  if (not pc.p_done) && List.for_all (fun (_, g) -> g.g_done) pc.p_groups
  then begin
    let tx = pc.p_tx in
    let dec = List.for_all (fun (_, g) -> g.g_vote) pc.p_groups in
    let vec = Vc.copy tx.st_snap in
    (* seeded at the snapshot's strong entry so a group-less (empty
       footprint) decision cannot move the commit vector backwards *)
    let ts =
      List.fold_left
        (fun acc (_, g) -> max acc g.g_ts)
        (Vc.strong tx.st_snap) pc.p_groups
    in
    Vc.set_strong vec ts;
    let lc =
      List.fold_left (fun acc (_, g) -> max acc g.g_lc) pc.p_lc pc.p_groups
    in
    let record = Msg.decided_record tx ~dec ~vec ~lc in
    if dec then
      History.system_commit t.history ~tid:tx.st_tid ~writes:record.tx_writes
        ~vec ~lc ~origin:tx.st_origin ~accumulate:false;
    decide t pc ~ballot:(fun gs -> gs.g_ballot) ~dec ~record
  end

(* Send the decision to every involved group's leader, then finish. *)
and decide t pc ~ballot ~dec ~(record : Types.tx_rec) =
  List.iter
    (fun (g, gs) ->
      send t (group_leader_addr t g)
        (Msg.Decision { b = ballot gs; dec; record }))
    pc.p_groups;
  finish_cert t pc (Cert.Decided (dec, record))

(* The progress of group [part] in certification [rid] of [tid], if
   still pending. *)
let find_group t ~rid ~tid ~part =
  match Hashtbl.find_opt t.pending_cert rid with
  | Some pc when Types.tid_equal pc.p_tx.st_tid tid -> (
      match List.assoc_opt part pc.p_groups with
      | Some g -> Some (pc, g)
      | None -> None)
  | _ -> None

let handle_accept_ack t ~part ~b ~rid ~tid ~vote ~ts ~lc ~from_dc =
  match find_group t ~rid ~tid ~part with
  | Some (pc, g) when not g.g_done ->
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
  | _ -> ()

let handle_already_decided t ~rid ~dec ~(record : Types.tx_rec) =
  match Hashtbl.find_opt t.pending_cert rid with
  | Some pc when Types.tid_equal pc.p_tx.st_tid record.tx_tid ->
      (* Propagate the decision to every involved group — including
         those that never acked us (ballot still unknown): a Restoring
         leader re-certifying its prepared table depends on this reply
         to clear the entry, and its own RETRY task is off while it
         restores. Leaders accept decisions from any older ballot, so
         0 is a safe stand-in when none was learned. *)
      decide t pc ~ballot:(fun gs -> max gs.g_ballot 0) ~dec ~record
  | _ -> ()

let handle_unknown_tx_ack t ~part ~rid ~tid ~from_dc =
  match find_group t ~rid ~tid ~part with
  | Some (pc, g) when not (List.mem from_dc g.g_unknown) ->
      g.g_unknown <- from_dc :: g.g_unknown;
      if List.length g.g_unknown >= Config.quorum t.cfg then
        finish_cert t pc Cert.Unknown
  | _ -> ()

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
  bound > 0 && t.env.e_dc_pending t.dc >= bound

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

(* Make the snapshot's local entry uniform, certify, reply to the client
   (Algorithm A6 lines 1–4). Phase instrumentation: uniformity wait
   (arrival of the commit request until the local snapshot is uniform),
   then certification (submission until the decision lands back here). *)
let certify_when_uniform t ~client ~req (tx : Msg.strong_tx) ~lc =
  let arrived_us = now t in
  let tid = tx.st_tid in
  wait_uniform_local t ~threshold:(Vc.get tx.st_snap t.dc) (fun () ->
      let uniform_us = now t in
      Sim.Metrics.observe t.h_phase_uniform (uniform_us - arrived_us);
      if Sim.Trace.enabled t.trace then
        Sim.Trace.emit_span t.trace ~source:t.trace_src ~kind:"uniform-wait"
          ~start:arrived_us
          (Fmt.str "%a" Types.tid_pp tid);
      certify t ~caller:Msg.Normal tx ~lc ~k:(fun result ->
          Sim.Metrics.observe t.h_phase_certify (now t - uniform_us);
          if Sim.Trace.enabled t.trace then
            Sim.Trace.emit_span t.trace ~source:t.trace_src ~kind:"certify"
              ~start:uniform_us
              (Fmt.str "%a" Types.tid_pp tid);
          match result with
          | Cert.Decided (dec, r) ->
              Sim.Metrics.incr
                (if dec then t.c_strong_commit else t.c_strong_abort);
              send t client
                (Msg.R_strong { req; dec; vec = r.tx_vec; lc = r.tx_lc })
          | Cert.Unknown ->
              (* cannot happen for NORMAL callers; fail the commit *)
              Sim.Metrics.incr t.c_strong_abort;
              send t client
                (Msg.R_strong { req; dec = false; vec = tx.st_snap; lc })))

(* COMMIT_STRONG (Algorithm A6). *)
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
      certify_when_uniform t ~client ~req
        {
          Msg.st_tid = tid;
          st_origin = ct.ct_client_id;
          st_wbuff = wbuff;
          st_ops = ops;
          st_snap = ct.ct_snap;
        }
        ~lc

(* Idempotent re-submission of a strong transaction whose coordinator
   crashed before replying. The client re-sends the same tid with the
   write buffer and read set it accumulated; certification deduplicates
   by tid (an already-decided transaction yields its original decision
   via ALREADY_DECIDED; a prepared one re-accepts at its recorded
   timestamp), so the transaction takes effect exactly once no matter
   where the old coordinator stopped. *)
let handle_resubmit_strong t ~client ~req (tx : Msg.strong_tx) ~lc =
  (* the snapshot was computed at the old session DC, so its "local"
     entry references that DC: bump the remote uniform entries from the
     client's evidence as START_TX does, then apply the usual
     COMMIT_STRONG precondition against our own local entry *)
  Stabilisation.bump_snapshot_source t tx.st_snap;
  certify_when_uniform t ~client ~req tx ~lc

(* DELIVER_UPDATES (Algorithm A6 lines 5–9): apply this partition's slice
   of each committed strong transaction, in strong-timestamp order. Also
   the REDBLUE path: updates pushed by the DC's certification service
   node. *)
let deliver_strong t txs ~strong_ts =
  List.iter
    (Types.iter_writes (fun w e ->
         if
           Store.Keyspace.partition ~partitions:(partitions t) w.Types.wkey
           = t.part
         then Store.Oplog.append t.oplog w.Types.wkey e))
    txs;
  (* logged including empty (heartbeat) batches: the replayed strong
     frontier seeds [Cert.restart ~delivered], and an understated
     frontier would re-deliver — and re-apply — decided transactions *)
  log_async t (W_strong (txs, strong_ts));
  if strong_ts > Vc.strong t.known_vec then Vc.set_strong t.known_vec strong_ts;
  (* dummy heartbeats deliver empty write sets; only real updates are
     worth tracing *)
  if
    Sim.Trace.enabled t.trace
    && List.exists (fun tx -> tx.Types.tx_writes <> []) txs
  then
    Sim.Trace.emitf t.trace ~source:t.trace_src ~kind:"deliver-strong"
      "ts=%d txs=%d" strong_ts (List.length txs);
  flush_wait t.wait_known_strong ~frontier:(Vc.strong t.known_vec)

(* Dummy strong transaction acting as a heartbeat (Algorithm A6 line 10). *)
let strong_heartbeat t =
  t.hb_ctr <- t.hb_ctr + 1;
  let tid = { Types.cl = -(t.uid + 2); sq = t.hb_ctr } in
  let g = if Config.centralized_cert t.cfg then rb_group t else t.part in
  (* one empty slot of group [g], shared by the write and read maps *)
  let slot = [ (g, []) ] in
  certify t ~caller:Msg.Normal
    {
      Msg.st_tid = tid;
      st_origin = -1;
      st_wbuff = slot;
      st_ops = slot;
      st_snap = Vc.create ~dcs:(dcs t);
    }
    ~lc:0 ~k:ignore

(* ------------------------------------------------------------------ *)
(* Failure handling: Ω updates.                                          *)

(* Ω's leader choice: the first non-suspected DC in the fixed order
   starting from the home leader ([Config.leader_dc]). Every replica
   applies the same rule, so once suspicions agree, trust agrees — and
   when a falsely suspected preferred DC is rehabilitated, everyone
   re-trusts it, which (via Nack / recover at a higher ballot) converges
   leadership back. *)
let preferred_leader t =
  let n = dcs t in
  let home = Config.leader_dc in
  let rec go k =
    if k >= n then home  (* everything suspected: keep Ω pointed home *)
    else
      let dc = (home + k) mod n in
      if List.mem dc t.suspected then go (k + 1) else dc
  in
  go 0

let retarget_trust t =
  let preferred = preferred_leader t in
  t.trusted <- preferred;
  match t.cert with
  | Some c when Cert.trusted c <> preferred -> Cert.set_trusted c preferred
  | _ -> ()

(* While catching up after a crash, still retarget certification trust —
   when the crashed leader DC is the one being suspected, the group's
   election needs this member's ack, and deferring the retarget until
   the catch-up completes deadlocks against [cert_caught_up]. The one
   thing a half-synced member must never do is bid for leadership itself
   (electing on stale state could lose decisions), so the retarget is
   skipped exactly when Ω would point at our own DC; the resumption
   after the catch-up recomputes trust in full. *)
let retarget_unless_self_bid t =
  if (not (is_syncing t)) || preferred_leader t <> t.dc then retarget_trust t

let suspect t failed_dc =
  if failed_dc <> t.dc && not (List.mem failed_dc t.suspected) then begin
    t.suspected <- failed_dc :: t.suspected;
    Sim.Trace.emitf t.trace ~source:t.trace_src ~kind:"suspect"
      "dc%d suspected; pulling its stream from siblings that hold it further"
      failed_dc;
    retarget_unless_self_bid t;
    (* eagerly finish 2PCs the suspected DC was coordinating: an
       orphaned accepted-but-undecided transaction blocks delivery of
       every later strong timestamp in its group *)
    match t.cert with
    | Some c when not (is_syncing t) ->
        Cert.retry_suspected c ~dc:failed_dc
    | _ -> ()
  end

(* Rehabilitation: Ω stopped suspecting [dc] (heartbeats resumed after a
   partition heal or a false suspicion). Pulling its stream stops
   and trust is recomputed, possibly handing leadership back. *)
let unsuspect t dc =
  if List.mem dc t.suspected then begin
    t.suspected <- List.filter (fun d -> d <> dc) t.suspected;
    Sim.Trace.emitf t.trace ~source:t.trace_src ~kind:"unsuspect"
      "dc%d rehabilitated" dc;
    retarget_unless_self_bid t
  end
