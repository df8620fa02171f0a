(* Transaction coordination (Algorithm A2), the partition side of the
   causal commit path (Algorithm A3), and presumed-abort resolution of
   the intra-DC 2PC orphaned by a node crash.                           *)

open Replica_state

(* START_TX (Algorithm A2 lines 1–8). The client allocates the tid. *)
let start_tx t ~client ~client_id ~req ~tid ~past =
  Stabilisation.bump_snapshot_source t past;
  let base = Stabilisation.remote_snapshot_vec t in
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

let own_writes t ct key =
  let l = Store.Keyspace.partition ~partitions:(partitions t) key in
  match Hashtbl.find_opt ct.ct_wbuff l with
  | Some ws -> List.filter (fun w -> w.Types.wkey = key) (List.rev !ws)
  | None -> []

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
              value (own_writes t ct key)
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

(* PREPARE partition [l]'s slice [ws] of the write buffer. *)
let send_prepare t ct l ws =
  send t (local_replica t l)
    (Msg.Prepare
       { from = t.addr; tid = ct.ct_tid; writes = List.rev !ws;
         snap = ct.ct_snap })

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
          (fun l -> send_prepare t ct l (Hashtbl.find ct.ct_wbuff l))
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
  Stabilisation.bump_uniform_remote t snap;
  wait_known t ~local:(Vc.get snap t.dc) ~strong:(Vc.strong snap) (fun () ->
      let value, lc = Store.Oplog.read t.oplog key ~snap in
      send t from (Msg.Version { tid; key; value; lc }))

let handle_prepare t ~from ~tid ~writes ~snap =
  Stabilisation.bump_uniform_remote t snap;
  match find_prepared t tid with
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

(* Apply an own-origin causal commit: settle its prepared entry,
   materialize its writes and queue it for propagation. Shared by COMMIT
   and the WAL replay of [W_commit]. *)
let apply_commit t tx =
  drop_prepared t tx.Types.tx_tid;
  Types.iter_writes (fun w e -> Store.Oplog.append t.oplog w.Types.wkey e) tx;
  Stream_log.push t.unshipped tx

let handle_commit t ~tid ~vec ~lc ~origin =
  at_clock t (Vc.get vec t.dc) (fun () ->
      match find_prepared t tid with
      | None -> ()
      | Some p ->
          let tx =
            Types.tx_rec ~tid ~writes:p.pc_writes ~vec ~lc ~origin
          in
          apply_commit t tx;
          log_async t (W_commit tx);
          History.system_commit t.history ~tid ~writes:p.pc_writes ~vec ~lc
            ~origin ~accumulate:true;
          if Sim.Trace.enabled t.trace then
            Sim.Trace.emitf t.trace ~source:t.trace_src ~kind:"commit"
              "%a local-ts=%d writes=%d" Types.tid_pp tid (Vc.get vec t.dc)
              (List.length p.pc_writes))

(* ------------------------------------------------------------------ *)
(* Resolution of orphaned causal 2PCs. A node crash can strand either
   side of the intra-DC 2PC: a participant holding a durable prepared
   entry whose coordinator died (the entry's timestamp blocks the
   replication frontier forever), or a coordinator whose participant
   died before acking. In every mode a coordinator's PREPARE can also
   reach a partition still catching up after a DC rejoin, which drops
   it ([Recovery.sync_admits]). The participant asks the coordinator for
   the outcome; the coordinator answers from its durable decision log.
   "No record" means abort — safe, because no COMMIT ever leaves before
   the decision is fsynced ([W_decide]). Without a disk there is no
   decision log, so participants never ask: a coordinator that has
   decided forgets the transaction, and its "abort" could race its own
   COMMIT waiting on the participant's clock. Nor need they: only a
   whole-DC crash stops a node without a disk, and it takes the
   participants' prepares too, so the coordinator of every prepare
   held is alive and re-sends until it decides. *)

let handle_commit_query t ~from ~tid =
  if Hashtbl.mem t.txns tid then ()  (* still deciding; asked again later *)
  else
    match Hashtbl.find_opt t.coord_decisions tid with
    | Some (_, vec, lc, origin) ->
        send t from (Msg.Commit { tid; vec; lc; origin })
    | None -> send t from (Msg.Commit_abort { tid })

let handle_commit_abort t ~tid =
  if find_prepared t tid <> None then begin
    Sim.Metrics.incr
      (Sim.Metrics.counter t.metrics "causal_presumed_aborts_total");
    Sim.Trace.emitf t.trace ~source:t.trace_src ~kind:"presumed-abort"
      "%a dropped (coordinator holds no decision)" Types.tid_pp tid;
    drop_prepared t tid
  end

(* How long either side of the intra-DC 2PC stays quiet before probing:
   well above a prepare round trip plus an fsync, well below a rolling
   restart's dwell time, so orphans resolve while the roll proceeds. *)
let orphan_age_us = 1_000_000

(* Periodic housekeeping: participants with a disk query the outcome of
   stale prepares (presumed abort), coordinators re-send PREPAREs that a
   participant crash or catch-up swallowed (participants dedup by tid),
   and old decisions are pruned once every participant had ample time
   to ask. *)
let resolve_orphans t =
  let cutoff = now t - orphan_age_us in
  if persistent t then
    List.iter
      (fun p ->
        if p.pc_at <= cutoff then
          send t p.pc_from
            (Msg.Commit_query { from = t.addr; tid = p.pc_tid; part = t.part }))
      t.prepared_causal;
  Hashtbl.iter
    (fun _ ct ->
      if ct.ct_pending > 0 && not ct.ct_deciding && ct.ct_started <= cutoff
      then begin
        ct.ct_started <- now t;
        Hashtbl.iter
          (fun l ws ->
            if not (List.mem l ct.ct_acked) then send_prepare t ct l ws)
          ct.ct_wbuff
      end)
    t.txns;
  let prune_below = now t - (10 * orphan_age_us) in
  Hashtbl.filter_map_inplace
    (fun _ ((at, _, _, _) as d) -> if at < prune_below then None else Some d)
    t.coord_decisions
