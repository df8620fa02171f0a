(* Replication and heartbeats (Algorithm A4), and the stream-continuity
   machinery that makes them gap-detecting: every frontier-advancing
   message carries [from_ts], the boundary its sender vouches contiguity
   from, and a receiver whose frontier sits below the boundary refuses
   the jump and pulls the missing window through
   [Repair_request]/[Repair_log] instead. That pull is the one catch-up
   path: it also forwards a suspected DC's stream ([pull_suspected]).   *)

open Replica_state

(* Deadline of one repair round: a source that has not answered within
   it is rotated away from, so a partitioned or gray-degraded peer
   cannot stall a repair, nor the catch-up of a rejoining or restarted
   replica. *)
let repair_round_us = 300_000

let live_peers t =
  List.init (dcs t) Fun.id
  |> List.filter (fun i -> i <> t.dc && not (Network.dc_failed t.net i))

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

(* Raise the target of [origin]'s repair to [upto] and (outside WAL
   replay) start a round unless one is in flight. *)
let want_window t origin ~upto =
  let r = t.repair.(origin) in
  if upto > r.r_upto then r.r_upto <- upto;
  if (not r.r_active) && (not t.replaying) && alive t then begin
    r.r_attempt <- 0;
    r.r_stalled <- 0;
    start_repair_round t origin
  end

(* A continuity break in [origin]'s stream: refuse the jump, account it
   and repair up to the claimed frontier. *)
let note_gap t ~origin ~floor ~from_ts ~claimed =
  Sim.Metrics.incr
    (Sim.Metrics.counter t.metrics "replicate_gap_detected_total");
  Sim.Trace.emitf t.trace ~source:t.trace_src ~kind:"replicate-gap"
    "dc%d's stream jumps (%d, %d] but our floor is %d: repairing instead \
     of trusting"
    origin from_ts claimed floor;
  want_window t origin ~upto:claimed

(* The sibling gossip of Algorithm A5, riding our stream: the GC claim,
   taken after the tick raised our own entry, and our stableVec when the
   mode tracks uniformity and it advanced since the last one we
   attached. At the default periods the in-DC tree step just before
   advances it every tick; with a longer broadcast period it rides once
   per tree step, so the period still sets the cost of stableVec
   exchange (§8.3). *)
let sibling_claim t =
  let stable =
    if Config.tracks_uniformity t.cfg && not (Vc.leq t.stable_vec t.stable_sent)
    then begin
      let s = Vc.copy t.stable_vec in
      t.stable_sent <- s;
      Some s
    end
    else None
  in
  { Msg.vec = gc_claim t; stable }

(* The timestamp of the last entry of an oldest-first batch. *)
let rec newest_ts origin = function
  | [ tx ] -> origin_ts origin tx
  | _ :: rest -> newest_ts origin rest
  | [] -> invalid_arg "Replication.newest_ts: empty batch"

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
  let frontier = Vc.get t.known_vec t.dc in
  let batch = Stream_log.take_through t.unshipped frontier in
  let claim = sibling_claim t in
  for i = 0 to dcs t - 1 do
    if i <> t.dc then
      if batch <> [] then
        send t (sibling t i)
          (Msg.Replicate { origin = t.dc; txs = batch; from_ts = prev; claim })
      else
        send t (sibling t i)
          (Msg.Heartbeat
             { origin = t.dc; ts = frontier; from_ts = prev; claim })
  done;
  (* advance the stream position to what receivers will now hold — and
     never move it back: WAL replay re-queues every tail commit, even
     ones the previous incarnation already propagated (peers prune fully
     covered entries from their retained logs, so the rejoin pull cannot
     redeliver and dequeue them), and re-shipping such a batch must not
     regress the boundary below commits the receivers provably hold, or
     the next heartbeat claims their window empty and receivers jump
     clean over them *)
  t.propagated_upto <-
    max t.propagated_upto
      (match batch with [] -> frontier | _ -> newest_ts t.dc batch);
  (* retain what was just shipped: rejoiners catch up on our history
     from this log (nobody else may hold our full frontier) *)
  Stream_log.push_list t.retained.(t.dc) batch;
  flush_wait t.wait_known_local ~frontier

(* Apply a contiguous batch of [origin]'s stream, in stream order
   (every sender ships oldest first): dedup against the frontier,
   materialize the writes, retain for repair, advance the
   frontier, log the batch. Shared by the direct stream
   ([handle_replicate]) and the repair path ([handle_repair_log]) —
   idempotence comes from the tid-at-frontier dedup, so overlapping
   deliveries are safe. *)
let apply_batch t ~origin ~from_ts txs =
  List.iter
    (fun tx ->
      let ts = origin_ts origin tx in
      (* An own-origin transaction still sitting in [unshipped] was
         restored there by WAL replay ([W_commit]) — already applied to
         the store, but below nothing the frontier records, because
         replay cannot know how far the previous incarnation propagated.
         A repair of our own stream redelivering it proves a peer holds
         it: move it to our retained log (it must be servable to repair
         pulls) instead of applying it twice. *)
      let restored_own =
        origin = t.dc && Stream_log.remove t.unshipped tx.Types.tx_tid
      in
      (* below the frontier = duplicate; equal-timestamp siblings of the
         last applied transaction dedup by tid *)
      let fresh =
        restored_own
        || ts > Vc.get t.known_vec origin
        || (ts = t.frontier_ts.(origin)
           && not
                (List.exists
                   (Types.tid_equal tx.Types.tx_tid)
                   t.frontier_tids.(origin)))
      in
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
        if not restored_own then
          Types.iter_writes
            (fun w e -> Store.Oplog.append t.oplog w.Types.wkey e)
            tx;
        (* own-origin transactions only arrive here through a repair of
           our own stream after a crash: they are our pre-crash history,
           already propagated by our previous incarnation — retain them
           without re-propagating, keep new prepare timestamps above them
           (Property 1), and settle a replayed prepare whose commit
           record the crash lost (the coordinator's answer to the orphan
           query must not apply it a second time) *)
        if origin = t.dc then begin
          drop_prepared t tx.Types.tx_tid;
          t.last_prep_ts <- max t.last_prep_ts ts;
          observe_clock t ts
        end;
        Stream_log.push t.retained.(origin) tx;
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
    txs;
  if txs <> [] then log_async t (W_replicate (origin, txs, from_ts))

let handle_replicate t ~origin ~txs ~from_ts =
  if Sim.Trace.enabled t.trace then
    Sim.Trace.emitf t.trace ~source:t.trace_src ~kind:"replicate"
      "from dc%d: %d txs" origin (List.length txs);
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
  else apply_batch t ~origin ~from_ts txs

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
   even if the window held no transactions). GC floors keep the log
   complete above the requester's gossiped claim, which never exceeds
   [vec_from], but only above [retained_from] after a WAN rejoin: we
   refuse a window reaching below it, as we refuse to serve while
   catching up (the log is still partial). The requester's deadline
   rotates past us. *)
let handle_repair_request t ~from ~origin ~vec_from ~sq =
  if (not (is_syncing t)) && vec_from >= t.retained_from.(origin) then begin
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
       (its done-check target); here it is unused. *)
    let txs = Stream_log.range t.retained.(origin) ~lo:vec_from ~hi:vouch in
    let covered = if vouch >= vec_from then vouch else vec_from in
    (* a chunk's newest entry comes first in its reversed split *)
    let rec split n acc = function
      | tx :: rest when n > 0 -> split (n - 1) (tx :: acc) rest
      | rest -> (acc, rest)
    in
    let rec ship from_ts txs =
      let rev_batch, rest = split catchup_chunk [] txs in
      let last = rest = [] in
      let upto =
        match rev_batch with
        | newest :: _ when not last -> origin_ts origin newest
        | _ -> covered
      in
      send t from
        (Msg.Repair_log
           { origin; txs = List.rev rev_batch; from_ts; covered = upto;
             last; sq });
      if not last then ship upto rest
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
    apply_batch t ~origin ~from_ts txs;
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

(* FORWARD_REMOTE_TXS (Algorithm A4 lines 22–27) as a pull: for each DC
   [j] we suspect, a live sibling [i] we do not suspect whose gossiped
   claim holds [j]'s stream beyond our frontier, and who stopped hearing
   [j] itself (its own entry runs Ω's timeout ahead of its [j] entry),
   makes us repair [j]'s stream up to that claim. Without the second
   test a partial partition would have us relay a stream that still
   reaches everyone. Rounds are closed-loop: nothing is sent unasked. *)
let pull_suspected t =
  for j = 0 to dcs t - 1 do
    if List.mem j t.suspected then
      for i = 0 to dcs t - 1 do
        let row = t.global_matrix.(i) in
        let held = Vc.get row j in
        if
          i <> t.dc
          && held > Vc.get t.known_vec j
          && Vc.get row i - held > Config.detection_delay_us
          && (not (List.mem i t.suspected))
          && not (Network.dc_failed t.net i)
        then want_window t j ~upto:held
      done
  done

(* Does DC [i] still hold the garbage-collection floors? Live DCs always
   do. A crashed DC keeps holding them — frozen at its last gossiped
   coverage — for [gc_grace_us], so that it can rejoin and catch up from
   the retained logs; past the grace period the floors advance and a late
   rejoiner relies on the full snapshot transfer instead. *)
let holds_floor t i =
  match Network.dc_failed_at t.net i with
  | None -> true
  | Some at -> now t - at < Config.gc_grace_us

(* The minimum of [init] and entry [entry] of every floor-holding
   sibling's globalMatrix row ([dcs t] is the strong entry): how far
   every DC that may still need a log has told us it stores. *)
let holders_floor t ~init entry =
  let floor = ref init in
  for i = 0 to dcs t - 1 do
    if i <> t.dc && holds_floor t i then
      floor := Int.min !floor (Vc.get t.global_matrix.(i) entry)
  done;
  !floor

(* Is [vec] at or below the stableVec of every floor-holding DC, ours
   included (the last one each sibling reported)? Then every snapshot
   those DCs serve from now on contains it. *)
let stable_at_holders t vec =
  let rec go i =
    i >= dcs t
    || ((not (holds_floor t i)) || Vc.leq vec t.stable_matrix.(i))
       && go (i + 1)
  in
  go 0

(* Each propagate tick, drop from every origin's retained log, our own
   included, what every floor holder claims to store (§5.5). The
   origin's own claim counts too: a DC that lost its history in a crash
   gets it back only from these logs, and until its fresh claim arrives
   its row is pinned at zero ([reset_peer_view]). *)
let prune_committed t =
  for j = 0 to dcs t - 1 do
    Stream_log.drop_through t.retained.(j) (holders_floor t ~init:max_int j)
  done
