(* Transaction certification service: group-member side
   (Algorithms A9–A10 of the paper, after Chockler & Gotsman [18]).

   Each logical partition has one certification group formed by its
   sibling replicas across data centers; one member is the Paxos leader.
   REDBLUE instead runs a single group of per-DC service nodes, each
   driven by partition 0's replica of its DC. Members
   hold [prepared] (accepted but undecided) transactions and a
   [Decided_log]; the leader certifies new transactions against both,
   the coordinator ([Strong_coord]) collects quorums of ACCEPT_ACKs, and
   committed updates are delivered to replicas in strong-timestamp order
   with no gaps. A saturated group holds a hundred prepared entries, so
   the ones voting commit are indexed by the keys they touch here, as
   [Decided_log] indexes decided ones: the leader's check costs time in
   the transaction's footprint, not in the prepared set.

   The module is written against a [ctx] of closures so it stays free of
   a dependency on the replica module that embeds it. *)

module Vc = Vclock.Vc

type cert_result = Decided of bool * Types.tx_rec | Unknown

type ctx = {
  x_dc : int;
  x_group : int;
  x_dcs : int;
  x_quorum : int;
  x_conflict : Config.conflict_spec;
  x_ops_slice : Types.opsmap -> Types.opdesc list;
  x_clock : unit -> int;  (* local physical clock *)
  x_now : unit -> int;  (* simulated wall time *)
  x_send : Msg.addr -> Msg.t -> unit;  (* self-sends short-circuit *)
  x_self : unit -> Msg.addr;
  x_member : int -> Msg.addr;  (* dc -> address of this group's member *)
  x_dc_of : Msg.addr -> int;
  x_deliver : Types.tx_rec list -> strong_ts:int -> unit;
  x_at_clock : int -> (unit -> unit) -> unit;  (* run when clock >= ts *)
  x_certify :
    caller:Msg.cert_caller ->
    Msg.strong_tx ->
    lc:int ->
    k:(cert_result -> unit) ->
    unit;
  x_alive : unit -> bool;
}

type status = Leader | Follower | Recovering | Restoring

(* Durable certification events (see the interface; currentTerm/votedFor
   ≙ ballot/cballot, log entries ≙ accepted transactions). The delivery
   frontier is re-derived from the replica's own delivered-strong WAL
   records, so the cert member and its store cannot disagree after a
   replay.

   Decisions must survive a restart too, or a replayed accept comes back
   as undecided: once the group has pruned its decision, re-certifying
   it yields Unknown, and one that voted commit blocks delivery for
   good. An [E_abort] is appended asynchronously: a crash that loses it
   comes back while the group still holds the decision. *)
type event =
  | E_ballot of { b : int; cb : int }
  | E_accept of Msg.prepared_strong
  | E_abort of Types.tx_rec  (* the abort decision's record *)

let status_name = function
  | Leader -> "leader"
  | Follower -> "follower"
  | Recovering -> "recovering"
  | Restoring -> "restoring"

(* An accepted-but-undecided entry, its operations at this group (sliced
   once) and its RETRY clock: when it was accepted here or last
   re-certified. *)
type accepted = {
  p : Msg.prepared_strong;
  ops : Types.opdesc list;
  mutable since : int;
}

type t = {
  ctx : ctx;
  mutable status : status;
  mutable ballot : int;
  mutable cballot : int;
  mutable trusted : int;  (* Ω: the data center currently trusted *)
  prepared : (Types.tid, accepted) Hashtbl.t;
  (* the prepared entries voting commit with operations here, by the
     keys they touch *)
  voting_by_key : (Store.Keyspace.key, accepted list) Hashtbl.t;
  decided : Decided_log.t;
  mutable last_ts : int;  (* leader: last proposed strong timestamp *)
  mutable do_not_wait : Types.tid list;
  (* Decisions learned while [Recovering]: chosen values, kept until
     [install_state] can apply them to the prepared entries it installs
     (the state may have been captured before the decision reached its
     sender). *)
  learned : (Types.tid, bool * Types.tx_rec) Hashtbl.t;
  mutable recovery_acks :
    (int * (int * Msg.prepared_strong list * Msg.decided_strong list)) list;
  mutable state_acks : int list;
  mutable last_activity : int;  (* time of last delivery (heartbeating) *)
  mutable last_bid : int;  (* time of the last leadership bid (debounce) *)
  bid_interval_us : int;  (* reclaim debounce (derived from the config) *)
  mutable log : (event -> k:(unit -> unit) -> unit) option;
}

(* Leadership-reclaim bids are level-triggered (PREPARE_STRONG retries
   every couple of seconds, STATE_REQUEST every retry tick keep landing
   on the same non-leader), so they are debounced to at most one
   election per [bid_interval_us] — long enough for an in-flight round
   to settle. Ballot [b] is led by data center [b mod dcs]: the initial
   ballot makes the configured leader DC lead every group. *)
let create ~bid_interval_us ctx ~leader_dc =
  {
    ctx;
    status = (if ctx.x_dc = leader_dc then Leader else Follower);
    ballot = leader_dc;
    cballot = leader_dc;
    trusted = leader_dc;
    prepared = Hashtbl.create 32;
    voting_by_key = Hashtbl.create 16;
    decided =
      Decided_log.create ~conflict:ctx.x_conflict ~ops_slice:ctx.x_ops_slice
        ~dcs:ctx.x_dcs;
    last_ts = 0;
    do_not_wait = [];
    learned = Hashtbl.create 8;
    recovery_acks = [];
    state_acks = [];
    last_activity = 0;
    last_bid = -bid_interval_us;
    bid_interval_us;
    log = None;
  }

let set_log t log = t.log <- Some log

let log_durably t ev k =
  match t.log with None -> k () | Some log -> log ev ~k

let is_leader t = t.status = Leader
let status t = t.status
let trusted t = t.trusted
let ballot t = t.ballot
let prepared_count t = Hashtbl.length t.prepared
let decided_count t = Decided_log.count t.decided
let last_delivered t = Decided_log.last_delivered t.decided
let idle_since t = t.last_activity

let prune_decided ?covered t ~floor =
  Decided_log.prune ?covered t.decided ~floor

(* The index follows [prepared] at its three mutation points:
   [add_prepared], [decide_prepared] and [install_state]. An entry with
   two operations on one key is listed twice and dropped twice. *)
let rec drop e = function
  | [] -> []
  | e' :: rest -> if e' == e then rest else e' :: drop e rest

let rec index_ops t e ~add = function
  | [] -> ()
  | (o : Types.opdesc) :: ops ->
      let es =
        Option.value ~default:[] (Hashtbl.find_opt t.voting_by_key o.key)
      in
      (match if add then e :: es else drop e es with
      | [] -> Hashtbl.remove t.voting_by_key o.key
      | es -> Hashtbl.replace t.voting_by_key o.key es);
      index_ops t e ~add ops

let index t e ~add = if e.p.ps_vote then index_ops t e ~add e.ops

(* A re-ACCEPT replaces the entry: the old record leaves the index. *)
let add_prepared t (p : Msg.prepared_strong) =
  let tid = p.ps_tx.st_tid in
  (match Hashtbl.find_opt t.prepared tid with
  | Some old -> index t old ~add:false
  | None -> ());
  let e =
    { p; ops = t.ctx.x_ops_slice p.ps_tx.st_ops; since = t.ctx.x_now () }
  in
  Hashtbl.replace t.prepared tid e;
  index t e ~add:true

let broadcast t msg =
  for dc = 0 to t.ctx.x_dcs - 1 do
    t.ctx.x_send (t.ctx.x_member dc) msg
  done

(* Every member but this one: what the leader learns it applies in
   place, without a message to itself. *)
let send_others t msg =
  for dc = 0 to t.ctx.x_dcs - 1 do
    if dc <> t.ctx.x_dc then t.ctx.x_send (t.ctx.x_member dc) msg
  done

(* Record a decision; log a fresh abort (see [event]). *)
let add_decided t (d : Msg.decided_strong) =
  if Decided_log.add t.decided d && not d.ds_dec then
    log_durably t (E_abort d.ds_record) ignore

(* ------------------------------------------------------------------ *)
(* Certification check (Algorithm A8): a transaction commits only if its
   snapshot includes every conflicting committed transaction
   ([Decided_log.check]), and no conflicting transaction is concurrently
   prepared to commit. Both conflict relations relate operations on one
   key only, so the prepared side looks up only the transaction's own
   keys in the index.                                                    *)

let certification_check t (tx : Msg.strong_tx) ~lc =
  let ops = t.ctx.x_ops_slice tx.st_ops in
  let prepared_conflict () =
    List.exists
      (fun (o : Types.opdesc) ->
        match Hashtbl.find_opt t.voting_by_key o.key with
        | None -> false
        | Some es ->
            List.exists
              (fun e ->
                (not (Types.tid_equal e.p.ps_tx.st_tid tx.st_tid))
                && List.exists (Config.ops_conflict t.ctx.x_conflict o) e.ops)
              es)
      ops
  in
  if ops = [] then (true, lc)
  else if prepared_conflict () then (false, lc)
  else Decided_log.check t.decided ~ops ~snap:tx.st_snap ~lc

(* ------------------------------------------------------------------ *)
(* Delivery (Algorithm A9, upon-clause at line 26): committed entries are
   delivered in strong-timestamp order, with no gaps, once nothing
   earlier can still commit. The leader frees a frontier in place when a
   decision lifts the gate, and hands it to the other members inside the
   LEARN_DECISION that carries the decision: on every link a decision
   arrives before any frontier above it.                                 *)

let deliver t ~ts batch =
  t.last_activity <- t.ctx.x_now ();
  t.ctx.x_deliver batch ~strong_ts:ts

(* Leader: deliver every committed entry below the lowest timestamp a
   prepared entry voting commit holds (it may still commit there), and
   return the new frontier — 0 when nothing was freed. *)
let deliver_ready t =
  if t.status <> Leader then 0
  else
    let gate =
      Hashtbl.fold
        (fun _ { p; _ } acc -> if p.ps_vote then min acc p.ps_ts else acc)
        t.prepared max_int
    in
    match Decided_log.deliver_below t.decided ~gate with
    | None -> 0
    | Some (ts, batch) ->
        deliver t ~ts batch;
        ts

(* A member that sees a group message at a ballot ABOVE its own missed
   an election — e.g. it was Recovering after a restart while the
   NEW_LEADER round ran, so it could neither promise nor adopt the
   outcome, and a quorum of the others completed it without us. The
   exact-ballot checks then refuse every DELIVER and LEARN_DECISION
   from the new leader, and nothing in the protocol revisits the stale
   promise: the member is wedged as a non-delivering Follower forever
   (and a restarting replica's sync, which waits on the strong frontier,
   wedges with it). A Restoring member is no exception: a higher ballot
   means a quorum promised it, so the group will never follow ours
   (A10). Chase the group instead: step back to Recovering (stop voting,
   [handle_new_state] accepts again) and re-ask for the state; a leader
   at or above our promise answers with NEW_STATE at its ballot.
   Debounced on the bid clock — deliveries arrive in bursts, and a
   Recovering member retries on later evidence if the first request is
   lost. *)
let chase_ballot t b =
  if
    b > t.ballot
    && t.ctx.x_now () - t.last_bid >= t.bid_interval_us
  then begin
    t.last_bid <- t.ctx.x_now ();
    t.status <- Recovering;
    broadcast t
      (Msg.State_request { from = t.ctx.x_self (); ballot = t.ballot })
  end

(* A frontier the leader of ballot [b] freed: only a member at exactly
   that ballot may follow it (its decided log is that leader's). *)
let follow_frontier t ~b ~ts =
  if
    (t.status = Leader || t.status = Follower)
    && t.ballot = b && last_delivered t < ts
  then deliver t ~ts (Decided_log.deliver_upto t.decided ts)

(* ------------------------------------------------------------------ *)
(* PREPARE_STRONG and ACCEPT (Algorithm A9 lines 1–17).                  *)

(* An ACCEPT stores the record it carries: the leader built it once,
   and every member holds that same value. *)
let handle_accept t ~b ~rid (p : Msg.prepared_strong) =
  if t.ballot = b && t.status <> Recovering then begin
    let tid = p.ps_tx.st_tid in
    if not (Decided_log.mem t.decided tid) then add_prepared t p;
    (* the ACCEPT_ACK is a promise that this accept survives a crash of
       this member: make it durable first (memory state may run ahead of
       the disk — a crash rebuilds it from the disk, so nothing acked is
       ever lost) *)
    log_durably t (E_accept p) (fun () ->
        t.ctx.x_send p.ps_coord
          (Msg.Accept_ack
             {
               part = t.ctx.x_group;
               b;
               rid;
               tid;
               vote = p.ps_vote;
               ts = p.ps_ts;
               lc = p.ps_lc;
               from_dc = t.ctx.x_dc;
             }))
  end

let handle_prepare_strong t ~rid ~caller ~coord (tx : Msg.strong_tx) ~lc =
  if t.status = Leader || t.status = Restoring then begin
    let tid = tx.st_tid in
    match Decided_log.find t.decided tid with
    | Some d ->
        t.ctx.x_send coord
          (Msg.Already_decided { rid; dec = d.ds_dec; record = d.ds_record })
    | None -> (
        match Hashtbl.find_opt t.prepared tid with
        | Some { p; _ } ->
            broadcast t
              (Msg.Accept { b = t.ballot; rid; p = { p with ps_coord = coord } })
        | None ->
            if caller = Msg.Restoring then
              broadcast t (Msg.Unknown_tx { b = t.ballot; rid; tid; coord })
            else if t.status = Leader then begin
              (* wait until clock > snap[strong], then certify *)
              let b0 = t.ballot in
              t.ctx.x_at_clock
                (Vc.strong tx.st_snap + 1)
                (fun () ->
                  if t.status = Leader && t.ballot = b0 && t.ctx.x_alive ()
                  then begin
                    let ts = max (t.ctx.x_clock ()) (t.last_ts + 1) in
                    t.last_ts <- ts;
                    let vote, lc = certification_check t tx ~lc in
                    let p =
                      {
                        Msg.ps_tx = tx;
                        ps_coord = coord;
                        ps_vote = vote;
                        ps_ts = ts;
                        ps_lc = lc;
                      }
                    in
                    (* The check and the leader's own accept must be one
                       atomic step: a self-addressed ACCEPT is delivered
                       asynchronously, and a second conflicting
                       certification slipping in between would miss this
                       transaction and also vote commit — a Conflict
                       Ordering violation. Record locally now; the other
                       members learn by message. *)
                    handle_accept t ~b:t.ballot ~rid p;
                    send_others t (Msg.Accept { b = t.ballot; rid; p })
                  end)
            end)
  end

(* ------------------------------------------------------------------ *)
(* DECISION and LEARN_DECISION (Algorithm A9 lines 18–25).               *)

let decided_of (p : Msg.prepared_strong) ~dec ~record =
  { Msg.ds_tx = p.ps_tx; ds_dec = dec; ds_record = record }

(* Move an accepted transaction to the decided log. *)
let decide_prepared t e ~dec ~record =
  index t e ~add:false;
  Hashtbl.remove t.prepared e.p.ps_tx.st_tid;
  add_decided t (decided_of e.p ~dec ~record)

(* Re-run the 2PC of a prepared entry from here, restarting its RETRY
   clock. The clock is bumped in place: callers iterate [prepared]. *)
let recertify t e =
  e.since <- t.ctx.x_now ();
  t.ctx.x_certify ~caller:Msg.Normal e.p.ps_tx ~lc:e.p.ps_lc ~k:ignore

(* A restored leader serves once every prepared entry is decided or
   known to be unknown to the group (Algorithm A10). An unknown entry
   stays prepared and, if it voted commit, gates delivery until it is
   decided. Its RESTORING certification made this node its coordinator
   (so the RETRY paths keyed on the original coordinator no longer find
   it), and that coordinator may be gone: certify it afresh now, as
   RETRY would, instead of leaving the gate to the staleness timer. *)
let end_restoring t =
  if
    t.status = Restoring
    && Hashtbl.fold
         (fun tid _ acc ->
           acc && List.exists (Types.tid_equal tid) t.do_not_wait)
         t.prepared true
  then begin
    t.status <- Leader;
    let unknown = t.do_not_wait in
    t.do_not_wait <- [];
    List.iter
      (fun tid ->
        match Hashtbl.find_opt t.prepared tid with
        | Some e -> recertify t e
        | None -> ())
      unknown
  end

(* The leader's side of a decision: apply it in place, deliver what it
   frees, and tell the other members both in one LEARN_DECISION. The
   frontier is taken after [end_restoring], so a decision that ends
   Restoring carries the entries the flip frees. *)
let lead_decision t ~dec ~(record : Types.tx_rec) =
  (match Hashtbl.find_opt t.prepared record.tx_tid with
  | Some e -> decide_prepared t e ~dec ~record
  | None -> ());
  end_restoring t;
  let upto = deliver_ready t in
  send_others t (Msg.Learn_decision { b = t.ballot; dec; record; upto })

(* Restoring ending outside a decision (the re-certifications of
   [start_restoring] concluded, or came back Unknown): no LEARN_DECISION
   carries the frontier this frees, so a bare DELIVER does. *)
let restoring_done t =
  if t.status = Restoring then begin
    end_restoring t;
    let upto = deliver_ready t in
    if upto > 0 then send_others t (Msg.Deliver { b = t.ballot; ts = upto })
  end

(* A DECISION is a learned value: a quorum accepted it, so it is chosen
   and immutable regardless of ballots that came after. Accepting
   [b <= ballot] (and relaying under the current ballot) matters after a
   leader restart: coordinators that latched a group quorum before the
   crash keep sending the old ballot — their group is done, so the
   PREPARE_STRONG retry never refreshes it — and an exact-match guard
   would drop those decisions forever, leaving the restored leader's
   prepared table stuck and [restoring_done] unreachable. *)
let handle_decision t ~b ~dec ~(record : Types.tx_rec) =
  if (t.status = Leader || t.status = Restoring) && b <= t.ballot then
    t.ctx.x_at_clock (Vc.strong record.tx_vec) (fun () ->
        if
          b <= t.ballot
          && (t.status = Leader || t.status = Restoring)
          && t.ctx.x_alive ()
        then lead_decision t ~dec ~record)

(* The decision applies under [b <= ballot] (chosen values survive
   ballot changes), the frontier [upto] under the exact-ballot rule —
   also when this member never accepted the transaction. *)
let handle_learn_decision t ~b ~dec ~(record : Types.tx_rec) ~upto =
  chase_ballot t b;
  if t.status = Recovering then
    Hashtbl.replace t.learned record.tx_tid (dec, record)
  else if b <= t.ballot then begin
    (match Hashtbl.find_opt t.prepared record.tx_tid with
    | None -> ()  (* already decided or never accepted here *)
    | Some e when t.status = Follower -> decide_prepared t e ~dec ~record
    | Some _ ->
        (* A leader learning a decision from an older ballot's leader
           relays it under its own ballot, ahead of any frontier above
           it. A member the older leader's message has not reached yet
           would otherwise deliver past the entry while it is still
           prepared there, and the decision arriving afterwards lands
           below its frontier, where [add_decided] queues nothing. *)
        lead_decision t ~dec ~record);
    follow_frontier t ~b ~ts:upto
  end

let handle_unknown_tx t ~b ~rid ~tid ~coord =
  if t.status <> Recovering && t.ballot = b then
    t.ctx.x_send coord
      (Msg.Unknown_tx_ack
         { part = t.ctx.x_group; rid; tid; from_dc = t.ctx.x_dc })

(* ------------------------------------------------------------------ *)
(* Leader recovery (Algorithm A10).                                      *)

let prepared_list t = Hashtbl.fold (fun _ { p; _ } acc -> p :: acc) t.prepared []

(* This member's whole log, as a NEW_LEADER_ACK (given [cballot]) or a
   NEW_STATE. *)
let state_msg ?cballot t ~b =
  let prepared = prepared_list t and decided = Decided_log.to_list t.decided in
  let from = t.ctx.x_self () in
  match cballot with
  | Some cballot -> Msg.New_leader_ack { b; cballot; prepared; decided; from }
  | None -> Msg.New_state { b; prepared; decided; from }

(* Bid for leadership: NEW_LEADER at this member's next ballot, which
   restarts the reclaim debounce. *)
let bid t =
  t.last_bid <- t.ctx.x_now ();
  let rec next b = if b mod t.ctx.x_dcs = t.ctx.x_dc then b else next (b + 1) in
  let b = next (t.ballot + 1) in
  t.recovery_acks <- [];
  t.state_acks <- [];
  broadcast t (Msg.New_leader { b; from = t.ctx.x_self () })

(* A non-leader that trusts its own DC keeps receiving leader-bound
   traffic: trust has converged back here (typically the leader-home DC
   after a crash/recover cycle) while the current ballot still belongs
   to the interim leader — and a follower drops PREPARE_STRONG and
   STATE_REQUEST silently, so nothing else would ever break the
   deadlock. Bid for leadership through the ordinary recovery protocol,
   debounced so the periodic retries that trigger this cannot stack
   elections on top of one another. *)
let reclaim t =
  if
    t.trusted = t.ctx.x_dc
    && (t.status = Follower || t.status = Recovering)
    && t.ctx.x_now () - t.last_bid >= t.bid_interval_us
  then bid t

(* Ω notification: the failure detector now trusts [dc] for this group. *)
let set_trusted t dc =
  if t.trusted <> dc then begin
    t.trusted <- dc;
    if dc = t.ctx.x_dc then bid t
    else
      t.ctx.x_send (t.ctx.x_member dc)
        (Msg.Nack { b = t.ballot; from = t.ctx.x_self () })
  end

let handle_nack t ~b =
  if t.trusted = t.ctx.x_dc && b > t.ballot then begin
    t.ballot <- b;
    bid t
  end
  else if b >= t.ballot then
    (* An equal-ballot NACK cannot raise our bid but still signals that
       the sender does not consider us leader. The [b > t.ballot] check
       alone wedges a rejoined leader-home member that already adopted
       the interim leader's ballot from NEW_STATE: the one-shot
       trust-transition NACK then ties and is dropped, leaving trust
       pointed at a permanent follower. *)
    reclaim t

let handle_new_leader t ~b ~from ~from_dc =
  if t.trusted = from_dc && t.ballot < b then begin
    t.status <- Recovering;
    t.ballot <- b;
    t.do_not_wait <- [];
    let ack = state_msg t ~b ~cballot:t.cballot in
    (* the ack promises never to accept under a smaller ballot again:
       persist the promise before it leaves (Raft's currentTerm) *)
    log_durably t (E_ballot { b; cb = t.cballot }) (fun () ->
        t.ctx.x_send from ack)
  end
  else t.ctx.x_send from (Msg.Nack { b = t.ballot; from = t.ctx.x_self () })

(* Replace this member's certification state (recovery), then decide the
   installed prepared entries whose decision was learned meanwhile. *)
let install_state ?delivered t ~prepared ~decided =
  Hashtbl.reset t.prepared;
  Hashtbl.reset t.voting_by_key;
  Decided_log.reset ?delivered t.decided;
  List.iter (add_decided t) decided;
  List.iter
    (fun (p : Msg.prepared_strong) ->
      if not (Decided_log.mem t.decided p.ps_tx.st_tid) then add_prepared t p)
    prepared;
  Hashtbl.iter
    (fun tid (dec, record) ->
      match Hashtbl.find_opt t.prepared tid with
      | None -> ()
      | Some e -> decide_prepared t e ~dec ~record)
    t.learned;
  Hashtbl.reset t.learned

let handle_new_leader_ack t ~b ~cballot ~prepared ~decided ~from_dc =
  if t.status = Recovering && t.ballot = b then begin
    (* our election is making progress: push the reclaim debounce out so
       leader-bound traffic cannot restart the election from under us —
       the full round (acks, install, NEW_STATE fsync+acks) takes about
       a debounce interval, so debouncing only from the bid start
       livelocks on back-to-back re-elections *)
    t.last_bid <- t.ctx.x_now ();
    if not (List.mem_assoc from_dc t.recovery_acks) then
      t.recovery_acks <-
        (from_dc, (cballot, prepared, decided)) :: t.recovery_acks;
    if List.length t.recovery_acks >= t.ctx.x_quorum then begin
      let acks = List.map snd t.recovery_acks in
      t.recovery_acks <- [];
      let max_cb =
        List.fold_left (fun acc (cb, _, _) -> max acc cb) (-1) acks
      in
      (* Accepted values come from the highest cballot only (Paxos), but
         a decision is a chosen value whoever reports it. A member at a
         lower cballot — typically the old leader, which learns decisions
         first — may be the only one in the quorum that holds the
         decision of an entry the others still have prepared (a
         LEARN_DECISION reaching a Recovering member is only stashed).
         Dropping it would put that entry back in [prepared], where it
         blocks delivery until a RETRY decides it again. *)
      let from_max = List.filter (fun (cb, _, _) -> cb = max_cb) acks in
      let decided = List.concat_map (fun (_, _, d) -> d) acks in
      let prepared = List.concat_map (fun (_, p, _) -> p) from_max in
      install_state t ~prepared ~decided;
      let max_prep =
        Hashtbl.fold (fun _ { p; _ } acc -> max acc p.ps_ts) t.prepared 0
      in
      let max_ts = max max_prep (Decided_log.max_commit_ts t.decided) in
      t.ctx.x_at_clock max_ts (fun () ->
          if t.status = Recovering && t.ballot = b && t.ctx.x_alive () then begin
            t.last_bid <- t.ctx.x_now ();
            t.cballot <- b;
            t.last_ts <- max t.last_ts max_ts;
            t.state_acks <- [ t.ctx.x_dc ];
            let state = state_msg t ~b in
            log_durably t (E_ballot { b; cb = b }) (fun () ->
                send_others t state)
          end)
    end
  end

let handle_new_state t ~b ~prepared ~decided ~from =
  if t.status = Recovering && b >= t.ballot then begin
    t.cballot <- b;
    t.ballot <- b;
    install_state t ~prepared ~decided;
    t.status <- Follower;
    log_durably t (E_ballot { b; cb = b }) (fun () ->
        t.ctx.x_send from (Msg.New_state_ack { b; from = t.ctx.x_self () }))
  end

let start_restoring t =
  t.status <- Restoring;
  let to_certify = prepared_list t in
  if to_certify = [] then restoring_done t
  else
    List.iter
      (fun (p : Msg.prepared_strong) ->
        let tid = p.ps_tx.st_tid in
        t.ctx.x_certify ~caller:Msg.Restoring p.ps_tx ~lc:p.ps_lc
          ~k:(fun result ->
            match result with
            | Unknown ->
                if not (List.exists (Types.tid_equal tid) t.do_not_wait)
                then t.do_not_wait <- tid :: t.do_not_wait;
                restoring_done t
            | Decided _ ->
                (* the DECISION reaches this leader, which removes the
                   transaction from [prepared] ([lead_decision]) *)
                restoring_done t))
      to_certify

(* What a node snapshot must capture of its cert member: the durable
   promises (ballots) and the accepted-but-undecided log. Everything
   else is group-recoverable. *)
let persistent_state t = (t.ballot, t.cballot, prepared_list t)

(* Until the group state arrives ([New_state]) the member neither votes
   nor acks: the "catch up the decided log before voting" a restart
   needs. The accepts whose fate the disk names come back decided, below
   the frontier, so a re-election this member leads hands the group
   their decisions, not undecided entries. *)
let restart ?(decision = fun _ -> None) t ~ballot ~cballot ~prepared
    ~delivered =
  t.status <- Recovering;
  t.ballot <- max t.ballot ballot;
  t.cballot <- max t.cballot cballot;
  t.last_activity <- t.ctx.x_now ();
  t.do_not_wait <- [];
  t.recovery_acks <- [];
  t.state_acks <- [];
  Hashtbl.reset t.learned;
  let decided, prepared =
    List.partition_map
      (fun (p : Msg.prepared_strong) ->
        match decision p.ps_tx.st_tid with
        | Some (dec, record) -> Either.Left (decided_of p ~dec ~record)
        | None -> Either.Right p)
      prepared
  in
  install_state ~delivered t ~prepared ~decided

(* No accepted log: pretending otherwise would let a pre-crash entry
   leak into a recovery ack. The ballot is left alone: the group's
   current ballot is at least the pre-crash one, so the leader's
   [New_state {b}] passes the [b >= ballot] check. *)
let begin_rejoin t ~delivered =
  restart t ~ballot:t.ballot ~cballot:t.cballot ~prepared:[] ~delivered

(* A rejoining member asks for the group state; only the leader answers
   (with a targeted [New_state] under its current ballot — the same
   message leader recovery broadcasts). A non-leader replies with a NACK
   carrying the ballot to beat — or bids itself when it trusts its own
   DC — so a rejoiner whose group currently has no live leader (the
   leader-home DC crashed and recovered before anyone took over) is not
   left retrying into silence forever.

   [ballot] is the requester's durable promise. A leader still working
   below it (the requester crashed after promising a higher ballot the
   rest of the group never completed) cannot answer usefully: its
   [New_state {b}] fails the requester's [b >= ballot] check, and the
   requester's periodic retry re-asks the same leader — a permanent
   wedge. Lowering the requester's ballot would break its promise, so
   the leader instead re-establishes itself above the requester's
   ballot through the ordinary recovery protocol (the [handle_nack]
   adopt-and-bid move), after which its [New_state] broadcast
   reaches the requester at an acceptable ballot. *)
let handle_state_request t ~from ~ballot =
  if t.status = Leader then begin
    if ballot > t.ballot then begin
      t.ballot <- ballot;
      bid t
    end
    else t.ctx.x_send from (state_msg t ~b:t.ballot)
  end
  else begin
    reclaim t;
    t.ctx.x_send from (Msg.Nack { b = t.ballot; from = t.ctx.x_self () })
  end

let handle_new_state_ack t ~b ~from_dc =
  if t.status = Recovering && t.ballot = b then begin
    t.last_bid <- t.ctx.x_now ();
    if not (List.mem from_dc t.state_acks) then
      t.state_acks <- from_dc :: t.state_acks;
    if List.length t.state_acks >= t.ctx.x_quorum then begin
      t.state_acks <- [];
      start_restoring t
    end
  end

(* ------------------------------------------------------------------ *)
(* RETRY (Algorithm A9 line 37): re-run the 2PC, from here, of every
   prepared entry [pick] selects. The leader runs it; [any_member] lets
   a follower run it too — it only re-drives the 2PC, whose decision is
   unique per transaction.                                              *)

let retry ?(any_member = false) t pick =
  if any_member || t.status = Leader then
    Hashtbl.iter (fun _ e -> if pick e then recertify t e) t.prepared

let retry_stale t ~older_than_us =
  let now = t.ctx.x_now () in
  retry t (fun e -> now - e.since >= older_than_us)

(* An orphaned entry blocks DELIVER for every later strong timestamp in
   its group, which freezes the data center-wide stable vector and with
   it every new snapshot. *)
let retry_suspected t ~dc =
  retry t (fun e -> t.ctx.x_dc_of e.p.ps_coord = dc)

(* The data-center failure detector does not see a single node restart:
   without this an undecided entry that voted commit blocks delivery
   until the staleness timer of [retry_stale]. *)
let retry_coordinated t ~coord =
  retry ~any_member:true t (fun e -> e.p.ps_coord = coord)

(* Dispatch group-member messages; others are ignored. *)
let handle t msg =
  match msg with
  | Msg.Prepare_strong { rid; caller; coord; tx; lc } ->
      (* Leader-bound traffic landing on a non-leader that trusts its own
         DC: reclaim leadership (see [reclaim]) instead of dropping the
         request into a permanent coordinator-retry loop. *)
      reclaim t;
      handle_prepare_strong t ~rid ~caller ~coord tx ~lc
  | Msg.Accept { b; rid; p } -> handle_accept t ~b ~rid p
  | Msg.Decision { b; dec; record } -> handle_decision t ~b ~dec ~record
  | Msg.Learn_decision { b; dec; record; upto } ->
      handle_learn_decision t ~b ~dec ~record ~upto
  | Msg.Deliver { b; ts } ->
      chase_ballot t b;
      follow_frontier t ~b ~ts
  | Msg.Unknown_tx { b; rid; tid; coord } ->
      handle_unknown_tx t ~b ~rid ~tid ~coord
  | Msg.Nack { b; _ } -> handle_nack t ~b
  | Msg.New_leader { b; from } ->
      handle_new_leader t ~b ~from ~from_dc:(t.ctx.x_dc_of from)
  | Msg.New_leader_ack { b; cballot; prepared; decided; from } ->
      handle_new_leader_ack t ~b ~cballot ~prepared ~decided
        ~from_dc:(t.ctx.x_dc_of from)
  | Msg.New_state { b; prepared; decided; from } ->
      handle_new_state t ~b ~prepared ~decided ~from
  | Msg.New_state_ack { b; from } ->
      handle_new_state_ack t ~b ~from_dc:(t.ctx.x_dc_of from)
  | Msg.State_request { from; ballot } ->
      handle_state_request t ~from ~ballot
  | _ -> ()
