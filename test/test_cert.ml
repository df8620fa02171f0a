(* White-box tests of the certification group state machine (Cert):
   certification checks, delivery gating, and leader recovery — driven
   through mock contexts with synchronous message delivery, no network
   or replicas involved. *)

module U = Unistore
module Vc = Vclock.Vc

(* A tiny synchronous bus: addr i = member of DC i. *)
type bus = {
  mutable members : U.Cert.t option array;
  mutable queue : (int * U.Msg.t) list;  (* (dst, msg) in FIFO order *)
  mutable delivered : (int * string) list;  (* deliveries observed *)
  (* every [x_deliver] call, newest first: (member, strong ts, tids) *)
  mutable deliver_calls : (int * int * string list) list;
  (* every send, newest first: (sender, destination, message) *)
  mutable sent : (int * int * U.Msg.t) list;
  mutable clock : int;
  mutable certify_calls : U.Types.tid list;
  (* the continuation of every [x_certify] call, newest first *)
  mutable certify_ks : (U.Cert.cert_result -> unit) list;
  (* while [park] is set, [x_at_clock] waits here instead of running *)
  mutable park : bool;
  mutable parked : (unit -> unit) list;
}

let dcs = 3

let make_bus () =
  {
    members = Array.make dcs None;
    queue = [];
    delivered = [];
    deliver_calls = [];
    sent = [];
    clock = 100;
    certify_calls = [];
    certify_ks = [];
    park = false;
    parked = [];
  }

let rec pump bus =
  match bus.queue with
  | [] -> ()
  | (dst, msg) :: rest ->
      bus.queue <- rest;
      (* addresses outside the member range stand for coordinators whose
         replies the tests observe only through state *)
      (if dst >= 0 && dst < Array.length bus.members then
         match bus.members.(dst) with
         | Some c -> ignore (U.Cert.handle c msg)
         | None -> ());
      pump bus

let make_member ?(conflict = U.Config.Serializable) bus dc =
  let ctx =
    {
      U.Cert.x_dc = dc;
      x_group = 0;
      x_dcs = dcs;
      x_quorum = 2;
      x_conflict = conflict;
      x_ops_slice = (fun ops -> List.concat_map snd ops);
      x_clock = (fun () -> bus.clock);
      x_now = (fun () -> bus.clock);
      x_send =
        (fun dst msg ->
          bus.sent <- (dc, dst, msg) :: bus.sent;
          bus.queue <- bus.queue @ [ (dst, msg) ]);
      x_self = (fun () -> dc);
      x_member = (fun i -> i);
      x_dc_of = (fun a -> a);
      x_deliver =
        (fun txs ~strong_ts ->
          bus.deliver_calls <-
            ( dc,
              strong_ts,
              List.map
                (fun tx -> Fmt.str "%a" U.Types.tid_pp tx.U.Types.tx_tid)
                txs )
            :: bus.deliver_calls;
          List.iter
            (fun tx ->
              bus.delivered <-
                (strong_ts, Fmt.str "%a@dc?" U.Types.tid_pp tx.U.Types.tx_tid)
                :: bus.delivered)
            txs;
          if txs = [] then bus.delivered <- (strong_ts, "dummy") :: bus.delivered);
      x_at_clock =
        (fun ts k ->
          let run () =
            bus.clock <- max bus.clock ts;
            k ()
          in
          if bus.park then bus.parked <- run :: bus.parked else run ());
      x_certify =
        (fun ~caller:_ tx ~lc:_ ~k ->
          bus.certify_calls <- tx.U.Msg.st_tid :: bus.certify_calls;
          bus.certify_ks <- k :: bus.certify_ks);
      x_alive = (fun () -> true);
    }
  in
  U.Cert.create ~bid_interval_us:1_000_000 ctx ~leader_dc:0

let setup ?conflict () =
  let bus = make_bus () in
  for dc = 0 to dcs - 1 do
    bus.members.(dc) <- Some (make_member ?conflict bus dc)
  done;
  let m dc = Option.get bus.members.(dc) in
  (bus, m)

let tid n = { U.Types.cl = 9; sq = n }

(* The record of a decision on [tid n]: commit vector and clock. *)
let record ?(lc = 1) n ~vec =
  U.Types.tx_rec ~tid:(tid n) ~writes:[] ~vec ~lc ~origin:9

let wbuff_of keys : U.Types.wbuff =
  [
    ( 0,
      List.map
        (fun key -> { U.Types.wkey = key; wop = Crdt.Reg_write 1; wcls = 0 })
        keys );
  ]

let ops_of keys : U.Types.opsmap =
  [ (0, List.map (fun key -> { U.Types.key; cls = 0; write = true }) keys) ]

let snap0 = Vc.create ~dcs:3

let tx_of ?(origin = 9) ~n keys ~snap =
  {
    U.Msg.st_tid = tid n;
    st_origin = origin;
    st_wbuff = wbuff_of keys;
    st_ops = ops_of keys;
    st_snap = snap;
  }

let prepare_tx ?(leader = 0) bus ~coord ~n tx =
  bus.queue <-
    bus.queue
    @ [
        ( leader,
          U.Msg.Prepare_strong
            { rid = n; caller = U.Msg.Normal; coord; tx; lc = 0 } );
      ];
  pump bus

(* [keys] adds keys beyond [key]; [leader] is the member addressed. *)
let prepare ?origin ?leader ?(keys = []) bus ~coord ~n ~key ~snap =
  prepare_tx ?leader bus ~coord ~n (tx_of ?origin ~n (key :: keys) ~snap)

(* The vote and Lamport clock the leader [c] proposed for [tid n]. *)
let vote_lc c n =
  let _, _, prepared = U.Cert.persistent_state c in
  let p =
    List.find
      (fun (p : U.Msg.prepared_strong) ->
        U.Types.tid_equal p.ps_tx.st_tid (tid n))
      prepared
  in
  (p.ps_vote, p.ps_lc)

let test_leader_certifies_and_members_ack () =
  let bus, m = setup () in
  Alcotest.(check bool) "dc0 leads" true (U.Cert.is_leader (m 0));
  Alcotest.(check bool) "dc1 follows" false (U.Cert.is_leader (m 1));
  (* coordinator "address" 99 is nobody on the bus: we only observe state *)
  prepare bus ~coord:99 ~n:1 ~key:5 ~snap:snap0;
  (* after the ACCEPT round every member holds the transaction *)
  for dc = 0 to dcs - 1 do
    Alcotest.(check int)
      (Fmt.str "member %d prepared" dc)
      1
      (U.Cert.prepared_count (m dc))
  done

let test_conflicting_second_prepare_votes_abort () =
  let bus, m = setup () in
  prepare bus ~coord:99 ~n:1 ~key:5 ~snap:snap0;
  (* second transaction on the same key while the first is pending *)
  prepare bus ~coord:99 ~n:2 ~key:5 ~snap:snap0;
  ignore m;
  (* deliver decisions: commit the first, the second's vote must be abort;
     we can observe it through the Accept broadcast already applied: both
     are prepared, so inspect via certification check behaviour instead *)
  Alcotest.(check int) "both prepared at leader" 2
    (U.Cert.prepared_count (m 0))

let strong_vec ts =
  let vec = Vc.create ~dcs:3 in
  Vc.set_strong vec ts;
  vec

let decide ?(leader = 0) ?(b = 0) bus ~n ~ts ~dec =
  bus.queue <-
    bus.queue
    @ [
        ( leader,
          U.Msg.Decision { b; dec; record = record n ~vec:(strong_vec ts) } );
      ];
  pump bus

let test_delivery_in_timestamp_order_with_gating () =
  let bus, m = setup () in
  prepare bus ~coord:99 ~n:1 ~key:5 ~snap:snap0;
  prepare bus ~coord:99 ~n:2 ~key:6 ~snap:snap0;
  (* decide the later transaction first: delivery must wait for the
     earlier prepared one *)
  decide bus ~n:2 ~ts:2000 ~dec:true;
  Alcotest.(check (list (pair int string))) "nothing delivered yet" []
    bus.delivered;
  decide bus ~n:1 ~ts:1000 ~dec:true;
  (* both decided: deliveries happen in ts order 1000 then 2000 *)
  let ts_order =
    List.rev_map fst bus.delivered
    |> List.filter (fun t -> t = 1000 || t = 2000)
  in
  Alcotest.(check bool) "delivered in order" true
    (List.length ts_order >= 2
    && List.sort compare ts_order = ts_order);
  Alcotest.(check int) "nothing left prepared" 0 (U.Cert.prepared_count (m 0))

let test_abort_decision_unblocks_delivery () =
  let bus, _m = setup () in
  prepare bus ~coord:99 ~n:1 ~key:5 ~snap:snap0;
  prepare bus ~coord:99 ~n:2 ~key:6 ~snap:snap0;
  decide bus ~n:2 ~ts:2000 ~dec:true;
  Alcotest.(check (list (pair int string))) "gated" [] bus.delivered;
  (* aborting the earlier one lifts the gate *)
  decide bus ~n:1 ~ts:1000 ~dec:false;
  Alcotest.(check bool) "later delivery proceeds" true
    (List.exists (fun (t, _) -> t = 2000) bus.delivered)

let test_already_decided_reply () =
  let bus, _m = setup () in
  prepare bus ~coord:99 ~n:1 ~key:5 ~snap:snap0;
  decide bus ~n:1 ~ts:1000 ~dec:true;
  (* re-preparing the same tid must answer ALREADY_DECIDED to the
     coordinator; member 1 acts as "coordinator" address so the reply
     lands somewhere harmless *)
  let before = List.length bus.queue in
  ignore before;
  prepare bus ~coord:1 ~n:1 ~key:5 ~snap:snap0;
  (* no new prepared entry appears *)
  let _, m = setup () in
  ignore m;
  Alcotest.(check bool) "no duplicate prepared" true
    (U.Cert.prepared_count (Option.get bus.members.(0)) = 0)

let test_leader_recovery_preserves_decisions () =
  let bus, m = setup () in
  prepare bus ~coord:99 ~n:1 ~key:5 ~snap:snap0;
  decide bus ~n:1 ~ts:1000 ~dec:true;
  prepare bus ~coord:99 ~n:2 ~key:6 ~snap:snap0;
  (* dc0 "fails": dc1 and dc2 now trust dc1 *)
  bus.members.(0) <- None;
  U.Cert.set_trusted (m 1) 1;
  U.Cert.set_trusted (m 2) 1;
  pump bus;
  (* the new leader must not serve until the in-flight transaction's fate
     is settled: it stays RESTORING and re-certifies it *)
  Alcotest.(check string) "dc1 restoring" "restoring"
    (U.Cert.status_name (U.Cert.status (m 1)));
  Alcotest.(check bool) "recovery re-certified the pending txn" true
    (List.exists (U.Types.tid_equal (tid 2)) bus.certify_calls);
  Alcotest.(check int) "decided state survived" 1 (U.Cert.decided_count (m 1));
  (* the re-certification concludes with a decision on the new ballot *)
  let vec = Vc.create ~dcs:3 in
  Vc.set_strong vec 3000;
  bus.queue <-
    bus.queue
    @ [ (1, U.Msg.Decision { b = 1; dec = true; record = record 2 ~vec }) ];
  pump bus;
  Alcotest.(check string) "dc1 now leads" "leader"
    (U.Cert.status_name (U.Cert.status (m 1)));
  Alcotest.(check int) "pending transaction decided" 2
    (U.Cert.decided_count (m 1));
  Alcotest.(check bool) "and delivered under the new leader" true
    (List.exists (fun (t, _) -> t = 3000) bus.delivered)

let test_prune_decided () =
  let bus, m = setup () in
  prepare bus ~coord:99 ~n:1 ~key:5 ~snap:snap0;
  decide bus ~n:1 ~ts:1000 ~dec:true;
  Alcotest.(check int) "one decided" 1 (U.Cert.decided_count (m 0));
  let floor ts = ts + U.Decided_log.prune_margin_us in
  U.Cert.prune_decided (m 0) ~floor:(floor 500);
  Alcotest.(check int) "recent kept" 1 (U.Cert.decided_count (m 0));
  U.Cert.prune_decided (m 0) ~floor:(floor 1500);
  Alcotest.(check int) "old pruned" 0 (U.Cert.decided_count (m 0))

(* A decision learned while rejoining survives until the group state
   lands. The [Learn_decision] reached the rejoiner while it was
   [Recovering], and the [New_state] it then installs was captured
   before the decision reached its sender (a leader that has yet to
   learn what an older ballot's leader decided), so it still lists the
   transaction as prepared. The member must keep that chosen value and
   apply it to the installed entry, or the transaction stays prepared
   forever and the rejoiner never applies the acked write. *)
let test_rejoiner_keeps_decision_learned_while_recovering () =
  let bus, m = setup () in
  prepare bus ~coord:99 ~n:1 ~key:5 ~snap:snap0;
  let _, _, prepared = U.Cert.persistent_state (m 0) in
  U.Cert.begin_rejoin (m 2) ~delivered:0;
  let vec = strong_vec 1000 in
  let handle2 msg = ignore (U.Cert.handle (m 2) msg) in
  handle2
    (U.Msg.Learn_decision
       { b = 0; dec = true; record = record 1 ~vec; upto = 1000 });
  handle2 (U.Msg.New_state { b = 0; prepared; decided = []; from = 0 });
  Alcotest.(check string) "rejoiner follows again" "follower"
    (U.Cert.status_name (U.Cert.status (m 2)));
  Alcotest.(check int) "nothing left prepared" 0 (U.Cert.prepared_count (m 2));
  Alcotest.(check int) "decided" 1 (U.Cert.decided_count (m 2));
  Alcotest.(check (list (pair int string)))
    "a frontier stashed while recovering is not followed" [] bus.delivered;
  handle2 (U.Msg.Deliver { b = 0; ts = 1000 });
  Alcotest.(check (list (pair int string)))
    "delivered on the next Deliver"
    [ (1000, Fmt.str "%a@dc?" U.Types.tid_pp (tid 1)) ]
    bus.delivered

let tid_s n = Fmt.str "%a" U.Types.tid_pp (tid n)

let calls_at bus dc =
  List.rev bus.deliver_calls
  |> List.filter_map (fun (d, ts, tids) ->
         if d = dc then Some (ts, tids) else None)

let ballot_of (msg : U.Msg.t) =
  match msg with
  | Learn_decision { b; _ } | Deliver { b; _ } -> b
  | _ -> -1

(* A decision costs the leader one message per other member: the
   LEARN_DECISION carries the frontier it frees. The leader applies it
   in place — no message to itself, no separate DELIVER. *)
let test_decision_is_one_message_per_other_member () =
  let bus, _m = setup () in
  prepare bus ~coord:99 ~n:1 ~key:5 ~snap:snap0;
  bus.sent <- [];
  decide bus ~n:1 ~ts:1000 ~dec:true;
  Alcotest.(check int) "dcs - 1 sends, from the leader only" (dcs - 1)
    (List.length bus.sent);
  List.iter
    (fun (src, dst, (msg : U.Msg.t)) ->
      Alcotest.(check bool) "sent by the leader to another member" true
        (src = 0 && dst <> 0);
      match msg with
      | Learn_decision { record; upto; _ } ->
          Alcotest.(check string) "the decided tid" (tid_s 1)
            (Fmt.str "%a" U.Types.tid_pp record.tx_tid);
          Alcotest.(check int) "carrying the freed frontier" 1000 upto
      | m -> Alcotest.failf "unexpected %s" (U.Msg.kind m))
    bus.sent;
  for dc = 0 to dcs - 1 do
    Alcotest.(check (list (pair int (list string))))
      (Fmt.str "dc%d delivered it" dc)
      [ (1000, [ tid_s 1 ]) ]
      (calls_at bus dc)
  done

(* One decision that unblocks queued entries delivers them as one batch,
   in timestamp order, at the leader and at every follower. *)
let test_unblocked_entries_deliver_as_one_batch () =
  let bus, _m = setup () in
  prepare bus ~coord:99 ~n:1 ~key:5 ~snap:snap0;
  prepare bus ~coord:99 ~n:2 ~key:6 ~snap:snap0;
  prepare bus ~coord:99 ~n:3 ~key:7 ~snap:snap0;
  decide bus ~n:3 ~ts:3000 ~dec:true;
  decide bus ~n:2 ~ts:2000 ~dec:true;
  Alcotest.(check int) "gated behind the first" 0
    (List.length bus.deliver_calls);
  decide bus ~n:1 ~ts:1000 ~dec:true;
  for dc = 0 to dcs - 1 do
    Alcotest.(check (list (pair int (list string))))
      (Fmt.str "dc%d: one call, in order" dc)
      [ (3000, [ tid_s 1; tid_s 2; tid_s 3 ]) ]
      (calls_at bus dc)
  done

(* The frontier of a LEARN_DECISION is followed even when the member
   never accepted the transaction it decides. *)
let test_frontier_followed_without_the_prepared_entry () =
  let bus, m = setup () in
  prepare bus ~coord:99 ~n:1 ~key:5 ~snap:snap0;
  let handle2 msg = ignore (U.Cert.handle (m 2) msg) in
  handle2
    (U.Msg.Learn_decision
       { b = 0; dec = true; record = record 1 ~vec:(strong_vec 1000); upto = 0 });
  Alcotest.(check int) "decided, no frontier yet" 0
    (List.length (calls_at bus 2));
  handle2
    (U.Msg.Learn_decision
       { b = 0; dec = true; record = record 7 ~vec:(strong_vec 1500); upto = 1000 });
  Alcotest.(check int) "advanced to upto" 1000 (U.Cert.last_delivered (m 2));
  Alcotest.(check (list (pair int (list string))))
    "delivering what it had queued"
    [ (1000, [ tid_s 1 ]) ]
    (calls_at bus 2)

(* A new leader that learns a decision from the old ballot's leader
   relays it under its own ballot before any frontier above it. dc2
   never hears from the old leader: without the relay the next
   decision's frontier would carry it past the entry, still prepared
   there, and its writes would be skipped for good. *)
let test_old_ballot_decision_relayed_before_frontier () =
  let bus, m = setup () in
  prepare bus ~coord:99 ~n:1 ~key:5 ~snap:snap0;
  bus.members.(0) <- None;
  U.Cert.set_trusted (m 1) 1;
  U.Cert.set_trusted (m 2) 1;
  pump bus;
  Alcotest.(check string) "dc1 restoring" "restoring"
    (U.Cert.status_name (U.Cert.status (m 1)));
  bus.sent <- [];
  ignore
    (U.Cert.handle (m 1)
       (U.Msg.Learn_decision
          { b = 0; dec = true; record = record 1 ~vec:(strong_vec 1000); upto = 1000 }));
  pump bus;
  Alcotest.(check string) "dc1 leads" "leader"
    (U.Cert.status_name (U.Cert.status (m 1)));
  Alcotest.(check (list int)) "relayed under the new ballot" [ 1; 1 ]
    (List.map (fun (_, _, msg) -> ballot_of msg) bus.sent);
  prepare ~leader:1 bus ~coord:99 ~n:2 ~key:6 ~snap:snap0;
  decide ~leader:1 ~b:1 bus ~n:2 ~ts:2000 ~dec:true;
  Alcotest.(check (list (pair int (list string))))
    "dc2 delivers both, in order"
    [ (1000, [ tid_s 1 ]); (2000, [ tid_s 2 ]) ]
    (calls_at bus 2)

(* A restored leader whose re-certification of a prepared entry comes
   back Unknown (some group never accepted it) serves without waiting
   for it, but the entry still gates delivery. Its original coordinator
   may be gone, and the RESTORING certification made this node its
   coordinator, so the leader certifies it afresh at once instead of
   leaving it to the staleness timer. *)
let test_unknown_entry_recertified_when_restoring_ends () =
  let bus, m = setup () in
  prepare bus ~coord:99 ~n:1 ~key:5 ~snap:snap0;
  bus.members.(0) <- None;
  U.Cert.set_trusted (m 1) 1;
  U.Cert.set_trusted (m 2) 1;
  pump bus;
  Alcotest.(check string) "dc1 restoring" "restoring"
    (U.Cert.status_name (U.Cert.status (m 1)));
  let ks = bus.certify_ks in
  bus.certify_calls <- [];
  List.iter (fun k -> k U.Cert.Unknown) ks;
  Alcotest.(check string) "dc1 leads" "leader"
    (U.Cert.status_name (U.Cert.status (m 1)));
  Alcotest.(check int) "still prepared" 1 (U.Cert.prepared_count (m 1));
  Alcotest.(check (list string)) "certified afresh" [ tid_s 1 ]
    (List.map (Fmt.str "%a" U.Types.tid_pp) bus.certify_calls)

(* A Restoring leader that learns a decision at a higher ballot has
   been superseded: a quorum promised that ballot, and the group will
   never follow ours. It must chase the group like any other member —
   step back to Recovering and ask for the state — or it never delivers
   what the new leader decides. *)
let test_restoring_member_chases_higher_ballot () =
  let bus, m = setup () in
  prepare bus ~coord:99 ~n:1 ~key:5 ~snap:snap0;
  bus.members.(0) <- None;
  U.Cert.set_trusted (m 1) 1;
  U.Cert.set_trusted (m 2) 1;
  pump bus;
  Alcotest.(check string) "dc1 restoring" "restoring"
    (U.Cert.status_name (U.Cert.status (m 1)));
  (* past the bid debounce; dc0 won ballot 3 without dc1 *)
  bus.clock <- bus.clock + 1_000_000;
  bus.sent <- [];
  ignore
    (U.Cert.handle (m 1)
       (U.Msg.Learn_decision
          { b = 3; dec = true; record = record 1 ~vec:(strong_vec 1000); upto = 1000 }));
  Alcotest.(check string) "dc1 steps back to recovering" "recovering"
    (U.Cert.status_name (U.Cert.status (m 1)));
  Alcotest.(check int) "and asks the group for the state" 3
    (List.length
       (List.filter
          (fun (src, _, msg) ->
            match msg with U.Msg.State_request _ -> src = 1 | _ -> false)
          bus.sent))

(* A decided entry that conflicts with a transaction on two keys is
   folded in once per key; the vote and the Lamport bump are those of a
   single fold. *)
let test_two_key_conflict () =
  let bus, m = setup () in
  prepare bus ~keys:[ 6 ] ~coord:99 ~n:1 ~key:5 ~snap:snap0;
  decide bus ~n:1 ~ts:1000 ~dec:true;
  prepare bus ~keys:[ 6 ] ~coord:99 ~n:2 ~key:5 ~snap:snap0;
  prepare bus ~keys:[ 6 ] ~coord:99 ~n:3 ~key:5 ~snap:(strong_vec 1000);
  Alcotest.(check (pair bool int)) "stale snapshot: abort, lc = d.lc + 1"
    (false, 2) (vote_lc (m 0) 2);
  Alcotest.(check (pair bool int)) "covering snapshot: commit, lc = d.lc + 1"
    (true, 2) (vote_lc (m 0) 3)

(* The two crash re-entries share one reset. Both park the member in
   [Recovering] with its delivery frontier seeded at [delivered] and its
   decided log gone (NEW_STATE brings it back). A node restart keeps the
   accepted log it replayed from its own disk and never lowers a ballot
   it promised; a DC rejoin lost its disk and keeps no accepted entry. *)
let test_restart_and_rejoin_reset () =
  let bus, m = setup () in
  prepare bus ~coord:99 ~n:1 ~key:5 ~snap:snap0;
  prepare bus ~coord:99 ~n:2 ~key:6 ~snap:snap0;
  decide bus ~n:1 ~ts:1000 ~dec:true;
  let ballot, cballot, prepared = U.Cert.persistent_state (m 1) in
  Alcotest.(check int) "one entry still accepted" 1 (List.length prepared);
  Alcotest.(check bool) "something decided" true
    (U.Cert.decided_count (m 1) > 0);
  let check_parked name c ~delivered =
    Alcotest.(check string) (name ^ " recovering") "recovering"
      (U.Cert.status_name (U.Cert.status c));
    Alcotest.(check int) (name ^ " seeded") delivered
      (U.Cert.last_delivered c);
    Alcotest.(check int) (name ^ " decided log dropped") 0
      (U.Cert.decided_count c)
  in
  U.Cert.restart (m 1) ~ballot:(ballot + 3) ~cballot:(cballot + 3) ~prepared
    ~delivered:700;
  check_parked "restart" (m 1) ~delivered:700;
  Alcotest.(check int) "restart keeps the replayed entry" 1
    (U.Cert.prepared_count (m 1));
  (* replaying older ballots cannot lower the promises *)
  U.Cert.restart (m 1) ~ballot ~cballot ~prepared ~delivered:700;
  let b', cb', _ = U.Cert.persistent_state (m 1) in
  Alcotest.(check (pair int int)) "max of the ballots"
    (ballot + 3, cballot + 3) (b', cb');
  let ballot2 = U.Cert.ballot (m 2) in
  U.Cert.begin_rejoin (m 2) ~delivered:800;
  check_parked "rejoin" (m 2) ~delivered:800;
  Alcotest.(check int) "rejoin drops the accepted log" 0
    (U.Cert.prepared_count (m 2));
  Alcotest.(check int) "rejoin keeps its ballot" ballot2 (U.Cert.ballot (m 2))

(* Ω's eager RETRY targets the entries whose coordinator sits in the
   suspected DC. [ps_origin] is the issuing client's id, which says
   nothing about where the 2PC is driven from: an entry coordinated in
   dc1 by client 5 is re-certified at once, one coordinated in dc2 by
   client 1 is left to its live coordinator. *)
let test_retry_suspected_matches_coordinator_dc () =
  let bus, m = setup () in
  prepare bus ~origin:5 ~coord:1 ~n:1 ~key:5 ~snap:snap0;
  prepare bus ~origin:1 ~coord:2 ~n:2 ~key:6 ~snap:snap0;
  Alcotest.(check int) "both prepared at the leader" 2
    (U.Cert.prepared_count (m 0));
  bus.certify_calls <- [];
  U.Cert.retry_suspected (m 0) ~dc:1;
  Alcotest.(check (list string)) "only dc1's coordination is retried"
    [ Fmt.str "%a" U.Types.tid_pp (tid 1) ]
    (List.map (Fmt.str "%a" U.Types.tid_pp) bus.certify_calls)

(* Decisions survive a node restart. An abort the member learns is
   logged; a commit is named by the replica's delivered-strong record.
   A replayed accept whose fate the disk names comes back decided, not
   prepared, so a re-election it leads cannot hand the group an entry
   whose decision everyone else has pruned. *)
let test_restart_decides_what_the_disk_names () =
  let bus, m = setup () in
  let logged = ref [] in
  U.Cert.set_log (m 1) (fun ev ~k ->
      logged := ev :: !logged;
      k ());
  prepare bus ~coord:99 ~n:1 ~key:5 ~snap:snap0;
  prepare bus ~coord:99 ~n:2 ~key:6 ~snap:snap0;
  let accepted =
    List.filter_map
      (function U.Cert.E_accept p -> Some p | _ -> None)
      !logged
  in
  Alcotest.(check int) "both accepts logged" 2 (List.length accepted);
  decide bus ~n:1 ~ts:1000 ~dec:true;
  decide bus ~n:2 ~ts:1100 ~dec:false;
  let aborts =
    List.filter_map
      (function U.Cert.E_abort r -> Some r.tx_tid | _ -> None)
      !logged
  in
  Alcotest.(check bool) "the abort is logged, the commit is not" true
    (List.length aborts = 1 && U.Types.tid_equal (List.hd aborts) (tid 2));
  let ballot, cballot, _ = U.Cert.persistent_state (m 1) in
  let vec = Vc.create ~dcs:3 in
  Vc.set_strong vec 1000;
  let decision id =
    if U.Types.tid_equal id (tid 1) then Some (true, record 1 ~vec)
    else if U.Types.tid_equal id (tid 2) then Some (false, record 2 ~vec:snap0)
    else None
  in
  U.Cert.restart (m 1) ~decision ~ballot ~cballot ~prepared:accepted
    ~delivered:1000;
  Alcotest.(check int) "nothing comes back prepared" 0
    (U.Cert.prepared_count (m 1));
  Alcotest.(check int) "both come back decided" 2 (U.Cert.decided_count (m 1));
  U.Cert.restart (m 1) ~ballot ~cballot ~prepared:accepted ~delivered:1000;
  Alcotest.(check int) "without a named fate an accept stays prepared" 2
    (U.Cert.prepared_count (m 1))

(* The size and cost model of the certification messages, pinned on one
   strong transaction: 2 partitions, 3 writes, 4 operations and a 3-DC
   snapshot. These numbers fix the WAN bytes per transaction, the CPU
   model and, through [prepared_bytes], the WAL size of an [E_accept].
   A decided entry ships no snapshot: it is never certified again. *)
let test_size_and_cost_model () =
  let w key = { U.Types.wkey = key; wop = Crdt.Reg_write 1; wcls = 0 } in
  let o key write = { U.Types.key; cls = 0; write } in
  let tx =
    {
      U.Msg.st_tid = { U.Types.cl = 7; sq = 1 };
      st_origin = 7;
      st_wbuff = [ (0, [ w 2; w 4 ]); (1, [ w 3 ]) ];
      st_ops = [ (0, [ o 2 true; o 4 true ]); (1, [ o 3 true; o 5 false ]) ];
      st_snap = Vc.create ~dcs:3;
    }
  in
  let p =
    { U.Msg.ps_tx = tx; ps_coord = 4; ps_vote = true; ps_ts = 1000; ps_lc = 3 }
  in
  let d =
    {
      U.Msg.ds_tx = tx;
      ds_dec = true;
      ds_record = U.Msg.decided_record tx ~dec:true ~vec:(Vc.create ~dcs:3) ~lc:3;
    }
  in
  Alcotest.(check (pair int int)) "prepared and decided entry bytes"
    (296, 288)
    (U.Msg.prepared_bytes p, U.Msg.decided_bytes d);
  let c = U.Config.default_costs in
  List.iter
    (fun (msg, expected) ->
      Alcotest.(check (triple int int int))
        (U.Msg.kind msg ^ ": size, cost, centralized cost")
        expected
        (U.Msg.size_bytes msg, U.Msg.cost c msg, U.Msg.cost_centralized c msg))
    [
      ( U.Msg.Prepare_strong
          { rid = 1; caller = U.Msg.Normal; coord = 4; tx; lc = 2 },
        (304, 150, 100) );
      (U.Msg.Accept { b = 0; rid = 1; p }, (320, 30, 30));
      (U.Msg.C_resubmit_strong { client = 9; req = 1; tx; lc = 2 }, (304, 20, 20));
      ( U.Msg.New_state { b = 0; prepared = [ p ]; decided = [ d ]; from = 0 },
        (624, 10, 10) );
    ]

(* RETRY re-certifies only the entries silent for [older_than_us], and a
   re-certification restarts the entry's clock. *)
let test_retry_stale_clock () =
  let bus, m = setup () in
  prepare bus ~coord:99 ~n:1 ~key:5 ~snap:snap0;
  bus.clock <- bus.clock + 1_000;
  prepare bus ~coord:99 ~n:2 ~key:6 ~snap:snap0;
  let retried ~at =
    bus.clock <- at;
    bus.certify_calls <- [];
    U.Cert.retry_stale (m 0) ~older_than_us:1_000;
    List.map (Fmt.str "%a" U.Types.tid_pp) bus.certify_calls
  in
  Alcotest.(check (list string)) "only the silent entry" [ tid_s 1 ]
    (retried ~at:1_600);
  Alcotest.(check (list string)) "its clock restarted" [] (retried ~at:1_600);
  Alcotest.(check (list string)) "each on its own clock" [ tid_s 2 ]
    (retried ~at:2_100)

(* ------------------------------------------------------------------ *)
(* Decided_log against a brute-force reference: random decided
   histories under each conflict relation, a prune at a random floor,
   then one certification check; and random interleavings of decisions
   and deliveries.                                                       *)

module D = U.Decided_log

let gen_vec =
  QCheck.Gen.(
    map (fun (a, b, c, s) -> Vc.of_array [| a; b; c; s |])
      (quad (int_bound 20) (int_bound 20) (int_bound 20) (int_range 1 40)))

let gen_ops =
  QCheck.Gen.(
    list_size (int_bound 3)
      (map
         (fun (key, cls, write) -> { U.Types.key; cls; write })
         (triple (int_bound 5) (int_range 1 2) bool)))

let decision ~n ~dec ~ops ~vec ~lc =
  {
    U.Msg.ds_tx =
      { (tx_of ~n [] ~snap:snap0) with st_wbuff = []; st_ops = [ (0, ops) ] };
    ds_dec = dec;
    ds_record = record n ~vec ~lc;
  }

let slice ops = List.concat_map snd ops
let new_log conflict = D.create ~conflict ~ops_slice:slice ~dcs

let gen_check_case =
  QCheck.Gen.(
    let gen_decision =
      map
        (fun ((n, dec), (ops, vec, lc)) ->
          decision ~n ~dec:(dec < 3) ~ops ~vec ~lc)
        (pair
           (pair (int_bound 30) (int_bound 3))
           (triple gen_ops gen_vec (int_bound 10)))
    in
    quad
      (oneofl
         [
           U.Config.Serializable;
           U.Config.Classes [ (1, 1); (1, 2) ];
         ])
      (list_size (int_bound 25) gen_decision)
      (opt (pair (int_bound 40) (int_bound 20)))
      (triple gen_ops gen_vec (int_bound 10)))

let print_check_case (spec, ds, prune, (ops, snap, lc)) =
  let op (o : U.Types.opdesc) =
    Fmt.str "%d/%d%s" o.key o.cls (if o.write then "w" else "r")
  in
  let ops_s ops = String.concat "," (List.map op ops) in
  Fmt.str "%s; %s; prune %s; check [%s] snap %s lc %d"
    (match spec with
    | U.Config.Serializable -> "serializable"
    | Classes _ -> "classes")
    (String.concat "; "
       (List.map
          (fun (d : U.Msg.decided_strong) ->
            Fmt.str "%s %s [%s] %s lc %d" (tid_s d.ds_tx.st_tid.sq)
              (if d.ds_dec then "commit" else "abort")
              (ops_s (slice d.ds_tx.st_ops)) (Vc.to_string d.ds_record.tx_vec) d.ds_record.tx_lc)
          ds))
    (match prune with
    | None -> "none"
    | Some (k, c) -> Fmt.str "<= %d covering dc0 <= %d" k c)
    (ops_s ops) (Vc.to_string snap) lc

(* The check's (vote, lc) equals a fold over every unpruned commit that
   conflicts, plus the prune-floor rule: the snapshot's strong entry is
   at least the floor and it covers every pruned decision. *)
let check_matches_reference (spec, ds, prune, (ops, snap, lc)) =
  let log = new_log spec in
  let fresh =
    List.filter
      (fun (d : U.Msg.decided_strong) -> D.add log d)
      ds
  in
  let is_pruned (d : U.Msg.decided_strong) =
    match prune with
    | Some (keep_after, cov) ->
        keep_after > 0
        && Vc.strong d.ds_record.tx_vec <= keep_after
        && Vc.get d.ds_record.tx_vec 0 <= cov
    | None -> false
  in
  Option.iter
    (fun (keep_after, cov) ->
      D.prune log
        ~covered:(fun v -> Vc.get v 0 <= cov)
        ~floor:(keep_after + D.prune_margin_us))
    prune;
  let pruned_below =
    match prune with Some (k, _) when k > 0 -> k | _ -> 0
  in
  let pruned_vecs = Vc.create ~dcs in
  List.iter
    (fun (d : U.Msg.decided_strong) ->
      if is_pruned d then Vc.merge_into pruned_vecs d.ds_record.tx_vec)
    fresh;
  let commits =
    List.filter
      (fun (d : U.Msg.decided_strong) ->
        d.ds_dec && slice d.ds_tx.st_ops <> [])
      fresh
  in
  let conflicts (d : U.Msg.decided_strong) =
    List.exists
      (fun (o : U.Types.opdesc) ->
        List.exists
          (fun (o' : U.Types.opdesc) ->
            o.key = o'.key && U.Config.ops_conflict spec o o')
          (slice d.ds_tx.st_ops))
      ops
  in
  let live =
    List.filter (fun d -> conflicts d && not (is_pruned d)) commits
  in
  let expected =
    if ops = [] then (true, lc)
    else
      ( List.for_all
          (fun (d : U.Msg.decided_strong) -> Vc.leq d.ds_record.tx_vec snap)
          live
        && Vc.strong snap >= pruned_below
        && Vc.leq pruned_vecs snap,
        List.fold_left
          (fun acc (d : U.Msg.decided_strong) -> max acc (d.ds_record.tx_lc + 1))
          lc live )
  in
  D.check log ~ops ~snap ~lc = expected
  && D.count log
     = List.length (List.filter (fun d -> not (is_pruned d)) fresh)

type delivery_step = Add of int * bool * int | Deliver of int | Gate of int

(* Deliveries come out in (strong ts, later-queued-first) order: a
   model queue of the commits decided above the frontier. *)
let deliveries_match_model steps =
  let log = new_log U.Config.Serializable in
  let queue = ref [] and seq = ref 0 and frontier = ref 0 and seen = ref [] in
  let deliver_model ts =
    let due, rest = List.partition (fun (t, _, _) -> t <= ts) !queue in
    queue := rest;
    frontier := ts;
    List.map (fun (_, _, n) -> n) (List.sort compare due)
  in
  List.for_all
    (function
      | Add (n, dec, ts) ->
          let fresh = D.add log (decision ~n ~dec ~ops:[] ~vec:(strong_vec ts) ~lc:0) in
          let expected = not (List.mem n !seen) in
          if expected then begin
            seen := n :: !seen;
            if dec && ts > !frontier then begin
              incr seq;
              queue := (ts, - !seq, n) :: !queue
            end
          end;
          fresh = expected
      | Deliver ts ->
          let due = deliver_model ts in
          List.map (fun tx -> tx.U.Types.tx_tid.sq) (D.deliver_upto log ts) = due
          && D.last_delivered log = ts
      | Gate gate -> (
          (* the frontier is the highest queued timestamp below the gate *)
          let top =
            List.fold_left
              (fun acc (t, _, _) ->
                if t < gate then Some (max t (Option.value acc ~default:t))
                else acc)
              None !queue
          in
          match (D.deliver_below log ~gate, top) with
          | None, None -> D.last_delivered log = !frontier
          | Some (ts, batch), Some f ->
              let due = deliver_model f in
              ts = f
              && List.map (fun tx -> tx.U.Types.tx_tid.sq) batch = due
              && D.last_delivered log = f
          | _ -> false))
    steps

let gen_delivery_steps =
  QCheck.Gen.(
    list_size (int_bound 40)
      (frequency
         [
           ( 4,
             map
               (fun (n, dec, ts) -> Add (n, dec, ts))
               (triple (int_bound 20) bool (int_range 1 30)) );
           (1, map (fun ts -> Deliver ts) (int_range 1 30));
           (1, map (fun g -> Gate g) (int_range 1 32));
         ]))

let print_delivery_steps steps =
  String.concat "; "
    (List.map
       (function
         | Add (n, dec, ts) -> Fmt.str "add %d %b @%d" n dec ts
         | Deliver ts -> Fmt.str "deliver %d" ts
         | Gate g -> Fmt.str "gate %d" g)
       steps)

let decided_log_properties =
  List.map QCheck_alcotest.to_alcotest
    [
      QCheck.Test.make ~count:2000
        ~name:"decided log: check equals a brute-force fold"
        (QCheck.make ~print:print_check_case gen_check_case)
        check_matches_reference;
      QCheck.Test.make ~count:1000
        ~name:"decided log: deliveries in (ts, later-queued-first) order"
        (QCheck.make ~print:print_delivery_steps gen_delivery_steps)
        deliveries_match_model;
    ]

(* ------------------------------------------------------------------ *)
(* The prepared side of the leader's check against a brute-force
   reference. Random ACCEPTs, re-ACCEPTs with a flipped vote or a new
   coordinator, decisions and re-elections through a restart run under
   each conflict relation; at every check the leader's vote equals a
   [Config.txs_conflict] fold over the entries it holds prepared. The
   check's snapshot covers every decision, so the decided side always
   votes commit.                                                        *)

type model_step =
  | M_accept of U.Types.opdesc list * bool  (* a fresh transaction, vote *)
  | M_reaccept of int * bool  (* pick; flip the vote, else new coordinator *)
  | M_decide of int * bool  (* pick, decision *)
  | M_check of U.Types.opdesc list * bool option
      (* a fresh transaction; [Some vote]: its own ACCEPT lands while the
         leader waits to certify it *)
  | M_reelect of reelect

(* A node restart, then an election this member wins. [disk] names the
   fate of replayed accepts, [learned] decisions reach it while it
   recovers, and one peer acks with [peer_cb] added to this member's
   cballot and its own prepared and decided entries. *)
and reelect = {
  disk : (int * bool) list;
  learned : (int * bool) list;
  peer_cb : int;
  peer_prepared : (int * bool) list;
  peer_decided : (int * bool) list;
}

let snap_all = Vc.of_array [| 1_000_000; 1_000_000; 1_000_000; 1_000_000 |]

let model_tx n ops ~snap =
  { (tx_of ~n [] ~snap) with st_wbuff = []; st_ops = [ (0, ops) ] }

let prepared_of (tx : U.Msg.strong_tx) ~vote ~coord =
  { U.Msg.ps_tx = tx; ps_coord = coord; ps_vote = vote; ps_ts = 50; ps_lc = 0 }

let decided_of_tx (tx : U.Msg.strong_tx) ~dec =
  {
    U.Msg.ds_tx = tx;
    ds_dec = dec;
    ds_record = U.Msg.decided_record tx ~dec ~vec:(strong_vec 60) ~lc:1;
  }

let reference_vote spec m (tx : U.Msg.strong_tx) =
  let _, _, prepared = U.Cert.persistent_state m in
  not
    (List.exists
       (fun (p : U.Msg.prepared_strong) ->
         p.ps_vote
         && (not (U.Types.tid_equal p.ps_tx.st_tid tx.st_tid))
         && U.Config.txs_conflict spec (slice tx.st_ops)
              (slice p.ps_tx.st_ops))
       prepared)

let find_prepared m n =
  let _, _, prepared = U.Cert.persistent_state m in
  List.find_opt
    (fun (p : U.Msg.prepared_strong) ->
      U.Types.tid_equal p.ps_tx.st_tid (tid n))
    prepared

let run_model (spec, steps) =
  let bus = make_bus () in
  let m = make_member ~conflict:spec bus 0 in
  bus.members.(0) <- Some m;
  let handle msg =
    U.Cert.handle m msg;
    pump bus
  in
  let known = ref [||] in
  let fresh ops ~snap =
    let tx = model_tx (Array.length !known + 1) ops ~snap in
    known := Array.append !known [| tx |];
    tx
  in
  (* a step's pick names one of the transactions seen so far *)
  let pick i =
    let k = Array.length !known in
    if k = 0 then None else Some !known.(i mod k)
  in
  let picks l f =
    List.filter_map (fun (i, v) -> Option.map (fun tx -> f tx v) (pick i)) l
  in
  let reelect r =
    let ballot, cballot, prepared = U.Cert.persistent_state m in
    let disk = picks r.disk (fun tx dec -> (tx, dec)) in
    let decision tid =
      Option.map
        (fun (tx, dec) ->
          (dec, U.Msg.decided_record tx ~dec ~vec:(strong_vec 60) ~lc:1))
        (List.find_opt
           (fun ((tx : U.Msg.strong_tx), _) -> U.Types.tid_equal tx.st_tid tid)
           disk)
    in
    U.Cert.restart m ~decision ~ballot ~cballot ~prepared ~delivered:0;
    List.iter handle
      (picks r.learned (fun tx dec ->
           U.Msg.Learn_decision
             {
               b = ballot;
               dec;
               record = U.Msg.decided_record tx ~dec ~vec:(strong_vec 60) ~lc:1;
               upto = 0;
             }));
    U.Cert.set_trusted m 1;
    U.Cert.set_trusted m 0;
    pump bus;
    let b = U.Cert.ballot m in
    handle
      (U.Msg.New_leader_ack
         {
           b;
           cballot = cballot + r.peer_cb;
           prepared =
             picks r.peer_prepared (fun tx vote ->
                 prepared_of tx ~vote ~coord:98);
           decided =
             picks r.peer_decided (fun tx dec -> decided_of_tx tx ~dec);
           from = 1;
         });
    handle (U.Msg.New_state_ack { b; from = 1 });
    let ks = bus.certify_ks in
    bus.certify_ks <- [];
    List.iter (fun k -> k U.Cert.Unknown) ks;
    pump bus
  in
  let accept tx ~vote =
    handle
      (U.Msg.Accept
         { b = U.Cert.ballot m; rid = 0; p = prepared_of tx ~vote ~coord:98 })
  in
  let check ops own =
    let tx = fresh ops ~snap:snap_all in
    let prepare =
      U.Msg.Prepare_strong
        { rid = 0; caller = U.Msg.Normal; coord = 98; tx; lc = 0 }
    in
    Option.iter
      (fun vote ->
        bus.park <- true;
        handle prepare;
        bus.park <- false;
        accept tx ~vote)
      own;
    let expected = reference_vote spec m tx in
    if own = None then handle prepare
    else begin
      let parked = bus.parked in
      bus.parked <- [];
      List.iter (fun run -> run ()) parked;
      pump bus
    end;
    match find_prepared m tx.st_tid.sq with
    | Some p -> p.ps_vote = expected
    | None -> false
  in
  List.for_all
    (fun step ->
      let b = U.Cert.ballot m in
      match step with
      | M_accept (ops, vote) ->
          accept (fresh ops ~snap:snap0) ~vote;
          true
      | M_reaccept (i, flip) ->
          Option.iter
            (fun (tx : U.Msg.strong_tx) ->
              let p =
                match find_prepared m tx.st_tid.sq with
                | Some p when flip -> { p with ps_vote = not p.ps_vote }
                | Some p -> { p with ps_coord = p.ps_coord + 1 }
                | None -> prepared_of tx ~vote:true ~coord:98
              in
              handle (U.Msg.Accept { b; rid = 0; p }))
            (pick i);
          true
      | M_decide (i, dec) ->
          Option.iter
            (fun (tx : U.Msg.strong_tx) ->
              handle
                (U.Msg.Decision
                   {
                     b;
                     dec;
                     record =
                       U.Msg.decided_record tx ~dec ~vec:(strong_vec 60) ~lc:1;
                   }))
            (pick i);
          true
      | M_check (ops, own) -> check ops own
      | M_reelect r ->
          reelect r;
          U.Cert.is_leader m)
    steps

let gen_model_case =
  QCheck.Gen.(
    let pick_v = pair (int_bound 40) bool in
    let few g = list_size (int_bound 3) g in
    let gen_reelect =
      map
        (fun ((disk, learned), (peer_cb, peer_prepared, peer_decided)) ->
          M_reelect { disk; learned; peer_cb; peer_prepared; peer_decided })
        (pair (pair (few pick_v) (few pick_v))
           (triple (int_range (-1) 1) (few pick_v) (few pick_v)))
    in
    pair
      (oneofl
         [
           U.Config.Serializable;
           U.Config.Classes [ (1, 1); (1, 2) ];
         ])
      (list_size (int_bound 30)
         (frequency
            [
              (5, map2 (fun ops v -> M_accept (ops, v)) gen_ops bool);
              (2, map2 (fun i f -> M_reaccept (i, f)) (int_bound 40) bool);
              (4, map2 (fun i dec -> M_decide (i, dec)) (int_bound 40) bool);
              (4, map2 (fun ops own -> M_check (ops, own)) gen_ops (opt bool));
              (1, gen_reelect);
            ])))

let print_model_case (spec, steps) =
  let op (o : U.Types.opdesc) =
    Fmt.str "%d/%d%s" o.key o.cls (if o.write then "w" else "r")
  in
  let ops_s ops = "[" ^ String.concat "," (List.map op ops) ^ "]" in
  let pv l =
    String.concat "," (List.map (fun (i, v) -> Fmt.str "%d:%b" i v) l)
  in
  Fmt.str "%s; %s"
    (match spec with
    | U.Config.Serializable -> "serializable"
    | Classes _ -> "classes")
    (String.concat "; "
       (List.map
          (function
            | M_accept (ops, v) -> Fmt.str "accept %s %b" (ops_s ops) v
            | M_reaccept (i, flip) ->
                Fmt.str "reaccept #%d %s" i (if flip then "flip" else "coord")
            | M_decide (i, dec) -> Fmt.str "decide #%d %b" i dec
            | M_check (ops, own) ->
                Fmt.str "check %s%s" (ops_s ops)
                  (match own with
                  | None -> ""
                  | Some v -> Fmt.str " own-accept %b" v)
            | M_reelect r ->
                Fmt.str "reelect disk %s learned %s peer cb%+d prep %s dec %s"
                  (pv r.disk) (pv r.learned) r.peer_cb (pv r.peer_prepared)
                  (pv r.peer_decided))
          steps))

(* The leader's check costs time in the transaction's footprint, not in
   the prepared set: certifying one transaction allocates the same
   words beside 1 commit-voting prepared entry as beside 200 on
   unrelated keys. *)
let test_check_cost_independent_of_prepared () =
  let words ~prepared =
    let bus, m = setup () in
    for n = 1 to prepared do
      prepare bus ~coord:99 ~n ~key:(100 + n) ~snap:snap0
    done;
    let tx = tx_of ~n:0 [ 5 ] ~snap:snap0 in
    let msg =
      U.Msg.Prepare_strong
        { rid = 0; caller = U.Msg.Normal; coord = 99; tx; lc = 0 }
    in
    let w0 = Gc.minor_words () in
    U.Cert.handle (m 0) msg;
    let w = Gc.minor_words () -. w0 in
    Alcotest.(check (pair bool int)) "commits" (true, 0) (vote_lc (m 0) 0);
    Alcotest.(check int) "beside the others" (prepared + 1)
      (U.Cert.prepared_count (m 0));
    w
  in
  Alcotest.(check (float 0.)) "same words" (words ~prepared:1)
    (words ~prepared:200)

let cert_model_properties =
  List.map QCheck_alcotest.to_alcotest
    [
      QCheck.Test.make ~count:1000
        ~name:"cert: the leader's vote equals a fold over prepared entries"
        (QCheck.make ~print:print_model_case gen_model_case)
        run_model;
    ]

let suite =
  [
    Alcotest.test_case "leader certifies, members accept" `Quick
      test_leader_certifies_and_members_ack;
    Alcotest.test_case "conflicting prepares coexist until decisions"
      `Quick test_conflicting_second_prepare_votes_abort;
    Alcotest.test_case "delivery gated and ordered by strong ts" `Quick
      test_delivery_in_timestamp_order_with_gating;
    Alcotest.test_case "abort decisions lift the delivery gate" `Quick
      test_abort_decision_unblocks_delivery;
    Alcotest.test_case "duplicate prepare answered from decided state"
      `Quick test_already_decided_reply;
    Alcotest.test_case "leader recovery preserves decisions" `Quick
      test_leader_recovery_preserves_decisions;
    Alcotest.test_case "decided-set pruning" `Quick test_prune_decided;
    Alcotest.test_case "rejoiner keeps a decision learned while recovering"
      `Quick test_rejoiner_keeps_decision_learned_while_recovering;
    Alcotest.test_case "restart and rejoin share one reset" `Quick
      test_restart_and_rejoin_reset;
    Alcotest.test_case "eager retry matches the coordinator's DC" `Quick
      test_retry_suspected_matches_coordinator_dc;
    Alcotest.test_case "restart decides what the disk names" `Quick
      test_restart_decides_what_the_disk_names;
    Alcotest.test_case "a decision is one message per other member" `Quick
      test_decision_is_one_message_per_other_member;
    Alcotest.test_case "unblocked entries deliver as one batch" `Quick
      test_unblocked_entries_deliver_as_one_batch;
    Alcotest.test_case "frontier followed without the prepared entry"
      `Quick test_frontier_followed_without_the_prepared_entry;
    Alcotest.test_case "old-ballot decision relayed before the frontier"
      `Quick test_old_ballot_decision_relayed_before_frontier;
    Alcotest.test_case "two-key conflict folds like one" `Quick
      test_two_key_conflict;
    Alcotest.test_case "unknown entry re-certified when restoring ends"
      `Quick test_unknown_entry_recertified_when_restoring_ends;
    Alcotest.test_case "size and cost model of certification messages"
      `Quick test_size_and_cost_model;
    Alcotest.test_case "retry clock: only silent entries, restarted"
      `Quick test_retry_stale_clock;
    Alcotest.test_case "check cost independent of the prepared set" `Quick
      test_check_cost_independent_of_prepared;
    Alcotest.test_case "a restoring member chases a higher ballot" `Quick
      test_restoring_member_chases_higher_ballot;
    ]
  @ decided_log_properties @ cert_model_properties
