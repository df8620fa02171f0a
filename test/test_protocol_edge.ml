(* Protocol edge cases beyond the basic suite: multi-partition atomicity
   under strong transactions, repeated migrations, mixed sessions,
   hybrid clocks, read-only strong transactions, LWW arbitration. *)

module U = Unistore
module Client = U.Client
module Fiber = Sim.Fiber

let test_strong_multipartition_atomicity () =
  (* a strong transaction spanning several partitions becomes visible
     atomically everywhere *)
  let sys = Util.make_system ~partitions:4 () in
  (* keys 0..3 land on partitions 0..3 *)
  for k = 0 to 3 do
    U.System.preload sys k (Crdt.Reg_write 0)
  done;
  ignore
    (U.System.spawn_client sys ~dc:0 (fun c ->
         for i = 1 to 10 do
           Client.start c ~strong:true;
           for k = 0 to 3 do
             Client.update c k (Crdt.Reg_write i)
           done;
           ignore (Client.commit c);
           Fiber.sleep 50_000;
           ignore i
         done));
  let violations = ref 0 in
  ignore
    (U.System.spawn_client sys ~dc:2 (fun c ->
         for _ = 1 to 150 do
           Client.start c;
           let v0 = Client.read_int c 0 in
           let v1 = Client.read_int c 1 in
           let v2 = Client.read_int c 2 in
           let v3 = Client.read_int c 3 in
           ignore (Client.commit c);
           if not (v0 = v1 && v1 = v2 && v2 = v3) then incr violations;
           Fiber.sleep 4_000
         done));
  Util.run sys ~until:5_000_000;
  Alcotest.(check int) "no torn strong transaction" 0 !violations;
  Util.assert_por sys

let test_read_only_strong_in_unistore () =
  (* a read-only strong transaction certifies its reads: it aborts if a
     conflicting write committed outside its snapshot *)
  let sys = Util.make_system () in
  U.System.preload sys 7 (Crdt.Reg_write 1);
  let ok = ref false in
  ignore
    (U.System.spawn_client sys ~dc:0 (fun c ->
         Client.start c ~strong:true;
         let v = Client.read_int c 7 in
         (match Client.commit c with
         | `Committed _ -> ok := v = 1
         | `Aborted -> ())));
  Util.run sys ~until:2_000_000;
  Alcotest.(check bool) "read-only strong commits quietly" true !ok;
  Util.assert_por sys

let test_repeated_migration () =
  (* a client hops Virginia -> California -> Frankfurt -> Virginia and
     always sees its whole session *)
  let sys = Util.make_system () in
  let hops = [ 1; 2; 0 ] in
  let final = ref (-1) in
  ignore
    (U.System.spawn_client sys ~dc:0 (fun c ->
         List.iteri
           (fun i dc ->
             Client.start c;
             Client.update c 42 (Crdt.Reg_write (i + 1));
             ignore (Client.commit c);
             Client.migrate c ~dc;
             (* after attaching, the session must read its last write *)
             Client.start c;
             let v = Client.read_int c 42 in
             ignore (Client.commit c);
             if v <> i + 1 then failwith "session lost during migration")
           hops;
         Client.start c;
         final := Client.read_int c 42;
         ignore (Client.commit c)));
  Util.run sys ~until:5_000_000;
  Alcotest.(check int) "session intact after three migrations" 3 !final;
  Util.assert_por sys

let test_hlc_mode_consistency () =
  (* hybrid clocks with extreme skew: the protocol stays consistent *)
  let topo = Net.Topology.three_dcs () in
  let cfg =
    U.Config.default ~topo ~partitions:4 ~clock_skew_us:50_000 ~use_hlc:true
      ~record_history:true ()
  in
  let sys = U.System.create cfg in
  for k = 0 to 9 do
    U.System.preload sys k (Crdt.Reg_write 0)
  done;
  for i = 0 to 5 do
    ignore
      (U.System.spawn_client sys ~dc:(i mod 3) (fun c ->
           let rng = Sim.Rng.create (500 + i) in
           for _ = 1 to 20 do
             let rec attempt n =
               Client.start c ~strong:(Sim.Rng.int rng 5 = 0);
               let key = Sim.Rng.int rng 10 in
               ignore (Client.read c key);
               Client.update c key (Crdt.Reg_write (Sim.Rng.int rng 100));
               match Client.commit c with
               | `Committed _ -> ()
               | `Aborted -> if n < 10 then attempt (n + 1)
             in
             attempt 0
           done))
  done;
  U.System.run sys ~until:25_000_000;
  let h = U.System.history sys in
  let result =
    U.Checker.check ~preloads:(U.History.preloads h) cfg (U.History.txns h)
  in
  if not (U.Checker.ok result) then
    Alcotest.failf "%a" U.Checker.pp_result result;
  match U.System.check_convergence sys with
  | [] -> ()
  | errs -> Alcotest.failf "divergence: %s" (String.concat "; " errs)

let test_hlc_commit_faster_than_physical_wait () =
  (* with a large positive coordinator skew, physical clocks force the
     commit record to wait; hybrid clocks do not *)
  let latency mode_hlc =
    let cfg =
      U.Config.default ~partitions:2 ~clock_skew_us:30_000 ~use_hlc:mode_hlc
        ~seed:99 ()
    in
    let sys = U.System.create cfg in
    let done_at = ref 0 in
    ignore
      (U.System.spawn_client sys ~dc:0 (fun c ->
           for i = 1 to 5 do
             Client.start c;
             Client.update c i (Crdt.Reg_write i);
             ignore (Client.commit c);
             (* read back from another partition of the same txn chain *)
             Client.start c;
             ignore (Client.read_int c i);
             ignore (Client.commit c)
           done;
           done_at := U.System.now sys));
    U.System.run sys ~until:10_000_000;
    !done_at
  in
  let physical = latency false and hybrid = latency true in
  Alcotest.(check bool)
    (Fmt.str "hybrid (%dus) at least as fast as physical (%dus)" hybrid
       physical)
    true (hybrid <= physical)

let test_lww_cross_dc_arbitration () =
  (* two causally-ordered writes from different DCs: the later session
     always wins at every replica *)
  let sys = Util.make_system () in
  U.System.preload sys 9 (Crdt.Reg_write 0);
  ignore
    (U.System.spawn_client sys ~dc:0 (fun c ->
         Client.start c;
         Client.update c 9 (Crdt.Reg_write 1);
         ignore (Client.commit c)));
  ignore
    (U.System.spawn_client sys ~dc:1 (fun c ->
         (* wait until the first write is visible, then overwrite *)
         let rec poll () =
           Client.start c;
           let v = Client.read_int c 9 in
           ignore (Client.commit c);
           if v = 1 then begin
             Client.start c;
             Client.update c 9 (Crdt.Reg_write 2);
             ignore (Client.commit c)
           end
           else begin
             Fiber.sleep 10_000;
             poll ()
           end
         in
         poll ()));
  Util.run sys ~until:4_000_000;
  let finals = Array.make 3 (-1) in
  for dc = 0 to 2 do
    ignore
      (U.System.spawn_client sys ~dc (fun c ->
           Client.start c;
           finals.(dc) <- Client.read_int c 9;
           ignore (Client.commit c)))
  done;
  Util.run sys ~until:6_000_000;
  Array.iteri
    (fun dc v ->
      Alcotest.(check int) (Fmt.str "causally-later write wins at dc%d" dc) 2 v)
    finals;
  Util.assert_por sys;
  Util.assert_convergence sys

let test_empty_transaction () =
  let sys = Util.make_system () in
  let committed = ref false in
  ignore
    (U.System.spawn_client sys ~dc:0 (fun c ->
         Client.start c;
         (match Client.commit c with
         | `Committed _ -> committed := true
         | `Aborted -> ());
         (* and an empty strong transaction *)
         Client.start c ~strong:true;
         match Client.commit c with
         | `Committed _ -> ()
         | `Aborted -> committed := false));
  Util.run sys ~until:2_000_000;
  Alcotest.(check bool) "empty transactions commit" true !committed

let test_interleaved_sessions_share_coordinators () =
  (* many clients through the same replicas: sessions stay isolated *)
  let sys = Util.make_system ~partitions:2 () in
  let ok = ref 0 in
  for i = 0 to 19 do
    ignore
      (U.System.spawn_client sys ~dc:0 (fun c ->
           let key = 1000 + Client.id c in
           Client.start c;
           Client.update c key (Crdt.Reg_write (Client.id c));
           ignore (Client.commit c);
           Client.start c;
           if Client.read_int c key = Client.id c then incr ok;
           ignore (Client.commit c)));
    ignore i
  done;
  Util.run sys ~until:3_000_000;
  Alcotest.(check int) "every session reads its own write" 20 !ok;
  Util.assert_por sys

(* {1 Replication-stream continuity (gap detection and repair)} *)

let counter_total reg name =
  List.fold_left
    (fun acc (_, c) -> acc + Sim.Metrics.counter_value c)
    0
    (Sim.Metrics.counters_matching reg name)

(* A committed transaction of [origin]'s stream as replication carries
   it: one register write with the origin's stream timestamp. *)
let stream_tx_as ~tid ~origin ~ts ~key ~v =
  let vec = Vclock.Vc.create ~dcs:3 in
  Vclock.Vc.set vec origin ts;
  U.Types.tx_rec ~tid
    ~writes:
      [ { U.Types.wkey = key; wop = Crdt.Reg_write v; wcls = U.Types.cls_default } ]
    ~vec ~lc:ts ~origin:(7_000 + origin)

let stream_tx ~origin ~ts =
  stream_tx_as ~tid:{ U.Types.cl = 7_000 + origin; sq = ts } ~origin ~ts

(* The sibling claim of an origin that vouches for nothing: receivers
   only merge it. *)
let empty_claim = { U.Msg.vec = Vclock.Vc.create ~dcs:3; stable = None }

(* Heartbeats jump frontiers exactly like batches do: a heartbeat whose
   continuity boundary ([from_ts]) exceeds the receiver's floor claims a
   window the receiver never saw, and must be refused — or a heartbeat
   racing ahead of a lost batch would paper over the gap. *)
let test_heartbeat_continuity () =
  let sys = Util.make_system () in
  let r = U.System.replica sys ~dc:0 ~part:0 in
  let reg = U.System.metrics sys in
  let origin = 1 in
  let frontier () = Vclock.Vc.get (U.Replica.known_vec r) origin in
  let heartbeat ~ts ~from_ts =
    U.Replica.handle r
      (U.Msg.Heartbeat { origin; ts; from_ts; claim = empty_claim })
  in
  heartbeat ~ts:500 ~from_ts:0;
  Alcotest.(check int) "contiguous heartbeat adopts the frontier" 500
    (frontier ());
  heartbeat ~ts:2_000 ~from_ts:1_000;
  Alcotest.(check int) "gapped heartbeat does not jump the frontier" 500
    (frontier ());
  Alcotest.(check int) "the gap is detected and counted" 1
    (counter_total reg "replicate_gap_detected_total");
  Alcotest.(check bool) "a repair pull is in flight" true
    (U.Replica.repair_active r ~origin);
  (* further gapped claims while the repair runs raise its target but do
     not stack rounds *)
  heartbeat ~ts:2_500 ~from_ts:2_000;
  Alcotest.(check int) "the repeat offender is counted" 2
    (counter_total reg "replicate_gap_detected_total");
  Alcotest.(check int) "but starts no second round" 1
    (counter_total reg "repair_pull_rounds_total");
  Alcotest.(check int) "the frontier stays pinned" 500 (frontier ())

(* The full continuity discipline in order: a contiguous batch applies;
   a batch above a lost window is refused wholesale (gap detect); the
   frontier jumps only when the repair backfill covers the window; the
   stream then chains cleanly off the repaired frontier. *)
let test_gap_repair_frontier_order () =
  let sys = Util.make_system () in
  let r = U.System.replica sys ~dc:0 ~part:0 in
  let reg = U.System.metrics sys in
  let origin = 1 in
  let key = 0 (* partition 0 under the 4-partition test deployment *) in
  let frontier () = Vclock.Vc.get (U.Replica.known_vec r) origin in
  let replicate ~ts ~v ~from_ts =
    U.Replica.handle r
      (U.Msg.Replicate
         {
           origin;
           txs = [ stream_tx ~origin ~ts ~key ~v ];
           from_ts;
           claim = empty_claim;
         })
  in
  replicate ~ts:100 ~v:1 ~from_ts:0;
  Alcotest.(check int) "contiguous batch applies" 100 (frontier ());
  (* the batch covering (100, 200] was lost in transit: the next one
     must not apply, or the window's writes would be silently skipped *)
  replicate ~ts:300 ~v:3 ~from_ts:200;
  Alcotest.(check int) "gapped batch refused wholesale" 100 (frontier ());
  Alcotest.(check int) "gap detected" 1
    (counter_total reg "replicate_gap_detected_total");
  Alcotest.(check bool) "repair pull in flight" true
    (U.Replica.repair_active r ~origin);
  (* the stream keeps moving while the repair runs: still refused *)
  replicate ~ts:400 ~v:4 ~from_ts:300;
  Alcotest.(check int) "refused until repaired" 100 (frontier ());
  Alcotest.(check int) "one round serves both detections" 1
    (counter_total reg "repair_pull_rounds_total");
  (* the repair reply backfills (100, 400] and vouches for 400 ([sq] is
     deterministic: the first round this deployment starts) *)
  U.Replica.handle r
    (U.Msg.Repair_log
       {
         origin;
         txs =
           [
             stream_tx ~origin ~ts:150 ~key ~v:2;
             stream_tx ~origin ~ts:300 ~key ~v:3;
             stream_tx ~origin ~ts:400 ~key ~v:4;
           ];
         from_ts = 100;
         covered = 400;
         last = true;
         sq = 1;
       });
  Alcotest.(check int) "the frontier jumps only with the repair" 400
    (frontier ());
  Alcotest.(check bool) "repair completed" false
    (U.Replica.repair_active r ~origin);
  (* a duplicate of the reply dedups away *)
  U.Replica.handle r
    (U.Msg.Repair_log
       {
         origin;
         txs = [ stream_tx ~origin ~ts:150 ~key ~v:2 ];
         from_ts = 100;
         covered = 400;
         last = true;
         sq = 1;
       });
  Alcotest.(check int) "duplicate reply ignored" 400 (frontier ());
  (* the stream resumes from the repaired boundary *)
  replicate ~ts:500 ~v:5 ~from_ts:400;
  Alcotest.(check int) "stream chains off the repaired frontier" 500
    (frontier ());
  Alcotest.(check int) "no further gaps" 2
    (counter_total reg "replicate_gap_detected_total")

(* A sibling claim whose stableVec raises nothing costs no allocation,
   even with a visibility sample pending: the uniformVec recompute
   selects in place and the visibility flush only scans. A claim that
   does raise uniformVec still releases the sample. *)
let test_idle_claim_allocates_nothing () =
  let cfg =
    U.Config.default ~topo:(Util.default_topo ()) ~partitions:4 ~f:1 ~seed:42
      ~measure_visibility:true ()
  in
  let sys = U.System.create cfg in
  let r = U.System.replica sys ~dc:0 ~part:0 in
  let origin = 1 in
  let samples () =
    match
      U.History.visibility_samples (U.System.history sys) ~observer:0 ~origin
    with
    | None -> 0
    | Some s -> Sim.Stats.count s
  in
  U.Replica.handle r
    (U.Msg.Replicate
       {
         origin;
         txs = [ stream_tx ~origin ~ts:100 ~key:0 ~v:1 ];
         from_ts = 0;
         claim = empty_claim;
       });
  let zero = Vclock.Vc.create ~dcs:3 in
  let idle =
    U.Msg.Knownvec_global { dc = 2; claim = { vec = zero; stable = Some zero } }
  in
  let w0 = Gc.minor_words () in
  U.Replica.handle r idle;
  let words = Gc.minor_words () -. w0 in
  Alcotest.(check (float 0.)) "no words allocated" 0. words;
  Alcotest.(check int) "the sample stays pending" 0 (samples ());
  let raised = Vclock.Vc.of_array [| 0; 100; 0; 0 |] in
  U.Replica.handle r (U.Msg.Stable_down { vec = raised });
  U.Replica.handle r
    (U.Msg.Knownvec_global
       { dc = 2; claim = { vec = zero; stable = Some raised } });
  Alcotest.(check int) "uniformVec covers the sample" 100
    (Vclock.Vc.get (U.Replica.uniform_vec r) origin);
  Alcotest.(check int) "the sample is released" 1 (samples ())

(* [Stream_log] against list references, over random insertion orders
   with ties and out-of-order backfills: entry [i] of the generated list
   is inserted [i]-th, at that origin timestamp. *)
let qcheck_stream_log =
  let origin = 1 in
  let ts tx = Vclock.Vc.get tx.U.Types.tx_vec origin in
  let seqs = List.map (fun tx -> tx.U.Types.tx_tid.sq) in
  QCheck.Test.make ~name:"stream logs keep origin order" ~count:500
    QCheck.(
      triple
        (list_of_size Gen.(0 -- 40) (int_range 0 15))
        (int_range (-1) 16) (int_range (-1) 16))
    (fun (tss, lo, hi) ->
      let txs =
        List.mapi
          (fun i t ->
            stream_tx_as ~tid:{ cl = 0; sq = i } ~origin ~ts:t ~key:0 ~v:i)
          tss
      in
      let build () =
        let log = U.Stream_log.create ~origin in
        List.iter (U.Stream_log.push log) txs;
        log
      in
      (* newest first, equal timestamps newest inserted first: the log
         holds exactly this order reversed *)
      let reference =
        List.rev
          (List.stable_sort (fun a b -> compare (ts b) (ts a)) (List.rev txs))
      in
      let in_range tx = ts tx > lo && ts tx <= hi in
      let log = build () in
      let range = U.Stream_log.range log ~lo ~hi in
      let dropped = build () in
      U.Stream_log.drop_through dropped lo;
      let taken_from = build () in
      let taken = U.Stream_log.take_through taken_from lo in
      seqs (U.Stream_log.to_list log) = seqs reference
      && U.Stream_log.length log = List.length txs
      && seqs (U.Stream_log.to_list dropped)
         = seqs (List.filter (fun tx -> ts tx > lo) reference)
      && seqs taken = seqs (List.filter (fun tx -> ts tx <= lo) reference)
      && seqs (U.Stream_log.to_list taken_from)
         = seqs (List.filter (fun tx -> ts tx > lo) reference)
      && seqs range = seqs (List.filter in_range reference))

(* The transaction stamps of every [Repair_log] of [origin]'s stream the
   rig's replica sent to [dc], oldest message first. *)
let repair_logs sent ~dc ~origin =
  List.filter_map
    (fun (to_dc, m) ->
      match m with
      | U.Msg.Repair_log { origin = o; txs; _ } when to_dc = dc && o = origin
        ->
          Some (List.map (fun tx -> Vclock.Vc.get tx.U.Types.tx_vec origin) txs)
      | _ -> None)
    (List.rev sent)

(* A replica that rejoined by WAN snapshot holds no stream transaction
   below the snapshot's cut: its retained logs restart empty there. It
   must refuse a repair window starting below the cut (serving it would
   vouch, through [covered], for transactions it never held, and the
   requester would jump over them), and still serve one starting at the
   cut. *)
let test_repair_refused_below_snapshot_cut () =
  let eng, r, probes, sent = Util.probe_rig () in
  let zero = Vclock.Vc.create ~dcs:3 in
  let cut = Vclock.Vc.of_array [| 0; 1_000; 0; 0 |] in
  U.Replica.begin_rejoin r ~on_done:(fun () -> ());
  U.Replica.handle r (U.Msg.Sync_store { entries = []; cut });
  List.iter
    (fun dc ->
      U.Replica.handle r
        (U.Msg.Knownvec_global { dc; claim = { vec = zero; stable = None } }))
    [ 1; 2 ];
  Alcotest.(check bool) "the rejoin finished" false (U.Replica.is_syncing r);
  let request ~vec_from ~sq =
    U.Replica.handle r
      (U.Msg.Repair_request
         { from = probes.(2); origin = 1; vec_from; upto = 1_000; sq })
  in
  request ~vec_from:500 ~sq:5;
  request ~vec_from:1_000 ~sq:6;
  Sim.Engine.run ~until:300_000 eng;
  let replies =
    List.filter_map
      (fun (dc, m) ->
        match m with
        | U.Msg.Repair_log { origin = 1; covered; sq; _ } when dc = 2 ->
            Some (sq, covered)
        | _ -> None)
      (List.rev !sent)
  in
  Alcotest.(check (list (pair int int)))
    "only the window from the cut is served, covering to the cut"
    [ (6, 1_000) ] replies

(* Every sender ships a stream batch oldest first: [apply_batch] applies
   in arrival order and drops what falls at or below the frontier, so it
   relies on that. An isolated dc0 replica whose own retained log took a
   backfill (a restored own commit repaired in below a newer entry)
   serves a repair pull of its own stream in order. Suspecting dc1, it
   pushes nothing of dc1's stream to dc2: dc1's window arrives at dc2 by
   pull, oldest first. *)
let test_senders_ship_in_stream_order () =
  let eng, r, probes, sent = Util.probe_rig () in
  let repair ~origin txs =
    U.Replica.handle r
      (U.Msg.Repair_log
         { origin; txs; from_ts = 0; covered = 0; last = true; sq = 0 })
  in
  (* own commit [a] (ts 200) sits unshipped; a repair of our own stream
     brings the newer [b] (ts 300), then [a] itself, which proves a peer
     holds it and moves it into the retained log below [b] *)
  let a = stream_tx ~origin:0 ~ts:200 ~key:0 ~v:1 in
  let b = stream_tx ~origin:0 ~ts:300 ~key:0 ~v:2 in
  U.Replica.handle r
    (U.Msg.Prepare
       { from = probes.(0); tid = a.tx_tid; writes = a.tx_writes;
         snap = Vclock.Vc.create ~dcs:3 });
  U.Replica.handle r
    (U.Msg.Commit { tid = a.tx_tid; vec = a.tx_vec; lc = 200; origin = 0 });
  repair ~origin:0 [ b ];
  repair ~origin:0 [ a ];
  Alcotest.(check int) "both own transactions retained" 2
    (U.Stream_log.length (U.Replica.stream_log r ~origin:0));
  let c ts = stream_tx ~origin:1 ~ts ~key:0 ~v:ts in
  U.Replica.handle r
    (U.Msg.Replicate
       { origin = 1; txs = [ c 100; c 250 ]; from_ts = 0;
         claim = empty_claim });
  U.Replica.handle r
    (U.Msg.Replicate
       { origin = 1; txs = [ c 400 ]; from_ts = 250; claim = empty_claim });
  U.Replica.handle r
    (U.Msg.Repair_request
       { from = probes.(1); origin = 0; vec_from = 0; upto = 300; sq = 9 });
  U.Replica.suspect r 1;
  U.Replica.start_timers r;
  Sim.Engine.run ~until:300_000 eng;
  Alcotest.(check (list (list int))) "repair reply ascends" [ [ 200; 300 ] ]
    (repair_logs !sent ~dc:1 ~origin:0);
  Alcotest.(check bool) "nothing of dc1's stream is pushed to dc2" false
    (List.exists
       (function
         | ( 2,
             ( U.Msg.Replicate { origin = 1; _ }
             | U.Msg.Heartbeat { origin = 1; _ } ) ) ->
             true
         | _ -> false)
       !sent);
  U.Replica.handle r
    (U.Msg.Repair_request
       { from = probes.(2); origin = 1; vec_from = 0; upto = 400; sq = 3 });
  Sim.Engine.run ~until:400_000 eng;
  Alcotest.(check (list (list int))) "dc1's window arrives by pull, ascending"
    [ [ 100; 250; 400 ] ]
    (repair_logs !sent ~dc:2 ~origin:1)

(* The rig's dc0 replica holds dc1's stream to 100 and suspects dc1.
   dc2's claim says it holds dc1's stream to 400 and how far its own
   entry runs: [own] = 400 + a full Ω timeout means dc2 stopped hearing
   dc1 too. Returns the [Repair_request]s for dc1's stream the replica
   sent to dc2 within 300 ms, as (vec_from, upto). *)
let pull_requests ~own =
  let eng, r, _, sent = Util.probe_rig () in
  U.Replica.handle r
    (U.Msg.Replicate
       { origin = 1; txs = [ stream_tx ~origin:1 ~ts:100 ~key:0 ~v:1 ];
         from_ts = 0; claim = empty_claim });
  U.Replica.handle r
    (U.Msg.Knownvec_global
       { dc = 2;
         claim = { vec = Vclock.Vc.of_array [| 0; 400; own; 0 |];
                   stable = None } });
  U.Replica.suspect r 1;
  U.Replica.start_timers r;
  Sim.Engine.run ~until:300_000 eng;
  List.filter_map
    (function
      | 2, U.Msg.Repair_request { origin = 1; vec_from; upto; _ } ->
          Some (vec_from, upto)
      | _ -> None)
    (List.rev !sent)

(* A4's forwarding as a pull: a sibling whose claim holds a suspected
   origin's stream further, and who stopped hearing the origin itself,
   is asked for the window — once per round, not once per tick. While
   the holder still hears the origin, nothing is asked: the origin's
   own stream still reaches everyone it can. *)
let test_suspected_stream_pulled_from_holder () =
  let timeout = U.Config.detection_delay_us in
  Alcotest.(check (list (pair int int)))
    "one round asks the holder for (100, 400]" [ (100, 400) ]
    (pull_requests ~own:(400 + timeout + 1));
  Alcotest.(check (list (pair int int)))
    "a holder still hearing the origin is not asked" []
    (pull_requests ~own:(400 + timeout))

(* The forwarding storm's regression: a destination trailing on a
   crashed origin's stream used to be re-sent the whole retained window
   on every propagate tick until its gossiped claim caught up. Now it
   gets the window once per repair round it starts: one request, one
   reply, however many ticks pass. *)
let test_trailing_destination_gets_window_once_per_round () =
  let eng, r, probes, sent = Util.probe_rig () in
  let c ts = stream_tx ~origin:1 ~ts ~key:0 ~v:ts in
  U.Replica.handle r
    (U.Msg.Replicate
       { origin = 1; txs = [ c 100; c 250; c 400 ]; from_ts = 0;
         claim = empty_claim });
  U.Replica.suspect r 1;
  U.Replica.start_timers r;
  (* dc2 trails at 100 on dc1's stream and keeps saying so *)
  let trailing = Vclock.Vc.of_array [| 0; 100; 0; 0 |] in
  for tick = 0 to 59 do
    Sim.Engine.run ~until:(tick * 5_000) eng;
    U.Replica.handle r
      (U.Msg.Knownvec_global
         { dc = 2; claim = { vec = trailing; stable = None } })
  done;
  U.Replica.handle r
    (U.Msg.Repair_request
       { from = probes.(2); origin = 1; vec_from = 100; upto = 400; sq = 1 });
  Sim.Engine.run ~until:600_000 eng;
  let carrying =
    List.filter
      (function
        | ( 2,
            ( U.Msg.Replicate { origin = 1; _ }
            | U.Msg.Repair_log { origin = 1; _ } ) ) ->
            true
        | _ -> false)
      !sent
  in
  Alcotest.(check int) "one message carries dc1's window to dc2" 1
    (List.length carrying);
  Alcotest.(check (list (list int))) "the window above dc2's frontier"
    [ [ 250; 400 ] ]
    (repair_logs !sent ~dc:2 ~origin:1)

(* Certification retries run off one watchdog timer per replica. Three
   certifications nobody answers, two submitted at 0.1 s and one at
   1.1 s: each re-sends its PREPARE_STRONG at exactly its submit time
   plus k × [cert_retry_us], the two due at one instant in submission
   order, and a certification that finished is not re-sent. While
   certifications are pending and the network is idle, the replica
   holds one engine event, not one per certification. *)
let test_cert_retry_watchdog () =
  let reg = Sim.Metrics.create () in
  let eng, r, _, sent = Util.probe_rig ~reg () in
  let period = 2_000_000 (* [Strong_coord.cert_retry_us], internal *) in
  let tid n = { U.Types.cl = 7; sq = n } in
  let submit n =
    U.Replica.certify r ~caller:U.Msg.Normal
      {
        U.Msg.st_tid = tid n;
        st_origin = 7;
        st_wbuff =
          [ (0, [ { U.Types.wkey = n; wop = Crdt.Ctr_add 1; wcls = 0 } ]) ];
        st_ops = [];
        st_snap = Vclock.Vc.create ~dcs:3;
      }
      ~lc:0 ~k:(fun _ -> ())
  in
  Sim.Engine.schedule_at eng ~time:100_000 (fun () -> submit 1; submit 2);
  Sim.Engine.schedule_at eng ~time:1_100_000 (fun () -> submit 3);
  let prepares_by time =
    Sim.Engine.run ~until:time eng;
    List.fold_left
      (fun acc (labels, c) ->
        if List.assoc_opt "kind" labels = Some "prepare_strong" then
          acc + Sim.Metrics.counter_value c
        else acc)
      0
      (Sim.Metrics.counters_matching reg "net_sent_total")
  in
  let check_sent time n =
    Alcotest.(check int) (Fmt.str "PREPARE_STRONGs sent by %d us" time) n
      (prepares_by time)
  in
  check_sent 1_000_000 2;
  Alcotest.(check int)
    "two pending events: the watchdog and the third submission" 2
    (Sim.Engine.pending_events eng);
  check_sent 1_200_000 3;
  Alcotest.(check int) "one pending event for three certifications" 1
    (Sim.Engine.pending_events eng);
  check_sent (100_000 + period - 1) 3;
  check_sent (100_000 + period) 5;
  check_sent (1_100_000 + period - 1) 5;
  check_sent (1_100_000 + period) 6;
  (* certification 2 finishes: it is not re-sent *)
  let rid2 =
    List.find_map
      (fun (_, m) ->
        match m with
        | U.Msg.Prepare_strong { rid; tx; _ }
          when U.Types.tid_equal tx.st_tid (tid 2) ->
            Some rid
        | _ -> None)
      !sent
    |> Option.get
  in
  U.Replica.handle r
    (U.Msg.Already_decided
       { rid = rid2; dec = false;
         record =
           U.Types.tx_rec ~tid:(tid 2) ~writes:[] ~vec:(Vclock.Vc.create ~dcs:3)
             ~lc:0 ~origin:0 });
  check_sent (100_000 + (2 * period) - 1) 6;
  check_sent (100_000 + (2 * period)) 7;
  check_sent (1_100_000 + (2 * period)) 8;
  Sim.Engine.run ~until:(1_200_000 + (2 * period)) eng;
  let order =
    List.filter_map
      (fun (_, m) ->
        match m with
        | U.Msg.Prepare_strong { tx; _ } -> Some tx.st_tid.sq
        | _ -> None)
      (List.rev !sent)
  in
  Alcotest.(check (list int)) "re-sends in submission order"
    [ 1; 2; 3; 1; 2; 3; 1; 3 ] order

let suite =
  [
    Alcotest.test_case "strong multi-partition atomicity" `Slow
      test_strong_multipartition_atomicity;
    Alcotest.test_case "read-only strong transaction" `Quick
      test_read_only_strong_in_unistore;
    Alcotest.test_case "repeated migration keeps the session" `Slow
      test_repeated_migration;
    Alcotest.test_case "hybrid clocks stay consistent at 50ms skew" `Slow
      test_hlc_mode_consistency;
    Alcotest.test_case "hybrid clocks avoid physical waits" `Quick
      test_hlc_commit_faster_than_physical_wait;
    Alcotest.test_case "LWW arbitration across DCs" `Quick
      test_lww_cross_dc_arbitration;
    Alcotest.test_case "empty transactions" `Quick test_empty_transaction;
    Alcotest.test_case "interleaved sessions stay isolated" `Quick
      test_interleaved_sessions_share_coordinators;
    Alcotest.test_case "heartbeat frontier jumps obey stream continuity"
      `Quick test_heartbeat_continuity;
    Alcotest.test_case "gap detect, then repair, then frontier jump" `Quick
      test_gap_repair_frontier_order;
    Alcotest.test_case "a claim raising nothing allocates nothing" `Quick
      test_idle_claim_allocates_nothing;
    QCheck_alcotest.to_alcotest qcheck_stream_log;
    Alcotest.test_case "senders ship stream batches oldest first" `Quick
      test_senders_ship_in_stream_order;
    Alcotest.test_case "repair refuses a window below the snapshot cut"
      `Quick test_repair_refused_below_snapshot_cut;
    Alcotest.test_case "a suspected origin's stream is pulled from its holder"
      `Quick test_suspected_stream_pulled_from_holder;
    Alcotest.test_case "a trailing DC gets a crashed origin's window once \
                        per round"
      `Quick test_trailing_destination_gets_window_once_per_round;
    Alcotest.test_case "certification retries share one watchdog timer"
      `Quick test_cert_retry_watchdog;
  ]
