(* Stream logs: the steady-state push and the prune from the old end
   allocate nothing, and backfills and removals keep the order. Order against list references is the property
   "stream logs keep origin order" in [Test_protocol_edge]. *)

module U = Unistore

let origin = 0

let tx ts =
  let vec = Vclock.Vc.create ~dcs:2 in
  Vclock.Vc.set vec origin ts;
  U.Types.tx_rec ~tid:{ cl = 0; sq = ts } ~writes:[] ~vec ~lc:ts ~origin:0

(* A log holding timestamps 1..n, pushed in order. *)
let filled n =
  let log = U.Stream_log.create ~origin in
  for ts = 1 to n do
    U.Stream_log.push log (tx ts)
  done;
  log

let words f =
  let w0 = Gc.minor_words () in
  f ();
  Gc.minor_words () -. w0

let test_push_no_alloc () =
  let log = filled 8 in
  let txs = Array.init 8 (fun i -> tx (9 + i)) in
  let w =
    words (fun () ->
        for i = 0 to 7 do
          U.Stream_log.push log txs.(i)
        done)
  in
  Alcotest.(check (float 0.)) "no words for pushes into room" 0. w;
  Alcotest.(check int) "all sixteen held" 16 (U.Stream_log.length log)

let test_prune_no_alloc () =
  let log = filled 40 in
  let w = words (fun () -> U.Stream_log.drop_through log 0) in
  Alcotest.(check (float 0.)) "a prune that drops nothing" 0. w;
  Alcotest.(check int) "nothing dropped" 40 (U.Stream_log.length log);
  let w = words (fun () -> U.Stream_log.drop_through log 20) in
  Alcotest.(check (float 0.)) "a prune that drops twenty" 0. w;
  Alcotest.(check int) "twenty left" 20 (U.Stream_log.length log);
  Alcotest.(check (list int)) "the newest twenty, oldest first"
    (List.init 20 (fun i -> 21 + i))
    (List.map (fun t -> t.U.Types.tx_lc) (U.Stream_log.to_list log))

(* Pushing and pruning in step, as the replication stream does, holds
   the ring at its size: the wrap-around allocates nothing. *)
let test_steady_state_ring () =
  let log = filled 16 in
  U.Stream_log.drop_through log 12;
  let txs = Array.init 200 (fun i -> tx (17 + i)) in
  let w =
    words (fun () ->
        for i = 0 to 199 do
          U.Stream_log.push log txs.(i);
          if i mod 4 = 3 then U.Stream_log.drop_through log (13 + i)
        done)
  in
  Alcotest.(check (float 0.)) "no words while wrapping" 0. w;
  Alcotest.(check (list int)) "the window left"
    (List.init 4 (fun i -> 213 + i))
    (List.map (fun t -> t.U.Types.tx_lc) (U.Stream_log.to_list log))

let test_backfill_and_remove () =
  let log = U.Stream_log.create ~origin in
  List.iter (fun ts -> U.Stream_log.push log (tx ts)) [ 10; 30; 20; 30; 5 ];
  Alcotest.(check (list int)) "backfills land in order" [ 5; 10; 20; 30; 30 ]
    (List.map (fun t -> t.U.Types.tx_lc) (U.Stream_log.to_list log));
  Alcotest.(check bool) "removes both entries of a tid" true
    (U.Stream_log.remove log { cl = 0; sq = 30 });
  Alcotest.(check bool) "an absent tid" false
    (U.Stream_log.remove log { cl = 0; sq = 30 });
  Alcotest.(check (list int)) "the rest in order" [ 5; 10; 20 ]
    (List.map (fun t -> t.U.Types.tx_lc) (U.Stream_log.to_list log))

(* A rejoin snapshot leaves out the writes of unshipped commits by
   recognising their entries' commit vector physically: every entry a
   record builds shares the record's vector array, and an equal copy is
   not recognised. *)
let test_entries_share_the_record_vector () =
  let vec = Vclock.Vc.create ~dcs:2 in
  Vclock.Vc.set vec origin 7;
  let w key = { U.Types.wkey = key; wop = Crdt.Reg_write key; wcls = 0 } in
  let r =
    U.Types.tx_rec ~tid:{ cl = 0; sq = 7 } ~writes:[ w 1; w 2 ] ~vec ~lc:7
      ~origin:0
  in
  let log = U.Stream_log.create ~origin in
  U.Stream_log.push log r;
  Alcotest.(check int) "one entry per write" 2 (List.length r.tx_entries);
  Alcotest.(check bool) "each entry is recognised" true
    (List.for_all
       (fun (e : Store.Oplog.entry) -> U.Stream_log.mem_vec log e.vec)
       r.tx_entries);
  Alcotest.(check bool) "an equal copy is not" false
    (U.Stream_log.mem_vec log (Vclock.Vc.copy vec))

let suite =
  [
    Alcotest.test_case "steady-state push allocates nothing" `Quick
      test_push_no_alloc;
    Alcotest.test_case "prune allocates nothing" `Quick test_prune_no_alloc;
    Alcotest.test_case "ring wraps without allocating" `Quick
      test_steady_state_ring;
    Alcotest.test_case "backfill and remove keep order" `Quick
      test_backfill_and_remove;
    Alcotest.test_case "entries share the record's vector" `Quick
      test_entries_share_the_record_vector;
  ]
