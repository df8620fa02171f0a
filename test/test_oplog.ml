(* Per-key operation logs: snapshot reads, ordering, the live entry
   count and the snapshot copy-out. *)

module Vc = Vclock.Vc

let vec entries =
  let v = Vc.create ~dcs:2 in
  List.iteri (fun i x -> Vc.set v i x) entries;
  v

let tag lc origin = { Crdt.lc; origin }
let entry op vec tag = { Store.Oplog.op; vec; tag }
let value_t = Alcotest.testable Crdt.value_pp ( = )

let test_empty_read () =
  let log = Store.Oplog.create () in
  let v, lc = Store.Oplog.read log 1 ~snap:(vec [ 10; 10 ]) in
  Alcotest.check value_t "no version" Crdt.V_none v;
  Alcotest.(check (option int)) "no lamport" None lc

let test_snapshot_filtering () =
  let log = Store.Oplog.create () in
  Store.Oplog.append log 1 (entry (Crdt.Reg_write 1) (vec [ 1; 0 ]) (tag 1 0));
  Store.Oplog.append log 1 (entry (Crdt.Reg_write 2) (vec [ 5; 0 ]) (tag 2 0));
  Store.Oplog.append log 1 (entry (Crdt.Reg_write 3) (vec [ 9; 0 ]) (tag 3 0));
  let v, lc = Store.Oplog.read log 1 ~snap:(vec [ 6; 0 ]) in
  Alcotest.check value_t "snapshot excludes newer write" (Crdt.V_int 2) v;
  Alcotest.(check (option int)) "lamport of winner" (Some 2) lc;
  let v, _ = Store.Oplog.read log 1 ~snap:(vec [ 100; 100 ]) in
  Alcotest.check value_t "full snapshot sees last write" (Crdt.V_int 3) v;
  let v, _ = Store.Oplog.read log 1 ~snap:(vec [ 0; 0 ]) in
  Alcotest.check value_t "empty snapshot sees nothing" Crdt.V_none v

let test_lww_across_origins () =
  let log = Store.Oplog.create () in
  (* concurrent writes from two DCs: the higher Lamport tag must win
     regardless of append order *)
  Store.Oplog.append log 7 (entry (Crdt.Reg_write 10) (vec [ 0; 3 ]) (tag 9 1));
  Store.Oplog.append log 7 (entry (Crdt.Reg_write 20) (vec [ 3; 0 ]) (tag 4 0));
  let v, lc = Store.Oplog.read log 7 ~snap:(vec [ 5; 5 ]) in
  Alcotest.check value_t "higher tag wins" (Crdt.V_int 10) v;
  Alcotest.(check (option int)) "its lamport" (Some 9) lc

let test_counter_fold () =
  let log = Store.Oplog.create () in
  Store.Oplog.append log 2 (entry (Crdt.Ctr_add 5) (vec [ 1; 0 ]) (tag 1 0));
  Store.Oplog.append log 2 (entry (Crdt.Ctr_add 3) (vec [ 0; 1 ]) (tag 1 1));
  Store.Oplog.append log 2 (entry (Crdt.Ctr_add 2) (vec [ 2; 0 ]) (tag 2 0));
  let v, _ = Store.Oplog.read log 2 ~snap:(vec [ 1; 1 ]) in
  Alcotest.check value_t "partial sum" (Crdt.V_int 8) v;
  let v, _ = Store.Oplog.read log 2 ~snap:(vec [ 9; 9 ]) in
  Alcotest.check value_t "full sum" (Crdt.V_int 10) v

let test_entries_order () =
  let log = Store.Oplog.create () in
  Store.Oplog.append log 3 (entry (Crdt.Reg_write 1) (vec [ 1; 0 ]) (tag 5 0));
  Store.Oplog.append log 3 (entry (Crdt.Reg_write 2) (vec [ 2; 0 ]) (tag 1 0));
  Store.Oplog.append log 3 (entry (Crdt.Reg_write 3) (vec [ 3; 0 ]) (tag 9 0));
  let tags =
    List.map (fun e -> e.Store.Oplog.tag.Crdt.lc) (Store.Oplog.entries log 3)
  in
  Alcotest.(check (list int)) "descending tag order" [ 9; 5; 1 ] tags;
  Alcotest.(check int) "version count" 3 (Store.Oplog.version_count log 3);
  Alcotest.(check int) "appends" 3 (Store.Oplog.appended log)

let test_same_txn_double_write () =
  (* two writes to the same key in one transaction share the tag; the
     later one must win *)
  let log = Store.Oplog.create () in
  Store.Oplog.append log 4 (entry (Crdt.Reg_write 1) (vec [ 1; 0 ]) (tag 3 0));
  Store.Oplog.append log 4 (entry (Crdt.Reg_write 2) (vec [ 1; 0 ]) (tag 3 0));
  let v, _ = Store.Oplog.read log 4 ~snap:(vec [ 2; 2 ]) in
  Alcotest.check value_t "second write of the txn wins" (Crdt.V_int 2) v

let qcheck_read_matches_fold =
  (* a snapshot read equals folding exactly the in-snapshot entries *)
  QCheck.Test.make ~name:"snapshot read equals direct fold" ~count:300
    QCheck.(
      make
        Gen.(
          list_size (int_range 0 30)
            (triple (int_bound 20) (int_bound 20) (int_bound 100))))
    (fun writes ->
      let log = Store.Oplog.create () in
      List.iteri
        (fun i (a, b, v) ->
          Store.Oplog.append log 1 (entry (Crdt.Reg_write v) (vec [ a; b ]) (tag i 0)))
        writes;
      let snap = vec [ 10; 10 ] in
      let got, _ = Store.Oplog.read log 1 ~snap in
      let expected =
        List.fold_left
          (fun st (i, (a, b, v)) ->
            if Vc.leq (vec [ a; b ]) snap then
              Crdt.apply st (Crdt.Reg_write v) ~tag:(tag i 0) ~vec:(vec [ a; b ])
            else st)
          Crdt.empty
          (List.mapi (fun i w -> (i, w)) writes)
        |> Crdt.read
      in
      got = expected)

(* The live entry count follows appends and clears, and the snapshot
   holds every key with its entry list itself, in the order of [keys]. *)
let qcheck_count_and_snapshot =
  QCheck.Test.make ~name:"live count and snapshot follow the log" ~count:200
    QCheck.(list_of_size Gen.(0 -- 60) (option (int_bound 12)))
    (fun steps ->
      let log = Store.Oplog.create () in
      List.iteri
        (fun i -> function
          | Some key ->
              Store.Oplog.append log key (entry (Crdt.Reg_write i) (vec [ i; 0 ]) (tag i 0))
          | None -> Store.Oplog.clear log)
        steps;
      let keys = Store.Oplog.keys log in
      let snap_keys, snap_entries = Store.Oplog.snapshot log in
      Store.Oplog.length log
      = List.fold_left (fun acc k -> acc + Store.Oplog.version_count log k) 0 keys
      && Array.to_list snap_keys = keys
      && Array.for_all2
           (fun k es -> es == Store.Oplog.entries log k)
           snap_keys snap_entries)

(* Replicas share one preloaded t0 list: a write at one replica conses
   onto it and leaves the others' lists (physically) and reads as they
   were. *)
let test_shared_t0_write () =
  let t0 = [ { Store.Oplog.op = Crdt.Reg_write 7; vec = vec [ 0; 0 ]; tag = tag 0 (-1) } ] in
  let logs = Array.init 3 (fun _ -> Store.Oplog.create ()) in
  Array.iter (fun log -> Store.Oplog.install log 5 t0) logs;
  Store.Oplog.append logs.(0) 5 (entry (Crdt.Reg_write 9) (vec [ 1; 0 ]) (tag 1 0));
  let snap = vec [ 5; 5 ] in
  let v, _ = Store.Oplog.read logs.(0) 5 ~snap in
  Alcotest.check value_t "the writer reads its write" (Crdt.V_int 9) v;
  Alcotest.(check int) "the writer holds two versions" 2
    (Store.Oplog.version_count logs.(0) 5);
  Alcotest.(check bool) "on the shared tail" true
    (List.tl (Store.Oplog.entries logs.(0) 5) == t0);
  for i = 1 to 2 do
    Alcotest.(check bool) (Printf.sprintf "replica %d keeps the shared list" i) true
      (Store.Oplog.entries logs.(i) 5 == t0);
    let v, lc = Store.Oplog.read logs.(i) 5 ~snap in
    Alcotest.check value_t (Printf.sprintf "replica %d reads t0" i) (Crdt.V_int 7) v;
    Alcotest.(check (option int)) (Printf.sprintf "replica %d t0 clock" i) (Some 0) lc
  done

(* [append] holds the entry it is given by reference: two logs that
   append one entry share it, and each pays only for its list cell. *)
let test_append_shares_entry () =
  let e = entry (Crdt.Reg_write 4) (vec [ 2; 0 ]) (tag 2 0) in
  let logs = Array.init 2 (fun _ -> Store.Oplog.create ()) in
  Store.Oplog.append logs.(0) 6 (entry (Crdt.Reg_write 1) (vec [ 1; 0 ]) (tag 1 0));
  Array.iter (fun log -> Store.Oplog.append log 6 e) logs;
  Array.iteri
    (fun i log ->
      Alcotest.(check bool) (Printf.sprintf "log %d holds the entry itself" i) true
        (List.hd (Store.Oplog.entries log 6) == e))
    logs;
  Alcotest.(check (list int)) "ordered by tag" [ 2; 1 ]
    (List.map (fun e -> e.Store.Oplog.tag.Crdt.lc) (Store.Oplog.entries logs.(0) 6))

(* [install] counts as one append per entry, and only into a key that
   holds no version. *)
let test_install_counts () =
  let log = Store.Oplog.create () in
  let e lc v = { Store.Oplog.op = Crdt.Reg_write v; vec = vec [ lc; 0 ]; tag = tag lc 0 } in
  Store.Oplog.install log 1 [ e 3 30; e 1 10 ];
  Alcotest.(check int) "two entries held" 2 (Store.Oplog.length log);
  Alcotest.(check int) "two appends" 2 (Store.Oplog.appended log);
  Store.Oplog.append log 2 (entry (Crdt.Reg_write 5) (vec [ 1; 0 ]) (tag 1 0));
  Alcotest.check_raises "a key with versions is refused"
    (Invalid_argument "Oplog.install: key has versions") (fun () ->
      Store.Oplog.install log 2 [ e 4 40 ]);
  Alcotest.(check int) "three entries held" 3 (Store.Oplog.length log);
  Store.Oplog.clear log;
  Store.Oplog.install log 2 [ e 4 40 ];
  Alcotest.(check int) "after a clear: one entry held" 1 (Store.Oplog.length log);
  Alcotest.(check int) "appends survive the clear" 4 (Store.Oplog.appended log)

let suite =
  [
    Alcotest.test_case "reading an absent key" `Quick test_empty_read;
    Alcotest.test_case "snapshot filters versions" `Quick
      test_snapshot_filtering;
    Alcotest.test_case "LWW across origins" `Quick test_lww_across_origins;
    Alcotest.test_case "counter folds in-snapshot entries" `Quick
      test_counter_fold;
    Alcotest.test_case "entries kept in tag order" `Quick test_entries_order;
    Alcotest.test_case "double write in one txn" `Quick
      test_same_txn_double_write;
    Alcotest.test_case "a write to a shared t0 list stays local" `Quick
      test_shared_t0_write;
    Alcotest.test_case "append shares the entry" `Quick test_append_shares_entry;
    Alcotest.test_case "install counts its entries" `Quick test_install_counts;
    QCheck_alcotest.to_alcotest qcheck_read_matches_fold;
    QCheck_alcotest.to_alcotest qcheck_count_and_snapshot;
  ]
